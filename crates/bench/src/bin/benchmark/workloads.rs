//! The four workloads: what each one runs, how it is set up, its op, and
//! how its outputs are checked. Every knob keeps its default except the
//! ones a workload is defined by, and each workload builds all of its
//! configuration in one function (`release_default`, `release_scale`,
//! `durable_resume_config`, `reason_suda`), so a later change to a
//! default shows up here without editing the benchmark.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vadalog::{parse_program, Engine, EngineConfig, Program, StorageEngine, Value};
use vadasa_core::cycle::CycleOutcome;
use vadasa_core::journal::record::{self, JournalRecord};
use vadasa_core::journal::{JournalProfile, JOURNAL_FILE};
use vadasa_core::obs::{Collector, Obs, Recorder};
use vadasa_core::prelude::*;
use vadasa_core::programs::{alg6_suda, microdata_to_facts, ALG2_TUPLE_REIFICATION};
use vadasa_datagen::generator::Regime;

use crate::check::{check_all, check_release, Release, Tally, Verdict};
use crate::data::{self, Table};
use crate::metrics::{self, median, Record, E2E};
use crate::probes::{self, Layers, ProbeInput};
use crate::reference;
use crate::sys::{self, CpuClock};

/// One workload: its name and why it exists. `nominal_ops` is the op
/// count one default-length run reaches on the reference machine (2
/// cores); it fixes the tail percentile the record reports.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub nominal_ops: usize,
    /// Journal flush policy on the op's blocking path.
    pub flush: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "release-default",
        why: "The default cycle on a 12k-row table: the per-tuple select+suppress step dominates, risk scoring is ~3%",
        nominal_ops: 220,
        flush: "none",
    },
    WorkloadDef {
        name: "release-scale",
        why: "100k rows, TopN(64) batches: risk evaluation dominates and the per-tuple step is bypassed",
        nominal_ops: 130,
        flush: "none",
    },
    WorkloadDef {
        name: "durable-resume",
        why: "Journaled run, cut after the last snapshot, warm resume: fsync, snapshot, artifact and recovery on the path",
        nominal_ops: 100,
        flush: "every-record",
    },
    WorkloadDef {
        name: "reason-suda",
        why: "SUDA on the Vadalog engine (recursion, negation, aggregation), then a native release: the engine dominates",
        nominal_ops: 130,
        flush: "none",
    },
];

impl WorkloadDef {
    /// The tail percentile: fixed per workload, so a faster program is
    /// not judged on a higher percentile than a slower one.
    pub fn tail_q(&self) -> f64 {
        metrics::tail_quantile(self.nominal_ops)
    }
}

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How one run is made.
pub struct Opts {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    /// Per-run scratch directory (job roots, journals); removed afterwards.
    pub scratch: PathBuf,
    /// Where a traced run writes its Chrome trace and collapsed stacks.
    pub trace_dir: PathBuf,
}

impl Opts {
    /// Repetitions of every isolated probe.
    pub fn reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Repetitions of set-up, whose median is `setup_s`.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// Ops a smoke run makes per closed-loop workload.
const SMOKE_OPS: usize = 2;

pub fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The telemetry handle of an op: live when the op is traced.
pub fn obs_for(rec: Option<&Arc<Recorder>>) -> Obs<'_> {
    Obs::new(rec.map(|r| r.as_ref() as &dyn Collector))
}

/// Attach the traced run's recorder to a cycle.
fn traced_cycle<'a>(
    cycle: AnonymizationCycle<'a>,
    rec: Option<&Arc<Recorder>>,
) -> AnonymizationCycle<'a> {
    match rec {
        Some(r) => cycle.with_collector(Arc::clone(r) as Arc<dyn Collector>),
        None => cycle,
    }
}

/// Where one op's time went, summed over its cycle calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Split {
    /// The op's latency as the client saw it.
    pub op_ns: u64,
    /// Wall time inside the cycle calls (`CycleProfile::total_ns`).
    pub total_ns: u64,
    /// Wall time inside cycle iterations (Σ `IterationRecord::dur_ns`).
    pub iter_ns: u64,
    /// Wall time inside risk evaluation (`CycleProfile::risk_eval_ns`).
    pub risk_ns: u64,
    /// Cells suppressed by the calls: by iteration steps and by any
    /// degradation fallback (a resumed call's replayed work not included).
    pub nulls: u64,
    /// Cells suppressed by iteration steps only.
    pub step_nulls: u64,
    /// Iterations run by the calls, the final evaluation included.
    pub iterations: u64,
    pub warm_evals: u64,
    pub cold_evals: u64,
    pub fallback_to_cold: u64,
}

impl Split {
    pub fn add(&mut self, out: &CycleOutcome) {
        let p = &out.profile;
        let step_nulls: u64 = p.iterations.iter().map(|r| r.suppressions as u64).sum();
        self.total_ns += p.total_ns;
        self.iter_ns += p.iterations.iter().map(|r| r.dur_ns).sum::<u64>();
        self.risk_ns += p.risk_eval_ns;
        self.step_nulls += step_nulls;
        self.nulls += step_nulls + p.fallback.as_ref().map_or(0, |f| f.cells_suppressed as u64);
        self.iterations += p.iterations.len() as u64;
        self.warm_evals += p.warm.warm_evals;
        self.cold_evals += p.warm.cold_evals;
        self.fallback_to_cold += p.warm.fallback_to_cold;
    }
}

/// The cycle layers of a set of ops: the four parts of op latency
/// (setup + risk evaluation + step + outside = op, exactly) as means per
/// op, and the cycle's counts per op.
pub fn cycle_layers(splits: &[Split], layers: &mut Layers) {
    let n = splits.len().max(1) as f64;
    let sum = |f: fn(&Split) -> u64| splits.iter().map(f).sum::<u64>() as f64;
    let step = sum(|s| s.iter_ns - s.risk_ns);
    layers.set("cycle.step_ms", step / n / 1e6);
    layers.set(
        "cycle.ms_per_suppression",
        step / sum(|s| s.step_nulls).max(1.0) / 1e6,
    );
    layers.set("cycle.risk_eval_ms", sum(|s| s.risk_ns) / n / 1e6);
    layers.set("cycle.setup_ms", sum(|s| s.total_ns - s.iter_ns) / n / 1e6);
    layers.set(
        "cycle.outside_ms",
        sum(|s| s.op_ns.saturating_sub(s.total_ns)) / n / 1e6,
    );
    layers.set("cycle.iterations", sum(|s| s.iterations) / n);
    layers.set("cycle.nulls", sum(|s| s.nulls) / n);
    layers.set("cycle.warm_evals", sum(|s| s.warm_evals) / n);
    layers.set("cycle.cold_evals", sum(|s| s.cold_evals) / n);
    layers.set("cycle.fallback_to_cold", sum(|s| s.fallback_to_cold) / n);
}

/// A workload driven by one client in a closed loop.
trait ClosedLoop {
    /// What an op yields besides its release, for `check_op`.
    type Extra;
    /// The release the loop's ops make.
    fn job(&self) -> &Job;
    /// One op. A traced op gets the run's recorder, which the op attaches
    /// wherever the called API accepts a collector.
    fn op(
        &mut self,
        i: usize,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<(Split, Release, Self::Extra), String>;
    /// The loop's own check of one op's output, on top of the release
    /// check every loop makes. Runs after the timed phase.
    fn check_op(&self, _release: &Release, _extra: &Self::Extra) -> Result<(), String> {
        Ok(())
    }
}

/// What a closed-loop op releases: a table under a measure, with the
/// anonymizer and cycle configuration that release it.
struct Job {
    table: Table,
    measure: Box<dyn RiskMeasure>,
    anonymizer: LocalSuppression,
    config: CycleConfig,
}

impl Job {
    /// One `run` of the job's cycle, as part of an op that began at
    /// `start`: where the op's time went, and the release.
    fn run(&self, rec: Option<&Arc<Recorder>>, start: Instant) -> Result<(Split, Release), String> {
        let cycle = traced_cycle(
            AnonymizationCycle::new(self.measure.as_ref(), &self.anonymizer, self.config.clone()),
            rec,
        );
        let out = {
            let _call = obs_for(rec).span("bench.cycle.run");
            cycle.run(&self.table.db, &self.table.dict)
        };
        let mut split = Split {
            op_ns: ns(start),
            ..Split::default()
        };
        let out = out.map_err(|e| format!("cycle: {e}"))?;
        split.add(&out);
        Ok((split, Release::diff(&self.table.db, &out.db)?))
    }

    /// The independent check of one release of this job.
    fn check(&self, release: &Release) -> Result<Verdict, String> {
        let t = &self.table;
        check_release(
            &t.db,
            &t.dict,
            &release.apply(&t.db),
            self.measure.as_ref(),
            self.config.threshold,
            self.config.semantics,
        )
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            table: &self.table,
            measure: self.measure.as_ref(),
            anonymizer: &self.anonymizer,
            threshold: self.config.threshold,
            semantics: self.config.semantics,
        }
    }
}

// --- release-default / release-scale ------------------------------------

/// 12k rows × 4 QIs, regime U, k-anonymity k = 2, every other knob at its
/// default: the cycle the facade, the server and the paper figures run.
fn release_default(seed: u64) -> Built<Job> {
    let (table, generate_ms) = generated(|| data::survey(12_000, Regime::U, seed));
    let job = Job {
        table,
        measure: Box::new(KAnonymity::new(2)),
        anonymizer: LocalSuppression::default(),
        config: CycleConfig::default(),
    };
    Ok((job, generate_ms))
}

/// 100k `generate_scale` rows, whole-class batches of 64 classes, row
/// order and schema-order suppression. Risk evaluation keeps its default
/// single thread: on a shared 2-vCPU host, an op on both vCPUs waits for
/// whichever one the host stalls, which the reference kernel, on one
/// thread, cannot see (2 threads spread 15–26% from run to run at the
/// reference speed).
fn release_scale(seed: u64) -> Built<Job> {
    let (table, generate_ms) = generated(|| data::scale(100_000, seed));
    let job = Job {
        table,
        measure: Box::new(KAnonymity::new(2)),
        anonymizer: LocalSuppression::new(AttributeOrder::SchemaOrder),
        config: CycleConfig {
            batch: Some(BatchStrategy::TopN(64)),
            tuple_order: TupleOrder::Fifo,
            ..CycleConfig::default()
        },
    };
    Ok((job, generate_ms))
}

/// A release workload runs its job back to back.
impl ClosedLoop for Job {
    type Extra = ();

    fn job(&self) -> &Job {
        self
    }

    fn op(
        &mut self,
        _i: usize,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<(Split, Release, ()), String> {
        let (split, release) = self.run(rec, Instant::now())?;
        Ok((split, release, ()))
    }
}

// --- durable-resume -------------------------------------------------------

/// The durable-resume cycle journaled into `dir`: k-anonymity k = 2,
/// one-tuple steps capped at 40 iterations, every record fsynced, a
/// snapshot every 8 iterations, warm artifacts on the file engine.
pub fn durable_resume_config(dir: &Path) -> (KAnonymity, LocalSuppression, CycleConfig) {
    let config = CycleConfig {
        granularity: StepGranularity::OneTuplePerIteration,
        max_iterations: 40,
        journal: Some(JournalConfig {
            sync: SyncPolicy::EveryRecord,
            snapshot_every: Some(8),
            ..JournalConfig::new(dir)
        }),
        storage: StorageOptions {
            engine: StorageEngine::File,
            ..StorageOptions::default()
        },
        ..CycleConfig::default()
    };
    (KAnonymity::new(2), LocalSuppression::default(), config)
}

/// What one durable round measured and produced.
pub struct DurableRound {
    pub run_ns: u64,
    pub resume_ns: u64,
    pub split: Split,
    /// Journal counters of the run (writes) …
    pub journal: JournalProfile,
    /// … and of the resume (recovery).
    pub recovery: JournalProfile,
    /// Warm-artifact persist failures of the run.
    pub persist_errors: u64,
    pub resumed: CycleOutcome,
}

/// One durable round on `table` in `dir`: a journaled `run`, the journal
/// cut right after its last `Snapshot` frame, then `resume` with the warm
/// artifact on disk. `between` sees the cut directory before the resume.
pub fn durable_round(
    table: &Table,
    dir: &Path,
    rec: Option<&Arc<Recorder>>,
    between: &mut dyn FnMut(&Path) -> Result<(), String>,
) -> Result<DurableRound, String> {
    let (risk, anonymizer, config) = durable_resume_config(dir);
    let cycle = || {
        traced_cycle(
            AnonymizationCycle::new(&risk, &anonymizer, config.clone()),
            rec,
        )
    };
    let obs = obs_for(rec);
    let t = Instant::now();
    let run = {
        let _call = obs.span("bench.cycle.run");
        cycle().run(&table.db, &table.dict)
    };
    let run_ns = ns(t);
    let run = run.map_err(|e| format!("journaled run: {e}"))?;
    {
        let _cut = obs.span("bench.journal.cut");
        cut_after_last_snapshot(dir)?;
    }
    between(dir)?;
    let t = Instant::now();
    let resumed = {
        let _call = obs.span("bench.cycle.resume");
        cycle().resume(&table.db, &table.dict)
    };
    let resume_ns = ns(t);
    let resumed = resumed.map_err(|e| format!("resume: {e}"))?;
    let mut split = Split {
        op_ns: run_ns + resume_ns,
        ..Split::default()
    };
    split.add(&run);
    split.add(&resumed);
    Ok(DurableRound {
        run_ns,
        resume_ns,
        split,
        journal: run.profile.journal,
        recovery: resumed.profile.journal,
        persist_errors: run.profile.warm.persist_errors,
        resumed,
    })
}

/// Truncate the journal right after its last `Snapshot` frame, so that
/// recovery lands exactly on the iteration the warm artifact covers.
fn cut_after_last_snapshot(dir: &Path) -> Result<(), String> {
    let path = dir.join(JOURNAL_FILE);
    let bytes = std::fs::read(&path).map_err(|e| format!("reading journal: {e}"))?;
    let mut cursor = record::MAGIC.len();
    let mut cut = None;
    while cursor < bytes.len() {
        let Ok((rec, next)) = record::decode_frame(&bytes, cursor) else {
            break;
        };
        if matches!(rec, JournalRecord::Snapshot { .. }) {
            cut = Some(next);
        }
        cursor = next;
    }
    let cut = cut.ok_or("the journal holds no snapshot to resume from")?;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .and_then(|f| f.set_len(cut as u64))
        .map_err(|e| format!("cutting journal: {e}"))
}

struct DurableLoop {
    job: Job,
    scratch: PathBuf,
    /// The same cycle run in memory, without journal or artifacts.
    reference: Release,
}

fn durable_resume(seed: u64, scratch: &Path) -> Built<DurableLoop> {
    let (table, generate_ms) = generated(|| data::survey(12_000, Regime::U, seed));
    let (measure, anonymizer, config) = durable_resume_config(scratch);
    let in_memory = CycleConfig {
        journal: None,
        storage: StorageOptions::default(),
        ..config.clone()
    };
    let reference = AnonymizationCycle::new(&measure, &anonymizer, in_memory)
        .run(&table.db, &table.dict)
        .map_err(|e| format!("in-memory reference: {e}"))?;
    let l = DurableLoop {
        reference: Release::diff(&table.db, &reference.db)?,
        job: Job {
            table,
            measure: Box::new(measure),
            anonymizer,
            config,
        },
        scratch: scratch.to_path_buf(),
    };
    Ok((l, generate_ms))
}

impl ClosedLoop for DurableLoop {
    /// The resume's disk restores.
    type Extra = u64;

    fn job(&self) -> &Job {
        &self.job
    }

    fn op(
        &mut self,
        i: usize,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<(Split, Release, u64), String> {
        let dir = self.scratch.join(format!("durable-{i}"));
        let round = durable_round(&self.job.table, &dir, rec, &mut |_| Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
        let round = round?;
        let release = Release::diff(&self.job.table.db, &round.resumed.db)?;
        Ok((
            round.split,
            release,
            round.resumed.profile.warm.disk_restores,
        ))
    }

    /// Both releases are diffs against the same input, so equal cells
    /// (null labels included) mean byte-identical tables.
    fn check_op(&self, release: &Release, disk_restores: &u64) -> Result<(), String> {
        if *release != self.reference {
            Err("the resumed table differs from the in-memory reference".into())
        } else if *disk_restores == 0 {
            Err("the resume did not restore warm state from disk".into())
        } else {
            Ok(())
        }
    }
}

// --- reason-suda ------------------------------------------------------------

struct SudaLoop {
    job: Job,
    program: Program,
    /// Native SUDA risks of the input, computed in setup.
    native: Vec<f64>,
}

/// 400 rows × 4 QIs, regime U: ALG2 + ALG6 SUDA (MSU threshold 2) on the
/// engine with its default configuration, then the native release of the
/// same table under the same measure.
fn reason_suda(seed: u64) -> Built<SudaLoop> {
    let (table, generate_ms) = generated(|| data::survey(400, Regime::U, seed));
    let measure = Suda::new(2);
    let view = MicrodataView::from_db(&table.db, &table.dict).map_err(|e| e.to_string())?;
    let native = measure.evaluate(&view).map_err(|e| e.to_string())?.risks;
    let l = SudaLoop {
        program: suda_program()?,
        native,
        job: Job {
            table,
            measure: Box::new(measure),
            anonymizer: LocalSuppression::default(),
            config: CycleConfig::default(),
        },
    };
    Ok((l, generate_ms))
}

/// reason-suda's engine: the default configuration, with the traced
/// run's recorder as its collector.
pub fn suda_engine_config(rec: Option<&Arc<Recorder>>) -> EngineConfig {
    EngineConfig {
        collector: rec.map(|r| Arc::clone(r) as Arc<dyn Collector>),
        ..EngineConfig::default()
    }
}

/// Algorithm 2's reification followed by Algorithm 6 (SUDA, MSU threshold 2).
pub fn suda_program() -> Result<Program, String> {
    let mut source = String::from(ALG2_TUPLE_REIFICATION);
    source.push_str(&alg6_suda(2));
    parse_program(&source).map_err(|e| format!("SUDA program: {e}"))
}

/// Per-row risks from the engine's `riskOutput(I, R)` facts (the maximum
/// when a row has several; 0 when it has none).
fn engine_risks(db: &vadalog::Database, rows: usize) -> Vec<f64> {
    let mut risks = vec![0.0f64; rows];
    for fact in db.rows("riskOutput") {
        if let (Some(Value::Int(i)), Some(r)) = (fact.first(), fact.get(1).and_then(Value::as_f64))
        {
            if let Some(slot) = usize::try_from(*i).ok().and_then(|i| risks.get_mut(i)) {
                *slot = slot.max(r);
            }
        }
    }
    risks
}

impl ClosedLoop for SudaLoop {
    /// The engine's risks.
    type Extra = Vec<f64>;

    fn job(&self) -> &Job {
        &self.job
    }

    fn op(
        &mut self,
        _i: usize,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<(Split, Release, Vec<f64>), String> {
        let engine = Engine::with_config(suda_engine_config(rec));
        let obs = obs_for(rec);
        let (db, dict) = (&self.job.table.db, &self.job.table.dict);
        let start = Instant::now();
        let facts = {
            let _call = obs.span("bench.engine.facts");
            microdata_to_facts(db, dict)
        }
        .map_err(|e| format!("facts: {e}"))?;
        let result = {
            let _call = obs.span("bench.engine.run");
            engine.run(&self.program, facts)
        }
        .map_err(|e| format!("engine: {e}"))?;
        let (split, release) = self.job.run(rec, start)?;
        Ok((split, release, engine_risks(&result.db, db.len())))
    }

    fn check_op(&self, _release: &Release, risks: &Vec<f64>) -> Result<(), String> {
        // `engine_risks` gives one risk per input row, as native SUDA does
        match risks.iter().zip(&self.native).position(|(a, b)| a != b) {
            Some(row) => Err(format!(
                "engine SUDA risks differ from native SUDA at row {row}"
            )),
            None => Ok(()),
        }
    }
}

// --- running a workload -------------------------------------------------------

/// A set-up workload and the milliseconds spent generating its input.
pub type Built<P> = Result<(P, f64), String>;

/// Generate a workload's input, timing it.
pub fn generated<T>(generate: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = generate();
    (v, ms(ns(t)))
}

/// How long each set-up took.
#[derive(Default)]
pub struct SetupTimes {
    /// At the reference machine's speed.
    pub setup_s: Vec<f64>,
    /// As measured.
    pub raw_setup_s: Vec<f64>,
    pub generate_ms: Vec<f64>,
}

/// What set-up produced, and how long it took each time.
struct Setup<P> {
    prepared: P,
    times: SetupTimes,
}

/// Set the workload up `reps` times (timing each: generation, spec build,
/// server start and one warm-up op) and keep the last. The reference
/// kernel is timed before and after each set-up.
fn set_up<P>(
    reps: usize,
    mut build: impl FnMut(usize) -> Built<P>,
    mut warm_up: impl FnMut(&mut P) -> Result<(), String>,
) -> Result<Setup<P>, String> {
    let mut times = SetupTimes::default();
    let mut prepared = None;
    for k in 0..reps {
        drop(prepared.take());
        let ref_before = reference::median_ms();
        let t = Instant::now();
        let (mut p, gen_ms) = build(k)?;
        warm_up(&mut p)?;
        let raw_s = t.elapsed().as_secs_f64();
        let ref_ms = (ref_before + reference::median_ms()) / 2.0;
        times.setup_s.push(reference::at_ref_speed(raw_s, ref_ms));
        times.raw_setup_s.push(raw_s);
        times.generate_ms.push(gen_ms);
        prepared = Some(p);
    }
    Ok(Setup {
        prepared: prepared.ok_or("no set-up repetition")?,
        times,
    })
}

/// Run one workload as `opts` says and return its record.
pub fn run(def: &'static WorkloadDef, opts: &Opts) -> Result<Record, String> {
    let seed = opts.seed;
    match def.name {
        "release-default" => closed(def, opts, |_| release_default(seed)),
        "release-scale" => closed(def, opts, |_| release_scale(seed)),
        "durable-resume" => closed(def, opts, |_| durable_resume(seed, &opts.scratch)),
        "reason-suda" => closed(def, opts, |_| reason_suda(seed)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Set a closed-loop workload up (its warm-up is one op) and run it.
fn closed<L: ClosedLoop>(
    def: &'static WorkloadDef,
    opts: &Opts,
    build: impl FnMut(usize) -> Built<L>,
) -> Result<Record, String> {
    // op index usize::MAX keeps the warm-up's scratch names apart
    let warm_up = |l: &mut L| l.op(usize::MAX, None).map(|_| ());
    let setup = set_up(opts.setup_reps(), build, warm_up)?;
    run_closed(def, opts, setup)
}

/// One op of a measured window: whether it was traced, when it ended (s
/// into the window), the process CPU time it took, the reference kernel's
/// run right after it, and what it did.
struct WindowOp<E> {
    traced: bool,
    end_s: f64,
    cpu_ms: f64,
    reference: reference::Timing,
    result: Result<(Split, Release, E), String>,
}

/// Run ops back to back for `opts.seconds` (or `SMOKE_OPS` ops), and
/// return them in order. With a recorder, every other op is traced.
fn window<L: ClosedLoop>(
    l: &mut L,
    opts: &Opts,
    rec: Option<&Arc<Recorder>>,
) -> Vec<WindowOp<L::Extra>> {
    let mut ops = Vec::new();
    let limit = Duration::from_secs(opts.seconds);
    let cpu = || sys::cpu_seconds(CpuClock::Process).unwrap_or(f64::NAN);
    let t0 = Instant::now();
    for i in 0.. {
        let done = if opts.smoke {
            i >= SMOKE_OPS
        } else {
            t0.elapsed() >= limit
        };
        if done {
            break;
        }
        let traced = rec.filter(|_| i % 2 == 1);
        let cpu_before = cpu();
        let result = {
            let _op = obs_for(traced).span("bench.op");
            l.op(i, traced)
        };
        let end_s = t0.elapsed().as_secs_f64();
        let cpu_ms = (cpu() - cpu_before) * 1e3;
        ops.push(WindowOp {
            traced: traced.is_some(),
            end_s,
            cpu_ms,
            reference: reference::time(),
            result,
        });
    }
    ops
}

/// Shortest slice of a closed-loop window, in seconds.
const SLICE_S: f64 = 1.0;

/// Cut a window's ops into slices of at least `SLICE_S`, each holding the
/// latencies of its ops that passed every check. A shorter last slice is
/// dropped, unless it is the only one (a smoke run).
fn slices<E>(ops: &[WindowOp<E>], passed: &[bool]) -> Vec<metrics::Slice> {
    let mut slices = Vec::new();
    let mut start_s = 0.0;
    let mut slice = metrics::Slice::default();
    for (op, &ok) in ops.iter().zip(passed) {
        if let (Ok((split, ..)), true) = (&op.result, ok) {
            slice.latencies_ms.push(ms(split.op_ns));
        }
        slice.cpu_ms += op.cpu_ms;
        slice.ref_ms.push(op.reference.wall_ms);
        slice.ref_cpu_ms.push(op.reference.cpu_ms);
        if op.end_s - start_s >= SLICE_S {
            slices.push(std::mem::take(&mut slice));
            start_s = op.end_s;
        }
    }
    if slices.is_empty() {
        slices.push(slice);
    }
    slices
}

fn run_closed<L: ClosedLoop>(
    def: &'static WorkloadDef,
    opts: &Opts,
    setup: Setup<L>,
) -> Result<Record, String> {
    let mut l = setup.prepared;
    let rec = opts.traced.then(|| Arc::new(Recorder::new()));
    let ops = window(&mut l, opts, rec.as_ref());
    let releases: Vec<Result<Release, String>> = ops
        .iter()
        .map(|op| match &op.result {
            Ok((_, release, extra)) => l.check_op(release, extra).map(|()| release.clone()),
            Err(e) => Err(e.clone()),
        })
        .collect();
    let mut tally = Tally::default();
    let passed = check_all(&releases, &mut tally, |r| l.job().check(r));
    // Latencies and splits of the ops that passed every check, untraced
    // and traced apart: a failed op completed nothing.
    let (mut untraced_ms, mut traced_ms, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    for (op, &ok) in ops.iter().zip(&passed) {
        let (Ok((split, ..)), true) = (&op.result, ok) else {
            continue;
        };
        if op.traced {
            traced_ms.push(ms(split.op_ns));
            traced.push(*split);
        } else {
            untraced_ms.push(ms(split.op_ns));
        }
    }
    let input = &l.job().table;
    let mut ctx = Context::new(def, opts, input.db.len(), input.hash());
    let metrics = match rec {
        None => {
            ctx.ops(def, &untraced_ms);
            let ref_ms: Vec<f64> = ops.iter().map(|op| op.reference.wall_ms).collect();
            ctx.host(&untraced_ms, &ref_ms, &setup.times);
            e2e_metrics(&slices(&ops, &passed), &tally, &setup.times)
        }
        Some(rec) => {
            let mut layers = Layers::default();
            cycle_layers(&traced, &mut layers);
            layers.set(
                "trace.overhead_frac",
                median(&traced_ms) / median(&untraced_ms) - 1.0,
            );
            layers.set("datagen.generate_ms", median(&setup.times.generate_ms));
            probes::run(&l.job().probe_input(), opts, &rec, &mut layers)?;
            ctx.ops(def, &traced_ms);
            ctx.set("traced_op_ms", metrics::mean(&traced_ms));
            ctx.traces(def, opts, &rec)?;
            layers.finish()?
        }
    };
    Ok(ctx.record(def, opts, tally, metrics))
}

/// The end-to-end metrics of one untraced window, cut into slices.
pub fn e2e_metrics(
    slices: &[metrics::Slice],
    tally: &Tally,
    setup: &SetupTimes,
) -> Vec<(&'static metrics::MetricDef, f64)> {
    let values = [
        metrics::slice_latency_ms(slices),
        metrics::slice_cpu_ms_per_op(slices),
        tally.info_loss(),
        sys::peak_rss_mib().unwrap_or(f64::NAN),
        median(&setup.setup_s),
    ];
    E2E.iter().zip(values).collect()
}

/// The run context stamped on every record, so numbers from different
/// machines or settings are never compared by accident.
pub struct Context(Vec<(String, vadasa_core::obs::json::Json)>);

impl Context {
    pub fn new(def: &WorkloadDef, opts: &Opts, rows: usize, input_hash: u64) -> Context {
        use vadasa_core::obs::json::Json;
        let mut ctx = Context(Vec::new());
        ctx.0.push(("nproc".into(), Json::Num(sys::nproc() as f64)));
        ctx.0.push((
            "scratch".into(),
            Json::Str(opts.scratch.display().to_string()),
        ));
        ctx.0
            .push(("fs".into(), Json::Str(sys::filesystem_of(&opts.scratch))));
        ctx.0.push((
            "git".into(),
            sys::git_head().map(Json::Str).unwrap_or(Json::Null),
        ));
        ctx.0.push(("flush".into(), Json::Str(def.flush.into())));
        ctx.0.push(("rows".into(), Json::Num(rows as f64)));
        ctx.0
            .push(("input_hash".into(), Json::Str(format!("{input_hash:016x}"))));
        ctx
    }

    pub fn set(&mut self, key: &str, value: f64) {
        self.0
            .push((key.into(), vadasa_core::obs::json::Json::Num(value)));
    }

    /// The op count and the tail latency: the workload's fixed tail
    /// percentile, with how many samples lie beyond it.
    pub fn ops(&mut self, def: &WorkloadDef, latencies_ms: &[f64]) {
        let q = def.tail_q();
        self.set("n", latencies_ms.len() as f64);
        self.set("tail_q", q);
        self.set("tail_ms", metrics::percentile(latencies_ms, q));
        self.set(
            "beyond_tail",
            metrics::samples_beyond(latencies_ms.len(), q) as f64,
        );
    }

    /// The raw numbers behind the end-to-end times, not at the reference
    /// machine's speed: the median op latency and set-up time as measured,
    /// and the reference kernel's median time in the window.
    pub fn host(&mut self, latencies_ms: &[f64], ref_ms: &[f64], setup: &SetupTimes) {
        self.set("raw_latency_ms", median(latencies_ms));
        self.set("raw_setup_s", median(&setup.raw_setup_s));
        self.set("ref_ms", median(ref_ms));
    }

    /// Export the traced run as a Chrome trace and collapsed stacks.
    pub fn traces(&mut self, def: &WorkloadDef, opts: &Opts, rec: &Recorder) -> Result<(), String> {
        use vadasa_core::obs::json::Json;
        use vadasa_core::obs::trace::TraceBuilder;
        let tree = TraceBuilder::from_recorder(rec);
        std::fs::create_dir_all(&opts.trace_dir).map_err(|e| format!("trace dir: {e}"))?;
        let chrome = opts.trace_dir.join(format!("{}.trace.json", def.name));
        let folded = opts.trace_dir.join(format!("{}.folded", def.name));
        std::fs::write(&chrome, tree.chrome_trace_json())
            .and_then(|()| std::fs::write(&folded, tree.collapsed_stacks()))
            .map_err(|e| format!("writing traces: {e}"))?;
        self.0.push((
            "chrome_trace".into(),
            Json::Str(chrome.display().to_string()),
        ));
        self.0.push((
            "collapsed_stacks".into(),
            Json::Str(folded.display().to_string()),
        ));
        Ok(())
    }

    pub fn record(
        self,
        def: &'static WorkloadDef,
        opts: &Opts,
        tally: Tally,
        metrics: Vec<(&'static metrics::MetricDef, f64)>,
    ) -> Record {
        Record {
            workload: def.name,
            seed: opts.seed,
            seconds: opts.seconds,
            traced: opts.traced,
            smoke: opts.smoke,
            context: self.0,
            attempted: tally.attempted,
            failed: tally.failed,
            failures: tally.failures,
            metrics,
        }
    }
}
