//! The traced run's isolated layer calls. Every workload makes the same
//! calls on its own input, so each per-layer metric means the same thing
//! on every workload: the layer's cost on that workload's data. Where a
//! layer is on a workload's blocking path, the call is the one its op
//! makes (the durable round of durable-resume, the engine run of
//! reason-suda); the end-to-end metrics show which workloads a layer
//! matters to.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vadalog::backend::FileBackend;
use vadalog::{Engine, StorageBackend, Value};
use vadasa_core::anonymize::Anonymizer;
use vadasa_core::checkpoint::Checkpoint;
use vadasa_core::colstore::{decode_warm_stats, WARM_STATS_ARTIFACT};
use vadasa_core::journal::{self, JournalConfig};
use vadasa_core::maybe_match::NullSemantics;
use vadasa_core::obs::{Obs, Recorder};
use vadasa_core::programs::microdata_to_facts;
use vadasa_core::risk::{MicrodataView, RiskMeasure};
use vadasa_server::{JobServer, JobSpec, JobState, MeasureSpec, ServerConfig, ShutdownMode};

use crate::data::Table;
use crate::metrics::{median, MetricDef, LAYERS};
use crate::workloads::{
    durable_resume_config, durable_round, ns, suda_engine_config, suda_program, Opts,
};

/// Rows of the workload's table the durable round runs on.
const DURABLE_ROWS: usize = 12_000;
/// Rows of the workload's table the engine's SUDA program runs on (the
/// program enumerates attribute subsets per row; 400 rows take ~0.1 s).
const ENGINE_ROWS: usize = 400;
/// Rows of the workload's table submitted as a job to an idle server.
const SERVER_ROWS: usize = 5_000;

/// A workload's own input, measure and anonymizer.
pub struct ProbeInput<'a> {
    pub table: &'a Table,
    pub measure: &'a dyn RiskMeasure,
    pub anonymizer: &'a dyn Anonymizer,
    pub threshold: f64,
    pub semantics: NullSemantics,
}

/// Per-layer values collected during a traced run.
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.push((name, value));
    }

    /// Every per-layer metric, in catalogue order; an error names any
    /// metric the run failed to measure.
    pub fn finish(self) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        LAYERS
            .iter()
            .map(|m| {
                self.0
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == m.name)
                    .map(|(_, v)| (m, *v))
                    .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))
            })
            .collect()
    }
}

/// Median over `reps` calls of `f`, which returns the nanoseconds of the
/// call it timed (set-up it needs per call stays outside that time).
fn median_ns(reps: usize, mut f: impl FnMut() -> Result<u64, String>) -> Result<f64, String> {
    let times = (0..reps)
        .map(|_| f().map(|t| t as f64))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&times))
}

/// Time one call inside a span named after it.
fn time<T>(obs: &Obs<'_>, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let _span = obs.span(name);
    let t = Instant::now();
    let v = f();
    (v, ns(t))
}

pub fn run(
    input: &ProbeInput<'_>,
    opts: &Opts,
    rec: &Arc<Recorder>,
    layers: &mut Layers,
) -> Result<(), String> {
    let obs = Obs::new(Some(rec.as_ref() as &dyn vadasa_core::obs::Collector));
    risk_layers(input, opts.reps(), &obs, layers)?;
    durable_layers(&input.table.head(DURABLE_ROWS), opts, rec, &obs, layers)?;
    engine_layers(
        &input.table.head(ENGINE_ROWS),
        opts.reps(),
        rec,
        &obs,
        layers,
    )?;
    server_layers(&input.table.head(SERVER_ROWS), opts, &obs, layers)
}

/// View build, regroup, scoring, one statistics repair and one
/// anonymization step, on the whole table.
fn risk_layers(
    input: &ProbeInput<'_>,
    reps: usize,
    obs: &Obs<'_>,
    layers: &mut Layers,
) -> Result<(), String> {
    let t = input.table;
    let build = || {
        MicrodataView::from_db_with(&t.db, &t.dict, input.semantics, None)
            .map_err(|e| format!("view: {e}"))
    };
    let build_ns = median_ns(reps, || {
        let (view, took) = time(obs, "probe.view.build", build);
        black_box(view?);
        Ok(took)
    })?;
    layers.set("view.build_ms", build_ns / 1e6);
    let view = build()?;
    let regroup_ns = median_ns(reps, || {
        let (stats, took) = time(obs, "probe.groups.regroup", || view.group_stats());
        black_box(stats);
        Ok(took)
    })?;
    layers.set("groups.regroup_ms", regroup_ns / 1e6);
    let score_ns = median_ns(reps, || {
        let (report, took) = time(obs, "probe.risk.score", || input.measure.evaluate(&view));
        black_box(report.map_err(|e| format!("score: {e}"))?);
        Ok(took)
    })?;
    layers.set("risk.score_ms", score_ns / 1e6);

    let report = input
        .measure
        .evaluate(&view)
        .map_err(|e| format!("score: {e}"))?;
    let row = report
        .risks
        .iter()
        .position(|&r| r > input.threshold)
        .unwrap_or(0);
    let stats = view.group_stats();
    let null = Value::Null(t.db.nulls_minted());
    let repair_ns = median_ns(reps, || {
        let (mut v, mut s) = (view.clone(), stats.clone());
        let ((), took) = time(obs, "probe.groups.repair", || {
            v.patch_cell(row, 0, &null, Some(&mut s))
        });
        black_box((v, s));
        Ok(took)
    })?;
    layers.set("groups.repair_us", repair_ns / 1e3);
    let step_ns = median_ns(reps, || {
        let mut db = t.db.clone();
        let (action, took) = time(obs, "probe.anonymize.step", || {
            input.anonymizer.anonymize_step(&mut db, &t.dict, row)
        });
        black_box(action.map_err(|e| format!("anonymize: {e}"))?);
        Ok(took)
    })?;
    layers.set("anonymize.step_us", step_ns / 1e3);
    Ok(())
}

/// The durable-resume round on the table, with recovery, snapshot read
/// and warm-artifact load also timed in isolation on the cut journal.
fn durable_layers(
    table: &Table,
    opts: &Opts,
    rec: &Arc<Recorder>,
    obs: &Obs<'_>,
    layers: &mut Layers,
) -> Result<(), String> {
    let (mut run, mut resume, mut recover, mut read, mut load) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut last = None;
    for k in 0..opts.reps() {
        let dir = opts.scratch.join(format!("probe-durable-{k}"));
        let copy = opts.scratch.join(format!("probe-recover-{k}"));
        let mut isolated = (0, 0, 0);
        let round = durable_round(table, &dir, Some(rec), &mut |cut| {
            isolated = isolated_recovery(table, cut, &copy, obs)?;
            Ok(())
        });
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&copy);
        let round = round?;
        run.push(round.run_ns as f64);
        resume.push(round.resume_ns as f64);
        recover.push(isolated.0 as f64);
        read.push(isolated.1 as f64);
        load.push(isolated.2 as f64);
        last = Some(round);
    }
    let round = last.ok_or("no durable round")?;
    layers.set("journal.run_ms", median(&run) / 1e6);
    layers.set("journal.resume_ms", median(&resume) / 1e6);
    layers.set("journal.recover_ms", median(&recover) / 1e6);
    layers.set("checkpoint.read_ms", median(&read) / 1e6);
    layers.set("artifact.load_ms", median(&load) / 1e6);
    let j = &round.journal;
    layers.set("journal.records", j.records_written as f64);
    layers.set("journal.bytes", j.bytes_written as f64);
    layers.set("journal.fsyncs", j.fsyncs as f64);
    layers.set("journal.dir_fsyncs", j.dir_fsyncs as f64);
    layers.set("journal.snapshots", j.snapshots_written as f64);
    layers.set("journal.snapshot_bytes", j.snapshot_bytes as f64);
    layers.set(
        "journal.replayed_actions",
        round.recovery.replayed_actions as f64,
    );
    let warm = &round.resumed.profile.warm;
    layers.set("artifact.disk_restores", warm.disk_restores as f64);
    layers.set(
        "artifact.persist_errors",
        (round.persist_errors + warm.persist_errors) as f64,
    );
    Ok(())
}

/// On the cut journal directory: `journal::recover` (on a copy, since it
/// may truncate), `Checkpoint::read` of the newest snapshot, and the load
/// and decode of the warm-statistics artifact. Nanoseconds of each.
fn isolated_recovery(
    table: &Table,
    cut: &Path,
    copy: &Path,
    obs: &Obs<'_>,
) -> Result<(u64, u64, u64), String> {
    let (risk, anonymizer, config) = durable_resume_config(cut);
    let fp = journal::fingerprint(
        &table.db,
        &table.dict,
        &config,
        risk.name(),
        vadasa_core::anonymize::Anonymizer::name(&anonymizer),
    );
    std::fs::create_dir_all(copy).map_err(|e| e.to_string())?;
    let mut newest: Option<(u64, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(cut).map_err(|e| e.to_string())?.flatten() {
        let path = entry.path();
        std::fs::copy(&path, copy.join(entry.file_name())).map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let iteration = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".vsnap"))
            .and_then(|n| n.parse::<u64>().ok());
        if let Some(i) = iteration {
            if newest.as_ref().is_none_or(|(n, _)| i > *n) {
                newest = Some((i, path));
            }
        }
    }
    let (recovered, recover_ns) = time(obs, "probe.journal.recover", || {
        journal::recover(&JournalConfig::new(copy), &table.db, config.threshold, fp)
    });
    black_box(recovered.map_err(|e| format!("recover: {e}"))?.iterations);
    let (_, snapshot) = newest.ok_or("no snapshot beside the cut journal")?;
    let (checkpoint, read_ns) = time(obs, "probe.checkpoint.read", || Checkpoint::read(&snapshot));
    black_box(
        checkpoint
            .map_err(|e| format!("snapshot: {e:?}"))?
            .iterations,
    );
    let (stats, load_ns) = time(obs, "probe.artifact.load", || {
        let bytes = FileBackend::create(cut)?
            .get(WARM_STATS_ARTIFACT)?
            .unwrap_or_default();
        decode_warm_stats(&bytes, Some(fp))
    });
    black_box(stats.map_err(|e| format!("warm artifact: {e}"))?.iterations);
    Ok((recover_ns, read_ns, load_ns))
}

/// ALG2 + ALG6 SUDA on the engine: parse, fact conversion and fixpoint,
/// plus the engine's own profile counters.
fn engine_layers(
    sample: &Table,
    reps: usize,
    rec: &Arc<Recorder>,
    obs: &Obs<'_>,
    layers: &mut Layers,
) -> Result<(), String> {
    let parse_ns = median_ns(reps, || {
        let (program, took) = time(obs, "probe.engine.parse", suda_program);
        black_box(program?);
        Ok(took)
    })?;
    layers.set("engine.parse_ms", parse_ns / 1e6);
    let facts = || microdata_to_facts(&sample.db, &sample.dict).map_err(|e| format!("facts: {e}"));
    let facts_ns = median_ns(reps, || {
        let (f, took) = time(obs, "probe.engine.facts", facts);
        black_box(f?);
        Ok(took)
    })?;
    layers.set("engine.facts_ms", facts_ns / 1e6);
    let program = suda_program()?;
    let mut profile = None;
    let fixpoint_ns = median_ns(reps, || {
        let (f, engine) = (facts()?, Engine::with_config(suda_engine_config(Some(rec))));
        let (result, took) = time(obs, "probe.engine.run", || engine.run(&program, f));
        profile = Some(result.map_err(|e| format!("engine: {e}"))?.profile);
        Ok(took)
    })?;
    layers.set("engine.fixpoint_ms", fixpoint_ns / 1e6);
    let p = profile.ok_or("no engine run")?;
    let candidates: u64 = p.rules.iter().map(|r| r.join_candidates).sum();
    layers.set("engine.rounds", p.total_rounds() as f64);
    layers.set("engine.facts_derived", p.facts_derived as f64);
    layers.set("engine.join_candidates", candidates as f64);
    layers.set(
        "engine.useful_frac",
        p.facts_derived as f64 / candidates.max(1) as f64,
    );
    layers.set("engine.index_probes", p.index_probes as f64);
    layers.set("engine.index_scans", p.index_scans as f64);
    layers.set("engine.intern_hits", p.intern_hits as f64);
    layers.set("engine.planner_prunes", p.planner_prunes as f64);
    Ok(())
}

/// One k-anonymity job on an idle server with the default configuration:
/// admission with its durable manifest, service (submit → terminal), and
/// the released table.
fn server_layers(
    sample: &Table,
    opts: &Opts,
    obs: &Obs<'_>,
    layers: &mut Layers,
) -> Result<(), String> {
    let spec = JobSpec::new(&sample.db, &sample.dict, MeasureSpec::KAnonymity(2))
        .map_err(|e| e.to_string())?;
    let server = JobServer::start(ServerConfig::new(opts.scratch.join("probe-server")))
        .map_err(|e| format!("server: {e}"))?;
    let (mut submit, mut service, mut result) = (vec![], vec![], vec![]);
    let mut outcome = Ok(());
    for k in 0..opts.reps() {
        let id = format!("probe-{k}");
        let job = spec.clone();
        let t = Instant::now();
        let (admitted, submit_ns) = time(obs, "probe.server.submit", || server.submit(&id, job));
        let report = admitted.map_err(|e| e.to_string()).and_then(|_| {
            let _span = obs.span("probe.server.wait");
            server
                .wait(&id, Duration::from_secs(60))
                .filter(|r| r.state == JobState::Done)
                .ok_or_else(|| format!("probe job {id} was not released"))
        });
        let service_ns = ns(t);
        let (csv, result_ns) = time(obs, "probe.server.result", || server.result_csv(&id));
        if let Err(e) = report.and_then(|_| csv.map(black_box).ok_or("no released table".into())) {
            outcome = Err(e);
            break;
        }
        submit.push(submit_ns as f64);
        service.push(service_ns as f64);
        result.push(result_ns as f64);
    }
    server.shutdown(ShutdownMode::Drain);
    outcome?;
    layers.set("server.submit_ms", median(&submit) / 1e6);
    layers.set("server.service_ms", median(&service) / 1e6);
    layers.set("server.result_ms", median(&result) / 1e6);
    Ok(())
}
