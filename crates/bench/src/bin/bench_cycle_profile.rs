//! Cycle benchmark: the end-to-end median of a multi-iteration
//! anonymization run, written to `BENCH_cycle.json`, plus the telemetry
//! event stream of one profiled run, written beside it.
//!
//! Usage: `bench_cycle_profile [--quick] [--out PATH] [--baseline PATH] [--obs-gate]`
//!
//! The workload runs the paper's standard cycle (k-anonymity `k = 2`,
//! local suppression, `T = 0.5`) at one-tuple-per-iteration granularity
//! over a `vadasa-datagen` fixture, capped at a fixed iteration budget so
//! every timed run does identical anonymization work across ≥ 10
//! iterations. The cycle builds its `MicrodataView` once, patches it in
//! place and repairs the group statistics incrementally; the `cycle.e2e`
//! line keeps its historical `"mode":"warm"` label, which the baseline
//! gate looks up.
//!
//! Every timed run is asserted identical to the first one (table, report,
//! iteration count, termination) before any number is reported — a
//! benchmark over divergent semantics would be meaningless.
//!
//! The output file holds one JSON object per line, bench records only:
//! the `cycle.e2e` median line ready for `jq` and for the CI
//! `cycle-perf-smoke` gate, then the sections below. The `cycle.*`
//! telemetry spans of the profiled run (including the `cycle.warm.*`
//! counters) go to a sibling file named after `--out` with its extension
//! replaced by `telemetry.jsonl` (`BENCH_cycle.json` →
//! `BENCH_cycle.telemetry.jsonl`), which is not committed. The
//! `cycle.e2e` runs each time the reference kernel
//! ([`vadasa_bench::reference`]) before every run, and their line carries
//! its median as `ref_ms`. With `--baseline PATH` the `cycle.e2e` median
//! is compared against the committed baseline at one host speed (both
//! divided by their `ref_ms`) and the process exits non-zero on a >25%
//! regression. The `cycle.storage` medians are not gated: they are mostly
//! fsync time, which on a shared disk swings by more than the threshold
//! between runs and which no kernel timed beside them predicts. An
//! unknown option or a missing value prints the usage line and exits 2
//! before anything is run or written.
//!
//! Two journal sections ride along (the `cycle.e2e` numbers themselves
//! stay unjournaled so the baseline gate is undisturbed):
//!
//! - `cycle.journal` — the same workload with the write-ahead journal
//!   off / fsync-every-record / fsync-every-8, quantifying the
//!   crash-safety overhead.
//! - `cycle.recovery` — the journal of a completed run truncated at
//!   mid-run, then resumed: recovery plus the remaining iterations,
//!   verified equivalent to the uninterrupted outcome before timing is
//!   reported.
//!
//! A `cycle.storage` section compares the pluggable storage backends on
//! the same journaled workload: the in-memory engine (`mem`, artifacts
//! never touch disk) against the file-backed engine (`file`, warm group
//! statistics persisted as a CRC-framed `cycle.warmstats.vart` artifact
//! at every snapshot), and then a resume cut just after the final
//! snapshot with the warm artifact present (`resume-warm-disk`, seeding
//! warm state straight from disk) against the same resume with the
//! artifact deleted (`resume-cold`, regrouping from scratch). Both
//! resumes are verified equivalent to the uninterrupted outcome, and the
//! warm-disk leg is required to actually report `disk_restores` — a
//! benchmark of a fallback path mislabeled as the fast path would be
//! meaningless.
//!
//! A third section, `cycle.obs_overhead`, times the same workload
//! with telemetry off, with an in-process `Recorder`, with a JSON-lines
//! file sink, and with full trace building (recorder + both exporters).
//! The four modes are interleaved within each repetition so clock drift
//! penalizes none of them, and the reported statistic is the *minimum*
//! over the repetitions (noise only ever adds time). With `--obs-gate`
//! the process exits non-zero if any telemetry mode costs more than 2%
//! over "off" *and* more than 15 ms absolute — observability must stay
//! near-free.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vadalog::StorageEngine;
use vadasa_bench::reference::{self, Series};
use vadasa_bench::{operand, time_it};
use vadasa_core::journal::{record, JOURNAL_FILE};
use vadasa_core::obs::trace::TraceBuilder;
use vadasa_core::obs::{JsonLinesWriter, Recorder};
use vadasa_core::prelude::*;
use vadasa_core::report::render_profile;
use vadasa_datagen::generator::{generate, DatasetSpec, Regime};

/// The observability-overhead gate: telemetry may cost at most this
/// fraction over a bare run, unless the absolute difference is still
/// under [`MAX_OBS_OVERHEAD_ABS_S`] (short workloads drown in noise).
const MAX_OBS_OVERHEAD_FRAC: f64 = 0.02;

/// Absolute floor for the observability gate, in seconds.
const MAX_OBS_OVERHEAD_ABS_S: f64 = 0.015;

fn cycle_config(iteration_cap: usize) -> CycleConfig {
    CycleConfig {
        threshold: 0.5,
        tuple_order: TupleOrder::LessSignificantFirst,
        granularity: StepGranularity::OneTuplePerIteration,
        max_iterations: iteration_cap,
        ..CycleConfig::default()
    }
}

/// Require two runs to be observably identical, or die loudly.
fn assert_equivalent(a: &CycleOutcome, b: &CycleOutcome) {
    let mut diffs: Vec<String> = Vec::new();
    if a.iterations != b.iterations {
        diffs.push(format!("iterations {} vs {}", a.iterations, b.iterations));
    }
    if a.nulls_injected != b.nulls_injected {
        diffs.push(format!(
            "nulls {} vs {}",
            a.nulls_injected, b.nulls_injected
        ));
    }
    if a.final_risky != b.final_risky {
        diffs.push(format!(
            "final risky {} vs {}",
            a.final_risky, b.final_risky
        ));
    }
    if a.termination != b.termination {
        diffs.push(format!(
            "termination {:?} vs {:?}",
            a.termination, b.termination
        ));
    }
    if a.final_report.risks != b.final_report.risks {
        diffs.push("final risk vectors differ".to_string());
    }
    for i in 0..a.db.len() {
        if a.db.row(i) != b.db.row(i) {
            diffs.push(format!("anonymized row {i} differs"));
            break;
        }
    }
    if !diffs.is_empty() {
        eprintln!(
            "DIVERGENT RUNS — refusing to report timings: {}",
            diffs.join("; ")
        );
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!("usage: bench_cycle_profile [--quick] [--out PATH] [--baseline PATH] [--obs-gate]");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut obs_gate = false;
    let mut out_path = "BENCH_cycle.json".to_string();
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--obs-gate" => obs_gate = true,
            "--out" => out_path = operand(&mut args, &arg, usage),
            "--baseline" => baseline = Some(operand(&mut args, &arg, usage)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unrecognised argument '{other}'");
                usage()
            }
        }
    }

    // The workload does not depend on --quick, so the --baseline gate
    // always compares like with like; --quick only trims repetitions.
    let rows = 12_000;
    let runs = if quick { 3 } else { 5 };
    // One suppression per iteration; the cap keeps every run on an
    // identical ≥10-iteration trajectory with a bounded wall clock.
    let iteration_cap = 40;
    let spec = DatasetSpec::new(rows, 4, Regime::U);
    let (db, dict) = generate(&spec, 20210323);

    let risk = KAnonymity::new(2);
    let anonymizer = LocalSuppression::default();
    let build_cycle = || AnonymizationCycle::new(&risk, &anonymizer, cycle_config(iteration_cap));
    let run_once =
        || -> CycleOutcome { build_cycle().run(&db, &dict).expect("cycle workload runs") };

    // --- the reference outcome every timed run must reproduce ---
    let warm_out = run_once();
    if warm_out.iterations < 10 {
        eprintln!(
            "workload too shallow: {} iteration(s), need >= 10 — grow the dataset",
            warm_out.iterations
        );
        std::process::exit(1);
    }

    // --- median over `runs` repetitions ---
    let mut warm = Series::default();
    for _ in 0..runs {
        let out = warm.time(run_once);
        assert_equivalent(&out, &warm_out);
    }
    let warm_s = warm.median_s();

    // --- journal overhead: off vs every-record vs every-8 fsyncs ---
    let tmp_root =
        std::env::temp_dir().join(format!("vadasa-bench-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp_root);
    let mut journal_seq = 0u32;
    let mut journaled_run = |sync: SyncPolicy| -> (CycleOutcome, f64, PathBuf) {
        journal_seq += 1;
        let dir = tmp_root.join(format!("j{journal_seq}"));
        let config = CycleConfig {
            journal: Some(JournalConfig {
                sync,
                snapshot_every: Some(8),
                ..JournalConfig::new(&dir)
            }),
            ..cycle_config(iteration_cap)
        };
        let (out, secs) = time_it(|| {
            AnonymizationCycle::new(&risk, &anonymizer, config.clone())
                .run(&db, &dict)
                .expect("journaled run")
        });
        (out, secs, dir)
    };
    let mut journal_medians: Vec<(&str, f64)> = vec![("off", warm_s)];
    let mut recovery_dir: Option<PathBuf> = None;
    for (mode, sync) in [
        ("every-record", SyncPolicy::EveryRecord),
        ("every-8", SyncPolicy::EveryN(8)),
    ] {
        let mut times: Vec<f64> = Vec::with_capacity(runs);
        for _ in 0..runs {
            let (out, secs, dir) = journaled_run(sync);
            // crash safety is an observer, not an intervention
            assert_equivalent(&out, &warm_out);
            times.push(secs);
            if mode == "every-record" && recovery_dir.is_none() {
                recovery_dir = Some(dir);
            } else {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        times.sort_by(f64::total_cmp);
        journal_medians.push((mode, times[times.len() / 2]));
    }

    // --- recovery: truncate the journal mid-run, resume, verify, time ---
    let full_dir = recovery_dir.expect("an every-record journal was kept");
    let bytes = std::fs::read(full_dir.join(JOURNAL_FILE)).expect("read journal");
    let bounds = record::frame_boundaries(&bytes);
    let cut = bounds
        .iter()
        .copied()
        .rfind(|b| *b <= bytes.len() / 2)
        .or_else(|| bounds.first().copied())
        .expect("journal has frames");
    let mut recovery_times: Vec<f64> = Vec::with_capacity(runs);
    let mut replayed = 0u64;
    for rep in 0..runs {
        let dir = tmp_root.join(format!("recover-{rep}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(JOURNAL_FILE), &bytes[..cut]).expect("write prefix");
        for entry in std::fs::read_dir(&full_dir).expect("read dir").flatten() {
            if entry.path().extension().is_some_and(|x| x == "vsnap") {
                std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy snapshot");
            }
        }
        let config = CycleConfig {
            journal: Some(JournalConfig::new(&dir)),
            ..cycle_config(iteration_cap)
        };
        let (out, secs) = time_it(|| {
            AnonymizationCycle::new(&risk, &anonymizer, config.clone())
                .resume(&db, &dict)
                .expect("resumed run")
        });
        assert_equivalent(&out, &warm_out);
        replayed = out.profile.journal.replayed_actions;
        recovery_times.push(secs);
        let _ = std::fs::remove_dir_all(&dir);
    }
    recovery_times.sort_by(f64::total_cmp);
    let recovery_s = recovery_times[recovery_times.len() / 2];

    // --- storage backends: mem vs file, then warm-disk vs cold resume ---
    let mut storage_seq = 0u32;
    let mut storage_run = |engine: StorageEngine| -> (CycleOutcome, f64, PathBuf) {
        storage_seq += 1;
        let dir = tmp_root.join(format!("s{storage_seq}"));
        let config = CycleConfig {
            journal: Some(JournalConfig {
                sync: SyncPolicy::EveryN(8),
                snapshot_every: Some(8),
                ..JournalConfig::new(&dir)
            }),
            storage: StorageOptions {
                engine,
                ..StorageOptions::default()
            },
            ..cycle_config(iteration_cap)
        };
        let (out, secs) = time_it(|| {
            AnonymizationCycle::new(&risk, &anonymizer, config.clone())
                .run(&db, &dict)
                .expect("storage run")
        });
        (out, secs, dir)
    };
    let mut storage_medians: Vec<(&str, f64)> = Vec::new();
    let mut file_dir: Option<PathBuf> = None;
    for (mode, engine) in [("mem", StorageEngine::Mem), ("file", StorageEngine::File)] {
        let mut times: Vec<f64> = Vec::with_capacity(runs);
        for _ in 0..runs {
            let (out, secs, dir) = storage_run(engine);
            // the storage backend is an observer, not an intervention
            assert_equivalent(&out, &warm_out);
            times.push(secs);
            if mode == "file" && file_dir.is_none() {
                file_dir = Some(dir);
            } else {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        times.sort_by(f64::total_cmp);
        storage_medians.push((mode, times[times.len() / 2]));
    }
    // Cut the kept file-backed journal just after its final Snapshot
    // record: recovery then lands exactly on the iteration the persisted
    // warm artifact covers, so a file-engine resume can seed its group
    // statistics from disk instead of regrouping cold.
    let file_dir = file_dir.expect("a file-backed journal was kept");
    let file_bytes = std::fs::read(file_dir.join(JOURNAL_FILE)).expect("read file journal");
    let storage_cut = record::records(&file_bytes)
        .filter(|(rec, _)| matches!(rec, record::JournalRecord::Snapshot { .. }))
        .last()
        .map(|(_, end)| end)
        .expect("file-backed journal has a snapshot");
    let mut storage_resume: Vec<(&str, f64, u64)> = Vec::new();
    for (mode, keep_artifact) in [("resume-warm-disk", true), ("resume-cold", false)] {
        let mut times: Vec<f64> = Vec::with_capacity(runs);
        let mut restores = 0u64;
        for rep in 0..runs {
            let dir = tmp_root.join(format!("{mode}-{rep}"));
            std::fs::create_dir_all(&dir).expect("mkdir");
            std::fs::write(dir.join(JOURNAL_FILE), &file_bytes[..storage_cut])
                .expect("write prefix");
            for entry in std::fs::read_dir(&file_dir).expect("read dir").flatten() {
                let p = entry.path();
                let snap = p.extension().is_some_and(|x| x == "vsnap");
                let art = p.extension().is_some_and(|x| x == "vart");
                if snap || (art && keep_artifact) {
                    std::fs::copy(&p, dir.join(entry.file_name())).expect("copy artifact");
                }
            }
            let config = CycleConfig {
                journal: Some(JournalConfig::new(&dir)),
                storage: StorageOptions {
                    engine: StorageEngine::File,
                    ..StorageOptions::default()
                },
                ..cycle_config(iteration_cap)
            };
            let (out, secs) = time_it(|| {
                AnonymizationCycle::new(&risk, &anonymizer, config.clone())
                    .resume(&db, &dict)
                    .expect("storage resume")
            });
            assert_equivalent(&out, &warm_out);
            restores += out.profile.warm.disk_restores;
            times.push(secs);
            let _ = std::fs::remove_dir_all(&dir);
        }
        times.sort_by(f64::total_cmp);
        storage_resume.push((mode, times[times.len() / 2], restores));
    }
    // The legs must exercise the paths their labels claim.
    let by_mode = |m: &str| storage_resume.iter().find(|(n, ..)| *n == m).unwrap().2;
    if by_mode("resume-warm-disk") == 0 || by_mode("resume-cold") != 0 {
        eprintln!(
            "STORAGE RESUME MISLABELED — warm-disk restored {} time(s), cold {} time(s)",
            by_mode("resume-warm-disk"),
            by_mode("resume-cold")
        );
        std::process::exit(1);
    }
    let _ = std::fs::remove_dir_all(&tmp_root);

    // --- observability overhead: off vs recorder vs file vs trace ---
    const OBS_MODES: [&str; 4] = ["off", "recorder", "json-lines", "trace-building"];
    let obs_tmp =
        std::env::temp_dir().join(format!("vadasa-bench-obs-{}.jsonl", std::process::id()));
    let mut obs_times: [Vec<f64>; 4] = std::array::from_fn(|_| Vec::with_capacity(runs));
    for _ in 0..runs {
        // interleaved within the repetition so clock drift is shared
        let (out, secs) = time_it(run_once);
        assert_equivalent(&out, &warm_out);
        obs_times[0].push(secs);

        let rec = Arc::new(Recorder::new());
        let (out, secs) = time_it(|| {
            build_cycle()
                .with_collector(rec.clone())
                .run(&db, &dict)
                .expect("recorder run")
        });
        assert_equivalent(&out, &warm_out);
        obs_times[1].push(secs);

        let sink = Arc::new(JsonLinesWriter::create(&obs_tmp).expect("create obs scratch file"));
        let (out, secs) = time_it(|| {
            let out = build_cycle()
                .with_collector(sink.clone())
                .run(&db, &dict)
                .expect("json-lines run");
            sink.flush().expect("flush obs scratch file");
            out
        });
        assert_equivalent(&out, &warm_out);
        obs_times[2].push(secs);

        let rec = Arc::new(Recorder::new());
        let (out, secs) = time_it(|| {
            let out = build_cycle()
                .with_collector(rec.clone())
                .run(&db, &dict)
                .expect("trace run");
            let tree = TraceBuilder::from_recorder(&rec);
            let _ = tree.chrome_trace_json();
            let _ = tree.collapsed_stacks();
            out
        });
        assert_equivalent(&out, &warm_out);
        obs_times[3].push(secs);
    }
    let _ = std::fs::remove_file(&obs_tmp);
    // Minimum over the repetitions, not the median: scheduler noise only
    // ever *adds* time, so the min isolates the cost of the code itself —
    // which is what an overhead gate needs to compare.
    let obs_mins: Vec<f64> = obs_times
        .iter()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let obs_off_s = obs_mins[0];

    // --- one profiled run feeds the telemetry stream ---
    let telemetry_path = Path::new(&out_path).with_extension("telemetry.jsonl");
    let sink = match JsonLinesWriter::create(&telemetry_path) {
        Ok(w) => Arc::new(w),
        Err(e) => {
            eprintln!(
                "cannot create telemetry file '{}': {e}",
                telemetry_path.display()
            );
            std::process::exit(1);
        }
    };
    let profiled = build_cycle()
        .with_collector(sink.clone())
        .run(&db, &dict)
        .expect("profiled run evaluates");
    sink.flush().expect("flush telemetry");

    // --- the e2e median line the CI gate parses ---
    let mut file = match std::fs::File::create(&out_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create output file '{out_path}': {e}");
            std::process::exit(1);
        }
    };
    writeln!(
        file,
        "{{\"bench\":\"cycle.e2e\",\"rows\":{},\"iterations\":{},\"mode\":\"warm\",\"median_s\":{:.6},\"ref_ms\":{:.3},\"runs\":{}}}",
        rows,
        warm_out.iterations,
        warm_s,
        warm.ref_ms(),
        runs
    )
    .expect("write bench line");
    for (sync, secs) in &journal_medians {
        writeln!(
            file,
            "{{\"bench\":\"cycle.journal\",\"rows\":{},\"iterations\":{},\"sync\":\"{}\",\"median_s\":{:.6},\"runs\":{}}}",
            rows, warm_out.iterations, sync, secs, runs
        )
        .expect("write bench line");
    }
    writeln!(
        file,
        "{{\"bench\":\"cycle.recovery\",\"rows\":{},\"replayed_actions\":{},\"median_s\":{:.6},\"runs\":{}}}",
        rows, replayed, recovery_s, runs
    )
    .expect("write bench line");
    for (mode, secs) in &storage_medians {
        writeln!(
            file,
            "{{\"bench\":\"cycle.storage\",\"rows\":{},\"iterations\":{},\"mode\":\"{}\",\"median_s\":{:.6},\"runs\":{}}}",
            rows, warm_out.iterations, mode, secs, runs
        )
        .expect("write bench line");
    }
    for (mode, secs, restores) in &storage_resume {
        writeln!(
            file,
            "{{\"bench\":\"cycle.storage\",\"rows\":{},\"mode\":\"{}\",\"median_s\":{:.6},\"disk_restores\":{},\"runs\":{}}}",
            rows, mode, secs, restores, runs
        )
        .expect("write bench line");
    }
    for (mode, secs) in OBS_MODES.iter().zip(&obs_mins) {
        writeln!(
            file,
            "{{\"bench\":\"cycle.obs_overhead\",\"rows\":{},\"iterations\":{},\"mode\":\"{}\",\"min_s\":{:.6},\"runs\":{}}}",
            rows, warm_out.iterations, mode, secs, runs
        )
        .expect("write bench line");
    }

    // --- report ---
    println!(
        "cycle bench — {} ({} rows, 4 QIs, k-anonymity k=2, T=0.5, one-tuple steps, {} iterations)",
        spec.name, rows, warm_out.iterations
    );
    println!("  cycle.e2e: {warm_s:.3}s   ({runs} run(s))");
    let w = &profiled.profile.warm;
    println!(
        "  warm profile: {} warm / {} cold evaluation(s), {} fact(s) patched, {} fallback(s) to cold\n",
        w.warm_evals, w.cold_evals, w.patched_facts, w.fallback_to_cold
    );
    for (sync, secs) in &journal_medians {
        let overhead = if warm_s == 0.0 {
            0.0
        } else {
            100.0 * (secs / warm_s - 1.0)
        };
        println!("  cycle.journal: sync={sync:<12} {secs:.3}s   ({overhead:+.1}% vs unjournaled)");
    }
    println!(
        "  cycle.recovery: resume from mid-run journal {:.3}s ({} action(s) replayed)",
        recovery_s, replayed
    );
    for (mode, secs) in &storage_medians {
        println!("  cycle.storage: engine={mode:<16} {secs:.3}s");
    }
    for (mode, secs, restores) in &storage_resume {
        println!("  cycle.storage: {mode:<23} {secs:.3}s ({restores} disk restore(s))");
    }
    for (mode, secs) in OBS_MODES.iter().zip(&obs_mins) {
        let overhead = if obs_off_s == 0.0 {
            0.0
        } else {
            100.0 * (secs / obs_off_s - 1.0)
        };
        println!(
            "  cycle.obs_overhead: mode={mode:<15} min {secs:.3}s   ({overhead:+.1}% vs telemetry off)"
        );
    }
    print!("{}", render_profile(&profiled.profile));
    println!(
        "\ncycle.e2e medians written to {out_path}, telemetry stream to {}",
        telemetry_path.display()
    );

    if obs_gate {
        for (mode, secs) in OBS_MODES.iter().zip(&obs_mins).skip(1) {
            let over = secs - obs_off_s;
            if over > obs_off_s * MAX_OBS_OVERHEAD_FRAC && over > MAX_OBS_OVERHEAD_ABS_S {
                eprintln!(
                    "OBS OVERHEAD: mode={mode} costs {over:.3}s over a bare run \
                     ({:.1}% > {:.0}% and > {:.0} ms)",
                    100.0 * over / obs_off_s,
                    100.0 * MAX_OBS_OVERHEAD_FRAC,
                    1000.0 * MAX_OBS_OVERHEAD_ABS_S
                );
                std::process::exit(1);
            }
        }
        println!(
            "obs overhead gate passed — every telemetry mode within {:.0}% or {:.0} ms of off",
            100.0 * MAX_OBS_OVERHEAD_FRAC,
            1000.0 * MAX_OBS_OVERHEAD_ABS_S
        );
    }

    if let Some(path) = baseline {
        if !reference::gate(&path, "cycle.e2e", "warm", warm_s, warm.ref_ms()) {
            std::process::exit(1);
        }
    }
}
