//! `vadasa_cycle` — run the full Vada-SA anonymization pipeline on a CSV
//! file, with optional crash-safe journaling and resume.
//!
//! ```text
//! vadasa_cycle --input survey.csv [--name NAME] [--k K] [--threshold T]
//!              [--max-iterations N] [--out released.csv]
//!              [--batch one-tuple|per-class|top-N]
//!              [--journal DIR] [--resume]
//!              [--sync every-record|every-N|on-snapshot]
//!              [--snapshot-every N]
//!              [--telemetry-out FILE] [--trace-out FILE]
//!              [--collapsed-out FILE] [--metrics-out FILE]
//! ```
//!
//! `--batch` selects the iteration heuristic: `one-tuple` acts on the
//! single highest-priority row per iteration, `per-class` clears one
//! whole equivalence class, `top-N` (e.g. `top-64`) clears up to N
//! classes per iteration — the million-row configuration. Note that
//! batching is part of a journal's identity: a `--resume` must use the
//! same `--batch` as the run that wrote the journal.
//!
//! An argument that is not one of the options above (a misspelt option,
//! say), or an option without a well-formed value, prints the usage line
//! and exits 2 before anything is read or written: a release at a
//! threshold or `k` the user did not ask for is worse than none. So is a
//! threshold that is not a finite number in `[0, 1]`, or a `k` of 0:
//! either protects nothing, and is refused the same way.
//!
//! Observability outputs (all optional, all write-once at the end of the
//! run):
//!
//! - `--telemetry-out FILE` streams every telemetry event as JSON lines
//!   (deterministically ordered; one object per line).
//! - `--trace-out FILE` writes the run's span timeline as Chrome
//!   `trace_event` JSON — open in `chrome://tracing` or Perfetto.
//! - `--collapsed-out FILE` writes collapsed stacks for flamegraph
//!   renderers.
//! - `--metrics-out FILE` writes the final live-gauge snapshot (current
//!   iteration, rows at risk, convergence trend/ETA) as one JSON object.
//!   For *live* monitoring of a journaled run, point `vadasa_status
//!   --watch` at the `--journal` directory instead.
//!
//! With `--journal DIR` every committed anonymization action is written
//! to a write-ahead journal in `DIR` (and the working table is
//! snapshotted atomically every `--snapshot-every` iterations), so a run
//! killed at *any* byte can be continued with `--resume` — landing on
//! the same released table, audit trail and risk report as a run that
//! was never interrupted. A typical crash-safe workflow:
//!
//! ```text
//! vadasa_cycle --input survey.csv --journal wal/          # killed mid-run
//! vadasa_cycle --input survey.csv --journal wal/ --resume # finishes it
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use vadasa_bench::operand;
use vadasa_core::cycle::{check_size, check_threshold, BatchStrategy, CycleConfig};
use vadasa_core::io::{read_csv, write_csv};
use vadasa_core::obs::metrics::MetricsRegistry;
use vadasa_core::obs::trace::TraceBuilder;
use vadasa_core::obs::{Collector, Fanout, JsonLinesWriter, Recorder};
use vadasa_core::pipeline::Vadasa;
use vadasa_core::prelude::{JournalConfig, SyncPolicy};
use vadasa_core::report::render_profile;

fn usage() -> ! {
    eprintln!(
        "usage: vadasa_cycle --input FILE.csv [--name NAME] [--k K] [--threshold T]\n\
         \x20                   [--max-iterations N] [--out released.csv]\n\
         \x20                   [--batch one-tuple|per-class|top-N]\n\
         \x20                   [--journal DIR] [--resume]\n\
         \x20                   [--sync every-record|every-N|on-snapshot] [--snapshot-every N]\n\
         \x20                   [--telemetry-out FILE] [--trace-out FILE]\n\
         \x20                   [--collapsed-out FILE] [--metrics-out FILE]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut input: Option<String> = None;
    let mut name = "survey".to_string();
    let mut k: usize = 2;
    let mut config = CycleConfig::default();
    let mut out: Option<String> = None;
    let mut journal: Option<String> = None;
    let mut resume = false;
    let mut sync = SyncPolicy::EveryRecord;
    let mut snapshot_every: Option<u32> = Some(16);
    let mut telemetry_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut collapsed_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--input" => input = Some(operand(&mut args, &arg, usage)),
            "--name" => name = operand(&mut args, &arg, usage),
            "--k" => k = operand(&mut args, &arg, usage),
            "--threshold" => config.threshold = operand(&mut args, &arg, usage),
            "--max-iterations" => config.max_iterations = operand(&mut args, &arg, usage),
            "--out" => out = Some(operand(&mut args, &arg, usage)),
            "--batch" => {
                let s: String = operand(&mut args, &arg, usage);
                let Some(batch) = BatchStrategy::parse(&s) else {
                    eprintln!("--batch must be one-tuple, per-class or top-N, got '{s}'");
                    usage()
                };
                config.batch = Some(batch);
            }
            "--journal" => journal = Some(operand(&mut args, &arg, usage)),
            "--resume" => resume = true,
            "--sync" => {
                let s: String = operand(&mut args, &arg, usage);
                let Some(policy) = SyncPolicy::parse(&s) else {
                    eprintln!("--sync must be every-record, every-N or on-snapshot, got '{s}'");
                    usage()
                };
                sync = policy;
            }
            "--snapshot-every" => {
                snapshot_every = Some(operand(&mut args, &arg, usage)).filter(|&n| n != 0)
            }
            "--telemetry-out" => telemetry_out = Some(operand(&mut args, &arg, usage)),
            "--trace-out" => trace_out = Some(operand(&mut args, &arg, usage)),
            "--collapsed-out" => collapsed_out = Some(operand(&mut args, &arg, usage)),
            "--metrics-out" => metrics_out = Some(operand(&mut args, &arg, usage)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unrecognised argument '{other}'");
                usage()
            }
        }
    }
    let Some(input) = input else {
        eprintln!("missing required --input FILE.csv");
        usage()
    };
    if resume && journal.is_none() {
        eprintln!("--resume requires --journal DIR");
        usage()
    }
    if let Err(e) = check_threshold(config.threshold).and_then(|()| check_size("k", k as f64)) {
        eprintln!("--{e}");
        usage()
    }

    let text = match std::fs::read_to_string(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read '{input}': {e}");
            return ExitCode::FAILURE;
        }
    };
    let db = match read_csv(&name, &text) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot parse '{input}': {e}");
            return ExitCode::FAILURE;
        }
    };

    let sink: Option<Arc<JsonLinesWriter<std::io::BufWriter<std::fs::File>>>> = match &telemetry_out
    {
        Some(path) => match JsonLinesWriter::create(path) {
            Ok(w) => Some(Arc::new(w)),
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // Trace exports replay the cycle's profile events into a recorder;
    // fan out when the JSON-lines sink is also requested.
    let recorder: Option<Arc<Recorder>> = if trace_out.is_some() || collapsed_out.is_some() {
        Some(Arc::new(Recorder::new()))
    } else {
        None
    };
    let mut collectors: Vec<Arc<dyn Collector>> = Vec::new();
    if let Some(s) = &sink {
        collectors.push(s.clone());
    }
    if let Some(r) = &recorder {
        collectors.push(r.clone());
    }
    let collector: Option<Arc<dyn Collector>> = match collectors.len() {
        0 => None,
        1 => collectors.pop(),
        _ => Some(Arc::new(Fanout::new(collectors))),
    };
    let metrics: Option<Arc<MetricsRegistry>> = if metrics_out.is_some() {
        Some(Arc::new(MetricsRegistry::new()))
    } else {
        None
    };

    config.journal = journal.map(|dir| JournalConfig {
        sync,
        snapshot_every,
        ..JournalConfig::new(dir)
    });
    let mut pipeline = Vadasa::new().k_anonymity(k).cycle_config(config);
    if let Some(c) = collector {
        pipeline = pipeline.collector(c);
    }
    if let Some(m) = &metrics {
        pipeline = pipeline.metrics(m.clone());
    }
    if resume {
        pipeline = pipeline.resume();
    }

    let release = match pipeline.run(&db) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(sink) = &sink {
        if let Err(e) = sink.flush() {
            eprintln!("cannot write telemetry: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(rec) = &recorder {
        let tree = TraceBuilder::from_recorder(rec);
        if let Some(path) = &trace_out {
            if let Err(e) = std::fs::write(path, tree.chrome_trace_json()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = &collapsed_out {
            if let Err(e) = std::fs::write(path, tree.collapsed_stacks()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let (Some(m), Some(path)) = (&metrics, &metrics_out) {
        let mut snapshot = m.snapshot_json();
        snapshot.push('\n');
        if let Err(e) = std::fs::write(path, snapshot) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let csv = write_csv(&release.outcome.db);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, csv) {
                eprintln!("cannot write '{path}': {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("released table written to {path}");
        }
        None => print!("{csv}"),
    }
    eprintln!("{}", release.summary);
    eprint!("{}", render_profile(&release.outcome.profile));
    ExitCode::SUCCESS
}
