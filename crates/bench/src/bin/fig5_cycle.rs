//! Determinism probe: run the Figure-5 anonymization cycle and an
//! engine transitive-closure workload, printing a byte-stable transcript.
//!
//! Usage: `fig5_cycle [--telemetry-out FILE]`
//!
//! The output deliberately contains **no timings**: any run must print
//! exactly what its repeat prints. The CI `determinism` job runs the
//! probe twice and `diff`s both transcripts byte-for-byte — any
//! nondeterminism (iteration-order leakage, unstable null labels) fails
//! the build.
//!
//! Two segments:
//!
//! 1. the native Fig-5 cycle (k-anonymity `k = 2`, local suppression,
//!    one tuple per iteration) — final table, audit trail, final report;
//! 2. an engine transitive-closure workload over an eight-node cycle,
//!    printed as sorted fact sets.
//!
//! With `--telemetry-out FILE` the run additionally streams its telemetry
//! events — cycle and engine — as JSON lines with **redacted timings**
//! (every `t_ns`/`dur_ns`/`*_ns` quantity zeroed), so two runs must
//! produce byte-identical telemetry too. The CI determinism job diffs
//! both files.
//!
//! An unknown option or a missing value prints the usage line and exits
//! 2 before anything is written. A telemetry file that cannot be created
//! prints a plain error and exits 1 before the transcript starts; one
//! that cannot be written exits 1 too.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::sync::Arc;
use vadalog::{parse_program, Database, Engine, EngineConfig, JoinMode, Value};
use vadasa_bench::{operand, render_table};
use vadasa_core::obs::{Collector, JsonLinesWriter};
use vadasa_core::prelude::*;
use vadasa_datagen::fixtures::local_suppression_fig5a;

fn fact_sets(db: &Database) -> BTreeMap<String, BTreeSet<Vec<Value>>> {
    let mut out = BTreeMap::new();
    let names: Vec<String> = db.relation_names().map(str::to_string).collect();
    for name in names {
        let rows: BTreeSet<Vec<Value>> = db.rows(&name).into_iter().collect();
        if !rows.is_empty() {
            out.insert(name, rows);
        }
    }
    out
}

fn print_fact_sets(sets: &BTreeMap<String, BTreeSet<Vec<Value>>>) {
    for (name, rows) in sets {
        for row in rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            println!("  {name}({})", cells.join(", "));
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: fig5_cycle [--telemetry-out FILE]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut telemetry_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--telemetry-out" => telemetry_out = Some(operand(&mut args, &arg, usage)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unrecognised argument '{other}'");
                usage()
            }
        }
    }
    let sink: Option<Arc<JsonLinesWriter<_>>> = match &telemetry_out {
        Some(path) => match JsonLinesWriter::create(path) {
            Ok(w) => Some(Arc::new(w.redact_timings())),
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // --- segment 1: the Figure-5 anonymization cycle ---
    let (db, dict) = local_suppression_fig5a();
    let risk = KAnonymity::new(2);
    let anonymizer = LocalSuppression::default();
    let config = CycleConfig {
        granularity: StepGranularity::OneTuplePerIteration,
        ..CycleConfig::default()
    };
    let mut cycle = AnonymizationCycle::new(&risk, &anonymizer, config);
    if let Some(s) = &sink {
        cycle = cycle.with_collector(s.clone());
    }
    let out = cycle.run(&db, &dict).expect("fig5 cycle converges");

    println!("== fig5 cycle ==");
    println!(
        "iterations: {}   nulls injected: {}   recodings: {}   final risky: {}",
        out.iterations, out.nulls_injected, out.recodings, out.final_risky
    );
    println!(
        "termination: {:?}   information loss: {:.6}",
        out.termination, out.information_loss
    );
    println!("\naudit trail:");
    for d in &out.audit.decisions {
        println!("  {d}");
    }
    println!("\nfinal report ({}):", out.final_report.measure);
    for (i, (r, det)) in out
        .final_report
        .risks
        .iter()
        .zip(out.final_report.details.iter())
        .enumerate()
    {
        println!(
            "  tuple {i}: risk {r:.6}  frequency {}  weight {:.6}  {}",
            det.frequency, det.weight_sum, det.note
        );
    }
    let mut rows = Vec::new();
    for i in 0..out.db.len() {
        let r = out.db.row(i).expect("row exists");
        let mut cells = vec![(i + 1).to_string()];
        cells.extend(r.iter().take(5).map(|v| v.to_string()));
        rows.push(cells);
    }
    println!("\nfinal table:");
    println!(
        "{}",
        render_table(
            &["#", "Id", "Area", "Sector", "Employees", "Res.Rev"],
            &rows
        )
    );

    // --- segment 2: engine closure ---
    let src = "a(X, Y) :- e(X, Y).\n\
               tc(X, Y) :- a(X, Y).\n\
               tc(X, Z) :- a(X, Y), tc(Y, Z).";
    let program = parse_program(src).expect("closure program parses");
    let mut edges = Database::new();
    for i in 0..8i64 {
        edges.insert("e", vec![Value::Int(i), Value::Int((i + 1) % 8)]);
    }
    let engine = Engine::with_config(EngineConfig {
        join_mode: JoinMode::Indexed,
        collector: sink.clone().map(|s| s as Arc<dyn Collector>),
        ..EngineConfig::default()
    });
    let r = engine.run(&program, edges).expect("closure run evaluates");
    println!("== engine closure ==");
    println!("termination: {:?}", r.termination);
    print_fact_sets(&fact_sets(&r.db));

    if let Some(e) = sink.and_then(|s| s.flush().err()) {
        eprintln!("cannot write the telemetry file: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
