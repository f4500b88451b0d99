//! Million-row cycle benchmark: batched + columnar vs the one-tuple hot
//! path, written as `cycle.scale` lines.
//!
//! Usage: `bench_cycle_scale [--rows N] [--runs N] [--top-n N]
//! [--out PATH] [--baseline PATH] [--min-speedup X] [--batched-only]`
//!
//! The workload is the streaming scale regime of `vadasa-datagen`
//! (heavy-tailed classes, 256 risky sample-unique singletons, integer
//! weights, whose sums are exact in any order), run under k-anonymity
//! `k = 2`, local suppression in schema order, `T = 0.5`:
//!
//! - **one-tuple** — `BatchStrategy::OneTuple`: one suppression per
//!   iteration, one risk evaluation per suppression;
//! - **batched** — `BatchStrategy::TopN(top_n)`: each iteration clears up
//!   to `top_n` equivalence classes, so the table converges in a handful
//!   of evaluations.
//!
//! Safety is asserted before any number is reported: both modes must end
//! with zero risky tuples, and the batched run may not suppress less than
//! the one-tuple run. Results append to the `--out` file (default
//! `BENCH_cycle.json`); `--baseline` gates the batched median against a
//! committed baseline with the standard >25% regression threshold, and
//! `--min-speedup` fails the run if one-tuple/batched falls below the
//! given ratio. `--batched-only` times only the batched mode (the CI
//! smoke profile) while still running one-tuple once for the safety
//! cross-check. An unknown option, a missing value, a malformed number,
//! or `--min-speedup` with `--batched-only` prints the usage line and
//! exits 2 before anything is run or written.

use std::io::Write;
use vadasa_bench::{operand, read_baseline_median, time_it};
use vadasa_core::prelude::*;
use vadasa_datagen::scale::{generate_scale, ScaleSpec};

/// The regression threshold the CI scale-smoke gate enforces (same as
/// `bench_engine` and `bench_cycle_profile`).
const MAX_REGRESSION: f64 = 1.25;

fn usage() -> ! {
    eprintln!(
        "usage: bench_cycle_scale [--rows N] [--runs N] [--top-n N] [--out PATH] \
         [--baseline PATH] [--min-speedup X] [--batched-only]"
    );
    std::process::exit(2);
}

fn main() {
    let mut rows: usize = 1_000_000;
    let mut runs: usize = 3;
    let mut top_n: usize = 64;
    let mut out_path = "BENCH_cycle.json".to_string();
    let mut baseline: Option<String> = None;
    let mut min_speedup: Option<f64> = None;
    let mut batched_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rows" => rows = operand(&mut args, &arg, usage),
            "--runs" => runs = operand(&mut args, &arg, usage),
            "--top-n" => top_n = operand(&mut args, &arg, usage),
            "--out" => out_path = operand(&mut args, &arg, usage),
            "--baseline" => baseline = Some(operand(&mut args, &arg, usage)),
            "--min-speedup" => min_speedup = Some(operand(&mut args, &arg, usage)),
            "--batched-only" => batched_only = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unrecognised argument '{other}'");
                usage()
            }
        }
    }
    if min_speedup.is_some() && batched_only {
        eprintln!("--min-speedup requires the one-tuple mode; drop --batched-only");
        usage()
    }
    let runs = runs.max(1);
    let top_n = top_n.max(1);

    let spec = ScaleSpec::new(rows);
    let (db, dict) = generate_scale(&spec);
    let risk = KAnonymity::new(2);
    let anonymizer = LocalSuppression::new(AttributeOrder::SchemaOrder);
    let config = |batch: BatchStrategy| CycleConfig {
        threshold: 0.5,
        tuple_order: TupleOrder::Fifo,
        batch: Some(batch),
        ..CycleConfig::default()
    };
    let run_once = |batch: BatchStrategy| -> CycleOutcome {
        AnonymizationCycle::new(&risk, &anonymizer, config(batch))
            .run(&db, &dict)
            .expect("scale workload runs")
    };

    // --- safety first: both modes converge, batched never less safe ---
    let one = run_once(BatchStrategy::OneTuple);
    let batched = run_once(BatchStrategy::TopN(top_n));
    let mut violations: Vec<String> = Vec::new();
    if one.final_risky != 0 {
        violations.push(format!("one-tuple left {} risky tuple(s)", one.final_risky));
    }
    if batched.final_risky != 0 {
        violations.push(format!(
            "batched left {} risky tuple(s)",
            batched.final_risky
        ));
    }
    if batched.nulls_injected < one.nulls_injected {
        violations.push(format!(
            "batched suppressed less than one-tuple ({} vs {})",
            batched.nulls_injected, one.nulls_injected
        ));
    }
    if batched.iterations > one.iterations {
        violations.push(format!(
            "batched took more iterations than one-tuple ({} vs {})",
            batched.iterations, one.iterations
        ));
    }
    if !violations.is_empty() {
        eprintln!(
            "SAFETY VIOLATION — refusing to report timings: {}",
            violations.join("; ")
        );
        std::process::exit(1);
    }

    // --- medians ---
    let median_of = |batch: BatchStrategy| -> f64 {
        let mut times: Vec<f64> = (0..runs).map(|_| time_it(|| run_once(batch)).1).collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    let batched_s = median_of(BatchStrategy::TopN(top_n));
    let one_s = if batched_only {
        None
    } else {
        Some(median_of(BatchStrategy::OneTuple))
    };
    let speedup = one_s.map(|o| {
        if batched_s == 0.0 {
            f64::INFINITY
        } else {
            o / batched_s
        }
    });

    // --- append cycle.scale lines ---
    let append = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path);
    let mut file = match append {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot append bench lines to '{out_path}': {e}");
            std::process::exit(1);
        }
    };
    let k = rows / 1000;
    if let Some(o) = one_s {
        writeln!(
            file,
            "{{\"bench\":\"cycle.scale\",\"rows\":{},\"mode\":\"one-tuple@{}k\",\"median_s\":{:.6},\"runs\":{}}}",
            rows, k, o, runs
        )
        .expect("write bench line");
    }
    writeln!(
        file,
        "{{\"bench\":\"cycle.scale\",\"rows\":{},\"mode\":\"batched@{}k\",\"median_s\":{:.6},\"runs\":{}}}",
        rows, k, batched_s, runs
    )
    .expect("write bench line");
    if let Some(s) = speedup {
        writeln!(
            file,
            "{{\"bench\":\"cycle.scale\",\"rows\":{},\"speedup\":{:.3}}}",
            rows, s
        )
        .expect("write bench line");
    }

    // --- report ---
    println!(
        "cycle.scale — {} rows, {} risky singleton(s), k-anonymity k=2, T=0.5, {} run(s)/mode",
        rows, spec.risky, runs
    );
    println!(
        "  batched (TopN({top_n})): {:.3}s   {} iteration(s), {} suppression(s)",
        batched_s, batched.iterations, batched.nulls_injected
    );
    if let (Some(o), Some(s)) = (one_s, speedup) {
        println!(
            "  one-tuple: {:.3}s   {} iteration(s), {} suppression(s)",
            o, one.iterations, one.nulls_injected
        );
        println!("  speedup: {s:.2}x");
    }
    println!("cycle.scale lines appended to {out_path}");

    if let (Some(floor), Some(s)) = (min_speedup, speedup) {
        if s < floor {
            eprintln!("SPEEDUP BELOW FLOOR: {s:.2}x < required {floor:.2}x");
            std::process::exit(1);
        }
        println!("speedup gate passed: {s:.2}x >= {floor:.2}x");
    }

    if let Some(path) = baseline {
        let mode = format!("batched@{k}k");
        match read_baseline_median(&path, "cycle.scale", &mode) {
            Ok(base) => {
                let ratio = batched_s / base;
                println!(
                    "baseline check — batched median {:.3}s vs baseline {:.3}s ({:.2}x)",
                    batched_s, base, ratio
                );
                if ratio > MAX_REGRESSION {
                    eprintln!(
                        "PERF REGRESSION: batched scale median {:.3}s exceeds baseline {:.3}s by more than {:.0}%",
                        batched_s,
                        base,
                        (MAX_REGRESSION - 1.0) * 100.0
                    );
                    std::process::exit(1);
                }
            }
            Err(msg) => {
                eprintln!("baseline check failed: {msg}");
                std::process::exit(1);
            }
        }
    }
}
