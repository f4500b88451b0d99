//! `vadasa_status` — live, read-only status of a journaled Vada-SA run.
//!
//! ```text
//! vadasa_status --journal DIR [--telemetry FILE] [--json] [--watch SECS]
//! vadasa_status --jobs-root DIR [--json] [--watch SECS]
//!
//!   --journal DIR     journal directory of one run
//!   --jobs-root DIR   a vadasa_server fleet root: list every job under
//!                     it (state, storage backend, warm-artifact
//!                     freshness, progress, ETA band, torn bytes)
//!   --telemetry FILE  also summarize a JSON-lines telemetry file: span
//!                     count and the hottest spans by self time
//!   --json            emit one JSON object instead of text
//!   --watch SECS      re-read and re-print every SECS seconds until the
//!                     run finishes (or forever with --json, one JSON
//!                     object per line)
//! ```
//!
//! The tool decodes the write-ahead journal with the same total frame
//! decoder recovery uses, but never writes, truncates or locks anything —
//! it is safe to point at a directory another process is journaling into
//! right now. It reports the run identity, committed iteration count,
//! snapshot horizon and replay distance, the rows-at-risk trajectory with
//! a least-squares convergence estimate (trend, ETA, confidence band),
//! degradation/finish markers, any torn tail bytes, and — for file-backed
//! runs — whether the persisted warm-state artifact is fresh against the
//! journal (a resume would seed warm from disk), stale (cold regroup), or
//! refused by the total decoder.

use std::process::ExitCode;
use vadasa_bench::status::{
    jobs_to_json, read_jobs_root, read_status, render_jobs_table, JobStatus, StatusError,
};
use vadasa_core::obs::trace::{TraceBuilder, TraceTree};

fn usage() -> ExitCode {
    eprintln!(
        "usage: vadasa_status --journal DIR [--telemetry FILE] [--json] [--watch SECS]\n\
         \x20      vadasa_status --jobs-root DIR [--json] [--watch SECS]"
    );
    ExitCode::from(2)
}

/// Summarize a telemetry trace: span count and the top spans by self
/// time, largest first.
fn telemetry_summary(tree: &TraceTree, top_n: usize) -> Vec<(String, u64)> {
    let mut by_name: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for i in 0..tree.nodes.len() {
        *by_name.entry(tree.nodes[i].name.as_str()).or_insert(0) += tree.self_ns(i);
    }
    let mut rows: Vec<(String, u64)> = by_name
        .into_iter()
        .map(|(name, ns)| (name.to_string(), ns))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows.truncate(top_n);
    rows
}

fn print_once(status: &JobStatus, telemetry: Option<&TraceTree>, json: bool) {
    if json {
        let mut obj = status.to_json();
        if let (Some(tree), vadasa_core::obs::json::Json::Obj(members)) = (telemetry, &mut obj) {
            let spans = vadasa_core::obs::json::Json::Obj(vec![
                (
                    "count".into(),
                    vadasa_core::obs::json::Json::Num(tree.nodes.len() as f64),
                ),
                (
                    "top_self_ns".into(),
                    vadasa_core::obs::json::Json::Obj(
                        telemetry_summary(tree, 5)
                            .into_iter()
                            .map(|(name, ns)| (name, vadasa_core::obs::json::Json::Num(ns as f64)))
                            .collect(),
                    ),
                ),
            ]);
            members.push(("telemetry".into(), spans));
        }
        println!("{obj}");
    } else {
        print!("{}", status.render_text());
        if let Some(tree) = telemetry {
            println!(
                "telemetry {} span(s); hottest by self time:",
                tree.nodes.len()
            );
            for (name, ns) in telemetry_summary(tree, 5) {
                println!("          {name}  {:.3} ms", ns as f64 / 1e6);
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let switch = |name: &str| args.iter().any(|a| a == name);
    if switch("--help") || switch("-h") {
        return usage();
    }
    let telemetry_path = flag("--telemetry");
    let json = switch("--json");
    let watch: Option<u64> = match flag("--watch") {
        None => None,
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                eprintln!("--watch must be a positive number of seconds");
                return usage();
            }
        },
    };

    if let Some(root) = flag("--jobs-root") {
        if flag("--journal").is_some() {
            eprintln!("--journal and --jobs-root are mutually exclusive");
            return usage();
        }
        let root = std::path::PathBuf::from(root);
        loop {
            let jobs = match read_jobs_root(&root) {
                Ok(jobs) => jobs,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if json {
                println!("{}", jobs_to_json(&jobs));
            } else {
                print!("{}", render_jobs_table(&jobs));
            }
            // Keep watching while any job is still making progress.
            let all_settled = jobs.iter().all(|j| j.settled());
            match watch {
                Some(secs) if !all_settled => {
                    if !json {
                        println!("---");
                    }
                    std::thread::sleep(std::time::Duration::from_secs(secs));
                }
                _ => break,
            }
        }
        return ExitCode::SUCCESS;
    }

    let Some(dir) = flag("--journal") else {
        eprintln!("missing required --journal DIR (or --jobs-root DIR)");
        return usage();
    };
    let dir = std::path::PathBuf::from(dir);
    loop {
        let status = match read_status(&dir) {
            Ok(s) => s,
            Err(e @ StatusError::Io { .. }) if watch.is_some() => {
                // the writer may not have created the journal yet
                eprintln!("waiting: {e}");
                std::thread::sleep(std::time::Duration::from_secs(watch.unwrap_or(1)));
                continue;
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let tree = match &telemetry_path {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => Some(TraceBuilder::from_json_lines(&text)),
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        print_once(&status, tree.as_ref(), json);
        match watch {
            Some(secs) if status.finished.is_none() => {
                if !json {
                    println!("---");
                }
                std::thread::sleep(std::time::Duration::from_secs(secs));
            }
            _ => break,
        }
    }
    ExitCode::SUCCESS
}
