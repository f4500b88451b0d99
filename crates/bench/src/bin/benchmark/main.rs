//! `benchmark` — the repository benchmark.
//!
//! ```text
//! benchmark [run] [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//!                 [--trace-dir DIR] [--out FILE] [--smoke]
//! benchmark compare A.jsonl B.jsonl [--spec BENCHMARK.json]
//! ```
//!
//! `run` with a workload measures it for `--seconds` and prints two lines:
//! the full record (run context, op tally, metrics) and, last, the result
//! object `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! report the end-to-end metrics; `--trace 1` reruns the workload with
//! spans around every public call, performs the isolated layer calls and
//! reports the per-layer metrics, writing a Chrome trace and collapsed
//! stacks to `--trace-dir`. Without `--workload`, every workload runs in a
//! child process of its own. `--out` appends each record to a JSON-lines
//! file, the input of `compare`. Scratch files live under `.bench_run/`
//! in the working directory and are removed after each run.

mod check;
mod compare;
mod data;
mod metrics;
mod probes;
mod reference;
mod sys;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use workloads::{Opts, WorkloadDef, WORKLOADS};

/// Scratch and trace output, relative to the working directory.
const RUN_DIR: &str = ".bench_run";
/// Seconds one run measures when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 25;

pub fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "benchmark: {problem}\n\
         usage: benchmark [run] [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]\n\
         \x20                      [--trace-dir DIR] [--out FILE] [--smoke]\n\
         \x20      benchmark compare A.jsonl B.jsonl [--spec BENCHMARK.json]\n\
         workloads:\n{}",
        WORKLOADS
            .map(|w| format!("  {:<16} {}", w.name, w.why))
            .join("\n")
    );
    ExitCode::from(2)
}

struct RunArgs {
    workload: Option<&'static WorkloadDef>,
    seed: u64,
    seconds: u64,
    traced: bool,
    trace_dir: PathBuf,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: data::BASE_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        trace_dir: Path::new(RUN_DIR).join("trace"),
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            r.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                r.workload = Some(
                    workloads::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => r.seed = number()?,
            "--seconds" => r.seconds = number()?.max(1),
            "--trace" => {
                r.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--trace-dir" => r.trace_dir = PathBuf::from(value),
            "--out" => r.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(r)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run_args = match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("-h" | "--help") => return usage("help"),
        Some("run") => &args[1..],
        _ => &args[..],
    };
    match parse_run(run_args) {
        Err(e) => usage(&e),
        Ok(r) => match r.workload {
            Some(def) => run_one(def, &r),
            None => run_all(&r),
        },
    }
}

fn run_one(def: &'static WorkloadDef, r: &RunArgs) -> ExitCode {
    let scratch = Path::new(RUN_DIR).join(format!("{}-{}", def.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("benchmark: scratch directory {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let opts = Opts {
        seed: r.seed,
        seconds: r.seconds,
        traced: r.traced,
        smoke: r.smoke,
        scratch: scratch.clone(),
        trace_dir: r.trace_dir.clone(),
    };
    let result = workloads::run(def, &opts);
    let _ = std::fs::remove_dir_all(&scratch);
    let record = match result {
        Ok(record) => record,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", def.name);
            return ExitCode::FAILURE;
        }
    };
    let line = record.to_json().to_string();
    println!("{line}");
    if let Some(out) = &r.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("benchmark: appending to {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    for failure in &record.failures {
        eprintln!("benchmark: {}: {failure}", def.name);
    }
    println!("{}", record.result_line());
    ExitCode::SUCCESS
}

/// Every workload, each in a child process of its own so that its peak
/// memory is its own.
fn run_all(r: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: locating own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name])
            .args(["--seed", &r.seed.to_string()])
            .args(["--seconds", &r.seconds.to_string()])
            .args(["--trace", if r.traced { "1" } else { "0" }])
            .arg("--trace-dir")
            .arg(&r.trace_dir);
        if let Some(out) = &r.out {
            child.arg("--out").arg(out);
        }
        if r.smoke {
            child.arg("--smoke");
        }
        match child.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("benchmark: {} exited with {s}", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("benchmark: starting {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadasa_core::obs::json::{self, Json};

    /// The repository root: the nearest directory above the package that
    /// holds `BENCHMARK.json` (this directory is built both as a package of
    /// its own and as a binary of `vadasa-bench`).
    fn repo_root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the benchmark")
    }

    fn spec() -> Json {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json reads");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
        match spec.get(key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    #[test]
    fn benchmark_json_names_what_the_benchmark_emits() {
        let spec = spec();
        let workloads: Vec<&str> = entries(&spec, "workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name));
        for (key, catalogue) in [
            ("end_to_end", &metrics::E2E[..]),
            ("per_layer", &metrics::LAYERS[..]),
        ] {
            let listed = entries(&spec, key);
            assert_eq!(listed.len(), catalogue.len(), "{key}");
            for (entry, m) in listed.iter().zip(catalogue) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(m.better.name())
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        let run_seconds = spec.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS as f64));
        let bounds = compare::read_spec(&spec.to_string()).expect("bounds parse");
        assert_eq!(bounds.len(), metrics::E2E.len());
    }

    /// Every workload at smoke size, untraced and traced: every op passes
    /// its checks, and exactly the catalogued metrics come out, measured.
    #[test]
    fn smoke_runs_pass_every_check() {
        let root = repo_root().join(RUN_DIR);
        for def in &WORKLOADS {
            for traced in [false, true] {
                let scratch = root.join(format!("test-{}-{}", def.name, std::process::id()));
                std::fs::create_dir_all(&scratch).unwrap();
                let opts = Opts {
                    seed: 11,
                    seconds: 1,
                    traced,
                    smoke: true,
                    scratch: scratch.clone(),
                    trace_dir: scratch.join("trace"),
                };
                let record = workloads::run(def, &opts);
                let _ = std::fs::remove_dir_all(&scratch);
                let record = record.unwrap_or_else(|e| panic!("{}: {e}", def.name));
                assert!(record.attempted >= 1, "{}", def.name);
                assert_eq!(record.failed, 0, "{}: {:?}", def.name, record.failures);
                let catalogue = if traced {
                    &metrics::LAYERS[..]
                } else {
                    &metrics::E2E[..]
                };
                let names: Vec<&str> = record.metrics.iter().map(|(m, _)| m.name).collect();
                assert_eq!(names, catalogue.iter().map(|m| m.name).collect::<Vec<_>>());
                for (m, v) in &record.metrics {
                    assert!(v.is_finite(), "{} {}: {v}", def.name, m.name);
                }
                let line = json::parse(&record.result_line()).unwrap();
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            }
        }
    }
}
