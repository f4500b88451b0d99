//! `benchmark compare A.jsonl B.jsonl`: for every (workload, end-to-end
//! metric) pair, each side's median and quartiles over its runs, and a
//! verdict against the bound `BENCHMARK.json` fixes for the metric.

use std::collections::BTreeMap;
use std::process::ExitCode;

use vadasa_core::obs::json::{self, Json};

use crate::metrics::{median, quartiles, Better};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// A side's run-to-run spread exceeds the bound, so a change within
    /// the bound cannot be told from noise.
    Unresolved,
}

/// Quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Judge side `b` against side `a`. Worse or better means the medians
/// differ by more than `bound` (a share of `a`'s median). When either
/// side's spread exceeds the bound the pair is unresolved, unless every
/// run of `b` reads better than every run of `a`.
pub fn judge(a: &[f64], b: &[f64], bound: f64, better: Better) -> Verdict {
    let worse_by = |x: f64, y: f64| match better {
        Better::Lower => y - x,
        Better::Higher => x - y,
    };
    let (ma, mb) = (median(a), median(b));
    let change = worse_by(ma, mb) / ma.abs();
    let all_better = a.iter().all(|&x| b.iter().all(|&y| worse_by(x, y) < 0.0));
    if spread(a).max(spread(b)) > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The end-to-end metrics of a `BENCHMARK.json`: name, bound, direction.
pub fn read_spec(text: &str) -> Result<Vec<(String, f64, Better)>, String> {
    let spec = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(metrics)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            let better = m.get("better").and_then(Json::as_str).and_then(|d| {
                [Better::Lower, Better::Higher]
                    .into_iter()
                    .find(|b| b.name() == d)
            });
            match (name, bound, better) {
                (Some(n), Some(b), Some(d)) => Ok((n.to_string(), b, d)),
                _ => Err(format!("malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// One side's untraced runs of one workload.
#[derive(Debug, Default)]
pub struct Runs {
    /// Per end-to-end metric, one value per run: NaN where the run lacks
    /// the metric or it is not a finite number (NaN is written as null).
    values: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
}

impl Runs {
    /// Failed ops over attempted ops, over every run.
    fn failed_frac(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

/// Per workload, the untraced records of a JSON-lines file. Lines that
/// are not such records (final result lines, traced records, anything
/// else) are skipped.
pub fn parse_runs(text: &str, metrics: &[&str]) -> BTreeMap<String, Runs> {
    let mut runs: BTreeMap<String, Runs> = BTreeMap::new();
    for line in text.lines() {
        let Ok(rec) = json::parse(line) else { continue };
        let (Some(workload), Some(e2e @ Json::Obj(_))) =
            (rec.get("workload").and_then(Json::as_str), rec.get("e2e"))
        else {
            continue;
        };
        let side = runs.entry(workload.to_string()).or_default();
        let count = |key| rec.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        side.attempted += count("attempted");
        side.failed += count("failed");
        for &name in metrics {
            let v = e2e
                .get(name)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite());
            side.values
                .entry(name.to_string())
                .or_default()
                .push(v.unwrap_or(f64::NAN));
        }
    }
    runs
}

fn summary(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!("{:.6} [{:.6}, {:.6}] n={}", median(v), q1, q3, v.len())
}

/// One judged (workload, metric) pair, its verdict and what it rests on.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    pub detail: String,
}

/// Judge every (workload, end-to-end metric) pair of side `b` against
/// side `a`, plus each workload's failed ops. Side `b` is worse where it
/// fails a larger share of its ops than `a` (no failure is allowed for),
/// where it lacks a workload `a` ran, and where a metric is missing or not
/// a finite number in any of its runs.
pub fn compare(
    spec: &[(String, f64, Better)],
    a: &BTreeMap<String, Runs>,
    b: &BTreeMap<String, Runs>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut row = |workload: &str, metric: &str, verdict, detail: String| {
        rows.push(Row {
            workload: workload.to_string(),
            metric: metric.to_string(),
            verdict,
            detail,
        })
    };
    for w in WORKLOADS.iter().map(|w| w.name) {
        let (ra, rb) = match (a.get(w), b.get(w)) {
            (Some(ra), Some(rb)) => (ra, rb),
            (Some(_), None) => {
                row(w, "*", Verdict::Worse, "no run in B".into());
                continue;
            }
            _ => continue,
        };
        let (fa, fb) = (ra.failed_frac(), rb.failed_frac());
        let verdict = if fb > fa {
            Verdict::Worse
        } else {
            Verdict::Same
        };
        row(
            w,
            "failed_frac",
            verdict,
            format!(
                "A {fa:.6} ({} of {} ops)  B {fb:.6} ({} of {} ops)",
                ra.failed, ra.attempted, rb.failed, rb.attempted
            ),
        );
        for (metric, bound, better) in spec {
            let (va, vb) = (&ra.values[metric], &rb.values[metric]);
            let unmeasured = |v: &[f64]| v.iter().filter(|x| x.is_nan()).count();
            if unmeasured(vb) > 0 {
                let detail = format!(
                    "not measured in {} of B's {} runs",
                    unmeasured(vb),
                    vb.len()
                );
                row(w, metric, Verdict::Worse, detail);
                continue;
            }
            if unmeasured(va) > 0 {
                let detail = format!(
                    "not measured in {} of A's {} runs",
                    unmeasured(va),
                    va.len()
                );
                row(w, metric, Verdict::Unresolved, detail);
                continue;
            }
            let change = (median(vb) - median(va)) / median(va).abs();
            row(
                w,
                metric,
                judge(va, vb, *bound, *better),
                format!(
                    "{:>44} {:>44} {:>+7.2}% {:>5.1}%  (spread A {:.1}%, B {:.1}%)",
                    summary(va),
                    summary(vb),
                    change * 100.0,
                    bound * 100.0,
                    spread(va) * 100.0,
                    spread(vb) * 100.0,
                ),
            );
        }
    }
    rows
}

pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec_path = p.clone(),
                None => return crate::usage("--spec needs a path"),
            },
            f if !f.starts_with("--") => files.push(f.to_string()),
            other => return crate::usage(&format!("unknown compare flag {other}")),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return crate::usage("compare takes exactly two record files");
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let loaded = read(&spec_path)
        .and_then(|t| read_spec(&t))
        .and_then(|spec| Ok((read(a_path)?, read(b_path)?, spec)));
    let (a_text, b_text, spec) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = spec.iter().map(|(n, ..)| n.as_str()).collect();
    let (a, b) = (parse_runs(&a_text, &names), parse_runs(&b_text, &names));
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<16} {:<14} {:>44} {:>44} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let rows = compare(&spec, &a, &b);
    for r in &rows {
        println!(
            "{:<16} {:<14} {}  {:?}",
            r.workload, r.metric, r.detail, r.verdict
        );
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    if worse > 0 {
        eprintln!("benchmark compare: {worse} pair(s) worse");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [102.0, 103.0, 101.0, 102.5, 101.5];
        let slower = [112.0, 113.0, 111.0, 112.5, 111.5];
        let faster = [88.0, 89.0, 87.0, 88.5, 87.5];
        assert_eq!(judge(&a, &same, 0.08, Better::Lower), Verdict::Same);
        assert_eq!(judge(&a, &slower, 0.08, Better::Lower), Verdict::Worse);
        assert_eq!(judge(&a, &faster, 0.08, Better::Lower), Verdict::Better);
        // a throughput metric reads the other way round
        assert_eq!(judge(&a, &slower, 0.08, Better::Higher), Verdict::Better);
        assert_eq!(judge(&a, &faster, 0.08, Better::Higher), Verdict::Worse);
        // noisy side: unresolved even though the medians moved
        let noisy = [80.0, 130.0, 112.0, 95.0, 140.0];
        assert_eq!(judge(&a, &noisy, 0.08, Better::Lower), Verdict::Unresolved);
    }

    /// A run of release-default: `latency_ms` and the op tally as given.
    fn record(latency: &str, attempted: u32, failed: u32) -> String {
        format!(
            r#"{{"workload":"release-default","attempted":{attempted},"failed":{failed},"e2e":{{"latency_ms":{latency}}}}}"#
        )
    }

    fn verdicts(a: &[String], b: &[String]) -> Vec<(String, Verdict)> {
        let spec = [("latency_ms".to_string(), 0.25, Better::Lower)];
        let parse = |lines: &[String]| parse_runs(&lines.join("\n"), &["latency_ms"]);
        compare(&spec, &parse(a), &parse(b))
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn failures_and_unmeasured_metrics_count_as_worse() {
        let a: Vec<String> = (0..5)
            .map(|i| record(&format!("{}", 100 + i), 100, 0))
            .collect();
        let same = verdicts(&a, &a);
        assert!(same.iter().all(|(_, v)| *v == Verdict::Same), "{:?}", same);

        // one failed op in one of B's runs, with latencies unchanged
        let mut failing = a.clone();
        failing[2] = record("102", 100, 1);
        assert_eq!(
            verdicts(&a, &failing),
            [
                ("failed_frac".to_string(), Verdict::Worse),
                ("latency_ms".to_string(), Verdict::Same)
            ]
        );

        // every op failed: the metric came out NaN, written as null
        let mut broken = a.clone();
        broken[0] = record("null", 100, 100);
        assert_eq!(
            verdicts(&a, &broken)[1],
            ("latency_ms".to_string(), Verdict::Worse)
        );

        // B never ran the workload
        assert_eq!(verdicts(&a, &[])[0], ("*".to_string(), Verdict::Worse));
    }
}
