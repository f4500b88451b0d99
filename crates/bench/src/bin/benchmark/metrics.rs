//! The metric catalogue (mirrored by `BENCHMARK.json`), the statistics the
//! benchmark reports, and the result record every run prints.

use vadasa_core::obs::json::Json;

use crate::reference;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction and — for end-to-end metrics — the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run of every workload.
/// The times are at the reference machine's speed (see `reference`).
pub const E2E: [MetricDef; 5] = [
    e2e("latency_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25),
    e2e("info_loss", "ratio", Lower, 0.005),
    e2e("peak_rss_mb", "MiB", Lower, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, reported by every traced run of every workload.
pub const LAYERS: [MetricDef; 45] = [
    layer("cycle.step_ms", "ms", Lower),
    layer("cycle.ms_per_suppression", "ms", Lower),
    layer("cycle.risk_eval_ms", "ms", Lower),
    layer("cycle.setup_ms", "ms", Lower),
    layer("cycle.outside_ms", "ms", Lower),
    layer("cycle.iterations", "count", Lower),
    layer("cycle.nulls", "count", Lower),
    layer("cycle.warm_evals", "count", Higher),
    layer("cycle.cold_evals", "count", Lower),
    layer("cycle.fallback_to_cold", "count", Lower),
    layer("view.build_ms", "ms", Lower),
    layer("groups.regroup_ms", "ms", Lower),
    layer("groups.repair_us", "us", Lower),
    layer("risk.score_ms", "ms", Lower),
    layer("anonymize.step_us", "us", Lower),
    layer("journal.run_ms", "ms", Lower),
    layer("journal.resume_ms", "ms", Lower),
    layer("journal.recover_ms", "ms", Lower),
    layer("checkpoint.read_ms", "ms", Lower),
    layer("artifact.load_ms", "ms", Lower),
    layer("journal.records", "count", Lower),
    layer("journal.bytes", "bytes", Lower),
    layer("journal.fsyncs", "count", Lower),
    layer("journal.dir_fsyncs", "count", Lower),
    layer("journal.snapshots", "count", Lower),
    layer("journal.snapshot_bytes", "bytes", Lower),
    layer("journal.replayed_actions", "count", Lower),
    layer("artifact.disk_restores", "count", Higher),
    layer("artifact.persist_errors", "count", Lower),
    layer("engine.parse_ms", "ms", Lower),
    layer("engine.facts_ms", "ms", Lower),
    layer("engine.fixpoint_ms", "ms", Lower),
    layer("engine.rounds", "count", Lower),
    layer("engine.facts_derived", "count", Lower),
    layer("engine.join_candidates", "count", Lower),
    layer("engine.useful_frac", "ratio", Higher),
    layer("engine.index_probes", "count", Lower),
    layer("engine.index_scans", "count", Lower),
    layer("engine.intern_hits", "count", Higher),
    layer("engine.planner_prunes", "count", Higher),
    layer("server.submit_ms", "ms", Lower),
    layer("server.service_ms", "ms", Lower),
    layer("server.result_ms", "ms", Lower),
    layer("datagen.generate_ms", "ms", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean (NaN for no values).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads printed here match the ones the acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Consecutive ops of a measured window that together span at least a
/// second: the latencies of those that passed their checks, the process
/// CPU time all of them took, and the wall and on-CPU times of the
/// reference kernel runs between them.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    pub latencies_ms: Vec<f64>,
    pub cpu_ms: f64,
    pub ref_ms: Vec<f64>,
    pub ref_cpu_ms: Vec<f64>,
}

/// A value per slice that completed an op.
fn per_slice(slices: &[Slice], value: impl Fn(&Slice) -> f64) -> Vec<f64> {
    slices
        .iter()
        .filter(|s| !s.latencies_ms.is_empty())
        .map(value)
        .collect()
}

/// `latency_ms`: each slice's mean op latency at the reference machine's
/// speed (by the slice's mean kernel time); the first quartile over
/// slices. Wall time also takes the moments the host stalls the process
/// outright (a stolen vCPU, a slow disk). The kernel, a few ms after each
/// op, samples such stalls less evenly than ops of hundreds of ms sit
/// through them, so some slices come out too slow; the quartile leaves
/// them out.
pub fn slice_latency_ms(slices: &[Slice]) -> f64 {
    let values = per_slice(slices, |s| {
        reference::at_ref_speed(mean(&s.latencies_ms), mean(&s.ref_ms))
    });
    quartiles(&values).0
}

/// `cpu_ms_per_op`: each slice's CPU time per op at the reference
/// machine's speed (by the kernel's on-CPU time, which leaves stolen time
/// out, as the process CPU time does); the median over slices.
pub fn slice_cpu_ms_per_op(slices: &[Slice]) -> f64 {
    median(&per_slice(slices, |s| {
        let per_op = s.cpu_ms / s.latencies_ms.len() as f64;
        reference::at_ref_speed(per_op, mean(&s.ref_cpu_ms))
    }))
}

/// Nearest-rank percentile of `values` at quantile `q ∈ (0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest round percentile with at least ten of `n` samples beyond
/// it: the tail a sample of that size supports.
pub fn tail_quantile(n: usize) -> f64 {
    const LADDER: [f64; 10] = [0.999, 0.995, 0.99, 0.98, 0.97, 0.95, 0.9, 0.85, 0.8, 0.75];
    LADDER
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
        .unwrap_or(0.5)
}

/// What one run of one workload prints: its run context, the op tally
/// and the metrics (end-to-end when untraced, per-layer when traced).
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    pub context: Vec<(String, Json)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl Record {
    /// Everything about the run, as one JSON-lines record (the input of
    /// `benchmark compare`).
    pub fn to_json(&self) -> Json {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(m, v)| (m.name.to_string(), Json::Num(*v)))
                .collect(),
        );
        Json::Obj(vec![
            ("bench".into(), Json::Str("vadasa".into())),
            ("workload".into(), Json::Str(self.workload.into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("seconds".into(), Json::Num(self.seconds as f64)),
            ("smoke".into(), Json::Bool(self.smoke)),
            ("context".into(), Json::Obj(self.context.clone())),
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ((if self.traced { "layers" } else { "e2e" }).into(), metrics),
        ])
    }

    /// The last line of standard output: `correct`, `attempted`, `failed`
    /// and every metric with its unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*v)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn host_slow_downs_cancel_out_of_the_end_to_end_values() {
        // 100 ms ops at the reference speed; in a slow phase the ops and
        // the reference kernel beside them both take 1.4 times as long
        let slice = |slow: f64, ops: usize| Slice {
            latencies_ms: vec![100.0 * slow; ops],
            cpu_ms: 100.0 * slow * ops as f64,
            ref_ms: vec![reference::REF_MS * slow; ops],
            ref_cpu_ms: vec![reference::REF_MS * slow; ops],
        };
        let mut slices: Vec<Slice> = [1.0, 1.4, 1.4, 1.0, 1.4, 1.4, 1.4]
            .into_iter()
            .map(|slow| slice(slow, 4))
            .collect();
        // a stall the ops sat through and the kernel missed
        slices[2].latencies_ms[0] += 200.0;
        // a slice whose only op failed its check does not count
        let mut failed = slice(50.0, 1);
        failed.latencies_ms.clear();
        slices.push(failed);
        assert!((slice_latency_ms(&slices) - 100.0).abs() < 1e-9);
        assert!((slice_cpu_ms_per_op(&slices) - 100.0).abs() < 1e-9);
        assert!(slice_latency_ms(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(200, 0.95), 10);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(99), 0.85);
        assert_eq!(tail_quantile(360), 0.97);
        assert_eq!(tail_quantile(2000), 0.995);
        for w in crate::workloads::WORKLOADS {
            assert!(
                samples_beyond(w.nominal_ops, w.tail_q()) >= 10,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let mut names: Vec<&str> = E2E.iter().chain(LAYERS.iter()).map(|m| m.name).collect();
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(ok(n), "bad name {n:?}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names must be unique");
    }
}
