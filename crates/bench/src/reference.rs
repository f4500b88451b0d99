//! The reference kernel: a fixed computation timed beside every gated
//! series, so that a perf gate compares a series with its baseline at one
//! host speed.
//!
//! The bench binaries run on shared hosts whose speed swings by 1.5–3×
//! between runs minutes apart, so an absolute gate on a median either
//! trips on a slow phase or misses a real slowdown in a fast one. A gated
//! series therefore times the kernel once before each of its runs, and
//! its bench line stores the kernel's median as `ref_ms` beside its own
//! `median_s`. The gate holds `(median_s / ref_ms)` against the
//! baseline's `(median_s / ref_ms)`: load moves both numbers of a line
//! together and cancels out, a change to the program moves only one.
//!
//! The kernel calls no code of the repository, so no change to the
//! program can move it. It is the repository benchmark's reference kernel
//! (`crates/bench/src/bin/benchmark/reference.rs`): hash-map updates over
//! a working set larger than the L1 and L2 caches, a sort and string
//! formatting.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The regression threshold every perf gate enforces.
pub const MAX_REGRESSION: f64 = 1.25;

/// Run the kernel once.
fn kernel() -> u64 {
    let mut counts: HashMap<u64, u64> = HashMap::with_capacity(1024);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry(black_box(x) % 20_000).or_insert(0) += i;
    }
    let mut values: Vec<u64> = counts.into_values().collect();
    values.sort_unstable();
    let labels: Vec<String> = values.iter().take(5_000).map(u64::to_string).collect();
    values[values.len() / 2] ^ labels.len() as u64
}

/// The kernel's wall time, in ms, for one run.
fn kernel_ms() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
}

/// A timed series: the seconds of each run and the kernel's milliseconds
/// measured just before it.
#[derive(Debug, Default, Clone)]
pub struct Series {
    secs: Vec<f64>,
    ref_ms: Vec<f64>,
}

impl Series {
    /// Time the kernel, then one run of `f`; returns what `f` returned.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.ref_ms.push(kernel_ms());
        let t = Instant::now();
        let out = f();
        self.secs.push(t.elapsed().as_secs_f64());
        out
    }

    /// Median seconds per run.
    pub fn median_s(&self) -> f64 {
        median(&self.secs)
    }

    /// The kernel's median milliseconds beside the runs.
    pub fn ref_ms(&self) -> f64 {
        median(&self.ref_ms)
    }

    /// Median seconds per millisecond of the kernel: the series at one
    /// host speed, for comparing it with a series timed at another.
    pub fn per_ref(&self) -> f64 {
        self.median_s() / self.ref_ms()
    }

    /// The kernel's median milliseconds beside the runs of every series
    /// given (for a line that compares series, such as a speedup).
    pub fn ref_ms_of(series: &[&Series]) -> f64 {
        let all: Vec<f64> = series
            .iter()
            .flat_map(|s| s.ref_ms.iter().copied())
            .collect();
        median(&all)
    }
}

/// The load-normalized perf gate: a series whose median is `current_s`,
/// timed beside kernel runs whose median was `ref_ms`, against the line
/// of `bench` and `mode` in the baseline file at `path`:
/// `(current_s / ref_ms) / (base_median_s / base_ref_ms)`. Prints the
/// check; returns `false`, with the reason on stderr, when that ratio
/// exceeds [`MAX_REGRESSION`] or the baseline line cannot be read.
pub fn gate(path: &str, bench: &str, mode: &str, current_s: f64, ref_ms: f64) -> bool {
    let base = crate::read_baseline_field(path, bench, mode, "median_s")
        .and_then(|s| Ok((s, crate::read_baseline_field(path, bench, mode, "ref_ms")?)));
    let (base_s, base_ref_ms) = match base {
        Ok(base) => base,
        Err(msg) => {
            eprintln!("baseline check failed: {msg}");
            return false;
        }
    };
    let ratio = (current_s / ref_ms) / (base_s / base_ref_ms);
    println!(
        "baseline check — {bench} {mode} median {current_s:.3}s at kernel {ref_ms:.2} ms vs baseline {base_s:.3}s at kernel {base_ref_ms:.2} ms ({ratio:.2}x load-normalized)"
    );
    if ratio > MAX_REGRESSION {
        eprintln!(
            "PERF REGRESSION: {bench} {mode} is {ratio:.2}x its baseline at the same kernel speed, more than {:.0}% slower",
            (MAX_REGRESSION - 1.0) * 100.0
        );
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_series_keeps_a_kernel_time_beside_each_run() {
        let mut s = Series::default();
        for _ in 0..3 {
            assert_eq!(s.time(|| 7), 7);
        }
        assert_eq!((s.secs.len(), s.ref_ms.len()), (3, 3));
        assert!(s.ref_ms() > 0.0 && s.median_s() >= 0.0);
        assert_eq!(Series::ref_ms_of(&[&s, &s]), s.ref_ms());
    }

    #[test]
    fn the_gate_divides_out_the_kernel() {
        let path = std::env::temp_dir().join(format!("vadasa-gate-{}.json", std::process::id()));
        std::fs::write(
            &path,
            "{\"bench\":\"b\",\"mode\":\"m\",\"median_s\":0.100000,\"ref_ms\":2.00,\"runs\":5}\n\
             {\"bench\":\"b\",\"mode\":\"old\",\"median_s\":0.100000,\"runs\":5}\n",
        )
        .expect("write baseline");
        let path = path.to_string_lossy().into_owned();
        // twice the time on a host twice as slow: no regression
        assert!(gate(&path, "b", "m", 0.2, 4.0));
        // 1.3x the time at the same host speed: a regression
        assert!(!gate(&path, "b", "m", 0.13, 2.0));
        // the same time on a host twice as fast: a regression
        assert!(!gate(&path, "b", "m", 0.1, 1.0));
        // a baseline line without a kernel time cannot be gated
        assert!(!gate(&path, "b", "old", 0.1, 2.0));
        let _ = std::fs::remove_file(&path);
    }
}
