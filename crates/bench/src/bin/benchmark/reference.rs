//! The reference kernel: a fixed computation timed beside the workload,
//! so that the end-to-end times can be given at one steady host speed.
//!
//! The benchmark runs on a shared 2-vCPU host whose speed swings by up to
//! half for minutes at a time, CPU time included: at the same commit, runs
//! minutes apart differed by 20–50% in latency, and no longer window or
//! robust statistic steadied them. The kernel is timed between ops, on the
//! same thread, so it sees the same host speed as the ops around it. Each
//! end-to-end time is divided by the kernel's time at that moment and
//! multiplied by `REF_MS`, the kernel's time on the reference machine when
//! quiet: the result reads as milliseconds (or seconds) on that machine.
//! The kernel calls no code of the repository, so a change to the program
//! moves the numbers while a change in host speed cancels out. Each record
//! also carries the raw median latency and the kernel's raw time.
//!
//! The kernel does what the workloads do most: hash-map updates over a
//! working set larger than the L1 and L2 caches, a sort and string
//! formatting.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::sys::{self, CpuClock};

/// The kernel's time, in ms, on the reference machine (a shared 2-vCPU
/// Xeon VM) in its quiet phases.
pub const REF_MS: f64 = 2.7;

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

/// One timed run of the kernel: its wall time and the time its thread
/// spent on a CPU, in ms (NaN where the latter cannot be read).
pub struct Timing {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

/// Run the kernel once and time it.
pub fn time() -> Timing {
    let cpu = || sys::cpu_seconds(CpuClock::Thread).unwrap_or(f64::NAN);
    let cpu0 = cpu();
    let t = Instant::now();
    black_box(kernel());
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    Timing {
        wall_ms,
        cpu_ms: (cpu() - cpu0) * 1e3,
    }
}

/// The kernel's median wall time over three runs, in ms.
pub fn median_ms() -> f64 {
    crate::metrics::median(&[time().wall_ms, time().wall_ms, time().wall_ms])
}

/// `value`, measured while the kernel took `ref_ms`, at the reference
/// machine's quiet speed.
pub fn at_ref_speed(value: f64, ref_ms: f64) -> f64 {
    value / ref_ms * REF_MS
}
