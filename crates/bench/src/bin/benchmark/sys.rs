//! Process and machine facts: CPU time, peak resident memory, core count,
//! the filesystem under the scratch directory, and the commit being
//! measured.

use std::path::Path;
use std::process::Command;

/// CPU clocks of `clock_gettime(2)`. They count time on a CPU to the
/// nanosecond, and leave out time the host stole from the vCPU.
#[derive(Clone, Copy)]
pub enum CpuClock {
    /// This process, all threads included (also those that have exited).
    Process = 2,
    /// The calling thread.
    Thread = 3,
}

/// `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds on `clock` (`None` where the clock cannot be read).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds(clock: CpuClock) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout
    // 64-bit Linux gives it, and `clock_gettime` writes only through the
    // pointer it is given; the clock ids are the kernel's
    // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
    let rc = unsafe { clock_gettime(clock as i32, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds(_clock: CpuClock) -> Option<f64> {
    None
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Type of the filesystem holding `path` (the longest mount-point prefix
/// in `/proc/mounts`), since fsync-heavy workloads depend on it.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let _device = f.next()?;
            let mount = f.next()?;
            let fstype = f.next()?;
            abs.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".into())
}

/// `git rev-parse HEAD` of the checkout in the working directory, when it
/// is a git checkout. Only `./.git` is consulted, never a parent directory.
pub fn git_head() -> Option<String> {
    let out = Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let head = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!head.is_empty()).then_some(head)
}
