//! Retry policy: fault classification and capped exponential backoff
//! with deterministic jitter.
//!
//! Classification is deliberately narrow. Only journal **I/O** errors
//! are transient — a disk hiccup, an `EINTR`, a full-then-freed volume
//! can all heal on retry, and the write-ahead journal makes retries
//! safe (a half-written attempt is just a torn tail the next attempt
//! truncates). Everything else fails fast: fingerprint mismatches and
//! corrupt journals are configuration/state faults a retry cannot fix,
//! plugin errors and panics are code faults, and `DidNotConverge` under
//! [`FallbackPolicy::Error`] is an explicit caller decision.
//!
//! [`FallbackPolicy::Error`]: vadasa_core::degrade::FallbackPolicy::Error

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use vadasa_core::cycle::CycleError;
use vadasa_core::journal::JournalError;

/// Whether a job failure is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Might heal on retry (journal I/O).
    Transient,
    /// Retrying cannot help; fail fast.
    Permanent,
}

/// Classify a cycle error for retry purposes.
pub fn classify(error: &CycleError) -> FaultClass {
    match error {
        CycleError::Journal(JournalError::Io { .. }) => FaultClass::Transient,
        _ => FaultClass::Permanent,
    }
}

/// Capped exponential backoff with multiplicative jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`3` → at most 4 attempts).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
    /// Jitter fraction `j ∈ [0, 1]`: each delay is scaled by a factor
    /// drawn uniformly from `[1 − j, 1 + j]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// Is another retry allowed after `attempts` full attempts?
    pub fn allows(&self, attempts: u32) -> bool {
        attempts <= self.max_retries
    }

    /// Delay before retry number `retry` (1-based). Jitter is
    /// deterministic in `(seed, retry)` so tests can pin schedules and
    /// a fleet of jobs with distinct seeds doesn't thundering-herd.
    pub fn delay(&self, retry: u32, seed: u64) -> Duration {
        let exp = retry.saturating_sub(1).min(30);
        let raw = self
            .base
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX));
        let capped = raw.min(self.cap);
        if self.jitter <= 0.0 {
            return capped;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from(retry).wrapping_mul(0x9E37_79B9));
        let factor = rng.gen_range(1.0 - self.jitter..1.0 + self.jitter);
        Duration::from_nanos((capped.as_nanos() as f64 * factor) as u64)
    }
}

/// FNV-1a of a job id — the per-job jitter seed.
pub fn jitter_seed(job_id: &str) -> u64 {
    vadalog::frame::fnv1a(job_id.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadasa_core::journal::JournalError;

    #[test]
    fn backoff_schedule_is_pinned_without_jitter() {
        let p = RetryPolicy {
            max_retries: 6,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(2),
            jitter: 0.0,
        };
        let schedule: Vec<u64> = (1..=6).map(|r| p.delay(r, 7).as_millis() as u64).collect();
        assert_eq!(schedule, vec![100, 200, 400, 800, 1600, 2000]);
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_seed_dependent() {
        let p = RetryPolicy::default();
        for retry in 1..=4 {
            let a = p.delay(retry, 42);
            let b = p.delay(retry, 42);
            assert_eq!(a, b, "same seed must give same delay");
            let nominal = p
                .base
                .saturating_mul(1 << (retry - 1))
                .min(p.cap)
                .as_secs_f64();
            let got = a.as_secs_f64();
            assert!(
                got >= nominal * (1.0 - p.jitter) - 1e-9
                    && got <= nominal * (1.0 + p.jitter) + 1e-9,
                "retry {retry}: {got}s outside jitter band around {nominal}s"
            );
        }
        assert_ne!(
            p.delay(1, jitter_seed("job-a")),
            p.delay(1, jitter_seed("job-b")),
            "different jobs must not share a schedule"
        );
    }

    #[test]
    fn huge_retry_counts_saturate_at_the_cap() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.delay(40, 0), p.cap);
        assert_eq!(p.delay(u32::MAX, 0), p.cap);
    }

    #[test]
    fn only_journal_io_is_transient() {
        let io = CycleError::Journal(JournalError::Io {
            context: "appending".into(),
            source: std::io::Error::new(std::io::ErrorKind::Interrupted, "injected"),
        });
        assert_eq!(classify(&io), FaultClass::Transient);
        let permanent = [
            CycleError::Journal(JournalError::Mismatch("fingerprint".into())),
            CycleError::Journal(JournalError::Corrupt {
                offset: 12,
                reason: "bad crc".into(),
            }),
            CycleError::Journal(JournalError::NotConfigured),
            CycleError::Plugin {
                plugin: "risk".into(),
                message: "panicked".into(),
            },
        ];
        for e in &permanent {
            assert_eq!(classify(e), FaultClass::Permanent, "{e:?} must fail fast");
        }
    }

    #[test]
    fn allows_counts_full_attempts() {
        let p = RetryPolicy::default(); // 3 retries → 4 attempts
        assert!(p.allows(1));
        assert!(p.allows(3));
        assert!(!p.allows(4));
        let never = RetryPolicy {
            max_retries: 0,
            ..p
        };
        assert!(!never.allows(1));
    }
}
