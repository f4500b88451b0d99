//! The cycle's persisted warm-statistics artifact.
//!
//! The artifact carries the cycle's equivalence-class statistics across
//! restarts ([`encode_warm_stats`] / [`decode_warm_stats`]) so
//! `AnonymizationCycle::resume` can seed its warm state from disk instead
//! of regrouping cold — bit-identically, because the persisted stats are
//! the maintained stats, which the columnar proptests already pin
//! bitwise-equal to a cold regroup. It rides the [`StorageBackend`]
//! artifact contract: CRC-framed, versioned, fingerprint-checked, with
//! every malformation decoding to a structured [`StorageError`].
//!
//! [`StorageBackend`]: vadalog::backend::StorageBackend

use crate::maybe_match::GroupStats;
use vadalog::backend::{StorageError, ARTIFACT_MAGIC};
use vadalog::frame::{self, wire, DecodeError};

/// Artifact name the cycle's persisted warm statistics are stored under
/// (inside the journal directory's artifact store).
pub const WARM_STATS_ARTIFACT: &str = "cycle.warmstats";

/// Artifact format version for persisted warm statistics.
pub const WARM_STATS_VERSION: u32 = 1;

/// A decoded [`WARM_STATS_ARTIFACT`]: the equivalence-class statistics
/// the cycle maintained, stamped with the run it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStats {
    /// Cycle iterations completed when the stats were persisted. Resume
    /// only seeds from an artifact whose iteration count matches the
    /// journal's recovered count *exactly* — anything else is stale and
    /// falls back to a cold regroup.
    pub iterations: u64,
    /// The journal run fingerprint the stats belong to.
    pub fingerprint: u64,
    /// The maintained per-row statistics.
    pub stats: GroupStats,
}

/// Frame the cycle's maintained statistics for persistence.
pub fn encode_warm_stats(iterations: u64, fingerprint: u64, stats: &GroupStats) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + stats.count.len() * 16);
    wire::put_u64(&mut payload, iterations);
    wire::put_u32(&mut payload, stats.count.len() as u32);
    for &c in &stats.count {
        wire::put_u64(&mut payload, c as u64);
    }
    for &s in &stats.weight_sum {
        wire::put_u64(&mut payload, s.to_bits());
    }
    frame::encode(ARTIFACT_MAGIC, WARM_STATS_VERSION, fingerprint, &payload)
}

/// Decode a persisted warm-statistics artifact. Total; structured errors
/// for every malformation, fingerprint mismatch included.
pub fn decode_warm_stats(
    bytes: &[u8],
    expected_fingerprint: Option<u64>,
) -> Result<WarmStats, StorageError> {
    frame::decode(
        WARM_STATS_ARTIFACT,
        ARTIFACT_MAGIC,
        WARM_STATS_VERSION,
        expected_fingerprint,
        bytes,
        |r, header| {
            let iterations = r.u64()?;
            let n = r.u32()? as usize;
            if n.saturating_mul(16) > r.remaining() {
                return Err(DecodeError::Truncated);
            }
            let mut count = Vec::with_capacity(n);
            for _ in 0..n {
                count.push(r.u64()? as usize);
            }
            let mut weight_sum = Vec::with_capacity(n);
            for _ in 0..n {
                weight_sum.push(f64::from_bits(r.u64()?));
            }
            Ok(WarmStats {
                iterations,
                fingerprint: header.fingerprint,
                stats: GroupStats { count, weight_sum },
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_stats_roundtrip_and_fingerprint_check() {
        let stats = GroupStats {
            count: vec![3, 3, 1, 3],
            weight_sum: vec![6.0, 6.0, 2.5, 6.0],
        };
        let framed = encode_warm_stats(17, 0xABCD, &stats);
        let back = decode_warm_stats(&framed, Some(0xABCD)).unwrap();
        assert_eq!(back.iterations, 17);
        assert_eq!(back.fingerprint, 0xABCD);
        assert_eq!(back.stats.count, stats.count);
        let a: Vec<u64> = back.stats.weight_sum.iter().map(|f| f.to_bits()).collect();
        let b: Vec<u64> = stats.weight_sum.iter().map(|f| f.to_bits()).collect();
        assert_eq!(a, b);
        assert!(matches!(
            decode_warm_stats(&framed, Some(0xABCE)),
            Err(StorageError::Fingerprint { .. })
        ));
    }
}
