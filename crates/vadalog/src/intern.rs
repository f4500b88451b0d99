//! Global string interner backing [`Value::Str`](crate::value::Value).
//!
//! Every string that enters the engine through [`crate::Value::str`] is routed
//! through a process-wide intern table, so equal strings share one
//! `Arc<str>` allocation. Two wins follow:
//!
//! - **No repeated heap allocation**: parsing a million `val(...)` facts
//!   that mention the same attribute name allocates the name once.
//! - **Pointer-equality fast paths**: `Value::cmp` (and therefore `==` and
//!   hashing-heavy join probes) short-circuit on `Arc::ptr_eq` before
//!   falling back to byte comparison. Interned strings make the fast path
//!   the common case in join-heavy workloads.
//!
//! The table is sharded (16 shards, keyed by a FNV-1a hash of the string)
//! so engines running at once on a server's workers do not serialize on
//! one lock, and capacity-bounded: past [`SHARD_CAPACITY`] entries per
//! shard, new strings are passed through uninterned instead of growing the
//! table without bound. Interning is *semantically invisible* — an uninterned
//! `Value::Str` compares and hashes identically, just without the pointer
//! shortcut.
//!
//! [`stats`] exposes hit/miss counters; the engine snapshots them around a
//! run to report `intern_hits` in its [`EngineProfile`](crate::EngineProfile).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

/// Number of intern shards (power of two).
const NSHARDS: usize = 16;

/// Per-shard entry cap; beyond it new strings pass through uninterned.
pub const SHARD_CAPACITY: usize = 1 << 16;

static SHARDS: LazyLock<Vec<Mutex<HashSet<Arc<str>>>>> =
    LazyLock::new(|| (0..NSHARDS).map(|_| Mutex::new(HashSet::new())).collect());

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the interner's cumulative hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Lookups that found an existing entry (an allocation avoided).
    pub hits: u64,
    /// Lookups that inserted (or passed through) a new string.
    pub misses: u64,
}

/// FNV-1a — cheap, stable shard selector (not the map's hasher).
fn shard_of(s: &str) -> usize {
    (crate::frame::fnv1a(s.as_bytes()) as usize) & (NSHARDS - 1)
}

/// Recover the guard even if a panicking thread poisoned the lock: the
/// table only ever holds fully-formed `Arc<str>` entries, so the data is
/// valid regardless of where the panic happened.
fn lock_shard(idx: usize) -> MutexGuard<'static, HashSet<Arc<str>>> {
    match SHARDS[idx].lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Intern a string: return the canonical shared `Arc<str>` for its
/// contents, inserting it if the shard has room.
pub fn intern(s: &str) -> Arc<str> {
    let mut shard = lock_shard(shard_of(s));
    if let Some(existing) = shard.get(s) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return existing.clone();
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let arc: Arc<str> = Arc::from(s);
    if shard.len() < SHARD_CAPACITY {
        shard.insert(arc.clone());
    }
    arc
}

/// Cumulative interner statistics for this process.
pub fn stats() -> InternStats {
    InternStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interned_strings_share_one_allocation() {
        let a = intern("join-planner");
        let b = intern("join-planner");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&*a, "join-planner");
    }

    #[test]
    fn distinct_strings_do_not_alias() {
        let a = intern("alpha-key");
        let b = intern("beta-key");
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn stats_count_hits() {
        let before = stats();
        let _ = intern("stats-probe-string");
        let _ = intern("stats-probe-string");
        let after = stats();
        assert!(after.hits > before.hits);
        assert!(after.misses >= before.misses);
    }
}
