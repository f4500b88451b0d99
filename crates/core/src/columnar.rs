//! Columnar quasi-identifier storage and partitioned group statistics.
//!
//! The row-based [`group_stats`](crate::maybe_match::group_stats) pass
//! clones and hashes `Value`s per cell, which caps the cycle at tens of
//! thousands of rows. This module stores the projected quasi-identifier
//! table *columnarly*: every column gets a [`ColumnDict`] interning each
//! distinct `Value` once, rows become flat `u32` code slices, and labelled
//! nulls are additionally tracked in a per-row bitmask. Group formation
//! then runs over integer codes — no `Value` clones, no deep hashing —
//! and, because equivalence classes are disjoint by construction, the
//! regrouping and per-row scoring passes shard across a
//! [`std::thread::scope`] pool with a deterministic sequential merge (the
//! same discipline the engine uses for parallel rule evaluation).
//!
//! # Determinism
//!
//! Counts are integers and therefore exact regardless of evaluation
//! order. Weight sums are `f64` additions, whose bit pattern depends on
//! association order, so the parallel path is only taken when
//! [`weights_exactly_summable`] holds (every weight an integer-valued
//! `f64` below `2^53`, where addition is exact and order-free). Under
//! that gate the result is bit-identical at *any* thread count; without
//! it the kernel silently falls back to the sequential order. The
//! maybe-match null phases iterate masks in sorted order (`BTreeMap`),
//! never in hash order, so repeated runs are byte-stable even for
//! non-summable weights.

use crate::maybe_match::{weights_exactly_summable, GroupStats, NullSemantics};
use std::collections::{BTreeMap, HashMap};
use vadalog::Value;

/// Rows below this count are never sharded: thread spawn overhead
/// dominates the work.
const MIN_ROWS_PER_THREAD: usize = 4096;

/// Per-column dictionary interning each distinct cell `Value` once.
///
/// Codes are dense (`0..len`) and assigned in first-appearance order, so
/// building a dictionary from the same column always yields the same
/// codes — snapshots and fingerprints may rely on this.
#[derive(Debug, Clone, Default)]
pub struct ColumnDict {
    values: Vec<Value>,
    lookup: HashMap<Value, u32>,
}

impl ColumnDict {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Code for `v`, interning it on first sight. Clones `v` only when it
    /// is new to the column.
    pub fn intern(&mut self, v: &Value) -> u32 {
        if let Some(&c) = self.lookup.get(v) {
            return c;
        }
        let c = self.values.len() as u32;
        self.values.push(v.clone());
        self.lookup.insert(v.clone(), c);
        c
    }

    /// The value a code stands for.
    pub fn value(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// Code for `v` if it is already interned.
    pub fn code(&self, v: &Value) -> Option<u32> {
        self.lookup.get(v).copied()
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Distinct values in code order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Approximate retained heap bytes (dictionary side only).
    pub fn retained_bytes(&self) -> usize {
        self.values.len() * (std::mem::size_of::<Value>() + std::mem::size_of::<u64>())
    }
}

/// Do two coded rows match under `sem`? `am`/`bm` are the rows' null
/// bitmasks over the same column positions as the code slices.
#[inline]
pub fn codes_match(a: &[u32], am: u64, b: &[u32], bm: u64, sem: NullSemantics) -> bool {
    match sem {
        // Labelled nulls intern to distinct codes, so plain code equality
        // is exactly Skolem-chase equality.
        NullSemantics::Standard => a == b,
        NullSemantics::MaybeMatch => {
            let union = am | bm;
            if union == 0 {
                a == b
            } else {
                a.iter()
                    .zip(b.iter())
                    .enumerate()
                    .all(|(c, (x, y))| (union >> c) & 1 == 1 || x == y)
            }
        }
    }
}

/// Bitmask of the positions where two coded rows hold different codes.
#[inline]
pub(crate) fn mismatch_bits(a: &[u32], b: &[u32]) -> u64 {
    a.iter()
        .zip(b)
        .enumerate()
        .fold(0, |m, (c, (x, y))| m | (u64::from(x != y) << c))
}

/// Even row-range split for `threads` workers over `n` rows.
fn chunk_ranges(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let t = threads.max(1).min(n.max(1));
    let base = n / t;
    let extra = n % t;
    let mut out = Vec::with_capacity(t);
    let mut start = 0;
    for i in 0..t {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// How many shards to actually use for `n` rows, honouring the
/// summability gate (parallel weight sums must be exact to stay
/// bit-identical to the sequential order).
fn effective_threads(n: usize, threads: usize, weights: Option<&[f64]>) -> usize {
    if threads <= 1 || n < 2 * MIN_ROWS_PER_THREAD || !weights_exactly_summable(weights) {
        1
    } else {
        threads.min(n / MIN_ROWS_PER_THREAD).max(1)
    }
}

/// Map rows `0..n` through `f` into a fresh `Vec`, sharding across
/// `threads` scoped workers. Chunks are written into pre-allocated slots
/// and concatenated in chunk order, so the output is identical to the
/// sequential map for any thread count.
pub fn par_map_rows<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let t = if threads <= 1 || n < 2 * MIN_ROWS_PER_THREAD {
        1
    } else {
        threads.min(n / MIN_ROWS_PER_THREAD).max(1)
    };
    if t == 1 {
        return (0..n).map(f).collect();
    }
    let ranges = chunk_ranges(n, t);
    let mut slots: Vec<Option<Vec<T>>> = Vec::new();
    slots.resize_with(ranges.len(), || None);
    std::thread::scope(|s| {
        for (slot, &(lo, hi)) in slots.iter_mut().zip(ranges.iter()) {
            let f = &f;
            s.spawn(move || {
                *slot = Some((lo..hi).map(f).collect());
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for chunk in slots.into_iter().flatten() {
        out.extend(chunk);
    }
    out
}

/// Group statistics over a coded table restricted to the listed column
/// `positions`, the columnar equivalent of
/// [`group_stats_on`](crate::maybe_match::group_stats_on) (pass all
/// positions for the full [`group_stats`](crate::maybe_match::group_stats)
/// semantics). `codes` is row-major with stride `width`;
/// `null_masks[i] & (1 << c)` says row `i` is null in column `c`.
///
/// Produces exactly the per-row counts and weight sums of the row-based
/// pass; see the module docs for when the sharded path engages and why
/// it is bit-identical.
pub fn group_stats_codes(
    codes: &[u32],
    null_masks: &[u64],
    width: usize,
    positions: &[usize],
    weights: Option<&[f64]>,
    sem: NullSemantics,
    threads: usize,
) -> GroupStats {
    let n = null_masks.len();
    let w = |i: usize| weights.map(|w| w[i]).unwrap_or(1.0);
    if n == 0 {
        return GroupStats {
            count: Vec::new(),
            weight_sum: Vec::new(),
        };
    }
    if positions.is_empty() {
        // Zero projected columns: every row matches every row.
        let total: f64 = (0..n).map(w).sum();
        return GroupStats {
            count: vec![n; n],
            weight_sum: vec![total; n],
        };
    }

    let pos_bits: u64 = positions.iter().fold(0u64, |m, &p| m | (1 << p));
    let full = positions.len() == width && positions.iter().enumerate().all(|(i, &p)| i == p);

    // Under standard semantics — or maybe-match with no null in any
    // projected cell — matching is exact code equality, a single
    // shardable hash-grouping pass.
    let no_nulls = null_masks.iter().all(|&m| m & pos_bits == 0);
    if sem == NullSemantics::Standard || no_nulls {
        return exact_grouping(codes, width, positions, full, None, n, weights, threads);
    }

    // --- maybe-match with nulls present ---
    let nulled: Vec<usize> = (0..n).filter(|&i| null_masks[i] & pos_bits != 0).collect();

    // Exact grouping of the complete rows (rows with no projected null).
    let skip_mask = pos_bits;
    let mut stats = exact_grouping(
        codes,
        width,
        positions,
        full,
        Some((null_masks, skip_mask)),
        n,
        weights,
        threads,
    );

    // Group nulled rows by their projected null mask; masks iterate in
    // sorted order so the accumulation order never depends on hash seeds.
    let mut by_mask: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for &i in &nulled {
        by_mask.entry(null_masks[i] & pos_bits).or_default().push(i);
    }

    for (mask, members) in &by_mask {
        let const_cols: Vec<usize> = positions
            .iter()
            .copied()
            .filter(|&c| mask & (1 << c) == 0)
            .collect();
        // Index the complete rows on the mask's constant positions.
        let mut index: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for i in 0..n {
            if null_masks[i] & pos_bits != 0 {
                continue;
            }
            let key: Vec<u32> = const_cols.iter().map(|&c| codes[i * width + c]).collect();
            index.entry(key).or_default().push(i);
        }
        for &i in members {
            let key: Vec<u32> = const_cols.iter().map(|&c| codes[i * width + c]).collect();
            if let Some(bucket) = index.get(&key) {
                // Nulled row i matches every complete row in the bucket,
                // and vice versa (maybe-match is symmetric).
                stats.count[i] += bucket.len();
                for &j in bucket {
                    stats.weight_sum[i] += w(j);
                    stats.count[j] += 1;
                    stats.weight_sum[j] += w(i);
                }
            }
        }
    }

    // Nulled-vs-nulled (including self): pairwise over the null-carrying
    // rows, mirroring the row-based pass increment for increment.
    for (a_pos, &i) in nulled.iter().enumerate() {
        stats.count[i] += 1; // self
        stats.weight_sum[i] += w(i);
        for &j in nulled.iter().skip(a_pos + 1) {
            if projected_maybe_match(codes, null_masks, width, positions, pos_bits, i, j) {
                stats.count[i] += 1;
                stats.weight_sum[i] += w(j);
                stats.count[j] += 1;
                stats.weight_sum[j] += w(i);
            }
        }
    }

    stats
}

/// Maybe-match between rows `i` and `j` on the projected positions.
#[inline]
fn projected_maybe_match(
    codes: &[u32],
    null_masks: &[u64],
    width: usize,
    positions: &[usize],
    pos_bits: u64,
    i: usize,
    j: usize,
) -> bool {
    let union = (null_masks[i] | null_masks[j]) & pos_bits;
    positions
        .iter()
        .all(|&c| (union >> c) & 1 == 1 || codes[i * width + c] == codes[j * width + c])
}

/// One exact hash-grouping pass over the coded table. `skip` optionally
/// excludes rows whose null mask intersects the given bits (their slots
/// stay zero for the caller's null phases). Shards when profitable and
/// exact; merges shard subtotals in chunk order.
#[allow(clippy::too_many_arguments)]
fn exact_grouping(
    codes: &[u32],
    width: usize,
    positions: &[usize],
    full: bool,
    skip: Option<(&[u64], u64)>,
    n: usize,
    weights: Option<&[f64]>,
    threads: usize,
) -> GroupStats {
    let w = |i: usize| weights.map(|w| w[i]).unwrap_or(1.0);
    let skipped = |i: usize| match skip {
        Some((masks, bits)) => masks[i] & bits != 0,
        None => false,
    };
    let key_of =
        |i: usize| -> Vec<u32> { positions.iter().map(|&p| codes[i * width + p]).collect() };

    let t = effective_threads(n, threads, weights);

    // Aggregate. Full-width keys borrow the code slice directly (zero
    // allocation); sub-projections build small `Vec<u32>` keys. The
    // full-width maps grow on demand: a table has far fewer distinct
    // patterns than rows (229 among 12k in the regime-U survey), so a
    // slot per row would be mostly empty.
    let mut count = vec![0usize; n];
    let mut weight_sum = vec![0.0f64; n];
    if full {
        let agg: HashMap<&[u32], (usize, f64)> = if t == 1 {
            let mut agg: HashMap<&[u32], (usize, f64)> = HashMap::new();
            for i in 0..n {
                if skipped(i) {
                    continue;
                }
                let e = agg
                    .entry(&codes[i * width..(i + 1) * width])
                    .or_insert((0, 0.0));
                e.0 += 1;
                e.1 += w(i);
            }
            agg
        } else {
            let ranges = chunk_ranges(n, t);
            type ShardAgg<'a> = Option<HashMap<&'a [u32], (usize, f64)>>;
            let mut slots: Vec<ShardAgg<'_>> = Vec::new();
            slots.resize_with(ranges.len(), || None);
            std::thread::scope(|s| {
                for (slot, &(lo, hi)) in slots.iter_mut().zip(ranges.iter()) {
                    s.spawn(move || {
                        let mut local: HashMap<&[u32], (usize, f64)> = HashMap::new();
                        for i in lo..hi {
                            if skipped(i) {
                                continue;
                            }
                            let e = local
                                .entry(&codes[i * width..(i + 1) * width])
                                .or_insert((0, 0.0));
                            e.0 += 1;
                            e.1 += w(i);
                        }
                        *slot = Some(local);
                    });
                }
            });
            // Deterministic sequential merge in chunk order; integer
            // counts and gate-exact weight sums make the grouping of the
            // additions immaterial to the result bits.
            let mut agg: HashMap<&[u32], (usize, f64)> = HashMap::new();
            for slot in slots.into_iter().flatten() {
                for (k, (c, s2)) in slot {
                    let e = agg.entry(k).or_insert((0, 0.0));
                    e.0 += c;
                    e.1 += s2;
                }
            }
            agg
        };
        // Fill phase: read-only lookups into disjoint output chunks.
        if t == 1 {
            for i in 0..n {
                if skipped(i) {
                    continue;
                }
                if let Some(&(c, s2)) = agg.get(&codes[i * width..(i + 1) * width]) {
                    count[i] = c;
                    weight_sum[i] = s2;
                }
            }
            return GroupStats { count, weight_sum };
        }
        let ranges = chunk_ranges(n, t);
        std::thread::scope(|s| {
            let mut crem: &mut [usize] = &mut count;
            let mut wrem: &mut [f64] = &mut weight_sum;
            for &(lo, hi) in &ranges {
                let (chead, ctail) = crem.split_at_mut(hi - lo);
                let (whead, wtail) = wrem.split_at_mut(hi - lo);
                crem = ctail;
                wrem = wtail;
                let agg = &agg;
                s.spawn(move || {
                    for i in lo..hi {
                        if skipped(i) {
                            continue;
                        }
                        if let Some(&(c, s2)) = agg.get(&codes[i * width..(i + 1) * width]) {
                            chead[i - lo] = c;
                            whead[i - lo] = s2;
                        }
                    }
                });
            }
        });
    } else {
        // Sub-projection path (SUDA's subset sweeps): small tables,
        // sequential is fine.
        let mut agg: HashMap<Vec<u32>, (usize, f64)> = HashMap::with_capacity(n);
        for i in 0..n {
            if skipped(i) {
                continue;
            }
            let e = agg.entry(key_of(i)).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += w(i);
        }
        for i in 0..n {
            if skipped(i) {
                continue;
            }
            if let Some(&(c, s2)) = agg.get(&key_of(i)) {
                count[i] = c;
                weight_sum[i] = s2;
            }
        }
    }
    GroupStats { count, weight_sum }
}

/// Incrementally repair `stats` after row `row` changed a single cell:
/// the columnar analogue of
/// [`GroupStats::apply_row_change`](crate::maybe_match::GroupStats::apply_row_change),
/// with the same exactness caveat (gate on [`weights_exactly_summable`]
/// for bit-identical warm ≡ cold). `codes`/`null_masks` must already hold
/// the *new* contents; `old_codes`/`old_mask` are the row's previous coded
/// contents.
///
/// One pass does both halves: every other row whose match with the
/// changed row flipped gains or loses its weight, and the changed row's
/// own group is recounted. The recount adds weights in row order, the
/// row's own weight at its own index, exactly as a cold pass would. Each
/// row is compared once against the new contents; only the changed
/// columns are compared again against the old.
#[allow(clippy::too_many_arguments)]
pub fn apply_cell_change_codes(
    codes: &[u32],
    null_masks: &[u64],
    width: usize,
    weights: Option<&[f64]>,
    sem: NullSemantics,
    row: usize,
    old_codes: &[u32],
    old_mask: u64,
    stats: &mut GroupStats,
) {
    let w = |i: usize| weights.map(|w| w[i]).unwrap_or(1.0);
    let w_row = w(row);
    let new_codes = &codes[row * width..(row + 1) * width];
    let new_mask = null_masks[row];
    // the other columns kept their code and null bit
    let changed = mismatch_bits(old_codes, new_codes);
    let mut count = 0usize;
    let mut sum = 0.0f64;
    for (j, &om) in null_masks.iter().enumerate() {
        if j == row {
            count += 1;
            sum += w_row;
            continue;
        }
        let other = &codes[j * width..(j + 1) * width];
        let diff = mismatch_bits(other, new_codes);
        let mut old_diff = diff & !changed;
        let mut bits = changed;
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            old_diff |= u64::from(other[c] != old_codes[c]) << c;
            bits &= bits - 1;
        }
        let (now, was) = match sem {
            NullSemantics::Standard => (diff == 0, old_diff == 0),
            NullSemantics::MaybeMatch => (
                diff & !(new_mask | om) == 0,
                old_diff & !(old_mask | om) == 0,
            ),
        };
        if now {
            count += 1;
            sum += w(j);
        }
        if now == was {
            continue;
        }
        if now {
            stats.count[j] += 1;
            stats.weight_sum[j] += w_row;
        } else {
            stats.count[j] -= 1;
            stats.weight_sum[j] -= w_row;
        }
    }
    stats.count[row] = count;
    stats.weight_sum[row] = sum;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maybe_match::{group_stats, group_stats_on};
    use proptest::prelude::*;

    /// Encode a row-major `Value` table into (codes, masks, width).
    fn encode(rows: &[Vec<Value>]) -> (Vec<u32>, Vec<u64>, usize) {
        let width = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut dicts: Vec<ColumnDict> = (0..width).map(|_| ColumnDict::new()).collect();
        let mut codes = Vec::with_capacity(rows.len() * width);
        let mut masks = Vec::with_capacity(rows.len());
        for r in rows {
            let mut m = 0u64;
            for (c, v) in r.iter().enumerate() {
                if v.is_null() {
                    m |= 1 << c;
                }
                codes.push(dicts[c].intern(v));
            }
            masks.push(m);
        }
        (codes, masks, width)
    }

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    fn mixed_table() -> Vec<Vec<Value>> {
        vec![
            vec![s("Roma"), Value::Null(0), s("1000+"), s("0-30")],
            vec![s("Roma"), s("Commerce"), s("1000+"), s("0-30")],
            vec![s("Roma"), s("Commerce"), s("1000+"), s("0-30")],
            vec![s("Roma"), s("Financial"), s("1000+"), s("0-30")],
            vec![s("Roma"), s("Financial"), Value::Null(3), s("0-30")],
            vec![s("Milano"), s("Construction"), s("0-200"), s("60-90")],
            vec![
                Value::Null(1),
                s("Construction"),
                s("0-200"),
                Value::Null(2),
            ],
        ]
    }

    fn assert_same(a: &GroupStats, b: &GroupStats) {
        assert_eq!(a.count, b.count, "counts diverged");
        assert_eq!(a.weight_sum, b.weight_sum, "weight sums diverged");
    }

    #[test]
    fn matches_row_based_group_stats_on_mixed_nulls() {
        let rows = mixed_table();
        let (codes, masks, width) = encode(&rows);
        let all: Vec<usize> = (0..width).collect();
        let weights: Vec<f64> = (0..rows.len()).map(|i| (i as f64 + 1.0) * 2.0).collect();
        for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
            for w in [None, Some(weights.as_slice())] {
                let colv = group_stats_codes(&codes, &masks, width, &all, w, sem, 1);
                let rowv = group_stats(&rows, w, sem);
                assert_same(&colv, &rowv);
            }
        }
    }

    #[test]
    fn matches_row_based_on_sub_projections() {
        let rows = mixed_table();
        let (codes, masks, width) = encode(&rows);
        let weights: Vec<f64> = vec![10.0, 20.0, 20.0, 30.0, 30.0, 5.0, 5.0];
        for positions in [vec![0], vec![1, 3], vec![0, 2, 3], vec![2]] {
            for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
                let colv =
                    group_stats_codes(&codes, &masks, width, &positions, Some(&weights), sem, 1);
                let rowv = group_stats_on(&rows, &positions, Some(&weights), sem);
                assert_same(&colv, &rowv);
            }
        }
    }

    #[test]
    fn sharded_equals_sequential_bitwise() {
        // Large enough to clear the per-thread row floor; integer weights
        // keep the parallel sums exact.
        let n = 3 * MIN_ROWS_PER_THREAD;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                if i % 97 == 0 {
                    vec![Value::Null(i as u64), Value::Int((i % 7) as i64)]
                } else {
                    vec![Value::Int((i % 23) as i64), Value::Int((i % 7) as i64)]
                }
            })
            .collect();
        let weights: Vec<f64> = (0..n).map(|i| ((i % 13) + 1) as f64).collect();
        let (codes, masks, width) = encode(&rows);
        let all: Vec<usize> = (0..width).collect();
        for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
            let seq = group_stats_codes(&codes, &masks, width, &all, Some(&weights), sem, 1);
            let par = group_stats_codes(&codes, &masks, width, &all, Some(&weights), sem, 4);
            assert_same(&seq, &par);
            let rowv = group_stats(&rows, Some(&weights), sem);
            assert_same(&par, &rowv);
        }
    }

    #[test]
    fn non_summable_weights_fall_back_to_sequential() {
        let n = 3 * MIN_ROWS_PER_THREAD;
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int((i % 11) as i64)]).collect();
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64 * 0.25).collect();
        let (codes, masks, width) = encode(&rows);
        let seq = group_stats_codes(
            &codes,
            &masks,
            width,
            &[0],
            Some(&weights),
            NullSemantics::MaybeMatch,
            1,
        );
        let par = group_stats_codes(
            &codes,
            &masks,
            width,
            &[0],
            Some(&weights),
            NullSemantics::MaybeMatch,
            8,
        );
        // The gate forces both through the same sequential order.
        assert_same(&seq, &par);
    }

    /// Apply `steps` (row, column, new value) one cell at a time, repairing
    /// the statistics after each, and check them against a cold regroup
    /// and the row-based pass after every step, under both semantics.
    fn check_patch_sequence(rows: &[Vec<Value>], weights: &[f64], steps: &[(usize, usize, Value)]) {
        for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
            let mut rows = rows.to_vec();
            let (mut codes, mut masks, width) = encode(&rows);
            let all: Vec<usize> = (0..width).collect();
            let mut dicts: Vec<ColumnDict> = (0..width).map(|_| ColumnDict::new()).collect();
            for (i, r) in rows.iter().enumerate() {
                for (c, v) in r.iter().enumerate() {
                    assert_eq!(dicts[c].intern(v), codes[i * width + c]);
                }
            }
            let mut stats = group_stats_codes(&codes, &masks, width, &all, Some(weights), sem, 1);
            for (row, col, v) in steps {
                let (row, col) = (*row, *col);
                let old_codes: Vec<u32> = codes[row * width..(row + 1) * width].to_vec();
                let old_mask = masks[row];
                codes[row * width + col] = dicts[col].intern(v);
                if v.is_null() {
                    masks[row] |= 1 << col;
                } else {
                    masks[row] &= !(1 << col);
                }
                rows[row][col] = v.clone();
                apply_cell_change_codes(
                    &codes,
                    &masks,
                    width,
                    Some(weights),
                    sem,
                    row,
                    &old_codes,
                    old_mask,
                    &mut stats,
                );
                let cold = group_stats_codes(&codes, &masks, width, &all, Some(weights), sem, 1);
                assert_same(&stats, &cold);
                assert_same(&stats, &group_stats(&rows, Some(weights), sem));
            }
        }
    }

    #[test]
    fn cell_patch_matches_cold_recompute() {
        // Suppress row 3's sector, then recode row 5's area.
        check_patch_sequence(
            &mixed_table(),
            &[10.0, 20.0, 20.0, 30.0, 30.0, 5.0, 5.0],
            &[(3, 1, Value::Null(9)), (5, 0, s("Torino"))],
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random suppression sequences on random tables with labelled
        /// nulls and integer weights: the one-pass repair stays
        /// bit-identical to a cold regroup after every step.
        #[test]
        fn random_suppressions_match_cold_recompute(
            table in proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof![
                        3 => (0i64..3).prop_map(Value::Int),
                        1 => (0u64..4).prop_map(Value::Null),
                    ],
                    4,
                ),
                1..=20,
            ),
            width in 1usize..=4,
            weights in proptest::collection::vec(1u32..10, 20),
            picks in proptest::collection::vec((0usize..20, 0usize..4), 1..=12),
        ) {
            let rows: Vec<Vec<Value>> = table.iter().map(|r| r[..width].to_vec()).collect();
            let weights: Vec<f64> = weights[..rows.len()].iter().map(|&w| f64::from(w)).collect();
            let steps: Vec<(usize, usize, Value)> = picks
                .iter()
                .enumerate()
                .map(|(k, &(r, c))| (r % rows.len(), c % width, Value::Null(100 + k as u64)))
                .collect();
            check_patch_sequence(&rows, &weights, &steps);
        }
    }

    #[test]
    fn par_map_rows_preserves_order() {
        let n = 3 * MIN_ROWS_PER_THREAD;
        let seq = par_map_rows(n, 1, |i| i * 3);
        let par = par_map_rows(n, 4, |i| i * 3);
        assert_eq!(seq, par);
        assert_eq!(seq[17], 51);
        assert_eq!(seq.len(), n);
    }

    #[test]
    fn dictionary_interning_is_stable_and_cheap() {
        let mut d = ColumnDict::new();
        let a = d.intern(&s("x"));
        let b = d.intern(&s("y"));
        assert_eq!(d.intern(&s("x")), a);
        assert_ne!(a, b);
        assert_eq!(d.value(b), &s("y"));
        assert_eq!(d.code(&s("y")), Some(b));
        assert_eq!(d.code(&s("z")), None);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn empty_and_zero_width_inputs() {
        let gs = group_stats_codes(&[], &[], 0, &[], None, NullSemantics::MaybeMatch, 4);
        assert!(gs.count.is_empty());
        // zero projected columns over 3 rows: one universal group
        let gs = group_stats_codes(&[], &[0, 0, 0], 0, &[], None, NullSemantics::Standard, 1);
        assert_eq!(gs.count, vec![3, 3, 3]);
        assert_eq!(gs.weight_sum, vec![3.0, 3.0, 3.0]);
    }
}
