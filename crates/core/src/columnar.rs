//! Columnar quasi-identifier storage and pattern-level group statistics.
//!
//! The row-based [`group_stats`](crate::maybe_match::group_stats) pass
//! clones and hashes `Value`s per cell, which caps the cycle at tens of
//! thousands of rows. This module stores the projected quasi-identifier
//! table *columnarly*: every column gets a [`ColumnDict`] interning each
//! distinct `Value` once, rows become flat `u32` code slices, and labelled
//! nulls are additionally tracked in a per-row bitmask. A [`PatternIndex`]
//! gives every distinct coded row a dense id, so group formation works on
//! the table's distinct *patterns* rather than its rows (the benchmark's
//! 100k-row scale table holds 22,141 of them, the 12k-row regime-U survey
//! 229). Rows are touched twice: one array-indexed pass adds counts and
//! weights per group, and one fill pass copies each row's totals out.
//!
//! # Determinism
//!
//! Counts are integers and therefore exact. Weight sums are `f64`
//! additions, whose bit pattern depends on association order, so the
//! kernel adds every weight in the order of the row-level pass it
//! replaced: a group's own rows in row order, then its maybe-matching
//! nulled rows mask by mask (masks ascending), in row order within a
//! mask. The result is therefore bit-identical for any weights, and
//! pattern ids, which depend on the patch history, never reach an output.

use crate::maybe_match::{GroupStats, NullSemantics};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;
use vadalog::storage::ByHash;
use vadalog::Value;

/// "No id": ends a hash chain, marks an unmapped pattern.
const NONE: u32 = u32::MAX;

/// Slots of the largest [`IdentityMemo`] (16 bytes each).
const MEMO_SLOTS: usize = 1 << 12;

/// Slots an [`IdentityMemo`] lookup probes before it asks the dictionary.
const MEMO_PROBES: usize = 4;

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

/// A cell's identity: its kind, and the bits of a scalar or the address
/// of the shared string, set or tuple it holds. Two cells alive at once
/// with the same identity hold the very same value.
fn identity(v: &Value) -> (u32, u64) {
    match v {
        Value::Bool(b) => (1, u64::from(*b)),
        Value::Int(i) => (2, *i as u64),
        Value::Float(f) => (3, f.to_bits()),
        Value::Null(n) => (4, *n),
        Value::Str(s) => (5, s.as_ptr() as usize as u64),
        Value::Set(s) => (6, Arc::as_ptr(s) as usize as u64),
        Value::Tuple(t) => (7, t.as_ptr() as usize as u64),
    }
}

/// One [`IdentityMemo`] entry; kind 0 marks an empty slot.
#[derive(Debug, Clone, Copy, Default)]
struct MemoSlot {
    kind: u32,
    code: u32,
    bits: u64,
}

/// A memo from each cell's identity to its code in one column's
/// [`ColumnDict`], for one encoding pass: a hit costs a multiply and a
/// compare where the dictionary SipHashes the cell's content.
///
/// Sound within the pass: the table being encoded stays borrowed, so no
/// cell it holds is freed, and two live cells share an address only when
/// they share the allocation. A hit therefore names the value the
/// dictionary already coded and returns that code, so codes stay in
/// first-appearance order and the encoding is exactly the dictionary's.
/// The memo must not outlive the pass (a freed cell's address can come
/// back holding another value), which is why `ColumnDict` never keeps it.
///
/// A lookup probes at most [`MEMO_PROBES`] slots from a multiplicative
/// hash of the identity. A miss (first sight, a crowded slot run, or a
/// string past the interner's capacity, whose every cell has its own
/// address) asks the dictionary, as every cell did before the memo, so no
/// input costs more than a few extra probes per cell.
#[derive(Debug)]
pub(crate) struct IdentityMemo {
    slots: Vec<MemoSlot>,
    /// `64 - log2(slots.len())`: the product bits that pick a home slot.
    shift: u32,
}

impl IdentityMemo {
    /// An empty memo sized for a pass over `rows` cells of one column.
    pub(crate) fn for_rows(rows: usize) -> Self {
        let len = (2 * rows.min(MEMO_SLOTS))
            .next_power_of_two()
            .clamp(MEMO_PROBES, MEMO_SLOTS);
        IdentityMemo {
            slots: vec![MemoSlot::default(); len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// The code of `v` in `dict`, interning `v` when it is new there.
    pub(crate) fn code(&mut self, dict: &mut ColumnDict, v: &Value) -> u32 {
        let (kind, bits) = identity(v);
        let mask = self.slots.len() - 1;
        let home = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        for probe in 0..MEMO_PROBES {
            let slot = &mut self.slots[(home + probe) & mask];
            if slot.kind == kind && slot.bits == bits {
                return slot.code;
            }
            if slot.kind == 0 {
                let code = dict.intern(v);
                *slot = MemoSlot { kind, code, bits };
                return code;
            }
        }
        dict.intern(v)
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

/// Dense ids chained by a keyed hash, deduplicating the way
/// [`vadalog::Relation`] does: `heads` maps a hash to the newest id stored
/// under it and `next[id]` to the next older one, so ids whose hashes
/// collide share a chain and every lookup hashes its key once.
#[derive(Debug, Clone, Default)]
struct HashChains {
    heads: ByHash<u32>,
    next: Vec<u32>,
}

impl HashChains {
    /// The first id chained under `hash` for which `is_key` holds.
    fn find(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut id = self.heads.get(&hash).copied().unwrap_or(NONE);
        while id != NONE {
            if is_key(id) {
                return Some(id);
            }
            id = self.next[id as usize];
        }
        None
    }

    /// Chain the next dense id under `hash` and return it.
    fn push(&mut self, hash: u64) -> u32 {
        let id = self.next.len() as u32;
        let older = self.heads.insert(hash, id).unwrap_or(NONE);
        self.next.push(older);
        id
    }

    /// Take `id` out of the chain of `hash`; the id itself stays allocated.
    fn unlink(&mut self, hash: u64, id: u32) {
        let Some(&head) = self.heads.get(&hash) else {
            return;
        };
        let after = self.next[id as usize];
        if head == id {
            if after == NONE {
                self.heads.remove(&hash);
            } else {
                self.heads.insert(hash, after);
            }
        } else {
            let mut cur = head;
            while cur != NONE && self.next[cur as usize] != id {
                cur = self.next[cur as usize];
            }
            if cur != NONE {
                self.next[cur as usize] = after;
            }
        }
        self.next[id as usize] = NONE;
    }
}

/// Where a pattern's codes can be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// In the code matrix, at a row that holds the pattern.
    Row(u32),
    /// In [`PatternIndex::kept`], from this offset.
    Kept(u32),
}

/// The distinct coded rows of a view, each with a dense id.
///
/// Ids are assigned in first-appearance order when the index is built,
/// and patches that create a new pattern append the next id. Storage is
/// one `u32` per row (its pattern id) plus a few words per pattern; the
/// index never copies the code matrix. A pattern's codes are read at a
/// representative row that holds it, and copied aside (into `kept`) only
/// when that row is patched away while other rows still hold the pattern.
/// A pattern whose last row leaves is retired: it keeps its id with zero
/// rows and drops out of the lookup, so re-entering its codes mints a new
/// id.
#[derive(Debug, Clone, Default)]
pub struct PatternIndex {
    width: usize,
    /// Pattern id of every row.
    row_pattern: Vec<u32>,
    /// Rows holding each pattern (zero once retired).
    rows: Vec<u32>,
    /// Null bitmask of each pattern.
    masks: Vec<u64>,
    /// Where each pattern's codes live.
    homes: Vec<Home>,
    /// Live patterns chained by the hash of their codes.
    chains: HashChains,
    hasher: RandomState,
    /// Codes of patterns whose representative row was patched away.
    kept: Vec<u32>,
}

impl PatternIndex {
    /// Index the rows of a row-major code matrix of stride `width`
    /// (at most `u32::MAX` rows).
    pub fn build(codes: &[u32], null_masks: &[u64], width: usize) -> Self {
        let mut index = PatternIndex {
            width,
            row_pattern: Vec::with_capacity(null_masks.len()),
            ..PatternIndex::default()
        };
        for (row, &mask) in null_masks.iter().enumerate() {
            let p = index.enter(codes, row, mask);
            index.row_pattern.push(p);
        }
        index
    }

    /// Number of pattern ids handed out, retired ones included.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The pattern id of `row`.
    pub(crate) fn pattern_of(&self, row: usize) -> u32 {
        self.row_pattern[row]
    }

    /// How many rows hold pattern `p` (zero once it is retired).
    pub(crate) fn rows_of(&self, p: u32) -> usize {
        self.rows[p as usize] as usize
    }

    /// The null bitmask of pattern `p`.
    pub(crate) fn mask_of(&self, p: u32) -> u64 {
        self.masks[p as usize]
    }

    /// The codes of live pattern `p`; `codes` is the matrix the index
    /// describes.
    pub(crate) fn codes_of<'a>(&'a self, codes: &'a [u32], p: u32) -> &'a [u32] {
        let w = self.width;
        match self.homes[p as usize] {
            Home::Row(r) => &codes[r as usize * w..(r as usize + 1) * w],
            Home::Kept(at) => &self.kept[at as usize..at as usize + w],
        }
    }

    /// Approximate retained heap bytes.
    pub(crate) fn retained_bytes(&self) -> usize {
        let per_pattern = std::mem::size_of::<u32>() * 2
            + std::mem::size_of::<u64>() * 3
            + std::mem::size_of::<Home>();
        self.row_pattern.len() * std::mem::size_of::<u32>()
            + self.rows.len() * per_pattern
            + self.kept.len() * std::mem::size_of::<u32>()
    }

    /// Count `row` into the pattern of its codes, creating the pattern if
    /// no live one matches. Returns its id.
    fn enter(&mut self, codes: &[u32], row: usize, mask: u64) -> u32 {
        let key = &codes[row * self.width..(row + 1) * self.width];
        let hash = self.hasher.hash_one(key);
        let found = self.chains.find(hash, |p| {
            self.masks[p as usize] == mask && self.codes_of(codes, p) == key
        });
        let p = match found {
            Some(p) => p,
            None => {
                let p = self.chains.push(hash);
                self.rows.push(0);
                self.masks.push(mask);
                self.homes.push(Home::Row(row as u32));
                p
            }
        };
        self.rows[p as usize] += 1;
        p
    }

    /// Move `row` to the pattern of its current codes after a patch, in
    /// O(width). `old_codes`/`old_mask` are what the row held before; the
    /// matrix and masks already hold the new contents.
    pub(crate) fn relocate(
        &mut self,
        codes: &[u32],
        null_masks: &[u64],
        row: usize,
        old_codes: &[u32],
        old_mask: u64,
    ) {
        let w = self.width;
        if null_masks[row] == old_mask && codes[row * w..(row + 1) * w] == *old_codes {
            return;
        }
        let old = self.row_pattern[row];
        let o = old as usize;
        self.rows[o] -= 1;
        if self.rows[o] == 0 {
            self.chains.unlink(self.hasher.hash_one(old_codes), old);
        } else if self.homes[o] == Home::Row(row as u32) {
            self.homes[o] = Home::Kept(self.kept.len() as u32);
            self.kept.extend_from_slice(old_codes);
        }
        self.row_pattern[row] = self.enter(codes, row, null_masks[row]);
    }
}

/// Copy the codes at `positions` of `src` into the front of `buf`.
#[inline]
fn gather<'b>(src: &[u32], positions: &[usize], buf: &'b mut [u32; 64]) -> &'b [u32] {
    for (slot, &c) in buf.iter_mut().zip(positions) {
        *slot = src[c];
    }
    &buf[..positions.len()]
}

/// The live patterns grouped by their codes at the projected positions.
struct Groups {
    /// Group of each pattern id (`NONE` for retired patterns).
    of_pattern: Vec<u32>,
    /// A pattern of each group, to read its codes at.
    rep: Vec<u32>,
    /// Each group's null bitmask on the projected positions.
    mask: Vec<u64>,
}

impl Groups {
    fn of(codes: &[u32], patterns: &PatternIndex, positions: &[usize], pos_bits: u64) -> Groups {
        let full =
            positions.len() == patterns.width && positions.iter().enumerate().all(|(i, &p)| i == p);
        let mut groups = Groups {
            of_pattern: vec![NONE; patterns.len()],
            rep: Vec::new(),
            mask: Vec::new(),
        };
        let mut chains = HashChains::default();
        let (mut buf, mut other) = ([0u32; 64], [0u32; 64]);
        for p in 0..patterns.len() as u32 {
            if patterns.rows_of(p) == 0 {
                continue;
            }
            // At full width every live pattern is a group of its own.
            let g = if full {
                groups.rep.len() as u32
            } else {
                let key = gather(patterns.codes_of(codes, p), positions, &mut buf);
                let hash = patterns.hasher.hash_one(key);
                let rep = &groups.rep;
                let found = chains.find(hash, |g| {
                    gather(
                        patterns.codes_of(codes, rep[g as usize]),
                        positions,
                        &mut other,
                    ) == key
                });
                match found {
                    Some(g) => g,
                    None => chains.push(hash),
                }
            };
            if g as usize == groups.rep.len() {
                groups.rep.push(p);
                groups.mask.push(patterns.mask_of(p) & pos_bits);
            }
            groups.of_pattern[p as usize] = g;
        }
        groups
    }

    fn len(&self) -> usize {
        self.rep.len()
    }
}

/// Offsets-and-values adjacency lists: the items of list `i` are
/// `items[start[i]..start[i + 1]]`.
#[derive(Default)]
struct Lists {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Lists {
    /// Lists `0..len` from `(list, item)` pairs; items keep pair order.
    fn from_pairs(len: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Lists {
        let mut start = vec![0u32; len + 1];
        for (l, _) in pairs.clone() {
            start[l as usize + 1] += 1;
        }
        for i in 0..len {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut items = vec![0u32; start[len] as usize];
        for (l, item) in pairs {
            items[fill[l as usize] as usize] = item;
            fill[l as usize] += 1;
        }
        Lists { start, items }
    }

    fn get(&self, i: usize) -> &[u32] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// Which complete groups each nulled group maybe-matches, through
/// *keys*: a key is one (mask, codes at the mask's constant positions)
/// combination of the nulled groups, and every nulled group under a key
/// matches exactly the same complete groups.
struct NullLinks {
    /// Key of each group (nulled groups only).
    key_of: Vec<u32>,
    /// Complete groups matching each key.
    groups_of_key: Lists,
    /// Keys each complete group matches.
    keys_of_group: Lists,
    keys: usize,
}

impl NullLinks {
    fn of(codes: &[u32], patterns: &PatternIndex, positions: &[usize], groups: &Groups) -> Self {
        let mut masks: Vec<u64> = groups.mask.iter().copied().filter(|&m| m != 0).collect();
        masks.sort_unstable();
        masks.dedup();
        let mut key_of = vec![NONE; groups.len()];
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut keys = 0u32;
        let (mut buf, mut other) = ([0u32; 64], [0u32; 64]);
        let group_codes = |g: usize| patterns.codes_of(codes, groups.rep[g]);
        for mask in masks {
            let const_cols: Vec<usize> = positions
                .iter()
                .copied()
                .filter(|&c| mask & (1 << c) == 0)
                .collect();
            // Index this mask's nulled groups on their constant positions.
            let mut chains = HashChains::default();
            let mut key_group: Vec<usize> = Vec::new();
            for g in (0..groups.len()).filter(|&g| groups.mask[g] == mask) {
                let key = gather(group_codes(g), &const_cols, &mut buf);
                let hash = patterns.hasher.hash_one(key);
                let found = chains.find(hash, |k| {
                    gather(group_codes(key_group[k as usize]), &const_cols, &mut other) == key
                });
                let k = found.unwrap_or_else(|| {
                    key_group.push(g);
                    chains.push(hash)
                });
                key_of[g] = keys + k;
            }
            // Probe it with every complete group.
            for g in (0..groups.len()).filter(|&g| groups.mask[g] == 0) {
                let key = gather(group_codes(g), &const_cols, &mut buf);
                let hash = patterns.hasher.hash_one(key);
                let found = chains.find(hash, |k| {
                    gather(group_codes(key_group[k as usize]), &const_cols, &mut other) == key
                });
                if let Some(k) = found {
                    pairs.push((keys + k, g as u32));
                }
            }
            keys += key_group.len() as u32;
        }
        NullLinks {
            key_of,
            groups_of_key: Lists::from_pairs(keys as usize, pairs.iter().copied()),
            keys_of_group: Lists::from_pairs(groups.len(), pairs.iter().map(|&(k, g)| (g, k))),
            keys: keys as usize,
        }
    }
}

/// Group statistics over a coded table restricted to the listed column
/// `positions`, the columnar equivalent of
/// [`group_stats_on`](crate::maybe_match::group_stats_on) (pass all
/// positions for the full [`group_stats`](crate::maybe_match::group_stats)
/// semantics), written into `out`. `codes` is row-major with the index's
/// stride; `null_masks[i] & (1 << c)` says row `i` is null in column `c`,
/// and `patterns` indexes exactly these rows. Whatever `out` held is
/// overwritten, and its buffers are reused when large enough.
///
/// The work is per pattern, not per row: patterns are grouped by their
/// projected codes, one pass over the rows adds counts and weights per
/// group, maybe-match pairs nulled groups with the complete groups they
/// match, and a fill pass hands every row its group's totals. Only
/// nulled *rows* (few, in practice) are handled one by one. Weights are
/// added in the order of the row-level pass; see the module docs.
pub fn group_stats_codes(
    codes: &[u32],
    null_masks: &[u64],
    patterns: &PatternIndex,
    positions: &[usize],
    weights: Option<&[f64]>,
    sem: NullSemantics,
    out: &mut GroupStats,
) {
    let n = null_masks.len();
    let w = |i: usize| weights.map(|w| w[i]).unwrap_or(1.0);
    let GroupStats { count, weight_sum } = out;
    count.clear();
    weight_sum.clear();
    if n == 0 {
        return;
    }
    if positions.is_empty() {
        // Zero projected columns: every row matches every row.
        let total: f64 = (0..n).map(w).sum();
        count.resize(n, n);
        weight_sum.resize(n, total);
        return;
    }
    let width = patterns.width;
    let pos_bits: u64 = positions.iter().fold(0u64, |m, &p| m | (1 << p));
    let groups = Groups::of(codes, patterns, positions, pos_bits);
    let group = |row: usize| groups.of_pattern[patterns.pattern_of(row) as usize] as usize;

    // Under standard semantics, or with no projected null, matching is
    // code equality: the groups are the classes.
    let maybe = sem == NullSemantics::MaybeMatch && groups.mask.iter().any(|&m| m != 0);
    let mut g_count = vec![0usize; groups.len()];
    let mut g_sum = vec![0.0f64; groups.len()];
    if !maybe {
        for (row, &p) in patterns.row_pattern.iter().enumerate() {
            let g = groups.of_pattern[p as usize] as usize;
            g_count[g] += 1;
            g_sum[g] += w(row);
        }
        count.extend((0..n).map(|row| g_count[group(row)]));
        weight_sum.extend((0..n).map(|row| g_sum[group(row)]));
        return;
    }

    // --- maybe-match with nulls present ---
    let links = NullLinks::of(codes, patterns, positions, &groups);
    // One pass in row order: complete rows add to their group and to
    // every key they match (a nulled row's matches, in row order);
    // nulled rows are collected.
    let mut k_count = vec![0usize; links.keys];
    let mut k_sum = vec![0.0f64; links.keys];
    let mut nulled: Vec<usize> = Vec::new();
    for (row, &p) in patterns.row_pattern.iter().enumerate() {
        let g = groups.of_pattern[p as usize] as usize;
        if groups.mask[g] != 0 {
            nulled.push(row);
            continue;
        }
        let wr = w(row);
        g_count[g] += 1;
        g_sum[g] += wr;
        for &k in links.keys_of_group.get(g) {
            k_count[k as usize] += 1;
            k_sum[k as usize] += wr;
        }
    }
    // Complete groups gain their maybe-matching nulled rows, masks
    // ascending, row order within a mask (the sort is stable).
    nulled.sort_by_key(|&i| groups.mask[group(i)]);
    for &i in &nulled {
        for &g in links.groups_of_key.get(links.key_of[group(i)] as usize) {
            g_count[g as usize] += 1;
            g_sum[g as usize] += w(i);
        }
    }
    count.extend((0..n).map(|row| g_count[group(row)]));
    weight_sum.extend((0..n).map(|row| g_sum[group(row)]));

    // Nulled rows: their complete matches, then nulled-vs-nulled
    // (including self) pairwise in row order.
    nulled.sort_unstable();
    for &i in &nulled {
        let k = links.key_of[group(i)] as usize;
        count[i] = k_count[k];
        weight_sum[i] = k_sum[k];
    }
    for (a_pos, &i) in nulled.iter().enumerate() {
        count[i] += 1; // self
        weight_sum[i] += w(i);
        for &j in nulled.iter().skip(a_pos + 1) {
            if projected_maybe_match(codes, null_masks, width, positions, pos_bits, i, j) {
                count[i] += 1;
                weight_sum[i] += w(j);
                count[j] += 1;
                weight_sum[j] += w(i);
            }
        }
    }
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

/// Incrementally repair `stats` after row `row` changed a single cell, in
/// O(rows) instead of a regroup. The weight sums are accumulated in
/// another order than a cold [`group_stats`](crate::maybe_match::group_stats)
/// pass, so they are bit-identical to it only for integer-valued weights:
/// gate on [`weights_exactly_summable`](crate::maybe_match::weights_exactly_summable)
/// for warm ≡ cold. `codes`/`null_masks` must already hold the *new*
/// contents; `old_codes`/`old_mask` are the row's previous coded contents.
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

/// The row-level kernel the pattern kernel replaced, kept as the test
/// oracle: exact grouping of the complete rows by hashing every row's
/// projected codes, then per null mask (ascending) an index of the
/// complete rows on the mask's constant positions, then nulled rows
/// pairwise. Its addition order defines the bits [`group_stats_codes`]
/// must reproduce.
#[cfg(test)]
pub(crate) fn group_stats_oracle(
    codes: &[u32],
    null_masks: &[u64],
    width: usize,
    positions: &[usize],
    weights: Option<&[f64]>,
    sem: NullSemantics,
) -> GroupStats {
    use std::collections::BTreeMap;
    let n = null_masks.len();
    let w = |i: usize| weights.map(|w| w[i]).unwrap_or(1.0);
    if positions.is_empty() {
        let total: f64 = (0..n).map(w).sum();
        return GroupStats {
            count: vec![n; n],
            weight_sum: vec![total; n],
        };
    }
    let pos_bits: u64 = positions.iter().fold(0u64, |m, &p| m | (1 << p));
    let key_of = |i: usize, cols: &[usize]| -> Vec<u32> {
        cols.iter().map(|&c| codes[i * width + c]).collect()
    };
    let maybe = sem == NullSemantics::MaybeMatch;
    let is_nulled = |i: usize| maybe && null_masks[i] & pos_bits != 0;
    let mut count = vec![0usize; n];
    let mut weight_sum = vec![0.0f64; n];
    let mut agg: HashMap<Vec<u32>, (usize, f64)> = HashMap::new();
    for i in (0..n).filter(|&i| !is_nulled(i)) {
        let e = agg.entry(key_of(i, positions)).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += w(i);
    }
    for i in (0..n).filter(|&i| !is_nulled(i)) {
        (count[i], weight_sum[i]) = agg[&key_of(i, positions)];
    }
    let nulled: Vec<usize> = (0..n).filter(|&i| is_nulled(i)).collect();
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
        let mut index: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for i in (0..n).filter(|&i| null_masks[i] & pos_bits == 0) {
            index.entry(key_of(i, &const_cols)).or_default().push(i);
        }
        for &i in members {
            if let Some(bucket) = index.get(&key_of(i, &const_cols)) {
                count[i] += bucket.len();
                for &j in bucket {
                    weight_sum[i] += w(j);
                    count[j] += 1;
                    weight_sum[j] += w(i);
                }
            }
        }
    }
    for (a_pos, &i) in nulled.iter().enumerate() {
        count[i] += 1;
        weight_sum[i] += w(i);
        for &j in nulled.iter().skip(a_pos + 1) {
            if projected_maybe_match(codes, null_masks, width, positions, pos_bits, i, j) {
                count[i] += 1;
                weight_sum[i] += w(j);
                count[j] += 1;
                weight_sum[j] += w(i);
            }
        }
    }
    GroupStats { count, weight_sum }
}

#[cfg(test)]
impl PatternIndex {
    /// Pattern ids renumbered by first appearance in row order: equal for
    /// two indexes that partition the rows the same way.
    pub(crate) fn canonical_ids(&self) -> Vec<u32> {
        let mut rank = vec![NONE; self.len()];
        let mut next = 0u32;
        self.row_pattern
            .iter()
            .map(|&p| {
                if rank[p as usize] == NONE {
                    rank[p as usize] = next;
                    next += 1;
                }
                rank[p as usize]
            })
            .collect()
    }

    /// Panic unless the index describes `codes`/`null_masks` exactly:
    /// every row's pattern holds its codes and mask, row counts add up,
    /// the hash chains hold the live patterns and nothing else, every
    /// live pattern is found by its codes, and the partition equals a
    /// fresh build's.
    pub(crate) fn assert_consistent(&self, codes: &[u32], null_masks: &[u64]) {
        let w = self.width;
        assert_eq!(self.row_pattern.len(), null_masks.len());
        let mut held = vec![0u32; self.len()];
        for (row, &p) in self.row_pattern.iter().enumerate() {
            assert_eq!(
                self.codes_of(codes, p),
                &codes[row * w..(row + 1) * w],
                "row {row}"
            );
            assert_eq!(self.mask_of(p), null_masks[row], "row {row}");
            held[p as usize] += 1;
        }
        assert_eq!(held, self.rows, "row counts");
        let mut chained: Vec<u32> = Vec::new();
        for &head in self.chains.heads.values() {
            let mut p = head;
            while p != NONE {
                chained.push(p);
                p = self.chains.next[p as usize];
            }
        }
        chained.sort_unstable();
        let live: Vec<u32> = (0..self.len() as u32)
            .filter(|&p| self.rows_of(p) > 0)
            .collect();
        assert_eq!(chained, live, "the chains hold exactly the live patterns");
        for p in (0..self.len() as u32).filter(|&p| self.rows_of(p) > 0) {
            let key = self.codes_of(codes, p);
            let found = self.chains.find(self.hasher.hash_one(key), |q| {
                self.rows_of(q) > 0 && self.codes_of(codes, q) == key
            });
            assert_eq!(found, Some(p), "pattern {p} lost from the lookup");
        }
        let fresh = PatternIndex::build(codes, null_masks, w);
        assert_eq!(self.canonical_ids(), fresh.row_pattern, "partition");
    }
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
        let bits =
            |g: &GroupStats| -> Vec<u64> { g.weight_sum.iter().map(|f| f.to_bits()).collect() };
        assert_eq!(bits(a), bits(b), "weight sums diverged");
    }

    /// The pattern kernel into fresh buffers.
    fn fresh(
        codes: &[u32],
        masks: &[u64],
        index: &PatternIndex,
        positions: &[usize],
        weights: Option<&[f64]>,
        sem: NullSemantics,
    ) -> GroupStats {
        let mut stats = GroupStats::default();
        group_stats_codes(codes, masks, index, positions, weights, sem, &mut stats);
        stats
    }

    /// The pattern kernel over a freshly built index, checked bit for bit
    /// against the row-level oracle before it is returned.
    fn kernel(
        codes: &[u32],
        masks: &[u64],
        width: usize,
        positions: &[usize],
        weights: Option<&[f64]>,
        sem: NullSemantics,
    ) -> GroupStats {
        let index = PatternIndex::build(codes, masks, width);
        let fast = fresh(codes, masks, &index, positions, weights, sem);
        let oracle = group_stats_oracle(codes, masks, width, positions, weights, sem);
        assert_same(&fast, &oracle);
        fast
    }

    #[test]
    fn matches_row_based_group_stats_on_mixed_nulls() {
        let rows = mixed_table();
        let (codes, masks, width) = encode(&rows);
        let all: Vec<usize> = (0..width).collect();
        let weights: Vec<f64> = (0..rows.len()).map(|i| (i as f64 + 1.0) * 2.0).collect();
        for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
            for w in [None, Some(weights.as_slice())] {
                let colv = kernel(&codes, &masks, width, &all, w, sem);
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
                let colv = kernel(&codes, &masks, width, &positions, Some(&weights), sem);
                let rowv = group_stats_on(&rows, &positions, Some(&weights), sem);
                assert_same(&colv, &rowv);
            }
        }
    }

    #[test]
    fn large_table_with_nulls_matches_oracles_bitwise() {
        // 12,288 rows with a labelled null every 97th row, under both
        // semantics, full width and on a sub-projection.
        let n = 12_288;
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
            let full = kernel(&codes, &masks, width, &all, Some(&weights), sem);
            assert_same(&full, &group_stats(&rows, Some(&weights), sem));
            let sub = kernel(&codes, &masks, width, &[1], Some(&weights), sem);
            assert_same(&sub, &group_stats_on(&rows, &[1], Some(&weights), sem));
        }
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
            let mut index = PatternIndex::build(&codes, &masks, width);
            let mut stats = fresh(&codes, &masks, &index, &all, Some(weights), sem);
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
                index.relocate(&codes, &masks, row, &old_codes, old_mask);
                index.assert_consistent(&codes, &masks);
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
                let cold = fresh(&codes, &masks, &index, &all, Some(weights), sem);
                assert_same(
                    &cold,
                    &group_stats_oracle(&codes, &masks, width, &all, Some(weights), sem),
                );
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
    fn hash_chains_share_a_hash_and_unlink_anywhere() {
        // Colliding hashes (one chain) are the case real SipHash keys
        // almost never produce, so drive it directly.
        let mut chains = HashChains::default();
        let ids: Vec<u32> = (0..4).map(|_| chains.push(7)).collect();
        let other = chains.push(9);
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let all = |c: &HashChains| -> Vec<u32> {
            (0..5)
                .filter(|&i| c.find(7, |id| id == i).is_some())
                .collect()
        };
        assert_eq!(all(&chains), vec![0, 1, 2, 3]);
        chains.unlink(7, 2); // middle
        assert_eq!(all(&chains), vec![0, 1, 3]);
        chains.unlink(7, 3); // head: the newest id
        assert_eq!(all(&chains), vec![0, 1]);
        chains.unlink(7, 0); // tail
        assert_eq!(all(&chains), vec![1]);
        chains.unlink(7, 1); // last one empties the chain
        assert!(all(&chains).is_empty());
        assert!(!chains.heads.contains_key(&7));
        assert_eq!(chains.find(9, |id| id == other), Some(other));
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
        let gs = kernel(&[], &[], 0, &[], None, NullSemantics::MaybeMatch);
        assert!(gs.count.is_empty());
        // zero projected columns over 3 rows: one universal group
        let gs = kernel(&[], &[0, 0, 0], 0, &[], None, NullSemantics::Standard);
        assert_eq!(gs.count, vec![3, 3, 3]);
        assert_eq!(gs.weight_sum, vec![3.0, 3.0, 3.0]);
    }
}
