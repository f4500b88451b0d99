//! Fact storage: insertion-ordered, deduplicated relations with prebuilt
//! hash indexes over bound argument positions.
//!
//! A row is one `Arc<[Value]>` allocation. A relation stores its rows once,
//! in insertion order; its dedup map holds row ids (`u32` positions), not
//! row handles, keyed by a hash computed once per row. Hashing a row is
//! cheap even when it carries sets: a set value hashes as the `u64` it
//! cached when it was built (see [`SetVal`](crate::value::SetVal)).
//!
//! Indexes are keyed by the *set of bound positions* a join probe uses
//! (e.g. `[0]` for `p(X, ?)` with `X` bound). They are built on demand by
//! [`Relation::ensure_index`] — the engine calls it once per semi-naive
//! round for every (predicate, bound-set) pair its join plans need — and
//! extended incrementally as rows arrive. Probing ([`Relation::probe`])
//! is a pure `&self` hash lookup returning a borrowed posting list, so a
//! round's joins read the database without mutating it.

use crate::ast::Fact;
use crate::value::{NullId, Value};
use std::borrow::Borrow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// A stored tuple: one shared allocation, so index buckets and deltas
/// stay cheap.
pub type Row = Arc<[Value]>;

/// Hasher for keys that already are hashes: passes a `u64` through. The
/// hashes are SipHash under the owner's random keys (a `RandomState`), so
/// the map keeps the default hasher's protection against crafted
/// collisions.
#[derive(Debug, Default, Clone, Copy)]
pub struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Map keyed by a row hash computed once by its owner.
pub type ByHash<V> = HashMap<u64, V, BuildHasherDefault<Prehashed>>;

/// Secondary hash index over a fixed set of bound positions.
#[derive(Debug, Default, Clone)]
struct Index {
    /// How many of the relation's rows this index has absorbed.
    absorbed: usize,
    /// Key values (in bound-position order) → row indices.
    map: HashMap<Vec<Value>, Vec<u32>>,
}

/// One relation: a deduplicated, insertion-ordered set of rows plus
/// prebuilt secondary indexes keyed by a set of bound positions.
///
/// Deduplication hashes each row once: the hash keys `dedup`, which holds
/// the id of the first row stored under it, and rows whose hash collides
/// with a different stored row have their ids in `collisions`. A row id
/// is the row's position in `rows`.
#[derive(Debug, Default, Clone)]
pub struct Relation {
    rows: Vec<Row>,
    hasher: RandomState,
    dedup: ByHash<u32>,
    collisions: ByHash<Vec<u32>>,
    /// bound-position set → incremental index over those positions.
    indexes: HashMap<Vec<usize>, Index>,
    /// Bumped by every mutation of the row set.
    generation: u64,
    /// Test hook: hash every row to one value, so every row after the
    /// first goes through `collisions`.
    #[cfg(test)]
    one_hash: bool,
}

impl Relation {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Mutation counter: changes whenever a row is inserted or the row
    /// set is rewritten. Equal generations of the same relation within a
    /// run mean an unchanged row set, in an unchanged order.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Insert a row; returns `true` if it was new. Duplicate rows are
    /// rejected with a borrowed membership probe — no allocation.
    pub fn insert(&mut self, row: Vec<Value>) -> bool {
        self.insert_shared(row).is_some()
    }

    /// Insert a row, owned (`Vec<Value>`) or already shared ([`Row`]);
    /// returns the stored handle if it was new, so callers (the
    /// semi-naive delta) can alias it instead of cloning. The row is
    /// shared only once it is known to be new.
    pub fn insert_shared(&mut self, row: impl AsRef<[Value]> + Into<Row>) -> Option<Row> {
        let hash = self.row_hash(row.as_ref());
        if self.position(hash, row.as_ref()).is_some() {
            return None;
        }
        let row: Row = row.into();
        self.store(hash, row.clone());
        Some(row)
    }

    /// Insert a row given as references to its values; returns the stored
    /// handle if it was new. The row is allocated only then: a duplicate
    /// costs a hash and a compare.
    pub(crate) fn insert_refs(&mut self, row: &[&Value]) -> Option<Row> {
        let hash = self.row_hash(row);
        if self.position(hash, row).is_some() {
            return None;
        }
        let row: Row = row.iter().copied().cloned().collect();
        self.store(hash, row.clone());
        Some(row)
    }

    /// The hash `dedup` and `collisions` key `row` by: that of the slice
    /// of its values, whether they are given owned or by reference.
    fn row_hash<V: Hash>(&self, row: &[V]) -> u64 {
        #[cfg(test)]
        if self.one_hash {
            return 0;
        }
        self.hasher.hash_one(row)
    }

    /// The id of the stored row equal to `row`, whose hash is `hash`.
    fn position<V: Borrow<Value>>(&self, hash: u64, row: &[V]) -> Option<u32> {
        let is = |id: &u32| {
            let stored = &self.rows[*id as usize];
            stored.len() == row.len() && stored.iter().zip(row).all(|(a, b)| a == b.borrow())
        };
        match self.dedup.get(&hash) {
            None => None,
            Some(id) if is(id) => Some(*id),
            Some(_) => self.collisions.get(&hash)?.iter().copied().find(is),
        }
    }

    /// Store a row known to be new.
    fn store(&mut self, hash: u64, row: Row) {
        // row ids are `u32`, as index postings are: the engine's facts cap
        // keeps a relation far below `u32::MAX` rows
        let id = self.rows.len() as u32;
        match self.dedup.entry(hash) {
            Entry::Vacant(e) => {
                e.insert(id);
            }
            Entry::Occupied(_) => self.collisions.entry(hash).or_default().push(id),
        }
        self.rows.push(row);
        self.generation += 1;
    }

    /// Does the relation contain this exact row? Borrow-only.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.position(self.row_hash(row), row).is_some()
    }

    /// Iterate all rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// Row at a given insertion index.
    pub fn row(&self, idx: usize) -> &Row {
        &self.rows[idx]
    }

    /// Build the index over `bound` positions (sorted, deduplicated by the
    /// caller) or extend it to cover rows inserted since the last call.
    pub fn ensure_index(&mut self, bound: &[usize]) {
        if bound.is_empty() {
            return;
        }
        let idx = match self.indexes.get_mut(bound) {
            Some(i) => i,
            None => self.indexes.entry(bound.to_vec()).or_default(),
        };
        while idx.absorbed < self.rows.len() {
            let row = &self.rows[idx.absorbed];
            if bound.iter().all(|&i| i < row.len()) {
                let key: Vec<Value> = bound.iter().map(|&i| row[i].clone()).collect();
                idx.map.entry(key).or_default().push(idx.absorbed as u32);
            }
            idx.absorbed += 1;
        }
    }

    /// Probe a prebuilt index: row indices whose `bound` positions equal
    /// `key`. Returns `None` when no *fully absorbed* index over `bound`
    /// exists — the caller must fall back to a scan (a partially absorbed
    /// index would silently miss rows).
    pub fn probe(&self, bound: &[usize], key: &[Value]) -> Option<&[u32]> {
        let idx = self.indexes.get(bound)?;
        if idx.absorbed != self.rows.len() {
            return None;
        }
        Some(idx.map.get(key).map(|v| v.as_slice()).unwrap_or(&[]))
    }

    /// Indices of rows matching `pattern` (None = wildcard), building the
    /// index over the bound positions on demand. Retained for callers that
    /// hold `&mut` and probe ad-hoc patterns (e.g. the restricted-chase
    /// witness lookup); the planned join path uses
    /// [`ensure_index`](Self::ensure_index) + [`probe`](Self::probe).
    pub fn select_indices(&mut self, pattern: &[Option<Value>]) -> Vec<usize> {
        let bound: Vec<usize> = pattern
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|_| i))
            .collect();
        if bound.is_empty() {
            return (0..self.rows.len()).collect();
        }
        let key: Vec<Value> = bound.iter().filter_map(|&i| pattern[i].clone()).collect();
        self.ensure_index(&bound);
        match self.probe(&bound, &key) {
            Some(hits) => hits.iter().map(|&i| i as usize).collect(),
            None => Vec::new(),
        }
    }

    /// Replace the whole row set (used by EGD substitution). Drops indexes.
    pub fn replace_rows(&mut self, new_rows: Vec<Vec<Value>>) {
        self.rows.clear();
        self.dedup.clear();
        self.collisions.clear();
        self.indexes.clear();
        self.generation += 1;
        for r in new_rows {
            self.insert(r);
        }
    }
}

/// A database: named relations plus the labelled-null counter.
#[derive(Debug, Default, Clone)]
pub struct Database {
    relations: HashMap<String, Relation>,
    next_null: NullId,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a fact; returns `true` if new. Null labels occurring in the
    /// fact advance the internal counter so freshly invented nulls never
    /// collide with caller-provided ones.
    pub fn insert(&mut self, pred: impl AsRef<str>, row: Vec<Value>) -> bool {
        self.insert_shared(pred, row).is_some()
    }

    /// Insert a fact and, when it is new, hand back the stored shared row.
    /// The returned [`Row`] is aliased into the semi-naive delta (and the
    /// trace) without re-cloning the values.
    pub fn insert_shared(
        &mut self,
        pred: impl AsRef<str>,
        row: impl AsRef<[Value]> + Into<Row>,
    ) -> Option<Row> {
        self.saw_nulls(row.as_ref().iter());
        self.with_relation(pred.as_ref(), |rel| rel.insert_shared(row))
    }

    /// [`insert_shared`](Self::insert_shared) for a row given as
    /// references to its values, allocated only when it is new. This is
    /// the engine's hot path: most firings derive a fact already stored.
    pub(crate) fn insert_refs(&mut self, pred: &str, row: &[&Value]) -> Option<Row> {
        self.saw_nulls(row.iter().copied());
        self.with_relation(pred, |rel| rel.insert_refs(row))
    }

    /// Advance the null counter past every null label in `values`, so
    /// freshly invented nulls never collide with inserted ones.
    fn saw_nulls<'v>(&mut self, values: impl Iterator<Item = &'v Value>) {
        for v in values {
            if let Value::Null(n) = v {
                if *n >= self.next_null {
                    self.next_null = n + 1;
                }
            }
        }
    }

    /// Run `f` on the relation of `pred`, created empty if needed; its
    /// name is allocated only then.
    fn with_relation<T>(&mut self, pred: &str, f: impl FnOnce(&mut Relation) -> T) -> T {
        match self.relations.get_mut(pred) {
            Some(rel) => f(rel),
            None => f(self.relations.entry(pred.to_string()).or_default()),
        }
    }

    /// Insert a [`Fact`].
    pub fn insert_fact(&mut self, fact: Fact) -> bool {
        self.insert(fact.pred, fact.args)
    }

    /// Mint a fresh labelled null.
    pub fn fresh_null(&mut self) -> Value {
        let id = self.next_null;
        self.next_null += 1;
        Value::Null(id)
    }

    /// Number of labelled nulls minted so far.
    pub fn nulls_minted(&self) -> NullId {
        self.next_null
    }

    /// Access a relation (empty relation if absent).
    pub fn relation(&self, pred: &str) -> Option<&Relation> {
        self.relations.get(pred)
    }

    /// The [generation](Relation::generation) of a relation, `None` while
    /// it does not exist.
    pub fn generation(&self, pred: &str) -> Option<u64> {
        self.relations.get(pred).map(Relation::generation)
    }

    /// Mutable access, creating the relation if needed.
    pub fn relation_mut(&mut self, pred: &str) -> &mut Relation {
        self.relations.entry(pred.to_string()).or_default()
    }

    /// All relation names.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(|s| s.as_str())
    }

    /// Rows of a relation as plain vectors (empty if the relation is absent).
    pub fn rows(&self, pred: &str) -> Vec<Vec<Value>> {
        self.relations
            .get(pred)
            .map(|r| r.iter().map(|row| row.to_vec()).collect())
            .unwrap_or_default()
    }

    /// Total number of facts across all relations.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Drop a whole relation (rows, dedup set and indexes); returns
    /// `true` if it existed. Goal-directed evaluation uses this to strip
    /// the internal `magic#…` relations before handing results back.
    pub fn remove_relation(&mut self, pred: &str) -> bool {
        self.relations.remove(pred).is_some()
    }

    /// Apply a null-substitution: every occurrence of `Null(from)` becomes
    /// `to` across all relations. Used by EGD enforcement.
    pub fn substitute_null(&mut self, from: NullId, to: &Value) {
        fn subst(v: &Value, from: NullId, to: &Value) -> Value {
            match v {
                Value::Null(n) if *n == from => to.clone(),
                Value::Set(s) => Value::set(s.iter().map(|x| subst(x, from, to))),
                Value::Tuple(t) => Value::Tuple(t.iter().map(|x| subst(x, from, to)).collect()),
                other => other.clone(),
            }
        }
        for rel in self.relations.values_mut() {
            let needs = rel
                .iter()
                .any(|row| row.iter().any(|v| contains_null(v, from)));
            if needs {
                let new_rows: Vec<Vec<Value>> = rel
                    .iter()
                    .map(|row| row.iter().map(|v| subst(v, from, to)).collect())
                    .collect();
                rel.replace_rows(new_rows);
            }
        }
    }
}

/// Does `v` contain the labelled null `id` (recursively)?
pub fn contains_null(v: &Value, id: NullId) -> bool {
    match v {
        Value::Null(n) => *n == id,
        Value::Set(s) => s.iter().any(|x| contains_null(x, id)),
        Value::Tuple(t) => t.iter().any(|x| contains_null(x, id)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_deduplicates() {
        let mut db = Database::new();
        assert!(db.insert("p", vec![Value::Int(1)]));
        assert!(!db.insert("p", vec![Value::Int(1)]));
        assert_eq!(db.relation("p").unwrap().len(), 1);
    }

    #[test]
    fn contains_is_borrow_only_and_exact() {
        let mut rel = Relation::default();
        rel.insert(vec![Value::Int(1), Value::str("a")]);
        assert!(rel.contains(&[Value::Int(1), Value::str("a")]));
        assert!(!rel.contains(&[Value::Int(1)]));
        assert!(!rel.contains(&[Value::Int(1), Value::str("b")]));
    }

    #[test]
    fn insert_shared_aliases_the_stored_row() {
        let mut rel = Relation::default();
        let stored = rel.insert_shared(Row::from([Value::Int(7)])).unwrap();
        assert!(Arc::ptr_eq(&stored, rel.row(0)));
        assert!(rel.insert_shared(Row::from([Value::Int(7)])).is_none());
    }

    #[test]
    fn select_with_index() {
        let mut rel = Relation::default();
        for i in 0..100 {
            rel.insert(vec![Value::Int(i % 10), Value::Int(i)]);
        }
        let hits = rel.select_indices(&[Some(Value::Int(3)), None]);
        assert_eq!(hits.len(), 10);
        for h in hits {
            assert_eq!(rel.row(h)[0], Value::Int(3));
        }
    }

    #[test]
    fn index_extends_incrementally() {
        let mut rel = Relation::default();
        rel.insert(vec![Value::Int(1)]);
        assert_eq!(rel.select_indices(&[Some(Value::Int(1))]).len(), 1);
        rel.insert(vec![Value::Int(1), Value::Int(2)]); // different arity row ignored by index probe
        rel.insert(vec![Value::Int(1)]); // duplicate
        let mut rel2 = Relation::default();
        rel2.insert(vec![Value::Int(1)]);
        assert_eq!(rel2.select_indices(&[Some(Value::Int(1))]).len(), 1);
        rel2.insert(vec![Value::Int(2)]);
        rel2.insert(vec![Value::Int(1)]); // dup, not inserted
        assert_eq!(rel2.select_indices(&[Some(Value::Int(1))]).len(), 1);
        assert_eq!(rel2.select_indices(&[Some(Value::Int(2))]).len(), 1);
    }

    #[test]
    fn probe_requires_fully_absorbed_index() {
        let mut rel = Relation::default();
        rel.insert(vec![Value::Int(1)]);
        rel.ensure_index(&[0]);
        assert_eq!(rel.probe(&[0], &[Value::Int(1)]).unwrap(), &[0u32]);
        // a new row makes the index stale: probe must refuse
        rel.insert(vec![Value::Int(2)]);
        assert!(rel.probe(&[0], &[Value::Int(1)]).is_none());
        rel.ensure_index(&[0]);
        assert_eq!(rel.probe(&[0], &[Value::Int(2)]).unwrap(), &[1u32]);
        // missing key in a fresh index: empty postings, not a scan
        assert!(rel.probe(&[0], &[Value::Int(9)]).unwrap().is_empty());
    }

    #[test]
    fn generation_counts_every_mutation() {
        let mut db = Database::new();
        assert_eq!(db.generation("p"), None);
        db.insert("p", vec![Value::Null(1), Value::Int(9)]);
        let after_insert = db.generation("p").unwrap();
        assert!(!db.insert("p", vec![Value::Null(1), Value::Int(9)]));
        assert_eq!(
            db.generation("p"),
            Some(after_insert),
            "a duplicate is no mutation"
        );
        db.relation_mut("p").ensure_index(&[1]);
        assert_eq!(
            db.generation("p"),
            Some(after_insert),
            "indexing is no mutation"
        );
        // an EGD rewrite that keeps the size must still be seen
        db.substitute_null(1, &Value::Int(5));
        assert!(db.generation("p").unwrap() > after_insert);
    }

    #[test]
    fn fresh_nulls_never_collide_with_inserted() {
        let mut db = Database::new();
        db.insert("p", vec![Value::Null(41)]);
        let n = db.fresh_null();
        assert_eq!(n, Value::Null(42));
    }

    #[test]
    fn substitute_null_rewrites_composites() {
        let mut db = Database::new();
        db.insert(
            "t",
            vec![Value::set([Value::pair(Value::str("a"), Value::Null(7))])],
        );
        db.substitute_null(7, &Value::str("gone"));
        let rows = db.rows("t");
        let set = rows[0][0].as_set().unwrap();
        let pair = set.iter().next().unwrap().as_tuple().unwrap();
        assert_eq!(pair[1], Value::str("gone"));
    }

    /// Small row domain: three first columns (one a labelled null the
    /// rewrite replaces) by four second columns, sets among them.
    fn universe() -> Vec<Vec<Value>> {
        let firsts = [Value::Int(0), Value::Int(1), Value::Null(1)];
        let seconds = [
            Value::str("a"),
            Value::str("b"),
            Value::set([Value::str("a")]),
            Value::set([Value::str("a"), Value::str("b")]),
        ];
        firsts
            .iter()
            .flat_map(|f| seconds.iter().map(move |s| vec![f.clone(), s.clone()]))
            .collect()
    }

    /// `contains`, `insert_shared`, `insert_refs` and `probe` answer as a
    /// scan of `naive`, the rows the relation should hold in order.
    fn assert_agrees(rel: &mut Relation, naive: &[Vec<Value>], what: &str) {
        let stored: Vec<Vec<Value>> = rel.iter().map(|r| r.to_vec()).collect();
        assert_eq!(stored, naive, "{what}: stored rows");
        for row in universe() {
            assert_eq!(
                rel.contains(&row),
                naive.contains(&row),
                "{what}: contains {row:?}"
            );
        }
        for row in naive {
            assert!(
                rel.insert_shared(row.clone()).is_none(),
                "{what}: re-insert of {row:?}"
            );
            let refs: Vec<&Value> = row.iter().collect();
            assert!(
                rel.insert_refs(&refs).is_none(),
                "{what}: re-insert by reference of {row:?}"
            );
        }
        rel.ensure_index(&[0]);
        for key in [Value::Int(0), Value::Int(1), Value::Null(1)] {
            let want: Vec<u32> = (0..naive.len() as u32)
                .filter(|&i| naive[i as usize][0] == key)
                .collect();
            let got = rel.probe(&[0], std::slice::from_ref(&key));
            assert_eq!(got, Some(want.as_slice()), "{what}: probe {key}");
        }
    }

    /// A relation and a naive row list driven through the same random
    /// inserts (owned or by reference) and EGD rewrites (`replace_rows`).
    fn dedup_agrees_with_a_scan(one_hash: bool) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let rows = universe();
        for seed in 0..300 {
            let rng = &mut StdRng::seed_from_u64(seed);
            let mut rel = Relation {
                one_hash,
                ..Relation::default()
            };
            let mut naive: Vec<Vec<Value>> = Vec::new();
            for step in 0..40 {
                let what = format!("seed {seed} step {step}");
                match rng.gen_range(0..10u32) {
                    0..=7 => {
                        let row = rows[rng.gen_range(0..rows.len())].clone();
                        let new = !naive.contains(&row);
                        let inserted = match rng.gen_bool(0.5) {
                            true => rel.insert(row.clone()),
                            false => rel.insert_refs(&row.iter().collect::<Vec<_>>()).is_some(),
                        };
                        assert_eq!(inserted, new, "{what}: insert {row:?}");
                        if new {
                            naive.push(row);
                        }
                    }
                    8 => {
                        // an EGD rewrite `⊥1 := 0`, as `substitute_null` does it
                        let rewritten: Vec<Vec<Value>> = naive
                            .iter()
                            .map(|r| {
                                r.iter()
                                    .map(|v| {
                                        if *v == Value::Null(1) {
                                            Value::Int(0)
                                        } else {
                                            v.clone()
                                        }
                                    })
                                    .collect()
                            })
                            .collect();
                        naive.clear();
                        for r in &rewritten {
                            if !naive.contains(r) {
                                naive.push(r.clone());
                            }
                        }
                        rel.replace_rows(rewritten);
                    }
                    _ => {}
                }
                assert_agrees(&mut rel, &naive, &what);
            }
        }
    }

    #[test]
    fn row_id_dedup_agrees_with_a_scan() {
        dedup_agrees_with_a_scan(false);
    }

    #[test]
    fn row_id_dedup_agrees_with_a_scan_when_every_row_collides() {
        dedup_agrees_with_a_scan(true);
    }

    #[test]
    fn substitution_can_merge_rows() {
        let mut db = Database::new();
        db.insert("p", vec![Value::Null(1), Value::Int(9)]);
        db.insert("p", vec![Value::Int(5), Value::Int(9)]);
        db.substitute_null(1, &Value::Int(5));
        assert_eq!(db.relation("p").unwrap().len(), 1);
    }
}
