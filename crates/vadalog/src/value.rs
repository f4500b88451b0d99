//! Ground values manipulated by the engine.
//!
//! Values form a total order (needed for deterministic iteration, set values
//! and aggregate tie-breaking) and are hashable. Floats are ordered with
//! [`f64::total_cmp`] and hashed by bit pattern, so `NaN` is a legitimate —
//! if unusual — value rather than a panic source.
//!
//! Composites are flat: a tuple is one `Arc<[Value]>` allocation, and a
//! set is a [`SetVal`], its items sorted in one boxed slice beside a hash
//! computed once when the set is built.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Identifier of a labelled null (`⊥_n`), the engine-invented witnesses for
/// existentially quantified head variables. Two nulls are interchangeable iff
/// they carry the same label.
pub type NullId = u64;

/// A ground value: constant, labelled null, or a composite (set / tuple).
///
/// Composites are reference-counted so that facts carrying large `VSet`
/// collections (as in the Vada-SA encodings) can be copied cheaply.
#[derive(Debug, Clone)]
pub enum Value {
    /// Boolean constant.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision float, totally ordered via `total_cmp`.
    Float(f64),
    /// Interned-ish string (shared, immutable).
    Str(Arc<str>),
    /// Labelled null `⊥_id`.
    Null(NullId),
    /// A set of values (deterministically ordered).
    Set(Arc<SetVal>),
    /// A fixed-arity tuple of values, e.g. an attribute-value pair.
    Tuple(Arc<[Value]>),
}

/// The key every set hash in this process is computed under, drawn once.
/// Sets key the engine's hash maps, so their hashes stay keyed the way
/// the maps' own hashers are: a crafted input cannot aim for collisions.
fn set_keys() -> &'static RandomState {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new)
}

/// A set value: its items in ascending order without duplicates, in one
/// boxed slice, and the hash of those items, computed once when the set
/// is built.
///
/// [`Value`]'s `Hash` writes that one `u64` instead of walking the items,
/// `==` rejects two sets whose hashes differ before comparing items, and
/// membership is a binary search. The hash is keyed per process (see
/// `set_keys`), so it differs from run to run; nothing the engine
/// outputs depends on it.
///
/// `Int(2)` and `Float(2.0)` are equal yet not interchangeable (arithmetic
/// and `Debug` tell them apart), so which of two equal items a set keeps
/// is pinned to what a `BTreeSet` keeps: building a set from a list
/// ([`Value::set`], `keys`, `values`) keeps the last of equal items, as
/// collecting into a `BTreeSet` does, and adding to a set (`union`,
/// `s union {x}`, `munion`, `union_of`) keeps the item that came first,
/// as `BTreeSet::insert` does.
#[derive(Clone)]
pub struct SetVal {
    hash: u64,
    items: Box<[Value]>,
}

impl SetVal {
    /// A set over `items`, which must be strictly ascending.
    fn new(items: Box<[Value]>) -> SetVal {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "unsorted set items");
        SetVal {
            hash: set_keys().hash_one(&*items),
            items,
        }
    }

    /// A set over `items` in any order: sorted (stably, so equal items
    /// keep the order given), then deduplicated keeping the first or the
    /// last of each run of equal items.
    fn build(mut items: Vec<Value>, keep_last: bool) -> SetVal {
        items.sort();
        if keep_last {
            items.dedup_by(|later, kept| {
                let equal = later == kept;
                if equal {
                    std::mem::swap(later, kept);
                }
                equal
            });
        } else {
            items.dedup();
        }
        SetVal::new(items.into_boxed_slice())
    }

    /// The set of `items`, of equal items the last, as collecting them
    /// into a `BTreeSet` keeps it.
    pub(crate) fn from_collected(items: Vec<Value>) -> SetVal {
        SetVal::build(items, true)
    }

    /// The set of `items`, of equal items the first, as inserting them
    /// one by one into a `BTreeSet` keeps it.
    pub(crate) fn from_inserted(items: Vec<Value>) -> SetVal {
        SetVal::build(items, false)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items, ascending.
    pub(crate) fn items(&self) -> &[Value] {
        &self.items
    }

    /// Iterate the items in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.items.iter()
    }

    /// Does the set hold an item equal to `x`? A binary search.
    pub(crate) fn contains(&self, x: &Value) -> bool {
        self.items.binary_search(x).is_ok()
    }

    /// Is every item of `self` in `other`?
    pub(crate) fn is_subset(&self, other: &SetVal) -> bool {
        self.len() <= other.len() && self.iter().all(|x| other.contains(x))
    }

    /// The items `keep` accepts, as a set (a subset stays sorted).
    pub(crate) fn filter(&self, mut keep: impl FnMut(&Value) -> bool) -> SetVal {
        SetVal::new(self.iter().filter(|x| keep(x)).cloned().collect())
    }

    /// `s ∪ {x}`. When `s` already holds an item equal to `x`, that item
    /// stays and the result is `s` itself.
    pub(crate) fn with(s: &Arc<SetVal>, x: Value) -> Arc<SetVal> {
        match s.items.binary_search(&x) {
            Ok(_) => Arc::clone(s),
            Err(at) => {
                let mut items = Vec::with_capacity(s.len() + 1);
                items.extend_from_slice(&s.items[..at]);
                items.push(x);
                items.extend_from_slice(&s.items[at..]);
                Arc::new(SetVal::new(items.into_boxed_slice()))
            }
        }
    }

    /// `a ∪ b`, keeping `a`'s item of two equal ones.
    pub(crate) fn union(a: &Arc<SetVal>, b: &Arc<SetVal>) -> Arc<SetVal> {
        let (a, b) = (a.items(), b.items());
        let mut items = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    items.push(a[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    items.push(b[j].clone());
                    j += 1;
                }
                Ordering::Equal => {
                    items.push(a[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        items.extend_from_slice(&a[i..]);
        items.extend_from_slice(&b[j..]);
        Arc::new(SetVal::new(items.into_boxed_slice()))
    }
}

impl PartialEq for SetVal {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.items == other.items
    }
}
impl Eq for SetVal {}

impl Ord for SetVal {
    /// Lexicographic over the ascending items, as `BTreeSet`'s order.
    fn cmp(&self, other: &Self) -> Ordering {
        self.items.cmp(&other.items)
    }
}
impl PartialOrd for SetVal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for SetVal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hash.hash(state);
    }
}

impl fmt::Debug for SetVal {
    /// The items only: the hash is per process and stays out of output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Value {
    /// Convenience constructor for string values. The string is routed
    /// through the global interner ([`mod@crate::intern`]), so equal strings
    /// share one allocation and comparisons hit the pointer fast path.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(crate::intern::intern(s.as_ref()))
    }

    /// String constructor that bypasses the interner. Use for strings that
    /// are known to be transient or unbounded in variety (interned entries
    /// live for the process lifetime, up to the interner's capacity cap).
    pub fn str_uninterned(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for a pair `(a, b)`.
    pub fn pair(a: Value, b: Value) -> Self {
        Value::Tuple(Arc::new([a, b]))
    }

    /// Convenience constructor for a set value. Of two equal items the
    /// last stays (see [`SetVal`]).
    pub fn set(items: impl IntoIterator<Item = Value>) -> Self {
        Value::Set(Arc::new(SetVal::from_collected(
            items.into_iter().collect(),
        )))
    }

    /// Is this value a labelled null?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Numeric view of the value, if it is `Int` or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Truthiness for use in rule conditions: only `Bool(true)` is true.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Set view, if this is a `Set`.
    pub fn as_set(&self) -> Option<&SetVal> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Tuple view, if this is a `Tuple`.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// Discriminant rank used to order values of different kinds.
    fn kind_rank(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 1, // numbers compare with each other
            Value::Str(_) => 2,
            Value::Null(_) => 3,
            Value::Set(_) => 4,
            Value::Tuple(_) => 5,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // composites compare item by item, so a nested set's cached
            // hash can reject it before its items are read
            (Value::Set(a), Value::Set(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::Tuple(a), Value::Tuple(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => self.cmp(other) == Ordering::Equal,
        }
    }
}
impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            // Interned strings (and shared composites) alias: a pointer
            // match decides equality without touching the bytes.
            (Str(a), Str(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.cmp(b)
                }
            }
            (Null(a), Null(b)) => a.cmp(b),
            (Set(a), Set(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.cmp(b)
                }
            }
            (Tuple(a), Tuple(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.cmp(b)
                }
            }
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An integer against a float, exactly. `a as f64` rounds beyond 2^53, so
/// a tie of the rounded value is broken by the integer itself: otherwise
/// `Int(2^53)` and `Int(2^53 + 1)` would both equal `Float(2^53)` yet
/// differ from each other, an order that is not transitive, on which a
/// sort may panic and a binary search may miss.
fn int_float_cmp(a: i64, b: f64) -> Ordering {
    match (a as f64).total_cmp(&b) {
        // `b` is 2^63 here only when `a` rounded up to it
        Ordering::Equal if b >= 9_223_372_036_854_775_808.0 => Ordering::Less,
        Ordering::Equal => a.cmp(&(b as i64)),
        other => other,
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Bool(b) => {
                0u8.hash(state);
                b.hash(state);
            }
            // Int and Float that compare equal must hash equal: hash every
            // number through the f64 bit pattern of its canonical form when
            // it is integral, otherwise the raw bits.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                if f.fract() == 0.0
                    && f.is_finite()
                    && *f >= i64::MIN as f64
                    && *f <= i64::MAX as f64
                {
                    (*f).to_bits().hash(state);
                } else {
                    f.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Null(n) => {
                3u8.hash(state);
                n.hash(state);
            }
            Value::Set(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Tuple(t) => {
                5u8.hash(state);
                for v in t.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Null(n) => write!(f, "⊥{n}"),
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Tuple(t) => {
                write!(f, "(")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_equality_is_consistent_with_hash() {
        let a = Value::Int(42);
        let b = Value::Float(42.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn ordering_is_total_across_kinds() {
        let vs = vec![
            Value::Bool(false),
            Value::Int(1),
            Value::Float(1.5),
            Value::str("a"),
            Value::Null(0),
            Value::set([Value::Int(1)]),
            Value::pair(Value::Int(1), Value::Int(2)),
        ];
        for a in &vs {
            for b in &vs {
                // must not panic and must be antisymmetric
                let ab = a.cmp(b);
                let ba = b.cmp(a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }

    #[test]
    fn nulls_with_distinct_labels_differ() {
        assert_ne!(Value::Null(1), Value::Null(2));
        assert_eq!(Value::Null(7), Value::Null(7));
    }

    #[test]
    fn set_value_deduplicates() {
        let s = Value::set([Value::Int(1), Value::Int(1), Value::Int(2)]);
        assert_eq!(s.as_set().unwrap().len(), 2);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Value::str("x").to_string(), "\"x\"");
        assert_eq!(Value::Null(3).to_string(), "⊥3");
        assert_eq!(
            Value::pair(Value::Int(1), Value::str("a")).to_string(),
            "(1, \"a\")"
        );
    }

    #[test]
    fn nan_is_ordered_not_panicking() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        // total_cmp places NaN after all numbers; just ensure consistency.
        assert_eq!(nan.cmp(&one), one.cmp(&nan).reverse());
        assert_eq!(nan, nan.clone());
    }

    #[test]
    fn numbers_beyond_2_pow_53_stay_totally_ordered() {
        let big = 1i64 << 53;
        let mut vs: Vec<Value> = Vec::new();
        for k in 0..4 {
            vs.push(Value::Int(big + k));
            vs.push(Value::Int(-big - k));
            vs.push(Value::Float((big + k) as f64));
            vs.push(Value::Float((-big - k) as f64));
        }
        vs.extend([
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(9_223_372_036_854_775_808.0),
            Value::Float(-9_223_372_036_854_775_808.0),
            Value::Float(-0.0),
            Value::Int(0),
        ]);
        for a in &vs {
            for b in &vs {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?}");
                }
                for c in &vs {
                    if a <= b && b <= c {
                        assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
                    }
                }
            }
        }
        assert!(Value::Int(big + 1) > Value::Float(big as f64));
        assert!(Value::Int(i64::MAX) < Value::Float(9_223_372_036_854_775_808.0));
        assert_eq!(
            Value::Int(i64::MIN),
            Value::Float(-9_223_372_036_854_775_808.0)
        );
        // a set of many such items builds (a sort on a non-transitive
        // order may panic from 20 items on) and is strictly ascending
        let many: Vec<Value> = (0..200).map(|i| vs[(i * 7) % vs.len()].clone()).collect();
        let s = Value::set(many.clone());
        let items = s.as_set().expect("a set").items();
        assert!(items.windows(2).all(|w| w[0] < w[1]));
        assert!(many.iter().all(|x| s.as_set().expect("a set").contains(x)));
    }

    #[test]
    fn adding_a_present_item_returns_the_same_set() {
        let Value::Set(s) = Value::set([Value::Int(1), Value::Int(2)]) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&SetVal::with(&s, Value::Float(2.0)), &s));
    }

    /// Every set-producing path against a `BTreeSet<Value>` oracle, over
    /// random multisets rich in items that are equal yet distinguishable
    /// (`Int(1)` and `Float(1.0)`).
    mod against_btreeset {
        use super::*;
        use crate::ast::{BinOp, Expr};
        use crate::builtins::{eval_expr, Binding};
        use crate::frame::wire;
        use crate::{parse_program, Database, Engine};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;

        const CASES: u64 = 1500;

        fn scalar(rng: &mut StdRng) -> Value {
            match rng.gen_range(0..6u32) {
                0 => Value::Int(rng.gen_range(0..3i64)),
                1 => Value::Float(rng.gen_range(0..3i64) as f64),
                2 => Value::Float(0.5),
                3 => Value::str(["a", "b"][rng.gen_range(0..2usize)]),
                4 => Value::Null(rng.gen_range(1..3u64)),
                _ => Value::Bool(rng.gen_bool(0.5)),
            }
        }

        /// A scalar, a pair keyed `a`/`b`/`c`, or a nested set.
        fn item(rng: &mut StdRng) -> Value {
            match rng.gen_range(0..6u32) {
                0 | 1 => scalar(rng),
                2..=4 => {
                    let key = Value::str(["a", "b", "c"][rng.gen_range(0..3usize)]);
                    Value::pair(key, scalar(rng))
                }
                _ => Value::set((0..rng.gen_range(0..3)).map(|_| scalar(rng))),
            }
        }

        fn multiset(rng: &mut StdRng) -> Vec<Value> {
            (0..rng.gen_range(0..8)).map(|_| item(rng)).collect()
        }

        fn collected(items: &[Value]) -> BTreeSet<Value> {
            items.iter().cloned().collect()
        }

        fn set_items(v: &Value) -> &[Value] {
            v.as_set().map_or(&[], SetVal::items)
        }

        /// Strictly ascending items and a cached hash equal to a fresh
        /// hash of them, nested sets included.
        fn assert_well_formed(s: &SetVal, what: &str) {
            assert!(
                s.items.windows(2).all(|w| w[0] < w[1]),
                "{what}: items not strictly ascending: {s:?}"
            );
            assert_eq!(s.hash, set_keys().hash_one(s.items()), "{what}: stale hash");
            for x in s.iter() {
                if let Value::Set(inner) = x {
                    assert_well_formed(inner, what);
                }
            }
        }

        /// `got` is a well-formed set of exactly the oracle's items, the
        /// same one of two equal items included (`Debug` tells `Int(1)`
        /// from `Float(1.0)`).
        fn check(got: &Value, oracle: &BTreeSet<Value>, what: &str) {
            let s = got
                .as_set()
                .unwrap_or_else(|| panic!("{what}: not a set: {got:?}"));
            assert_well_formed(s, what);
            let want: Vec<&Value> = oracle.iter().collect();
            assert_eq!(format!("{:?}", s.items()), format!("{want:?}"), "{what}");
        }

        fn eval(e: &Expr, binding: &Binding) -> Value {
            eval_expr(e, binding).unwrap_or_else(|err| panic!("{e:?}: {err}"))
        }

        fn var(name: &str) -> Box<Expr> {
            Box::new(Expr::var(name))
        }

        fn call(name: &str, args: &[&str]) -> Expr {
            Expr::Call(name.into(), args.iter().map(|a| Expr::var(*a)).collect())
        }

        #[test]
        fn builders_and_builtins_match_the_oracle() {
            for seed in 0..CASES {
                let rng = &mut StdRng::seed_from_u64(seed);
                let (a, b, c) = (multiset(rng), multiset(rng), multiset(rng));
                let x = item(rng);
                let (sa, sb, sc) = (Value::set(a.clone()), Value::set(b.clone()), Value::set(c));
                let (oa, ob) = (collected(&a), collected(&b));
                check(&sa, &oa, &format!("seed {seed}: Value::set"));
                let binding: Binding = [("A", &sa), ("B", &sb), ("C", &sc), ("X", &x)]
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect();
                let what = |path: &str| format!("seed {seed}: {path}");

                // `a union b` keeps a's item of two equal ones, as `extend`
                let mut union = oa.clone();
                union.extend(ob.iter().cloned());
                let e = Expr::Binary(BinOp::Union, var("A"), var("B"));
                check(&eval(&e, &binding), &union, &what("union"));

                // `a union {x}` keeps a's item, as `insert`
                let mut with = oa.clone();
                with.insert(x.clone());
                let e = Expr::Binary(BinOp::Union, var("A"), Box::new(call("set", &["X"])));
                check(&eval(&e, &binding), &with, &what("s union {x}"));

                // `A[B]`: the pairs of A keyed by an item of B
                let projected: BTreeSet<Value> = oa
                    .iter()
                    .filter(|p| p.as_tuple().is_some_and(|t| ob.contains(&t[0])))
                    .cloned()
                    .collect();
                let e = Expr::Index(var("A"), var("B"));
                check(&eval(&e, &binding), &projected, &what("VSet[S]"));

                let minus: BTreeSet<Value> = oa.difference(&ob).cloned().collect();
                check(
                    &eval(&call("setminus", &["A", "B"]), &binding),
                    &minus,
                    &what("setminus set"),
                );
                if !matches!(x, Value::Set(_)) {
                    let minus: BTreeSet<Value> = oa.iter().filter(|v| **v != x).cloned().collect();
                    check(
                        &eval(&call("setminus", &["A", "X"]), &binding),
                        &minus,
                        &what("setminus item"),
                    );
                }

                for (name, at) in [("keys", 0), ("values", 1)] {
                    let oracle: BTreeSet<Value> = oa
                        .iter()
                        .filter_map(|p| p.as_tuple().and_then(|t| t.get(at).cloned()))
                        .collect();
                    check(&eval(&call(name, &["A"]), &binding), &oracle, &what(name));
                }

                let mut union_of = BTreeSet::new();
                for s in ["A", "B", "C"] {
                    union_of.extend(set_items(&binding[s]).iter().cloned());
                }
                check(
                    &eval(&call("union_of", &["A", "B", "C"]), &binding),
                    &union_of,
                    &what("union_of"),
                );
            }
        }

        #[test]
        fn comparisons_match_the_oracle() {
            for seed in 0..CASES {
                let rng = &mut StdRng::seed_from_u64(seed);
                let a = multiset(rng);
                // a third of the time, `b` holds `a`'s items retyped and reordered
                let b = match rng.gen_range(0..3u32) {
                    0 => a
                        .iter()
                        .rev()
                        .map(|v| match v {
                            Value::Int(i) => Value::Float(*i as f64),
                            other => other.clone(),
                        })
                        .collect(),
                    _ => multiset(rng),
                };
                let (sa, sb) = (Value::set(a.clone()), Value::set(b.clone()));
                let (oa, ob) = (collected(&a), collected(&b));
                let what = format!("seed {seed}: {sa} vs {sb}");
                assert_eq!(sa == sb, oa == ob, "{what}: ==");
                assert_eq!(sa.cmp(&sb), oa.cmp(&ob), "{what}: cmp");
                if sa == sb {
                    assert_eq!(hash_of(&sa), hash_of(&sb), "{what}: equal sets hash apart");
                }
                let binding: Binding = [("A", sa.clone()), ("B", sb.clone())]
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect();
                let subset = Expr::Binary(BinOp::Subset, var("A"), var("B"));
                assert_eq!(
                    eval(&subset, &binding),
                    Value::Bool(oa.is_subset(&ob) && oa.len() < ob.len()),
                    "{what}: subset"
                );
                for x in b.iter().chain([item(rng)].iter()) {
                    let set = sa.as_set().expect("a set");
                    assert_eq!(set.contains(x), oa.contains(x), "{what}: contains {x:?}");
                    let mut binding = binding.clone();
                    binding.insert("X".into(), x.clone());
                    let e = Expr::Binary(BinOp::In, var("X"), var("A"));
                    assert_eq!(
                        eval(&e, &binding),
                        Value::Bool(oa.contains(x)),
                        "{what}: in"
                    );
                }
            }
        }

        /// A contributor's `munion` contribution in the oracle.
        enum Folded {
            Item(Value),
            Set(BTreeSet<Value>),
        }

        impl Folded {
            fn of(v: &Value) -> Folded {
                match v {
                    Value::Set(s) => Folded::Set(s.iter().cloned().collect()),
                    other => Folded::Item(other.clone()),
                }
            }

            /// A repeated contributor: the set already there keeps its
            /// items; two items are collected.
            fn merge(self, v: &Value) -> Folded {
                match (self, Folded::of(v)) {
                    (Folded::Set(mut x), Folded::Set(y)) => {
                        x.extend(y);
                        Folded::Set(x)
                    }
                    (Folded::Set(mut s), Folded::Item(x))
                    | (Folded::Item(x), Folded::Set(mut s)) => {
                        s.insert(x);
                        Folded::Set(s)
                    }
                    (Folded::Item(x), Folded::Item(y)) => Folded::Set([x, y].into_iter().collect()),
                }
            }
        }

        #[test]
        fn munion_matches_the_oracle() {
            let program = parse_program("out(G, S) :- c(G, K, V), S = munion(V, <K>).")
                .expect("munion program parses");
            for seed in 0..CASES / 5 {
                let rng = &mut StdRng::seed_from_u64(seed);
                let mut db = Database::new();
                for _ in 0..rng.gen_range(1..10) {
                    let k = Value::Int(rng.gen_range(0..4i64));
                    db.insert("c", vec![Value::Int(0), k, item(rng)]);
                }
                // contributors in first-seen order, repeats merged
                let mut per_key: Vec<(Value, Folded)> = Vec::new();
                for row in db.rows("c") {
                    match per_key.iter().position(|(k, _)| *k == row[1]) {
                        Some(i) => {
                            let (k, folded) = per_key.remove(i);
                            per_key.insert(i, (k, folded.merge(&row[2])));
                        }
                        None => per_key.push((row[1].clone(), Folded::of(&row[2]))),
                    }
                }
                // then one union in that order: the first contributed stays
                let mut oracle = BTreeSet::new();
                for (_, folded) in per_key {
                    match folded {
                        Folded::Set(s) => oracle.extend(s),
                        Folded::Item(x) => {
                            oracle.insert(x);
                        }
                    }
                }
                let out = Engine::new().run(&program, db).expect("munion runs");
                check(
                    &out.db.rows("out")[0][1],
                    &oracle,
                    &format!("seed {seed}: munion"),
                );
            }
        }

        #[test]
        fn decoded_and_substituted_sets_match_the_oracle() {
            for seed in 0..CASES {
                let rng = &mut StdRng::seed_from_u64(seed);
                let items = multiset(rng);
                // a set frame as a hostile writer could lay it out:
                // unsorted, with equal items
                let mut bytes = vec![5u8];
                wire::put_u32(&mut bytes, items.len() as u32);
                for v in &items {
                    wire::put_value(&mut bytes, v);
                }
                let decoded = wire::Reader::new(&bytes).value().expect("set decodes");
                check(
                    &decoded,
                    &collected(&items),
                    &format!("seed {seed}: decoder"),
                );

                let to = scalar(rng);
                let subst = |v: &Value| match v {
                    Value::Null(1) => to.clone(),
                    Value::Tuple(t) => Value::Tuple(
                        t.iter()
                            .map(|x| {
                                if *x == Value::Null(1) {
                                    to.clone()
                                } else {
                                    x.clone()
                                }
                            })
                            .collect(),
                    ),
                    Value::Set(s) => Value::set(s.iter().map(|x| match x {
                        Value::Null(1) => to.clone(),
                        other => other.clone(),
                    })),
                    other => other.clone(),
                };
                // the stored set is rewritten in its own (ascending) order
                let oracle: BTreeSet<Value> = collected(&items).iter().map(subst).collect();
                let mut db = Database::new();
                db.insert("t", vec![Value::set(items.clone()), Value::Null(1)]);
                db.substitute_null(1, &to);
                check(
                    &db.rows("t")[0][0],
                    &oracle,
                    &format!("seed {seed}: substitute_null"),
                );
            }
        }
    }
}
