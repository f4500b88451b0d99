//! Null-tolerant equality and equivalence-group statistics (paper §4.3).
//!
//! After local suppression a quasi-identifier cell may hold a labelled null
//! `⊥`. Vada-SA forms risk-aggregation groups with the **maybe-match**
//! relation `=⊥`:
//!
//! > `q =⊥ q′` holds iff (i) `q` and `q′` are the same constant, or
//! > (ii) either side is a labelled null.
//!
//! Tuples with nulls therefore belong to *several* overlapping groups —
//! groups no longer partition the table — which is exactly how a single
//! suppression raises the frequency of every tuple it may match (Figure 5:
//! suppressing `Textiles` lifts tuple 1's frequency from 1 to 5 and tuples
//! 2–5 from 2 to 3).
//!
//! The alternative **standard** semantics (Skolem-chase style: two nulls
//! are equal iff they carry the same label) is also provided; experiment
//! 7c contrasts the two.

use std::collections::HashMap;
use vadalog::Value;

/// How labelled nulls compare during group formation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NullSemantics {
    /// Paper semantics: a null matches anything (`maybe-match`).
    #[default]
    MaybeMatch,
    /// Skolem-chase semantics: nulls equal only their own label.
    Standard,
}

impl NullSemantics {
    /// Both semantics, in declaration order.
    pub const ALL: [NullSemantics; 2] = [NullSemantics::MaybeMatch, NullSemantics::Standard];

    /// The name job manifests and Figure 7c use: `maybe-match` or
    /// `standard`.
    pub fn name(self) -> &'static str {
        match self {
            NullSemantics::MaybeMatch => "maybe-match",
            NullSemantics::Standard => "standard",
        }
    }

    /// The semantics a [`name`](Self::name) stands for. Any other string
    /// is `None`, so callers refuse it with a structured error.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|n| n.name() == s)
    }
}

/// Do two cell values match under the chosen semantics?
pub fn values_match(a: &Value, b: &Value, sem: NullSemantics) -> bool {
    match sem {
        NullSemantics::Standard => a == b,
        NullSemantics::MaybeMatch => a.is_null() || b.is_null() || a == b,
    }
}

/// Do two projected rows match position-wise?
pub fn rows_match(a: &[Value], b: &[Value], sem: NullSemantics) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| values_match(x, y, sem))
}

/// Per-row equivalence-group statistics over a set of projected columns.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStats {
    /// `count[t]` = number of rows matching row `t` (including itself).
    pub count: Vec<usize>,
    /// `weight_sum[t]` = sum of weights of rows matching row `t`
    /// (equals `count` when no weights are supplied).
    pub weight_sum: Vec<f64>,
}

/// Are these weights exactly summable in any order? True when every weight
/// is an integer-valued `f64` with magnitude below `2^53`: integer sums in
/// that range are exact, so incremental `±w` updates produce bit-identical
/// results to a cold pass. `None` (unweighted) counts as summable.
pub fn weights_exactly_summable(weights: Option<&[f64]>) -> bool {
    match weights {
        None => true,
        Some(ws) => ws
            .iter()
            .all(|w| w.is_finite() && w.fract() == 0.0 && w.abs() < 9_007_199_254_740_992.0),
    }
}

/// Compute matching counts and weight sums for every row of `rows`
/// (each row already projected to the columns of interest).
///
/// Under [`NullSemantics::Standard`] this is plain hash grouping. Under
/// [`NullSemantics::MaybeMatch`] rows containing nulls cross-match; the
/// implementation stays near-linear by hashing the null-free rows and only
/// doing pattern lookups / pairwise comparisons for the (typically few)
/// rows that carry nulls.
pub fn group_stats(rows: &[Vec<Value>], weights: Option<&[f64]>, sem: NullSemantics) -> GroupStats {
    let n = rows.len();
    let w = |i: usize| weights.map(|w| w[i]).unwrap_or(1.0);

    if sem == NullSemantics::Standard {
        let mut agg: HashMap<&[Value], (usize, f64)> = HashMap::with_capacity(n);
        for (i, r) in rows.iter().enumerate() {
            let e = agg.entry(r.as_slice()).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += w(i);
        }
        let mut count = Vec::with_capacity(n);
        let mut weight_sum = Vec::with_capacity(n);
        for r in rows {
            let (c, s) = agg[r.as_slice()];
            count.push(c);
            weight_sum.push(s);
        }
        return GroupStats { count, weight_sum };
    }

    // --- maybe-match ---
    let has_null = |r: &[Value]| r.iter().any(Value::is_null);
    let mut complete: Vec<usize> = Vec::new();
    let mut nulled: Vec<usize> = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        if has_null(r) {
            nulled.push(i);
        } else {
            complete.push(i);
        }
    }

    // Exact grouping of complete rows.
    let mut exact: HashMap<&[Value], (usize, f64)> = HashMap::with_capacity(complete.len());
    for &i in &complete {
        let e = exact.entry(rows[i].as_slice()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += w(i);
    }

    let mut count = vec![0usize; n];
    let mut weight_sum = vec![0.0f64; n];
    for &i in &complete {
        let (c, s) = exact[rows[i].as_slice()];
        count[i] = c;
        weight_sum[i] = s;
    }

    if nulled.is_empty() {
        return GroupStats { count, weight_sum };
    }

    // Group nulled rows by their null-position mask; per mask, index the
    // complete rows on the mask's constant positions.
    let ncols = rows.first().map(|r| r.len()).unwrap_or(0);
    let mut by_mask: HashMap<u64, Vec<usize>> = HashMap::new();
    for &i in &nulled {
        let mut mask = 0u64;
        for (c, v) in rows[i].iter().enumerate() {
            if v.is_null() {
                mask |= 1 << c;
            }
        }
        by_mask.entry(mask).or_default().push(i);
    }

    for (mask, members) in &by_mask {
        let const_cols: Vec<usize> = (0..ncols).filter(|c| mask & (1 << c) == 0).collect();
        // index of complete rows on the constant positions
        let mut index: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
        for &i in &complete {
            let key: Vec<&Value> = const_cols.iter().map(|&c| &rows[i][c]).collect();
            index.entry(key).or_default().push(i);
        }
        for &i in members {
            let key: Vec<&Value> = const_cols.iter().map(|&c| &rows[i][c]).collect();
            if let Some(bucket) = index.get(&key) {
                // nulled row i matches every complete row in the bucket,
                // and vice versa.
                count[i] += bucket.len();
                for &j in bucket {
                    weight_sum[i] += w(j);
                    count[j] += 1;
                    weight_sum[j] += w(i);
                }
            }
        }
    }

    // nulled-vs-nulled (including self): pairwise over the null-carrying rows.
    for (a_pos, &i) in nulled.iter().enumerate() {
        count[i] += 1; // self
        weight_sum[i] += w(i);
        for &j in nulled.iter().skip(a_pos + 1) {
            if rows_match(&rows[i], &rows[j], NullSemantics::MaybeMatch) {
                count[i] += 1;
                weight_sum[i] += w(j);
                count[j] += 1;
                weight_sum[j] += w(i);
            }
        }
    }

    GroupStats { count, weight_sum }
}

/// Group statistics over a sub-projection: only the listed column positions
/// of each row participate in matching. Used by SUDA's per-subset scans.
///
/// When no projected cell is a labelled null the two semantics coincide
/// and a reference-keyed hash pass avoids cloning any cell — this is the
/// hot path of SUDA's `C(m, ≤k)` subset sweep.
pub fn group_stats_on(
    rows: &[Vec<Value>],
    positions: &[usize],
    weights: Option<&[f64]>,
    sem: NullSemantics,
) -> GroupStats {
    let any_null = rows
        .iter()
        .any(|r| positions.iter().any(|&p| r[p].is_null()));
    if !any_null {
        let n = rows.len();
        let w = |i: usize| weights.map(|w| w[i]).unwrap_or(1.0);
        let mut agg: HashMap<Vec<&Value>, (usize, f64)> = HashMap::with_capacity(n);
        for (i, r) in rows.iter().enumerate() {
            let key: Vec<&Value> = positions.iter().map(|&p| &r[p]).collect();
            let e = agg.entry(key).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += w(i);
        }
        let mut count = Vec::with_capacity(n);
        let mut weight_sum = Vec::with_capacity(n);
        for r in rows {
            let key: Vec<&Value> = positions.iter().map(|&p| &r[p]).collect();
            let (c, s) = agg[&key];
            count.push(c);
            weight_sum.push(s);
        }
        return GroupStats { count, weight_sum };
    }
    let projected: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| positions.iter().map(|&p| r[p].clone()).collect())
        .collect();
    group_stats(&projected, weights, sem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    fn row(vals: &[&str]) -> Vec<Value> {
        vals.iter().map(|v| s(v)).collect()
    }

    #[test]
    fn maybe_match_on_constants_is_equality() {
        assert!(values_match(&s("a"), &s("a"), NullSemantics::MaybeMatch));
        assert!(!values_match(&s("a"), &s("b"), NullSemantics::MaybeMatch));
    }

    #[test]
    fn maybe_match_null_matches_everything() {
        assert!(values_match(
            &Value::Null(1),
            &s("a"),
            NullSemantics::MaybeMatch
        ));
        assert!(values_match(
            &s("a"),
            &Value::Null(1),
            NullSemantics::MaybeMatch
        ));
        assert!(values_match(
            &Value::Null(1),
            &Value::Null(2),
            NullSemantics::MaybeMatch
        ));
    }

    #[test]
    fn standard_nulls_equal_only_same_label() {
        assert!(!values_match(
            &Value::Null(1),
            &s("a"),
            NullSemantics::Standard
        ));
        assert!(!values_match(
            &Value::Null(1),
            &Value::Null(2),
            NullSemantics::Standard
        ));
        assert!(values_match(
            &Value::Null(1),
            &Value::Null(1),
            NullSemantics::Standard
        ));
    }

    #[test]
    fn figure5_frequencies_before_suppression() {
        // Figure 5a: 7 rows, frequencies 1,2,2,2,2,1,1
        let rows = vec![
            row(&["Roma", "Textiles", "1000+", "0-30"]),
            row(&["Roma", "Commerce", "1000+", "0-30"]),
            row(&["Roma", "Commerce", "1000+", "0-30"]),
            row(&["Roma", "Financial", "1000+", "0-30"]),
            row(&["Roma", "Financial", "1000+", "0-30"]),
            row(&["Milano", "Construction", "0-200", "60-90"]),
            row(&["Torino", "Construction", "0-200", "60-90"]),
        ];
        let gs = group_stats(&rows, None, NullSemantics::MaybeMatch);
        assert_eq!(gs.count, vec![1, 2, 2, 2, 2, 1, 1]);
    }

    #[test]
    fn figure5_frequencies_after_suppression() {
        // Figure 5b: ⊥ on tuple 1's Sector lifts it to 5 and tuples 2-5 to 3.
        let rows = vec![
            vec![s("Roma"), Value::Null(0), s("1000+"), s("0-30")],
            row(&["Roma", "Commerce", "1000+", "0-30"]),
            row(&["Roma", "Commerce", "1000+", "0-30"]),
            row(&["Roma", "Financial", "1000+", "0-30"]),
            row(&["Roma", "Financial", "1000+", "0-30"]),
            row(&["Milano", "Construction", "0-200", "60-90"]),
            row(&["Torino", "Construction", "0-200", "60-90"]),
        ];
        let gs = group_stats(&rows, None, NullSemantics::MaybeMatch);
        assert_eq!(gs.count, vec![5, 3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn standard_semantics_does_not_lift_frequencies() {
        let rows = vec![
            vec![s("Roma"), Value::Null(0), s("1000+"), s("0-30")],
            row(&["Roma", "Commerce", "1000+", "0-30"]),
            row(&["Roma", "Commerce", "1000+", "0-30"]),
        ];
        let gs = group_stats(&rows, None, NullSemantics::Standard);
        assert_eq!(gs.count, vec![1, 2, 2]);
    }

    #[test]
    fn weights_are_summed_within_groups() {
        let rows = vec![row(&["a"]), row(&["a"]), row(&["b"])];
        let weights = [10.0, 20.0, 5.0];
        let gs = group_stats(&rows, Some(&weights), NullSemantics::MaybeMatch);
        assert_eq!(gs.weight_sum, vec![30.0, 30.0, 5.0]);
        let gs2 = group_stats(&rows, Some(&weights), NullSemantics::Standard);
        assert_eq!(gs2.weight_sum, vec![30.0, 30.0, 5.0]);
    }

    #[test]
    fn weights_flow_across_null_matches() {
        let rows = vec![vec![Value::Null(0)], row(&["a"]), row(&["b"])];
        let weights = [1.0, 10.0, 100.0];
        let gs = group_stats(&rows, Some(&weights), NullSemantics::MaybeMatch);
        // null row matches everything
        assert_eq!(gs.count[0], 3);
        assert!((gs.weight_sum[0] - 111.0).abs() < 1e-9);
        // "a" row matches itself + null row
        assert_eq!(gs.count[1], 2);
        assert!((gs.weight_sum[1] - 11.0).abs() < 1e-9);
    }

    #[test]
    fn two_nulled_rows_maybe_match_each_other() {
        let rows = vec![
            vec![Value::Null(0), s("x")],
            vec![Value::Null(1), s("x")],
            vec![Value::Null(2), s("y")],
        ];
        let gs = group_stats(&rows, None, NullSemantics::MaybeMatch);
        assert_eq!(gs.count, vec![2, 2, 1]);
    }

    #[test]
    fn group_stats_on_projects_positions() {
        let rows = vec![
            row(&["North", "Textiles", "big"]),
            row(&["North", "Commerce", "big"]),
        ];
        let gs = group_stats_on(&rows, &[0, 2], None, NullSemantics::MaybeMatch);
        assert_eq!(gs.count, vec![2, 2]);
        let gs = group_stats_on(&rows, &[1], None, NullSemantics::MaybeMatch);
        assert_eq!(gs.count, vec![1, 1]);
    }

    #[test]
    fn maybe_match_counts_are_never_below_standard() {
        // property spot-check on a small mixed table
        let rows = vec![
            vec![Value::Null(0), s("x")],
            vec![s("a"), s("x")],
            vec![s("a"), Value::Null(1)],
            vec![s("b"), s("y")],
            vec![s("b"), s("y")],
        ];
        let mm = group_stats(&rows, None, NullSemantics::MaybeMatch);
        let st = group_stats(&rows, None, NullSemantics::Standard);
        for (m, s2) in mm.count.iter().zip(st.count.iter()) {
            assert!(m >= s2);
        }
    }

    #[test]
    fn empty_input() {
        let gs = group_stats(&[], None, NullSemantics::MaybeMatch);
        assert!(gs.count.is_empty());
        assert!(gs.weight_sum.is_empty());
    }

    #[test]
    fn exact_summability_gate() {
        assert!(weights_exactly_summable(None));
        assert!(weights_exactly_summable(Some(&[1.0, 20.0, 300.0])));
        assert!(!weights_exactly_summable(Some(&[1.5])));
        assert!(!weights_exactly_summable(Some(&[f64::NAN])));
        assert!(!weights_exactly_summable(Some(&[1e16])));
    }
}
