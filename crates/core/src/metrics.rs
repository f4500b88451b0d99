//! Utility and information-loss metrics (paper §5.1).
//!
//! Figure 7a counts the labelled nulls injected by local suppression;
//! Figure 7b normalizes them into an *information loss* measure: injected
//! nulls divided by the maximum number of values that could theoretically
//! be removed — the quasi-identifier cells of the tuples that were risky
//! w.r.t. the threshold before anonymization started.

use crate::risk::MicrodataView;

/// Information loss per the paper's Figure 7b definition.
///
/// * `nulls_injected` — suppressions performed by the cycle;
/// * `initial_risky_tuples` — tuples over the threshold before the run;
/// * `qi_count` — number of quasi-identifier attributes.
///
/// Returns a ratio in `[0, 1]`; `0` when nothing was risky.
pub fn information_loss(
    nulls_injected: usize,
    initial_risky_tuples: usize,
    qi_count: usize,
) -> f64 {
    let denom = initial_risky_tuples * qi_count;
    if denom == 0 {
        0.0
    } else {
        (nulls_injected as f64 / denom as f64).min(1.0)
    }
}

/// Fraction of suppressed quasi-identifier cells over all QI cells.
pub fn suppression_ratio(view: &MicrodataView) -> f64 {
    let total = view.len() * view.width();
    if total == 0 {
        return 0.0;
    }
    view.null_cell_count() as f64 / total as f64
}

/// Shannon entropy (bits) of the equivalence-class distribution under the
/// standard semantics. Anonymization lowers it: coarser data, less spread.
pub fn class_entropy(view: &MicrodataView) -> f64 {
    if view.is_empty() {
        return 0.0;
    }
    use std::collections::HashMap;
    let mut counts: HashMap<&[u32], usize> = HashMap::new();
    for r in 0..view.len() {
        *counts.entry(view.row_codes(r)).or_insert(0) += 1;
    }
    let n = view.len() as f64;
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maybe_match::NullSemantics;
    use vadalog::Value;

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    fn view(rows: Vec<Vec<Value>>) -> MicrodataView {
        let w = rows.first().map_or(0, |r| r.len());
        let names = (0..w).map(|i| format!("q{i}")).collect();
        MicrodataView::from_rows(names, rows, None, NullSemantics::Standard).unwrap()
    }

    #[test]
    fn information_loss_basics() {
        assert_eq!(information_loss(0, 10, 4), 0.0);
        assert_eq!(information_loss(10, 0, 4), 0.0);
        assert!((information_loss(8, 10, 4) - 0.2).abs() < 1e-12);
        // clamped at 1
        assert_eq!(information_loss(100, 2, 4), 1.0);
    }

    #[test]
    fn suppression_ratio_counts_nulls() {
        let v = view(vec![vec![s("a"), Value::Null(0)], vec![s("b"), s("c")]]);
        assert!((suppression_ratio(&v) - 0.25).abs() < 1e-12);
        assert_eq!(suppression_ratio(&view(vec![])), 0.0);
    }

    #[test]
    fn class_entropy_counts_bits() {
        let v = view(vec![vec![s("a")], vec![s("a")], vec![s("b")], vec![s("c")]]);
        // entropy of {1/2, 1/4, 1/4} = 1.5 bits
        assert!((class_entropy(&v) - 1.5).abs() < 1e-12);
        assert_eq!(class_entropy(&view(vec![])), 0.0);
    }
}
