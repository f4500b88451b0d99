//! Microaggregation for numeric attributes (Domingo-Ferrer & Mateo-Sanz),
//! the third classic SDC transform next to suppression and recoding.
//!
//! Numeric quasi-identifiers (income, turnover, exact employee counts)
//! cannot be rolled up through a categorical hierarchy, and suppressing
//! them wastes information. Microaggregation sorts the column, partitions
//! it into groups of at least `k` adjacent values and replaces every value
//! by its group mean: each group becomes a k-anonymous blur that *exactly
//! preserves the column total and mean* — the statistics-preserving spirit
//! of desideratum (v) in its purest form.
//!
//! The implementation is the univariate optimal-partition variant: groups
//! are contiguous in sorted order with sizes in `[k, 2k)`, the layout that
//! minimizes within-group variance for a fixed `k` up to the greedy
//! boundary choice.

use super::AnonymizeError;
use crate::model::MicrodataDb;
use vadalog::Value;

/// Outcome of microaggregating one column.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroaggregationOutcome {
    /// Attribute that was transformed.
    pub attr: String,
    /// Number of groups formed.
    pub groups: usize,
    /// Sum of squared errors introduced (information loss proxy).
    pub sse: f64,
}

/// Microaggregate a numeric column in place with minimum group size `k`.
/// Non-numeric or null cells make the column ineligible (error).
pub fn microaggregate(
    db: &mut MicrodataDb,
    attr: &str,
    k: usize,
) -> Result<MicroaggregationOutcome, AnonymizeError> {
    let k = k.max(1);
    let values = db.numeric_column(attr).map_err(AnonymizeError::Model)?;
    let n = values.len();
    if n == 0 {
        return Ok(MicroaggregationOutcome {
            attr: attr.to_string(),
            groups: 0,
            sse: 0.0,
        });
    }

    // sort row indices by value
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));

    // contiguous groups of size k; the remainder (n mod k) is folded into
    // the last group so every group has size in [k, 2k)
    let group_count = (n / k).max(1);
    let mut sse = 0.0f64;
    for g in 0..group_count {
        let start = g * k;
        let end = if g == group_count - 1 { n } else { start + k };
        let members = &order[start..end];
        let mean: f64 = members.iter().map(|&i| values[i]).sum::<f64>() / members.len() as f64;
        for &i in members {
            sse += (values[i] - mean).powi(2);
            db.set_value(i, attr, Value::Float(mean))
                .map_err(AnonymizeError::Model)?;
        }
    }
    Ok(MicroaggregationOutcome {
        attr: attr.to_string(),
        groups: group_count,
        sse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maybe_match::{group_stats, NullSemantics};

    fn numeric_db(values: &[i64]) -> MicrodataDb {
        let mut db = MicrodataDb::new("m", ["income"]).unwrap();
        for v in values {
            db.push_row(vec![Value::Int(*v)]).unwrap();
        }
        db
    }

    #[test]
    fn totals_and_means_are_preserved() {
        let mut db = numeric_db(&[10, 20, 30, 100, 110, 120, 5000]);
        let before: f64 = db.numeric_column("income").unwrap().iter().sum();
        microaggregate(&mut db, "income", 3).unwrap();
        let after: f64 = db.numeric_column("income").unwrap().iter().sum();
        assert!((before - after).abs() < 1e-9, "column total must not move");
    }

    #[test]
    fn every_group_reaches_k() {
        let mut db = numeric_db(&[1, 2, 3, 4, 5, 6, 7]);
        microaggregate(&mut db, "income", 3).unwrap();
        let col: Vec<Vec<Value>> = db
            .numeric_column("income")
            .unwrap()
            .into_iter()
            .map(|v| vec![Value::Float(v)])
            .collect();
        let stats = group_stats(&col, None, NullSemantics::Standard);
        assert!(
            stats.count.iter().all(|&c| c >= 3),
            "counts: {:?}",
            stats.count
        );
        // 7 values, k=3 → 2 groups (3 + 4)
        assert!(stats.count.contains(&4));
    }

    #[test]
    fn groups_are_contiguous_in_value_order() {
        // the outlier 5000 must not be averaged with the small values when
        // it can sit in the top group
        let mut db = numeric_db(&[10, 11, 12, 5000, 5001, 5002]);
        let out = microaggregate(&mut db, "income", 3).unwrap();
        assert_eq!(out.groups, 2);
        let col = db.numeric_column("income").unwrap();
        assert!((col[0] - 11.0).abs() < 1e-9);
        assert!((col[3] - 5001.0).abs() < 1e-9);
        // SSE is tiny because groups are homogeneous
        assert!(out.sse < 10.0);
    }

    #[test]
    fn k_of_one_is_identity() {
        let mut db = numeric_db(&[3, 1, 2]);
        let out = microaggregate(&mut db, "income", 1).unwrap();
        assert_eq!(out.sse, 0.0);
        assert_eq!(db.numeric_column("income").unwrap(), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn k_larger_than_table_forms_one_group() {
        let mut db = numeric_db(&[1, 2, 3]);
        let out = microaggregate(&mut db, "income", 10).unwrap();
        assert_eq!(out.groups, 1);
        let col = db.numeric_column("income").unwrap();
        assert!(col.iter().all(|&v| (v - 2.0).abs() < 1e-9));
    }

    #[test]
    fn non_numeric_column_is_an_error() {
        let mut db = MicrodataDb::new("m", ["area"]).unwrap();
        db.push_row(vec![Value::str("North")]).unwrap();
        assert!(microaggregate(&mut db, "area", 2).is_err());
    }

    #[test]
    fn larger_k_increases_sse() {
        let values: Vec<i64> = (0..50).map(|i| i * 7 % 97).collect();
        let sse_of = |k: usize| {
            let mut db = numeric_db(&values);
            microaggregate(&mut db, "income", k).unwrap().sse
        };
        let s2 = sse_of(2);
        let s5 = sse_of(5);
        let s10 = sse_of(10);
        assert!(s2 <= s5 && s5 <= s10, "{s2} {s5} {s10}");
    }
}
