//! k-anonymity as a threshold risk measure (paper Algorithm 4).
//!
//! A tuple is *dangerous* (risk 1) when fewer than `k` tuples share its
//! quasi-identifier combination, *safe* (risk 0) otherwise:
//!
//! ```text
//! R = mcount(⟨I⟩);  risk = case R < k then 1 else 0
//! ```
//!
//! Under the maybe-match semantics a suppressed cell enlarges the
//! equivalence group, which is how local suppression drives tuples below
//! the threshold.

use super::{MicrodataView, RiskError, RiskMeasure, RiskReport, TupleRiskDetail};
use crate::columnar::par_map_rows;
use crate::maybe_match::GroupStats;
use std::collections::HashMap;
use std::sync::Arc;

/// k-anonymity threshold risk (Algorithm 4).
#[derive(Debug, Clone, Copy)]
pub struct KAnonymity {
    /// Minimum acceptable equivalence-class size.
    pub k: usize,
}

impl KAnonymity {
    /// k-anonymity with the given `k` (must be ≥ 1).
    pub fn new(k: usize) -> Self {
        KAnonymity { k: k.max(1) }
    }

    /// Map group statistics to the k-anonymity report. Shared by the cold
    /// path ([`RiskMeasure::evaluate`]) and the warm-start hook so both
    /// produce bit-identical output from identical statistics. Scoring is
    /// a pure per-row map, so it shards across `threads` workers; notes
    /// are formatted once per distinct class size and shared by every row
    /// of that size (one allocation per size, not per row).
    fn report(&self, threads: usize, stats: &GroupStats) -> RiskReport {
        let n = stats.count.len();
        let risks: Vec<f64> =
            par_map_rows(
                n,
                threads,
                |i| if stats.count[i] < self.k { 1.0 } else { 0.0 },
            );
        let mut notes: HashMap<usize, Arc<str>> = HashMap::new();
        for &c in &stats.count {
            notes
                .entry(c)
                .or_insert_with(|| format!("class size {c} vs k={}", self.k).into());
        }
        let details = par_map_rows(n, threads, |i| TupleRiskDetail {
            frequency: stats.count[i],
            weight_sum: stats.weight_sum[i],
            note: notes[&stats.count[i]].clone(),
        });
        RiskReport {
            measure: self.name().to_string(),
            risks,
            details,
        }
    }
}

impl RiskMeasure for KAnonymity {
    fn name(&self) -> &str {
        "k-anonymity"
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        let stats = view.group_stats();
        Ok(self.report(view.risk_threads, &stats))
    }

    fn evaluate_tuple(&self, view: &MicrodataView, row: usize) -> Option<f64> {
        let (count, _) = super::tuple_group(view, row);
        Some(if count < self.k { 1.0 } else { 0.0 })
    }

    fn tuple_risk_from_stats(
        &self,
        _view: &MicrodataView,
        stats: &GroupStats,
        row: usize,
    ) -> Option<f64> {
        Some(if stats.count[row] < self.k { 1.0 } else { 0.0 })
    }

    fn report_from_groups(
        &self,
        view: &MicrodataView,
        stats: &GroupStats,
    ) -> Option<Result<RiskReport, RiskError>> {
        Some(Ok(self.report(view.risk_threads, stats)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::view_of;
    use super::*;
    use crate::maybe_match::NullSemantics;
    use vadalog::Value;

    #[test]
    fn sample_uniques_are_dangerous_at_k2() {
        // Figure 1 flavour: North/Public Service appears once
        let view = view_of(
            vec![
                vec!["North", "Public Service"],
                vec!["South", "Commerce"],
                vec!["South", "Commerce"],
            ],
            None,
        );
        let report = KAnonymity::new(2).evaluate(&view).unwrap();
        assert_eq!(report.risks, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn higher_k_is_less_tolerant() {
        let view = view_of(vec![vec!["a"], vec!["a"], vec!["b"], vec!["b"]], None);
        let r2 = KAnonymity::new(2).evaluate(&view).unwrap();
        let r3 = KAnonymity::new(3).evaluate(&view).unwrap();
        assert_eq!(r2.risky_tuples(0.5).len(), 0);
        assert_eq!(r3.risky_tuples(0.5).len(), 4);
    }

    #[test]
    fn k_is_clamped_to_at_least_one() {
        let view = view_of(vec![vec!["a"]], None);
        let report = KAnonymity::new(0).evaluate(&view).unwrap();
        // k=1: every tuple trivially safe
        assert_eq!(report.risks, vec![0.0]);
    }

    #[test]
    fn suppression_lifts_class_size_under_maybe_match() {
        let mut view = view_of(
            vec![
                vec!["Roma", "Textiles"],
                vec!["Roma", "Commerce"],
                vec!["Roma", "Commerce"],
            ],
            None,
        );
        view.semantics = NullSemantics::MaybeMatch;
        let before = KAnonymity::new(2).evaluate(&view).unwrap();
        assert_eq!(before.risks[0], 1.0);
        view.patch_cell(0, 1, &Value::Null(0), None);
        let after = KAnonymity::new(2).evaluate(&view).unwrap();
        assert_eq!(after.risks[0], 0.0);
        // and the suppressed row enlarged the others' classes too
        assert_eq!(after.details[1].frequency, 3);
    }

    #[test]
    fn standard_semantics_ignores_null_lift() {
        let mut view = view_of(
            vec![vec!["Roma", "Textiles"], vec!["Roma", "Commerce"]],
            None,
        );
        view.patch_cell(0, 1, &Value::Null(0), None);
        view.semantics = NullSemantics::Standard;
        let report = KAnonymity::new(2).evaluate(&view).unwrap();
        assert_eq!(report.risks, vec![1.0, 1.0]);
    }
}
