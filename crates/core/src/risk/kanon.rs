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
use crate::maybe_match::GroupStats;

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

    /// Write the k-anonymity report of `stats` into `report`. Shared by
    /// the cold path ([`RiskMeasure::evaluate`]) and the warm-start hook
    /// so both produce bit-identical output from identical statistics.
    /// Notes are formatted once per distinct class size and shared by
    /// every row of that size, found by indexing a table by class size
    /// rather than hashing it.
    fn fill(&self, stats: &GroupStats, report: &mut RiskReport) {
        report.reset(self.name());
        let n = stats.count.len();
        let k = self.k;
        let RiskReport {
            risks,
            details,
            notes,
            ..
        } = report;
        let mut note = |c: usize| {
            notes.push(format!("class size {c} vs k={k}"));
            notes.len() - 1
        };
        // A class holds at most `n` rows; statistics restored from disk
        // that claim more get a note of their own instead of a huge table.
        let largest = stats.count.iter().copied().max().unwrap_or(0).min(n);
        let mut note_of: Vec<usize> = vec![usize::MAX; largest + 1];
        risks.extend(stats.count.iter().map(|&c| if c < k { 1.0 } else { 0.0 }));
        details.extend(stats.count.iter().zip(&stats.weight_sum).map(|(&c, &w)| {
            let note = match note_of.get_mut(c) {
                Some(slot) if *slot != usize::MAX => *slot,
                Some(slot) => {
                    *slot = note(c);
                    *slot
                }
                None => note(c),
            };
            TupleRiskDetail {
                frequency: c,
                weight_sum: w,
                note,
            }
        }));
    }
}

impl RiskMeasure for KAnonymity {
    fn name(&self) -> &str {
        "k-anonymity"
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        let mut report = RiskReport::default();
        self.fill(&view.group_stats(), &mut report);
        Ok(report)
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

    fn serves_from_groups(&self) -> bool {
        true
    }

    fn report_from_groups(
        &self,
        _view: &MicrodataView,
        stats: &GroupStats,
        report: &mut RiskReport,
    ) -> Option<Result<(), RiskError>> {
        self.fill(stats, report);
        Some(Ok(()))
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
    fn notes_are_shared_per_class_size_and_survive_impossible_sizes() {
        let k = KAnonymity::new(2);
        let stats = GroupStats {
            count: vec![1, 3, 3, usize::MAX, usize::MAX],
            weight_sum: vec![1.0, 3.0, 3.0, 9.0, 9.0],
        };
        let mut report = RiskReport::default();
        k.fill(&stats, &mut report);
        assert_eq!(report.details[1].note, report.details[2].note);
        assert_eq!(
            report.notes.len(),
            4,
            "sizes 1 and 3 shared, each impossible size its own"
        );
        assert_eq!(report.note(0), "class size 1 vs k=2");
        assert_eq!(report.note(1), "class size 3 vs k=2");
        for row in [3, 4] {
            assert_eq!(
                report.note(row),
                format!("class size {} vs k=2", usize::MAX)
            );
        }
        assert_eq!(report.risks, vec![1.0, 0.0, 0.0, 0.0, 0.0]);
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
