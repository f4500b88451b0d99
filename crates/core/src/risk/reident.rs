//! Re-identification-based risk (paper §2.2, Algorithm 3).
//!
//! The sampling weight `W_t` of a tuple estimates how many entities of the
//! underlying population share its quasi-identifier combination; it is an
//! estimator for the join cardinality `|σ_t(M) ⋈ O|` against the identity
//! oracle. The disclosure risk of a tuple is the reciprocal of the summed
//! weights of its equivalence group:
//!
//! ```text
//! ρ_q̂ = 1 / Σ_{t ∈ σ_{q=q̂}(M)} W_t        (msum over contributors ⟨I⟩)
//! ```
//!
//! For a sample-unique tuple this degenerates to `1/W_t` — e.g. tuple 4 of
//! Figure 1 (the only North/Textiles/1000+ company) has risk `1/60 ≈ 0.016`.

use super::{MicrodataView, RiskError, RiskMeasure, RiskReport, TupleRiskDetail};
use crate::maybe_match::GroupStats;

/// Re-identification-based risk evaluation (Algorithm 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReIdentification;

impl ReIdentification {
    /// Validate the view's weights: the reciprocal-weight model needs
    /// strictly positive, finite weights. Shared by cold and warm paths.
    fn validate_weights(view: &MicrodataView) -> Result<(), RiskError> {
        if let Some(w) = &view.weights {
            if let Some(bad) = w.iter().find(|x| !x.is_finite() || **x <= 0.0) {
                return Err(RiskError::View(format!(
                    "sampling weights must be positive and finite, found {bad}"
                )));
            }
        }
        Ok(())
    }

    /// Write the re-identification report of `stats` into `report`; its
    /// rows carry no note. Shared by [`RiskMeasure::evaluate`] and the
    /// warm-start hook.
    fn fill(&self, stats: &GroupStats, report: &mut RiskReport) {
        report.reset(self.name());
        let n = stats.count.len();
        report.risks.extend(stats.weight_sum[..n].iter().map(|&s| {
            if s > 0.0 {
                (1.0 / s).min(1.0)
            } else {
                1.0
            }
        }));
        report
            .details
            .extend(
                stats
                    .count
                    .iter()
                    .zip(&stats.weight_sum)
                    .map(|(&frequency, &weight_sum)| TupleRiskDetail {
                        frequency,
                        weight_sum,
                        note: 0,
                    }),
            );
    }
}

impl RiskMeasure for ReIdentification {
    fn name(&self) -> &str {
        "re-identification"
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        Self::validate_weights(view)?;
        let mut report = RiskReport::default();
        self.fill(&view.group_stats(), &mut report);
        Ok(report)
    }

    fn evaluate_tuple(&self, view: &MicrodataView, row: usize) -> Option<f64> {
        let (_, wsum) = super::tuple_group(view, row);
        Some(if wsum > 0.0 {
            (1.0 / wsum).min(1.0)
        } else {
            1.0
        })
    }

    fn tuple_risk_from_stats(
        &self,
        _view: &MicrodataView,
        stats: &GroupStats,
        row: usize,
    ) -> Option<f64> {
        let wsum = stats.weight_sum[row];
        Some(if wsum > 0.0 {
            (1.0 / wsum).min(1.0)
        } else {
            1.0
        })
    }

    fn serves_from_groups(&self) -> bool {
        true
    }

    fn report_from_groups(
        &self,
        view: &MicrodataView,
        stats: &GroupStats,
        report: &mut RiskReport,
    ) -> Option<Result<(), RiskError>> {
        Some(Self::validate_weights(view).map(|()| self.fill(stats, report)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::view_of;
    use super::*;
    use crate::maybe_match::NullSemantics;
    use vadalog::Value;

    #[test]
    fn sample_unique_risk_is_reciprocal_weight() {
        // tuple 4 of Figure 1: unique combination, weight 60 → risk 1/60
        let view = view_of(
            vec![
                vec!["North", "Textiles", "1000+"],
                vec!["South", "Commerce", "201-1000"],
            ],
            Some(vec![60.0, 190.0]),
        );
        let report = ReIdentification.evaluate(&view).unwrap();
        assert!((report.risks[0] - 1.0 / 60.0).abs() < 1e-12);
        assert!((report.risks[1] - 1.0 / 190.0).abs() < 1e-12);
    }

    #[test]
    fn group_weights_are_summed() {
        let view = view_of(
            vec![vec!["a"], vec!["a"], vec!["b"]],
            Some(vec![10.0, 30.0, 5.0]),
        );
        let report = ReIdentification.evaluate(&view).unwrap();
        assert!((report.risks[0] - 1.0 / 40.0).abs() < 1e-12);
        assert!((report.risks[1] - 1.0 / 40.0).abs() < 1e-12);
        assert!((report.risks[2] - 1.0 / 5.0).abs() < 1e-12);
        assert_eq!(report.details[0].frequency, 2);
    }

    #[test]
    fn unweighted_view_uses_counts() {
        let view = view_of(vec![vec!["a"], vec!["a"], vec!["b"]], None);
        let report = ReIdentification.evaluate(&view).unwrap();
        assert!((report.risks[0] - 0.5).abs() < 1e-12);
        assert!((report.risks[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn risk_is_clamped_to_one() {
        // a fractional weight below 1 would yield risk > 1; clamp it
        let view = view_of(vec![vec!["a"]], Some(vec![0.5]));
        let report = ReIdentification.evaluate(&view).unwrap();
        assert_eq!(report.risks[0], 1.0);
    }

    #[test]
    fn non_positive_weights_rejected() {
        let view = view_of(vec![vec!["a"]], Some(vec![0.0]));
        assert!(ReIdentification.evaluate(&view).is_err());
        let view = view_of(vec![vec!["a"]], Some(vec![f64::NAN]));
        assert!(ReIdentification.evaluate(&view).is_err());
    }

    #[test]
    fn suppression_reduces_risk_under_maybe_match() {
        let mut view = view_of(
            vec![vec!["Roma", "Textiles"], vec!["Roma", "Commerce"]],
            Some(vec![10.0, 10.0]),
        );
        let before = ReIdentification.evaluate(&view).unwrap().risks[0];
        view.patch_cell(0, 1, &Value::Null(0), None);
        view.semantics = NullSemantics::MaybeMatch;
        let after = ReIdentification.evaluate(&view).unwrap().risks[0];
        assert!(after < before);
        assert!((after - 1.0 / 20.0).abs() < 1e-12);
    }
}
