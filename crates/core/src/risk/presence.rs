//! Membership-disclosure ("presence") risk — the differential-privacy
//! direction the paper names as future work (§6):
//!
//! > "an interesting concept may be adopted in our approach so as to
//! > develop a new family of risk measures, based on the idea that an
//! > individual's privacy may be violated even knowing the absence of the
//! > individual from the microdata."
//!
//! Re-identification asks *which* oracle record a tuple links to;
//! membership disclosure asks whether an adversary can tell that the
//! respondent participated **at all**. In DP terms, consider the released
//! class statistics with and without tuple `t`: the log-ratio of the
//! class's population mass,
//!
//! ```text
//! ε_t = ln( Σw_group / (Σw_group − w_t) )
//! ```
//!
//! bounds the adversary's inference advantage about `t`'s presence, and
//! `ρ_t = 1 − e^{−ε_t} = w_t / Σw_group` is the corresponding risk score:
//! a respondent carrying all of its class's population mass (a true
//! population unique) scores 1; a respondent hidden in a heavy class
//! scores near 0. The score composes with the anonymization cycle like
//! any other measure — suppression grows `Σw_group` under maybe-match and
//! pushes `ρ` down.

use super::{MicrodataView, RiskError, RiskMeasure, RiskReport, TupleRiskDetail};

/// DP-inspired membership-disclosure risk (`ρ = w_t / Σw_group`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PresenceRisk;

impl PresenceRisk {
    /// The per-tuple privacy-loss bound `ε_t = ln(Σw / (Σw − w_t))`
    /// corresponding to a risk score (`∞` encoded as `f64::INFINITY`).
    pub fn epsilon(risk: f64) -> f64 {
        if risk >= 1.0 {
            f64::INFINITY
        } else {
            -(1.0 - risk).ln()
        }
    }
}

impl RiskMeasure for PresenceRisk {
    fn name(&self) -> &str {
        "presence-risk"
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        let Some(weights) = &view.weights else {
            return Err(RiskError::View(
                "presence risk requires sampling weights".into(),
            ));
        };
        if let Some(bad) = weights.iter().find(|x| !x.is_finite() || **x <= 0.0) {
            return Err(RiskError::View(format!(
                "sampling weights must be positive and finite, found {bad}"
            )));
        }
        let stats = view.group_stats();
        let mut risks = Vec::with_capacity(view.len());
        let mut details = Vec::with_capacity(view.len());
        for (i, (&f, &wsum)) in stats.count.iter().zip(stats.weight_sum.iter()).enumerate() {
            let r = (weights[i] / wsum).clamp(0.0, 1.0);
            risks.push(r);
            details.push(TupleRiskDetail {
                frequency: f,
                weight_sum: wsum,
                note: format!("ε={:.4}", PresenceRisk::epsilon(r)).into(),
            });
        }
        Ok(RiskReport {
            measure: self.name().to_string(),
            risks,
            details,
        })
    }

    fn evaluate_tuple(&self, view: &MicrodataView, row: usize) -> Option<f64> {
        let weights = view.weights.as_ref()?;
        if weights.len() != view.len() {
            return None;
        }
        let (_, wsum) = super::tuple_group(view, row);
        if wsum <= 0.0 {
            return Some(1.0);
        }
        Some((weights[row] / wsum).clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::view_of;
    use super::*;
    use crate::maybe_match::NullSemantics;
    use vadalog::Value;

    #[test]
    fn population_unique_scores_one() {
        // a sample-unique tuple whose weight is 1: the whole class mass is
        // the respondent itself
        let view = view_of(
            vec![vec!["rare"], vec!["common"], vec!["common"], vec!["common"]],
            Some(vec![1.0, 500.0, 500.0, 500.0]),
        );
        let report = PresenceRisk.evaluate(&view).unwrap();
        assert_eq!(report.risks[0], 1.0);
        // members of the heavy class each carry a third of its mass
        assert!((report.risks[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn heavy_class_hides_membership() {
        let view = view_of(
            vec![vec!["a"], vec!["a"], vec!["a"]],
            Some(vec![10.0, 10.0, 10.0]),
        );
        let report = PresenceRisk.evaluate(&view).unwrap();
        for r in &report.risks {
            assert!((r - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn differs_from_reidentification() {
        // re-identification scores 1/Σw (same for the whole class);
        // presence risk scores w_t/Σw (heavier members are more exposed)
        use super::super::ReIdentification;
        let view = view_of(vec![vec!["a"], vec!["a"]], Some(vec![1.0, 9.0]));
        let presence = PresenceRisk.evaluate(&view).unwrap();
        let reid = ReIdentification.evaluate(&view).unwrap();
        assert!((presence.risks[0] - 0.1).abs() < 1e-12);
        assert!((presence.risks[1] - 0.9).abs() < 1e-12);
        assert!((reid.risks[0] - reid.risks[1]).abs() < 1e-12);
    }

    #[test]
    fn epsilon_mapping() {
        assert_eq!(PresenceRisk::epsilon(1.0), f64::INFINITY);
        assert!((PresenceRisk::epsilon(0.5) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(PresenceRisk::epsilon(0.0), 0.0);
    }

    #[test]
    fn suppression_lowers_presence_risk() {
        let mut view = view_of(
            vec![vec!["Roma", "Textiles"], vec!["Roma", "Commerce"]],
            Some(vec![2.0, 50.0]),
        );
        view.semantics = NullSemantics::MaybeMatch;
        let before = PresenceRisk.evaluate(&view).unwrap().risks[0];
        view.patch_cell(0, 1, &Value::Null(0), None);
        let after = PresenceRisk.evaluate(&view).unwrap().risks[0];
        assert!(after < before);
    }

    #[test]
    fn incremental_matches_full_evaluation() {
        let view = view_of(
            vec![vec!["a"], vec!["a"], vec!["b"]],
            Some(vec![3.0, 7.0, 2.0]),
        );
        let full = PresenceRisk.evaluate(&view).unwrap();
        for row in 0..view.len() {
            let inc = PresenceRisk.evaluate_tuple(&view, row).unwrap();
            assert!((inc - full.risks[row]).abs() < 1e-12);
        }
    }

    #[test]
    fn requires_weights() {
        let view = view_of(vec![vec!["a"]], None);
        assert!(PresenceRisk.evaluate(&view).is_err());
    }

    #[test]
    fn drives_the_cycle() {
        use crate::dictionary::{Category, MetadataDictionary};
        use crate::prelude::*;
        let mut db = MicrodataDb::new("m", ["id", "q", "w"]).unwrap();
        for (id, q, w) in [(1, "rare", 1), (2, "common", 80), (3, "common", 80)] {
            db.push_row(vec![Value::Int(id), Value::str(q), Value::Int(w)])
                .unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in ["id", "q", "w"] {
            dict.register_attr("m", a, "");
        }
        dict.set_category("m", "id", Category::Identifier).unwrap();
        dict.set_category("m", "q", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("m", "w", Category::Weight).unwrap();
        let risk = PresenceRisk;
        let anonymizer = LocalSuppression::default();
        let out = AnonymizationCycle::new(&risk, &anonymizer, CycleConfig::default())
            .run(&db, &dict)
            .unwrap();
        assert_eq!(out.final_risky, 0);
        assert!(out.nulls_injected >= 1);
    }
}
