//! t-closeness: distributional attribute-disclosure risk (Li, Li,
//! Venkatasubramanian), completing the k-anonymity / l-diversity /
//! t-closeness ladder of the SDC tools the paper benchmarks against.
//!
//! l-diversity counts distinct sensitive values, but a class can be
//! l-diverse and still leak: if 95 % of its members share one diagnosis,
//! an attacker's posterior shifts dramatically. A class is *t-close* when
//! the distance between its sensitive-value distribution and the global
//! one is at most `t`. For categorical attributes the distance is total
//! variation (the Earth Mover's Distance under the uniform ground
//! metric): `TV(P, Q) = ½ Σ_v |P(v) − Q(v)|`.
//!
//! Like [`LDiversity`](super::LDiversity), the measure captures the
//! sensitive column at construction (the cycle only rewrites
//! quasi-identifiers). Labelled nulls in the sensitive column are ignored
//! in both distributions — an unknown value constrains neither side.

use super::{MicrodataView, RiskError, RiskMeasure, RiskReport};
use crate::dictionary::{Category, MetadataDictionary};
use crate::model::MicrodataDb;
use std::collections::HashMap;
use vadalog::Value;

/// t-closeness risk: 1 if the tuple's class distribution of the sensitive
/// attribute is farther than `t` (total variation) from the global one.
#[derive(Debug, Clone)]
pub struct TCloseness {
    /// Maximum tolerated total-variation distance.
    pub t: f64,
    /// Name of the sensitive attribute (for reports).
    pub sensitive_attr: String,
    sensitive: Vec<Value>,
}

impl TCloseness {
    /// Build the measure from a microdata DB, reading the attribute
    /// categorized as [`Category::Sensitive`].
    pub fn from_db(db: &MicrodataDb, dict: &MetadataDictionary, t: f64) -> Result<Self, RiskError> {
        let sensitive_attrs = dict.attrs_with_category(&db.name, Category::Sensitive)?;
        let Some(attr) = sensitive_attrs.first() else {
            return Err(RiskError::View(format!(
                "microdata DB '{}' has no attribute categorized as sensitive",
                db.name
            )));
        };
        Ok(TCloseness {
            t: t.clamp(0.0, 1.0),
            sensitive_attr: attr.clone(),
            sensitive: db.column(attr)?.into_iter().cloned().collect(),
        })
    }

    /// Build the measure from an explicit sensitive column.
    pub fn from_column(t: f64, attr: impl Into<String>, column: Vec<Value>) -> Self {
        TCloseness {
            t: t.clamp(0.0, 1.0),
            sensitive_attr: attr.into(),
            sensitive: column,
        }
    }

    fn distribution(&self, members: impl Iterator<Item = usize>) -> HashMap<&Value, f64> {
        let mut counts: HashMap<&Value, f64> = HashMap::new();
        let mut total = 0.0f64;
        for m in members {
            let v = &self.sensitive[m];
            if v.is_null() {
                continue;
            }
            *counts.entry(v).or_insert(0.0) += 1.0;
            total += 1.0;
        }
        if total > 0.0 {
            for c in counts.values_mut() {
                *c /= total;
            }
        }
        counts
    }
}

/// Total variation distance between two categorical distributions.
fn total_variation(p: &HashMap<&Value, f64>, q: &HashMap<&Value, f64>) -> f64 {
    let mut keys: Vec<&&Value> = p.keys().chain(q.keys()).collect();
    keys.sort();
    keys.dedup();
    0.5 * keys
        .into_iter()
        .map(|k| (p.get(*k).unwrap_or(&0.0) - q.get(*k).unwrap_or(&0.0)).abs())
        .sum::<f64>()
}

impl RiskMeasure for TCloseness {
    fn name(&self) -> &str {
        "t-closeness"
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        if self.sensitive.len() != view.len() {
            return Err(RiskError::View(format!(
                "sensitive column covers {} rows, view has {}",
                self.sensitive.len(),
                view.len()
            )));
        }
        let global = self.distribution(0..view.len());
        let mut report = RiskReport::new(self.name());
        for target in 0..view.len() {
            let members: Vec<usize> = (0..view.len())
                .filter(|&j| view.rows_match(target, j))
                .collect();
            let class = self.distribution(members.iter().copied());
            let distance = total_variation(&class, &global);
            report.push(
                if distance > self.t { 1.0 } else { 0.0 },
                members.len(),
                distance,
                format!(
                    "TV distance {distance:.4} vs t={:.2} on '{}'",
                    self.t, self.sensitive_attr
                ),
            );
        }
        Ok(report)
    }

    fn evaluate_tuple(&self, view: &MicrodataView, row: usize) -> Option<f64> {
        if self.sensitive.len() != view.len() {
            return None;
        }
        let global = self.distribution(0..view.len());
        let members = (0..view.len()).filter(|&j| view.rows_match(row, j));
        let class = self.distribution(members);
        Some(if total_variation(&class, &global) > self.t {
            1.0
        } else {
            0.0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::view_of;
    use super::*;
    use crate::prelude::*;

    fn skewed() -> (MicrodataView, TCloseness) {
        // global diagnosis split 50/50; the "130**" class is all-cancer
        let view = view_of(
            vec![vec!["130"], vec!["130"], vec!["148"], vec!["148"]],
            None,
        );
        let column = vec![
            Value::str("cancer"),
            Value::str("cancer"),
            Value::str("flu"),
            Value::str("flu"),
        ];
        (view, TCloseness::from_column(0.3, "dx", column))
    }

    #[test]
    fn skewed_class_violates_t() {
        let (view, measure) = skewed();
        let report = measure.evaluate(&view).unwrap();
        // each class is at TV distance 0.5 from the 50/50 global → risky
        assert_eq!(report.risks, vec![1.0, 1.0, 1.0, 1.0]);
        assert!((report.details[0].weight_sum - 0.5).abs() < 1e-12);
    }

    #[test]
    fn representative_class_is_safe() {
        let view = view_of(vec![vec!["a"], vec!["a"], vec!["b"], vec!["b"]], None);
        let column = vec![
            Value::str("cancer"),
            Value::str("flu"),
            Value::str("cancer"),
            Value::str("flu"),
        ];
        let measure = TCloseness::from_column(0.2, "dx", column);
        let report = measure.evaluate(&view).unwrap();
        assert_eq!(report.risks, vec![0.0; 4]);
    }

    #[test]
    fn total_variation_properties() {
        let a = Value::str("a");
        let b = Value::str("b");
        let mut p = HashMap::new();
        p.insert(&a, 1.0);
        let mut q = HashMap::new();
        q.insert(&b, 1.0);
        assert!((total_variation(&p, &q) - 1.0).abs() < 1e-12);
        assert_eq!(total_variation(&p, &p), 0.0);
    }

    #[test]
    fn nulls_in_sensitive_column_are_ignored() {
        let view = view_of(vec![vec!["a"], vec!["a"]], None);
        let column = vec![Value::str("flu"), Value::Null(0)];
        let measure = TCloseness::from_column(0.1, "dx", column);
        let report = measure.evaluate(&view).unwrap();
        // class distribution = global distribution = {flu: 1.0}
        assert_eq!(report.risks, vec![0.0, 0.0]);
    }

    #[test]
    fn incremental_matches_full() {
        let (view, measure) = skewed();
        let full = measure.evaluate(&view).unwrap();
        for row in 0..view.len() {
            assert_eq!(measure.evaluate_tuple(&view, row), Some(full.risks[row]));
        }
    }

    #[test]
    fn from_db_requires_sensitive_category() {
        let mut db = MicrodataDb::new("m", ["q", "s"]).unwrap();
        db.push_row(vec![Value::str("x"), Value::str("flu")])
            .unwrap();
        let mut dict = MetadataDictionary::new();
        dict.register_attr("m", "q", "");
        dict.register_attr("m", "s", "");
        dict.set_category("m", "q", Category::QuasiIdentifier)
            .unwrap();
        assert!(TCloseness::from_db(&db, &dict, 0.2).is_err());
        dict.set_category("m", "s", Category::Sensitive).unwrap();
        let m = TCloseness::from_db(&db, &dict, 0.2).unwrap();
        assert_eq!(m.sensitive_attr, "s");
    }

    #[test]
    fn cycle_with_t_closeness_converges() {
        let mut db = MicrodataDb::new("m", ["id", "zip", "dx"]).unwrap();
        let rows = [
            (1, "130", "cancer"),
            (2, "130", "cancer"),
            (3, "148", "flu"),
            (4, "148", "flu"),
            (5, "155", "cancer"),
            (6, "155", "flu"),
        ];
        for (id, zip, dx) in rows {
            db.push_row(vec![Value::Int(id), Value::str(zip), Value::str(dx)])
                .unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in ["id", "zip", "dx"] {
            dict.register_attr("m", a, "");
        }
        dict.set_category("m", "id", Category::Identifier).unwrap();
        dict.set_category("m", "zip", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("m", "dx", Category::Sensitive).unwrap();

        let measure = TCloseness::from_db(&db, &dict, 0.34).unwrap();
        let anonymizer = LocalSuppression::default();
        let out = AnonymizationCycle::new(&measure, &anonymizer, CycleConfig::default())
            .run(&db, &dict)
            .unwrap();
        assert_eq!(out.final_risky, 0);
        // suppression merges classes until each reflects the global mix
        assert!(out.nulls_injected >= 1);
    }
}
