//! l-diversity: attribute-disclosure risk (Machanavajjhala et al.),
//! the standard companion to k-anonymity in the SDC toolchain (ARX,
//! sdcMicro) the paper benchmarks itself against.
//!
//! k-anonymity protects against *identity* disclosure, but an equivalence
//! class whose members all share the same **sensitive** value still leaks
//! that value ("homogeneity attack"): an attacker who narrows the target
//! to the class learns the secret without re-identifying anyone. A class
//! is *l-diverse* when it contains at least `l` distinct sensitive
//! values; a tuple in a class with fewer is dangerous.
//!
//! Labelled nulls in the sensitive column count as distinct unknown
//! values (each `⊥` may stand for anything), so sensitive-value
//! suppression also restores diversity.
//!
//! The measure needs a column the [`MicrodataView`] does not carry — the
//! sensitive attribute ([`Category::Sensitive`]) — so it captures that
//! column at construction. The anonymization cycle only rewrites
//! quasi-identifiers, hence the captured column stays valid across
//! iterations; a length check guards misuse against a different table.

use super::{MicrodataView, RiskError, RiskMeasure, RiskReport};
use crate::dictionary::{Category, MetadataDictionary};
use crate::model::MicrodataDb;
use std::collections::HashSet;
use vadalog::Value;

/// l-diversity risk: 1 if the tuple's equivalence class holds fewer than
/// `l` distinct sensitive values, 0 otherwise.
#[derive(Debug, Clone)]
pub struct LDiversity {
    /// Required number of distinct sensitive values per class.
    pub l: usize,
    /// Name of the sensitive attribute (for reports).
    pub sensitive_attr: String,
    sensitive: Vec<Value>,
}

impl LDiversity {
    /// Build the measure from a microdata DB, reading the (single)
    /// attribute categorized as [`Category::Sensitive`].
    pub fn from_db(
        db: &MicrodataDb,
        dict: &MetadataDictionary,
        l: usize,
    ) -> Result<Self, RiskError> {
        let sensitive_attrs = dict.attrs_with_category(&db.name, Category::Sensitive)?;
        let Some(attr) = sensitive_attrs.first() else {
            return Err(RiskError::View(format!(
                "microdata DB '{}' has no attribute categorized as sensitive",
                db.name
            )));
        };
        Ok(LDiversity {
            l: l.max(1),
            sensitive_attr: attr.clone(),
            sensitive: db.column(attr)?.into_iter().cloned().collect(),
        })
    }

    /// Build the measure from an explicit sensitive column.
    pub fn from_column(l: usize, attr: impl Into<String>, column: Vec<Value>) -> Self {
        LDiversity {
            l: l.max(1),
            sensitive_attr: attr.into(),
            sensitive: column,
        }
    }

    /// Distinct sensitive values among the given rows; labelled nulls each
    /// count once (an unknown value is possibly new).
    fn diversity(&self, members: &[usize]) -> usize {
        let mut distinct: HashSet<&Value> = HashSet::new();
        let mut nulls = 0usize;
        for &m in members {
            match &self.sensitive[m] {
                Value::Null(_) => nulls += 1,
                v => {
                    distinct.insert(v);
                }
            }
        }
        distinct.len() + nulls
    }
}

impl RiskMeasure for LDiversity {
    fn name(&self) -> &str {
        "l-diversity"
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        if self.sensitive.len() != view.len() {
            return Err(RiskError::View(format!(
                "sensitive column covers {} rows, view has {}",
                self.sensitive.len(),
                view.len()
            )));
        }
        // equivalence classes under the view's semantics; with maybe-match
        // the "class" of a tuple is its match set (classes may overlap)
        let mut report = RiskReport::new(self.name());
        for target in 0..view.len() {
            let members: Vec<usize> = (0..view.len())
                .filter(|&j| view.rows_match(target, j))
                .collect();
            let d = self.diversity(&members);
            report.push(
                if d < self.l { 1.0 } else { 0.0 },
                members.len(),
                members.len() as f64,
                format!(
                    "{d} distinct '{}' values vs l={}",
                    self.sensitive_attr, self.l
                ),
            );
        }
        Ok(report)
    }

    fn evaluate_tuple(&self, view: &MicrodataView, row: usize) -> Option<f64> {
        if self.sensitive.len() != view.len() {
            return None;
        }
        let members: Vec<usize> = (0..view.len())
            .filter(|&j| view.rows_match(row, j))
            .collect();
        Some(if self.diversity(&members) < self.l {
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

    fn hospital() -> (MicrodataDb, MetadataDictionary) {
        let mut db = MicrodataDb::new("clinic", ["id", "zip", "age", "diagnosis"]).unwrap();
        let rows = [
            (1, "130**", "30-39", "flu"),
            (2, "130**", "30-39", "flu"), // homogeneous class: both flu!
            (3, "148**", "20-29", "cancer"),
            (4, "148**", "20-29", "flu"), // diverse class
        ];
        for (id, zip, age, dx) in rows {
            db.push_row(vec![
                Value::Int(id),
                Value::str(zip),
                Value::str(age),
                Value::str(dx),
            ])
            .unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in ["id", "zip", "age", "diagnosis"] {
            dict.register_attr("clinic", a, "");
        }
        dict.set_category("clinic", "id", Category::Identifier)
            .unwrap();
        dict.set_category("clinic", "zip", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("clinic", "age", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("clinic", "diagnosis", Category::Sensitive)
            .unwrap();
        (db, dict)
    }

    #[test]
    fn homogeneity_attack_is_detected() {
        let (db, dict) = hospital();
        let measure = LDiversity::from_db(&db, &dict, 2).unwrap();
        let view = MicrodataView::from_db(&db, &dict).unwrap();
        let report = measure.evaluate(&view).unwrap();
        // rows 0 and 1 are 2-anonymous but NOT 2-diverse
        assert_eq!(report.risks[0], 1.0);
        assert_eq!(report.risks[1], 1.0);
        assert_eq!(report.risks[2], 0.0);
        assert_eq!(report.risks[3], 0.0);
        // and k-anonymity alone would call them safe — the gap l-diversity closes
        let kanon = KAnonymity::new(2).evaluate(&view).unwrap();
        assert_eq!(kanon.risks[0], 0.0);
    }

    #[test]
    fn missing_sensitive_category_is_an_error() {
        let (db, mut dict) = hospital();
        dict.set_category("clinic", "diagnosis", Category::NonIdentifying)
            .unwrap();
        assert!(LDiversity::from_db(&db, &dict, 2).is_err());
    }

    #[test]
    fn nulls_in_sensitive_column_count_as_distinct() {
        let column = vec![Value::str("flu"), Value::Null(0)];
        let measure = LDiversity::from_column(2, "dx", column);
        let view = view_of(vec![vec!["a"], vec!["a"]], None);
        let report = measure.evaluate(&view).unwrap();
        assert_eq!(report.risks, vec![0.0, 0.0]);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let measure = LDiversity::from_column(2, "dx", vec![Value::str("x")]);
        let view = view_of(vec![vec!["a"], vec!["b"]], None);
        assert!(measure.evaluate(&view).is_err());
        assert_eq!(measure.evaluate_tuple(&view, 0), None);
    }

    #[test]
    fn incremental_matches_full() {
        let (db, dict) = hospital();
        let measure = LDiversity::from_db(&db, &dict, 2).unwrap();
        let view = MicrodataView::from_db(&db, &dict).unwrap();
        let full = measure.evaluate(&view).unwrap();
        for row in 0..view.len() {
            assert_eq!(
                measure.evaluate_tuple(&view, row),
                Some(full.risks[row]),
                "row {row}"
            );
        }
    }

    #[test]
    fn cycle_restores_diversity_by_widening_classes() {
        let (db, dict) = hospital();
        let measure = LDiversity::from_db(&db, &dict, 2).unwrap();
        let anonymizer = LocalSuppression::default();
        let out = AnonymizationCycle::new(&measure, &anonymizer, CycleConfig::default())
            .run(&db, &dict)
            .unwrap();
        // suppression widens the homogeneous class until it absorbs a
        // different diagnosis
        assert_eq!(out.final_risky, 0);
        assert!(out.nulls_injected >= 1);
    }
}
