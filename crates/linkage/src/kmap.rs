//! k-map estimation: population-side anonymity against the identity
//! oracle.
//!
//! k-anonymity counts look-alikes *within the sample*; what actually
//! protects a respondent is the number of look-alikes in the **population**
//! the attacker searches — the k-map criterion. The sampling weight is the
//! paper's *estimator* of that count (§2.2: "the sampling weight W_t is an
//! estimator for the cardinality of the join |σ_t(M) ⋈ O|"); with the
//! simulated oracle in hand we can compute the true join cardinality and
//! quantify how good the estimate is.

use crate::blocking::BlockingIndex;
use vadalog::Value;
use vadasa_core::dictionary::MetadataDictionary;
use vadasa_core::model::MicrodataDb;
use vadasa_core::risk::RiskError;
use vadasa_datagen::oracle::IdentityOracle;

/// Per-tuple population frequencies and the k-map verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct KMapReport {
    /// For each microdata row, the number of oracle records matching its
    /// quasi-identifiers (null-tolerantly).
    pub population_frequencies: Vec<usize>,
}

impl KMapReport {
    /// Rows with fewer than `k` population look-alikes.
    pub fn violations(&self, k: usize) -> Vec<usize> {
        self.population_frequencies
            .iter()
            .enumerate()
            .filter(|(_, &f)| f < k)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Compute the k-map frequencies of `db` against the oracle.
pub fn kmap(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
    oracle: &IdentityOracle,
) -> Result<KMapReport, RiskError> {
    let qi_names = dict.quasi_identifiers(&db.name)?;
    if qi_names != oracle.qi_names {
        return Err(RiskError::View(format!(
            "oracle quasi-identifiers {:?} do not match microdata {:?}",
            oracle.qi_names, qi_names
        )));
    }
    let qi_rows = db.project(&qi_names).map_err(RiskError::Model)?;
    let mut index = BlockingIndex::new(oracle);
    Ok(KMapReport {
        population_frequencies: qi_rows
            .iter_rows()
            .map(|r| {
                let r: Vec<Value> = r.into_iter().cloned().collect();
                index.candidates(&r).len()
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadasa_core::prelude::*;
    use vadasa_datagen::fixtures::inflation_growth_fig1;

    #[test]
    fn kmap_equals_weights_on_figure1() {
        // the oracle is built to hold `weight` look-alikes per tuple, so
        // the true k-map frequency equals the paper's weight estimator
        let (db, dict) = inflation_growth_fig1();
        let oracle = IdentityOracle::from_microdata(&db, &dict, "Id", 3, 1_000).unwrap();
        let report = kmap(&db, &dict, &oracle).unwrap();
        let weights = db.numeric_column("Weight").unwrap();
        for (f, w) in report.population_frequencies.iter().zip(weights.iter()) {
            assert_eq!(*f as f64, *w);
        }
        // Figure 1's smallest weight is 30 → 30-map holds, 31-map fails
        assert!(report.violations(30).is_empty());
        assert_eq!(report.violations(31), vec![14]); // tuple 15
    }

    #[test]
    fn suppression_increases_population_frequencies() {
        let (db, dict) = inflation_growth_fig1();
        let oracle = IdentityOracle::from_microdata(&db, &dict, "Id", 3, 1_000).unwrap();
        let before = kmap(&db, &dict, &oracle).unwrap();

        let risk = ReIdentification;
        let anonymizer = LocalSuppression::default();
        let outcome = AnonymizationCycle::new(
            &risk,
            &anonymizer,
            CycleConfig {
                threshold: 0.02,
                ..CycleConfig::default()
            },
        )
        .run(&db, &dict)
        .unwrap();
        let after = kmap(&outcome.db, &dict, &oracle).unwrap();
        for (b, a) in before
            .population_frequencies
            .iter()
            .zip(after.population_frequencies.iter())
        {
            assert!(a >= b, "suppression must not shrink oracle blocks");
        }
        // the previously weakest tuples are now better covered
        assert!(after.violations(31).len() < before.violations(31).len() + 1);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let (db, dict) = inflation_growth_fig1();
        let bad = IdentityOracle {
            records: vec![],
            qi_names: vec!["other".into()],
        };
        assert!(kmap(&db, &dict, &bad).is_err());
    }
}
