//! Identity-oracle simulation (paper §2.1).
//!
//! The re-identification model assumes an external database — the *identity
//! oracle* `O(i′, q′, I)` — holding the identities of all respondents. The
//! paper cannot ship the real one; this module synthesizes it from a
//! microdata sample, honouring the semantics of sampling weights: a tuple
//! of weight `W_t` has (approximately) `W_t` population look-alikes sharing
//! its quasi-identifier combination, of which the respondent itself is one.
//!
//! The oracle powers the record-linkage attacker in `vadasa-linkage` and
//! the weight-estimation path of `vadasa-core::weights`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog::Value;
use vadasa_core::dictionary::MetadataDictionary;
use vadasa_core::model::MicrodataDb;

/// One oracle record: direct identifier, quasi-identifier values, identity.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleRecord {
    /// Direct identifier (matches the microdata's `Id` for respondents).
    pub id: Value,
    /// Quasi-identifier values, same order as the microdata view.
    pub qi: Vec<Value>,
    /// The respondent's universally recognized identity.
    pub identity: String,
}

/// A simulated identity oracle.
#[derive(Debug, Clone, Default)]
pub struct IdentityOracle {
    /// All records (respondents first, then background population).
    pub records: Vec<OracleRecord>,
    /// Names of the quasi-identifier columns.
    pub qi_names: Vec<String>,
}

impl IdentityOracle {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the oracle empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Build an oracle from a microdata DB: every sample row becomes a
    /// respondent record (with its true `Id` and a synthetic identity), and
    /// for each row `round(weight) − 1` background look-alikes with the
    /// same quasi-identifiers but different identities are added, capped at
    /// `max_lookalikes` per row.
    pub fn from_microdata(
        db: &MicrodataDb,
        dict: &MetadataDictionary,
        id_attr: &str,
        seed: u64,
        max_lookalikes: usize,
    ) -> Result<Self, vadasa_core::risk::RiskError> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0AC1_E000);
        let qi_names = dict.quasi_identifiers(&db.name)?;
        let qi_rows = db
            .project(&qi_names)
            .map_err(vadasa_core::risk::RiskError::Model)?;
        let weight_attr = dict.weight_attr(&db.name).ok();
        let weights: Option<Vec<f64>> = match &weight_attr {
            Some(w) => Some(
                db.numeric_column(w)
                    .map_err(vadasa_core::risk::RiskError::Model)?,
            ),
            None => None,
        };
        let ids = db
            .column(id_attr)
            .map_err(vadasa_core::risk::RiskError::Model)?;

        let mut records = Vec::new();
        let mut identity_counter = 0u64;
        for i in 0..qi_rows.len() {
            let qi: Vec<Value> = qi_rows.row(i).into_iter().cloned().collect();
            identity_counter += 1;
            records.push(OracleRecord {
                id: ids[i].clone(),
                qi: qi.clone(),
                identity: format!("IDENT-{identity_counter:08}"),
            });
            let w: f64 = weights.as_ref().map(|w| w[i]).unwrap_or(1.0);
            let lookalikes = ((w.round() as usize).saturating_sub(1)).min(max_lookalikes);
            for _ in 0..lookalikes {
                identity_counter += 1;
                records.push(OracleRecord {
                    id: Value::Int(-(identity_counter as i64)), // not in the sample
                    qi: qi.clone(),
                    identity: format!("IDENT-{identity_counter:08}"),
                });
            }
        }
        // light shuffle so respondents are not trivially first in a block
        for i in (1..records.len()).rev() {
            let j = rng.gen_range(0..=i);
            records.swap(i, j);
        }
        Ok(IdentityOracle { records, qi_names })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::inflation_growth_fig1;

    #[test]
    fn oracle_expands_by_weights() {
        let (db, dict) = inflation_growth_fig1();
        let oracle = IdentityOracle::from_microdata(&db, &dict, "Id", 9, 1_000).unwrap();
        // total ≈ sum of weights (capped) — Figure 1 weights sum to 2822
        let expected: f64 = db.numeric_column("Weight").unwrap().iter().sum();
        assert_eq!(oracle.len() as f64, expected);
        assert_eq!(oracle.qi_names.len(), 5);
    }

    #[test]
    fn every_sample_row_is_represented() {
        let (db, dict) = inflation_growth_fig1();
        let oracle = IdentityOracle::from_microdata(&db, &dict, "Id", 9, 10).unwrap();
        for i in 0..db.len() {
            let id = db.value(i, "Id").unwrap();
            assert!(
                oracle.records.iter().any(|r| r.id == *id),
                "sample row {i} missing from oracle"
            );
        }
    }

    #[test]
    fn lookalike_cap_is_respected() {
        let (db, dict) = inflation_growth_fig1();
        let oracle = IdentityOracle::from_microdata(&db, &dict, "Id", 9, 3).unwrap();
        // each of 20 rows contributes at most 1 + 3 records
        assert!(oracle.len() <= 20 * 4);
    }

    #[test]
    fn identities_are_unique() {
        let (db, dict) = inflation_growth_fig1();
        let oracle = IdentityOracle::from_microdata(&db, &dict, "Id", 9, 50).unwrap();
        let set: std::collections::HashSet<&str> =
            oracle.records.iter().map(|r| r.identity.as_str()).collect();
        assert_eq!(set.len(), oracle.len());
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let (db, dict) = inflation_growth_fig1();
        let a = IdentityOracle::from_microdata(&db, &dict, "Id", 9, 10).unwrap();
        let b = IdentityOracle::from_microdata(&db, &dict, "Id", 9, 10).unwrap();
        assert_eq!(a.records, b.records);
    }
}
