//! Sampling-weight estimation (paper §2.1, "Context and sampling weight").
//!
//! The weight `W_t` of a tuple measures its representativeness w.r.t. the
//! context `C`: the expected number of entities in the identity oracle
//! with the same characteristics as `t` under a similarity `φ`.
//! [`from_oracle`] estimates it when (a simulation of) the identity oracle
//! is available: it counts the oracle's tuples matching `t` on the
//! quasi-identifiers (the simplest `φ`: equality).

use std::collections::HashMap;
use vadalog::Value;

/// Estimate weights against an explicit oracle: `W_t` = number of oracle
/// rows matching `t` on the (already projected) quasi-identifier columns.
/// Tuples absent from the oracle get weight 1 (they at least match
/// themselves).
pub fn from_oracle(sample_qi: &[Vec<Value>], oracle_qi: &[Vec<Value>]) -> Vec<f64> {
    let mut counts: HashMap<&[Value], usize> = HashMap::with_capacity(oracle_qi.len());
    for row in oracle_qi {
        *counts.entry(row.as_slice()).or_insert(0) += 1;
    }
    sample_qi
        .iter()
        .map(|r| counts.get(r.as_slice()).copied().unwrap_or(0).max(1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vals: &[&str]) -> Vec<Value> {
        vals.iter().map(Value::str).collect()
    }

    #[test]
    fn oracle_counts_matches() {
        let sample = vec![r(&["North", "Textiles"]), r(&["South", "Commerce"])];
        let oracle = vec![
            r(&["North", "Textiles"]),
            r(&["North", "Textiles"]),
            r(&["North", "Textiles"]),
            r(&["South", "Commerce"]),
        ];
        let w = from_oracle(&sample, &oracle);
        assert_eq!(w, vec![3.0, 1.0]);
    }

    #[test]
    fn oracle_missing_combination_gets_floor_weight() {
        let sample = vec![r(&["unseen"])];
        let w = from_oracle(&sample, &[]);
        assert_eq!(w, vec![1.0]);
    }

    #[test]
    fn empty_sample() {
        assert!(from_oracle(&[], &[]).is_empty());
    }
}
