//! SUDA — Special Unique Detection Algorithm (paper Algorithm 6).
//!
//! A *sample unique* (SU) of a tuple is a set of quasi-identifier
//! attributes whose values single it out in the microdata DB. A *minimal
//! sample unique* (MSU) is an SU with no proper SU subset — the data-level
//! analogue of a key vs. a superkey. Tuples with small MSUs are special:
//! very few attribute values pin them down, so they carry high disclosure
//! risk.
//!
//! Per Algorithm 6 Rule 8, a tuple is dangerous (risk 1) when it has an
//! MSU of size below the threshold `k`. A SUDA2-style *score* is also
//! reported: each MSU of size `s` over `m` quasi-identifiers contributes
//! `(m − s)!`-proportional mass, so smaller MSUs weigh more.
//!
//! ## Enumeration
//!
//! Attribute subsets are enumerated as bitmasks in order of increasing
//! size. For each subset one grouping pass marks the rows that are unique
//! on it; a row's subset is an MSU iff none of its already-recorded MSUs
//! is contained in it. Enumerating small subsets first makes the
//! containment check sound, and recording MSUs as masks keeps it a couple
//! of bitwise operations — the practical counterpart of the "greedy
//! activation of Rule 7" that the paper credits for avoiding the
//! combinatorial blowup in Figure 7f.

use super::{MicrodataView, RiskError, RiskMeasure, RiskReport};

/// The minimal sample uniques of one tuple, as column bitmasks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MsuSet {
    /// Each mask selects the QI columns of one MSU.
    pub masks: Vec<u32>,
}

impl MsuSet {
    /// Sizes (attribute counts) of the MSUs.
    pub fn sizes(&self) -> Vec<u32> {
        self.masks.iter().map(|m| m.count_ones()).collect()
    }
}

/// SUDA risk measure (Algorithm 6).
#[derive(Debug, Clone, Copy)]
pub struct Suda {
    /// A tuple is dangerous if it has an MSU with fewer attributes than
    /// this (the "MSU threshold", 3 in the paper's experiments).
    pub msu_threshold: usize,
    /// Cap on the subset sizes enumerated (None = all subsets).
    pub max_msu_size: Option<usize>,
}

impl Default for Suda {
    fn default() -> Self {
        Suda {
            msu_threshold: 3,
            max_msu_size: None,
        }
    }
}

impl Suda {
    /// SUDA with the given MSU threshold, enumerating all subset sizes.
    pub fn new(msu_threshold: usize) -> Self {
        Suda {
            msu_threshold,
            max_msu_size: None,
        }
    }
}

/// Enumerate the minimal sample uniques of every row.
///
/// `max_size` caps the enumerated subset size (the full width if `None`).
/// Complexity is `O(2^m · n)` in the worst case with `m` capped at 32
/// columns; the per-row minimality pruning keeps the recorded sets small.
pub fn minimal_sample_uniques(view: &MicrodataView, max_size: Option<usize>) -> Vec<MsuSet> {
    let m = view.width();
    assert!(m <= 32, "SUDA enumeration supports at most 32 QI columns");
    let n = view.len();
    let cap = max_size.unwrap_or(m).min(m);
    let mut msus: Vec<MsuSet> = vec![MsuSet::default(); n];
    if n == 0 || m == 0 {
        return msus;
    }

    // masks ordered by popcount, then numerically (deterministic)
    let mut masks: Vec<u32> = (1u32..(1u32 << m)).collect();
    masks.retain(|mask| (mask.count_ones() as usize) <= cap);
    masks.sort_by_key(|mask| (mask.count_ones(), *mask));

    for mask in masks {
        let positions: Vec<usize> = (0..m).filter(|c| mask & (1 << c) != 0).collect();
        let stats = view.group_stats_on(&positions, None, view.semantics);
        for (row, &count) in stats.count.iter().enumerate() {
            if count == 1 {
                // minimal iff no recorded MSU of this row is a subset
                // (subset test, not membership — clippy's contains() hint
                // does not apply)
                #[allow(clippy::manual_contains)]
                let minimal = !msus[row].masks.iter().any(|&mm| mm & mask == mm);
                if minimal {
                    msus[row].masks.push(mask);
                }
            }
        }
    }
    msus
}

/// Factorial as f64 (inputs are small: at most the number of QI columns).
fn fact(n: u32) -> f64 {
    (1..=n as u64).map(|x| x as f64).product()
}

impl RiskMeasure for Suda {
    fn name(&self) -> &str {
        "suda"
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        let m = view.width();
        if m > 32 {
            return Err(RiskError::View(format!(
                "SUDA supports at most 32 quasi-identifiers, got {m}"
            )));
        }
        let msus = minimal_sample_uniques(view, self.max_msu_size);
        let mut report = RiskReport::new(self.name());
        // normalization for the SUDA2-style score: the largest possible
        // per-MSU contribution is (m-1)! (an MSU of size 1)
        let norm = fact(m.saturating_sub(1) as u32).max(1.0);
        for set in &msus {
            let dangerous = set
                .sizes()
                .iter()
                .any(|&s| (s as usize) < self.msu_threshold);
            let score: f64 = set
                .sizes()
                .iter()
                .map(|&s| fact(m.saturating_sub(s as usize) as u32))
                .sum::<f64>()
                / norm;
            report.push(
                if dangerous { 1.0 } else { 0.0 },
                set.masks.len(),
                score,
                format!("msu sizes {:?}", set.sizes()),
            );
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::view_of;
    use super::*;

    /// The Figure 1 quasi-identifier fragment relevant to the paper's
    /// tuple-20 worked example (Area, Sector, Employees, Res. Rev.).
    fn figure1_view() -> MicrodataView {
        view_of(
            vec![
                vec!["North", "Public Service", "50-200", "0-30"],
                vec!["South", "Commerce", "201-1000", "0-30"],
                vec!["Center", "Commerce", "1000+", "0-30"],
                vec!["North", "Textiles", "1000+", "90+"],
                vec!["North", "Construction", "1000+", "90+"],
                vec!["North", "Other", "1000+", "0-30"],
                vec!["North", "Other", "201-1000", "60-90"],
                vec!["North", "Textiles", "201-1000", "60-90"],
                vec!["South", "Public Service", "50-200", "0-30"],
                vec!["South", "Commerce", "1000+", "0-30"],
                vec!["South", "Commerce", "50-200", "30-60"],
                vec!["Center", "Commerce", "1000+", "60-90"],
                vec!["Center", "Construction", "201-1000", "0-30"],
                vec!["Center", "Other", "50-200", "0-30"],
                vec!["Center", "Public Service", "201-1000", "30-60"],
                vec!["North", "Textiles", "50-200", "0-30"],
                vec!["South", "Textiles", "50-200", "0-30"],
                vec!["Center", "Commerce", "201-1000", "0-30"],
                vec!["Center", "Construction", "50-200", "0-30"],
                vec!["Center", "Financial", "1000+", "30-60"],
            ],
            None,
        )
    }

    #[test]
    fn tuple_20_msus_match_paper() {
        // Paper §4.2: tuple 20 (index 19) has exactly 2 MSUs:
        // {Sector=Financial} and {Employees=1000+, Res.Rev=30-60}.
        let view = figure1_view();
        let msus = minimal_sample_uniques(&view, None);
        let t20 = &msus[19];
        assert_eq!(t20.masks.len(), 2, "msus: {:?}", t20.masks);
        let mut sizes = t20.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2]);
        // {Sector} is column 1 → mask 0b0010
        assert!(t20.masks.contains(&0b0010));
        // {Employees, Res.Rev} are columns 2,3 → mask 0b1100
        assert!(t20.masks.contains(&0b1100));
    }

    #[test]
    fn msus_are_sample_unique_and_minimal() {
        let view = figure1_view();
        let msus = minimal_sample_uniques(&view, None);
        for (row, set) in msus.iter().enumerate() {
            for &mask in &set.masks {
                let positions: Vec<usize> =
                    (0..view.width()).filter(|c| mask & (1 << c) != 0).collect();
                // sample unique
                let stats = view.group_stats_on(&positions, None, view.semantics);
                assert_eq!(stats.count[row], 1, "row {row} mask {mask:b} not unique");
                // minimal: every proper subset is non-unique
                let mut sub = (mask.wrapping_sub(1)) & mask;
                while sub != 0 {
                    let sub_pos: Vec<usize> =
                        (0..view.width()).filter(|c| sub & (1 << c) != 0).collect();
                    let s = view.group_stats_on(&sub_pos, None, view.semantics);
                    assert!(
                        s.count[row] > 1,
                        "row {row}: subset {sub:b} of MSU {mask:b} is also unique"
                    );
                    sub = (sub.wrapping_sub(1)) & mask;
                }
            }
        }
    }

    #[test]
    fn duplicated_rows_have_no_msu() {
        let view = view_of(vec![vec!["a", "b"], vec!["a", "b"]], None);
        let msus = minimal_sample_uniques(&view, None);
        assert!(msus[0].masks.is_empty());
        assert!(msus[1].masks.is_empty());
    }

    #[test]
    fn risk_flags_small_msus() {
        let view = figure1_view();
        let report = Suda::new(3).evaluate(&view).unwrap();
        // tuple 20 has an MSU of size 1 < 3 → dangerous
        assert_eq!(report.risks[19], 1.0);
        // a tuple with no MSU below size 3 is safe; find one to contrast
        assert!(report.risks.contains(&0.0));
    }

    #[test]
    fn msu_threshold_one_flags_nothing_without_size_zero() {
        let view = figure1_view();
        let report = Suda::new(1).evaluate(&view).unwrap();
        // sizes are ≥ 1, so nothing is < 1
        assert!(report.risks.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn max_size_caps_enumeration() {
        let view = figure1_view();
        let capped = minimal_sample_uniques(&view, Some(1));
        for set in &capped {
            assert!(set.sizes().iter().all(|&s| s == 1));
        }
    }

    #[test]
    fn score_weighs_small_msus_more() {
        let view = figure1_view();
        let report = Suda::default().evaluate(&view).unwrap();
        // tuple 20 (MSU size 1) must out-score a tuple whose smallest MSU
        // is larger, e.g. tuple 1 (index 0).
        let msus = minimal_sample_uniques(&view, None);
        let min_size = |row: usize| msus[row].sizes().into_iter().min();
        if let (Some(a), Some(b)) = (min_size(19), min_size(0)) {
            if a < b {
                assert!(report.details[19].weight_sum > report.details[0].weight_sum);
            }
        }
    }

    #[test]
    fn empty_view_is_fine() {
        let view = view_of(vec![], None);
        let report = Suda::default().evaluate(&view).unwrap();
        assert!(report.risks.is_empty());
    }
}
