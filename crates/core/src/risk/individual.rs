//! Individual risk estimation (paper Algorithm 5; Benedetti–Franconi).
//!
//! The re-identification model pretends the sampling weight equals the
//! population frequency `F_k` of a quasi-identifier combination; in truth
//! `F_k` is unknown and must be inferred from the *sample* frequency
//! `f_k`. Following Benedetti & Franconi (1998) and Franconi & Polettini
//! (2004), the population frequency given the sample frequency is modelled
//! with a negative-binomial posterior and the tuple risk is the posterior
//! mean of `1/F_k`:
//!
//! ```text
//! ρ = E[1/F_k | f_k]   with   F_k − f_k ~ NegBinomial(f_k, p̂_k),
//! p̂_k = f_k / Σ_{t∈k} W_t
//! ```
//!
//! Three estimators are provided:
//!
//! - [`IrEstimator::Simple`] — the paper's Algorithm 5 shortcut
//!   `ρ = f_k / Σ W_t` (i.e. `1/λ` with `λ = ΣW/f`);
//! - [`IrEstimator::PosteriorMean`] — the exact series for the
//!   negative-binomial posterior mean (closed forms exist for `f = 1, 2`;
//!   the series reproduces them, see tests);
//! - [`IrEstimator::SimulatedLibrary`] — Monte-Carlo sampling from the
//!   posterior. This deliberately mimics the paper's "off-the-shelf
//!   statistical library" plug-in whose interop overhead dominates the
//!   individual-risk line of Figure 7e.

use super::{MicrodataView, RiskError, RiskMeasure, RiskReport, TupleRiskDetail};
use crate::maybe_match::GroupStats;

/// Which estimator of `E[1/F_k | f_k]` to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrEstimator {
    /// `f_k / Σ W_t` — the simple moment estimator of Algorithm 5.
    Simple,
    /// Exact negative-binomial posterior mean (truncated series).
    PosteriorMean,
    /// Monte-Carlo estimate with the given sample count, emulating an
    /// external statistical library (slow by design; see Figure 7e).
    SimulatedLibrary {
        /// Number of posterior draws per combination.
        samples: u32,
    },
}

/// Individual risk measure (Algorithm 5).
#[derive(Debug, Clone, Copy)]
pub struct IndividualRisk {
    /// Estimation strategy.
    pub estimator: IrEstimator,
}

impl Default for IndividualRisk {
    fn default() -> Self {
        IndividualRisk {
            estimator: IrEstimator::PosteriorMean,
        }
    }
}

impl IndividualRisk {
    /// Individual risk with the chosen estimator.
    pub fn new(estimator: IrEstimator) -> Self {
        IndividualRisk { estimator }
    }

    /// Weights are mandatory and must be positive/finite. Shared by cold
    /// and warm paths.
    fn validate_weights(view: &MicrodataView) -> Result<(), RiskError> {
        let Some(weights) = &view.weights else {
            return Err(RiskError::View(
                "individual risk requires sampling weights".into(),
            ));
        };
        if let Some(bad) = weights.iter().find(|x| !x.is_finite() || **x <= 0.0) {
            return Err(RiskError::View(format!(
                "sampling weights must be positive and finite, found {bad}"
            )));
        }
        Ok(())
    }

    /// Write the individual-risk report of `stats` into `report`. Shared
    /// by [`RiskMeasure::evaluate`] and the warm-start hook so identical
    /// statistics yield bit-identical reports.
    fn fill(&self, stats: &GroupStats, report: &mut RiskReport) {
        report.reset(self.name());
        let mut rng = XorShift::new(0x5eed_cafe_f00d_1234);
        // rows of the same equivalence class share (f, p): memoize so the
        // expensive estimators run, and the note is written, once per
        // class, not once per row
        let mut memo: std::collections::HashMap<(usize, u64), (f64, usize)> =
            std::collections::HashMap::new();
        for (&f, &wsum) in stats.count.iter().zip(stats.weight_sum.iter()) {
            // p̂ is a probability: weight sums below the sample frequency
            // (possible with weights < 1) are clamped.
            let p = (f as f64 / wsum).clamp(f64::MIN_POSITIVE, 1.0);
            let (r, note) = *memo.entry((f, p.to_bits())).or_insert_with(|| {
                let r = match self.estimator {
                    IrEstimator::Simple => p,
                    IrEstimator::PosteriorMean => bf_posterior_mean(f, p),
                    IrEstimator::SimulatedLibrary { samples } => {
                        simulate_posterior_mean(f, p, samples, &mut rng)
                    }
                };
                (r, report.add_note(format!("p̂={p:.6}")))
            });
            report.risks.push(r.min(1.0));
            report.details.push(TupleRiskDetail {
                frequency: f,
                weight_sum: wsum,
                note,
            });
        }
    }
}

impl RiskMeasure for IndividualRisk {
    fn name(&self) -> &str {
        "individual-risk"
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        Self::validate_weights(view)?;
        let mut report = RiskReport::default();
        self.fill(&view.group_stats(), &mut report);
        Ok(report)
    }

    fn evaluate_tuple(&self, view: &MicrodataView, row: usize) -> Option<f64> {
        let weights = view.weights.as_ref()?;
        if weights.len() != view.len() {
            return None;
        }
        let (f, wsum) = super::tuple_group(view, row);
        if f == 0 || wsum <= 0.0 {
            return Some(1.0);
        }
        let p = (f as f64 / wsum).clamp(f64::MIN_POSITIVE, 1.0);
        let r = match self.estimator {
            IrEstimator::Simple => p,
            // the incremental fast path always uses the exact series; the
            // simulated-library overhead only applies to full evaluations
            IrEstimator::PosteriorMean | IrEstimator::SimulatedLibrary { .. } => {
                bf_posterior_mean(f, p)
            }
        };
        Some(r.min(1.0))
    }

    fn tuple_risk_from_stats(
        &self,
        view: &MicrodataView,
        stats: &GroupStats,
        row: usize,
    ) -> Option<f64> {
        let weights = view.weights.as_ref()?;
        if weights.len() != view.len() {
            return None;
        }
        let f = stats.count[row];
        let wsum = stats.weight_sum[row];
        if f == 0 || wsum <= 0.0 {
            return Some(1.0);
        }
        let p = (f as f64 / wsum).clamp(f64::MIN_POSITIVE, 1.0);
        let r = match self.estimator {
            IrEstimator::Simple => p,
            // mirrors `evaluate_tuple`: the incremental fast path always
            // uses the exact series
            IrEstimator::PosteriorMean | IrEstimator::SimulatedLibrary { .. } => {
                bf_posterior_mean(f, p)
            }
        };
        Some(r.min(1.0))
    }

    /// The simulated library deliberately models an out-of-process
    /// estimator (Figure 7e): serving it from patched statistics would
    /// skip exactly the overhead it exists to measure, so it opts out and
    /// the cycle evaluates it cold.
    fn serves_from_groups(&self) -> bool {
        !matches!(self.estimator, IrEstimator::SimulatedLibrary { .. })
    }

    fn report_from_groups(
        &self,
        view: &MicrodataView,
        stats: &GroupStats,
        report: &mut RiskReport,
    ) -> Option<Result<(), RiskError>> {
        if !self.serves_from_groups() {
            return None;
        }
        Some(Self::validate_weights(view).map(|()| self.fill(stats, report)))
    }
}

/// Exact posterior mean `E[1/F | f]` under the shifted negative-binomial
/// `P(F = f + j) ∝ C(f+j−1, j) p^f (1−p)^j`, computed as a truncated
/// series. `f ≥ 1`, `0 < p ≤ 1`.
pub fn bf_posterior_mean(f: usize, p: f64) -> f64 {
    assert!(f >= 1, "sample frequency must be at least 1");
    let p = p.clamp(f64::MIN_POSITIVE, 1.0);
    if (p - 1.0).abs() < 1e-15 {
        return 1.0 / f as f64;
    }
    let q = 1.0 - p;
    let fk = f as f64;
    // t_j = C(f+j-1, j) p^f q^j / (f+j); t_0 = p^f / f
    let mut term = p.powi(f as i32) / fk;
    let mut sum = term;
    let mut j = 0f64;
    // Ratio: t_{j+1}/t_j = q * (f+j)/(j+1) * (f+j)/(f+j+1)
    for _ in 0..5_000_000 {
        let ratio = q * (fk + j) / (j + 1.0) * (fk + j) / (fk + j + 1.0);
        term *= ratio;
        sum += term;
        j += 1.0;
        if term < sum * 1e-14 {
            break;
        }
    }
    sum
}

/// Minimal xorshift64* generator: keeps the crate dependency-free while
/// giving the "simulated library" mode reproducible draws.
struct XorShift {
    state: u64,
}

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift { state: seed.max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Monte-Carlo estimate of `E[1/F | f]`: draw `F = f + Σ_{i<f} Geom(p)`
/// (negative binomial as a sum of geometrics) and average `1/F`.
fn simulate_posterior_mean(f: usize, p: f64, samples: u32, rng: &mut XorShift) -> f64 {
    if (p - 1.0).abs() < 1e-12 {
        return 1.0 / f as f64;
    }
    let samples = samples.max(1);
    let ln_q = (1.0 - p).ln();
    let mut acc = 0.0;
    for _ in 0..samples {
        let mut extra = 0u64;
        for _ in 0..f {
            // geometric via inverse transform
            let u = rng.next_f64().max(f64::MIN_POSITIVE);
            extra += (u.ln() / ln_q).floor() as u64;
        }
        acc += 1.0 / (f as u64 + extra) as f64;
    }
    acc / samples as f64
}

#[cfg(test)]
mod tests {
    use super::super::test_support::view_of;
    use super::*;

    #[test]
    fn closed_form_f1_matches_series() {
        // f = 1: E[1/F] = (p/(1-p)) ln(1/p)
        for &p in &[0.05f64, 0.1, 0.3, 0.5, 0.9] {
            let closed = p / (1.0 - p) * (1.0 / p).ln();
            let series = bf_posterior_mean(1, p);
            assert!(
                (closed - series).abs() < 1e-9,
                "p={p}: closed={closed}, series={series}"
            );
        }
    }

    #[test]
    fn closed_form_f2_matches_series() {
        // f = 2: E[1/F] = p/(1-p) - (p/(1-p))^2 ln(1/p)
        for &p in &[0.05f64, 0.2, 0.5, 0.8] {
            let r = p / (1.0 - p);
            let closed = r - r * r * (1.0 / p).ln();
            let series = bf_posterior_mean(2, p);
            assert!(
                (closed - series).abs() < 1e-9,
                "p={p}: closed={closed}, series={series}"
            );
        }
    }

    #[test]
    fn census_case_p_equals_one() {
        // Full enumeration: the sample IS the population, risk is 1/f.
        assert!((bf_posterior_mean(1, 1.0) - 1.0).abs() < 1e-12);
        assert!((bf_posterior_mean(4, 1.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn posterior_mean_is_below_naive_reciprocal() {
        // E[1/F|f] < 1/f whenever p < 1 (the population can only be larger)
        for &f in &[1usize, 2, 3, 5] {
            for &p in &[0.1, 0.5, 0.9] {
                assert!(bf_posterior_mean(f, p) < 1.0 / f as f64 + 1e-12);
            }
        }
    }

    #[test]
    fn posterior_mean_increases_with_p() {
        let lo = bf_posterior_mean(1, 0.1);
        let hi = bf_posterior_mean(1, 0.6);
        assert!(hi > lo);
    }

    #[test]
    fn monte_carlo_agrees_with_series() {
        let mut rng = XorShift::new(42);
        for &(f, p) in &[(1usize, 0.3f64), (2, 0.5), (3, 0.7)] {
            let exact = bf_posterior_mean(f, p);
            let mc = simulate_posterior_mean(f, p, 200_000, &mut rng);
            assert!(
                (exact - mc).abs() < 0.01,
                "f={f}, p={p}: exact={exact}, mc={mc}"
            );
        }
    }

    #[test]
    fn simple_estimator_is_sampling_fraction() {
        let view = view_of(vec![vec!["a"], vec!["a"]], Some(vec![10.0, 30.0]));
        let report = IndividualRisk::new(IrEstimator::Simple)
            .evaluate(&view)
            .unwrap();
        // f=2, Σw=40 → p = 0.05
        assert!((report.risks[0] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn missing_weights_is_an_error() {
        let view = view_of(vec![vec!["a"]], None);
        assert!(IndividualRisk::default().evaluate(&view).is_err());
    }

    #[test]
    fn unique_heavy_tuple_is_low_risk() {
        // weight 100, f=1 → p=0.01: many look-alikes in the population
        let view = view_of(vec![vec!["a"], vec!["b"]], Some(vec![100.0, 2.0]));
        let report = IndividualRisk::default().evaluate(&view).unwrap();
        assert!(report.risks[0] < 0.06);
        // weight 2, f=1 → p=0.5: few look-alikes, high risk
        assert!(report.risks[1] > 0.5);
    }

    #[test]
    fn risks_are_clamped_to_unit_interval() {
        let view = view_of(vec![vec!["a"]], Some(vec![0.5]));
        let report = IndividualRisk::default().evaluate(&view).unwrap();
        assert!(report.risks[0] <= 1.0);
    }
}
