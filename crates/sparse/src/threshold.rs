//! Threshold estimators: how each scheme decides the top-k cut-off each iteration.
//!
//! Two estimators from the paper:
//!
//! - [`PeriodicExactEstimator`] — Ok-Topk's strategy (§3.1.3): gradient statistics
//!   along the time dimension form a slowly changing stochastic process, so compute
//!   the *exact* threshold (k-th largest magnitude, radix select) only every τ′
//!   iterations and reuse it in between. Steady-state cost: one O(n) scan.
//! - [`GaussianEstimator`] — Gaussiank's strategy (\[41\], §2): fit a normal
//!   distribution to the gradient values and read the threshold off the percent-point
//!   function. O(n) every iteration, but systematically *over*-estimates the threshold
//!   late in training (the fitted Gaussian has a longer tail than the real, sharply
//!   peaked distribution), hence under-selects k — the effect Figs. 4 and 6 show.
//!   §5.4's fairness adjustment (scale the threshold down until at least `3k/4`
//!   values are selected) is the Gaussiank selector's, in `train::reducer`, which
//!   also counts its probes for the modeled cost.

use crate::select::exact_threshold;
use crate::stats::{mean_std, normal_ppf};

/// Ok-Topk's periodic exact threshold with reuse (§3.1.3, Algorithm 1 lines 2-4).
#[derive(Clone, Debug)]
pub struct PeriodicExactEstimator {
    period: usize,
    cached: Option<f32>,
}

impl PeriodicExactEstimator {
    /// `period` is the paper's τ′ (e.g. 32 for VGG/LSTM, 128 for BERT).
    /// A fresh estimator re-evaluating every `period` (= τ′) iterations.
    pub fn new(period: usize) -> Self {
        assert!(period >= 1);
        Self { period, cached: None }
    }

    /// The currently cached threshold.
    pub fn cached(&self) -> Option<f32> {
        self.cached
    }

    /// The cached threshold, if iteration `t` reuses it instead of re-evaluating.
    pub fn reused_at(&self, t: usize) -> Option<f32> {
        if self.due(t) {
            None
        } else {
            self.cached
        }
    }

    /// Whether iteration `t` is a re-evaluation: `(t − 1) mod τ′ = 0`, t
    /// starting at 1 (Algorithm 1).
    pub fn due(&self, t: usize) -> bool {
        t >= 1 && (t - 1).is_multiple_of(self.period)
    }

    /// Threshold for iteration `t` (1-based) on `values`, targeting `k`
    /// survivors: the exact one when `t` is due or nothing is cached yet,
    /// otherwise the cached one.
    pub fn threshold(&mut self, t: usize, values: &[f32], k: usize) -> f32 {
        if self.due(t) || self.cached.is_none() {
            self.cached = Some(exact_threshold(values, k));
        }
        self.cached.expect("cache filled above")
    }
}

/// Gaussiank's percent-point-function threshold (\[41\]).
#[derive(Clone, Debug)]
pub struct GaussianEstimator;

impl GaussianEstimator {
    /// The raw Gaussian estimate: if values ~ N(μ, σ), then
    /// `P(|X| ≥ t) ≈ k/n` at `t = |μ| + σ·Φ⁻¹(1 − k/(2n))` (two-tailed, μ ≈ 0).
    pub fn raw_threshold(values: &[f32], k: usize) -> f32 {
        let n = values.len();
        if n == 0 || k == 0 {
            return f32::INFINITY;
        }
        if k >= n {
            return 0.0;
        }
        let (mean, std) = mean_std(values);
        let p = 1.0 - (k as f64) / (2.0 * n as f64);
        let z = normal_ppf(p.clamp(1e-12, 1.0 - 1e-12));
        (mean.abs() + std * z) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn periodic_reuses_between_reevals() {
        let mut est = PeriodicExactEstimator::new(4);
        let v1: Vec<f32> = (0..100).map(|i| i as f32 / 100.0).collect();
        assert!(est.due(1) && est.reused_at(1).is_none());
        let th1 = est.threshold(1, &v1, 10);
        // Different data at t=2..4 must reuse the cached threshold.
        let v2: Vec<f32> = (0..100).map(|i| -(i as f32)).collect();
        assert_eq!(est.reused_at(2), Some(th1));
        assert_eq!(est.threshold(2, &v2, 10), th1);
        assert_eq!(est.threshold(4, &v2, 10), th1);
        // t=5 → (5-1)%4==0 → re-evaluate.
        assert!(est.due(5) && est.reused_at(5).is_none());
        assert_ne!(est.threshold(5, &v2, 10), th1);
        assert!(!est.due(0), "iterations are 1-based");
    }

    #[test]
    fn periodic_exact_matches_reference_at_reeval() {
        let mut est = PeriodicExactEstimator::new(8);
        let values: Vec<f32> = (0..64).map(|i| ((i * 37) % 64) as f32 - 32.0).collect();
        let th = est.threshold(1, &values, 5);
        assert_eq!(th, crate::select::exact_threshold_by_sort(&values, 5));
    }

    #[test]
    fn gaussian_close_to_exact_on_gaussian_data() {
        // On genuinely Gaussian data the PPF estimate should be near the exact cut.
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<f32> = (0..50_000)
            .map(|_| {
                // Box-Muller
                let u1: f64 = rng.gen_range(1e-9..1.0);
                let u2: f64 = rng.gen();
                ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
            })
            .collect();
        let k = 500;
        let est = GaussianEstimator::raw_threshold(&values, k);
        let exact = exact_threshold(&values, k);
        assert!((est - exact).abs() / exact < 0.05, "est={est} exact={exact}");
    }

    #[test]
    fn gaussian_overestimates_on_heavy_tailed_data() {
        // A sharply peaked distribution (most mass near zero, few large values) — the
        // shape of late-training gradients. The fitted Gaussian's σ is inflated by the
        // outliers, so the PPF threshold lands above the true k-th magnitude and the
        // estimator under-selects: the effect in Figs. 4 and 6.
        let mut rng = StdRng::seed_from_u64(5);
        let values: Vec<f32> = (0..50_000)
            .map(|i| {
                if i % 100 == 0 {
                    rng.gen_range(-3.0f32..3.0) // rare large components
                } else {
                    rng.gen_range(-0.01f32..0.01) // bulk near zero
                }
            })
            .collect();
        let k = 5_000; // 10% density: mostly inside the near-zero bulk
        let est = GaussianEstimator::raw_threshold(&values, k);
        let exact = exact_threshold(&values, k);
        assert!(est > exact * 2.0, "est={est} exact={exact}");
        let selected = values.iter().filter(|v| v.abs() >= est).count();
        assert!(selected < k / 2, "selected={selected}, k={k}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(GaussianEstimator::raw_threshold(&[], 5), f32::INFINITY);
        assert_eq!(GaussianEstimator::raw_threshold(&[1.0, 2.0], 2), 0.0);
        let mut est = PeriodicExactEstimator::new(4);
        assert_eq!(est.threshold(1, &[], 5), f32::INFINITY);
    }
}
