//! Numeric utilities: moments, error function, inverse normal CDF, histograms.
//!
//! Implemented from scratch (no external stats crates): the Gaussiank baseline needs
//! the normal percent-point function (§2, \[41\]), and the Fig. 4 harness needs value
//! histograms of real gradients.

/// Mean and (population) standard deviation of a slice, in one pass.
pub fn mean_std(values: &[f32]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for &v in values {
        let v = v as f64;
        sum += v;
        sum_sq += v * v;
    }
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);
    (mean, var.sqrt())
}

/// ℓ2 norm of a dense slice (f64 accumulation).
pub fn l2_norm(values: &[f32]) -> f64 {
    values.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt()
}

/// Error function, Abramowitz & Stegun 7.1.26 (max abs error ≈ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal CDF.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Inverse standard normal CDF (percent-point function), Acklam's algorithm;
/// relative error below 1.2e-9 across (0, 1). No refinement step is applied: the
/// only erf available here is the 1e-7-accurate A&S polynomial, and refining
/// against it would *worsen* Acklam's raw accuracy.
pub fn normal_ppf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "ppf domain is (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// A fixed-range, fixed-width histogram over f32 samples (used by the Fig. 4 harness
/// to print gradient value distributions).
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    below: u64,
    above: u64,
}

impl Histogram {
    /// A histogram over `[lo, hi)` with `bins` equal-width bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Self { lo, hi, counts: vec![0; bins], below: 0, above: 0 }
    }

    /// Add one sample (out-of-range samples are counted as outliers).
    pub fn add(&mut self, v: f64) {
        if v < self.lo {
            self.below += 1;
        } else if v >= self.hi {
            self.above += 1;
        } else {
            let bins = self.counts.len();
            let bin = ((v - self.lo) / (self.hi - self.lo) * bins as f64) as usize;
            self.counts[bin.min(bins - 1)] += 1;
        }
    }

    /// Add every sample of a slice.
    pub fn add_all(&mut self, values: &[f32]) {
        for &v in values {
            self.add(v as f64);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples that fell (below, above) the histogram range.
    pub fn outliers(&self) -> (u64, u64) {
        (self.below, self.above)
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Total samples added, including outliers.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.below + self.above
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-12);
        assert!((s - (1.25f64).sqrt()).abs() < 1e-9);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 2e-7);
        assert!((erf(-1.0) + 0.8427007929).abs() < 2e-7);
        assert!((erf(3.0) - 0.9999779095).abs() < 2e-7);
    }

    #[test]
    fn ppf_known_quantiles() {
        assert!(normal_ppf(0.5).abs() < 1e-7);
        assert!((normal_ppf(0.975) - 1.959963985).abs() < 1e-6);
        assert!((normal_ppf(0.025) + 1.959963985).abs() < 1e-6);
        assert!((normal_ppf(0.999) - 3.090232306).abs() < 1e-6);
        assert!((normal_ppf(1e-6) + 4.753424309).abs() < 1e-5);
    }

    #[test]
    fn ppf_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999] {
            let x = normal_ppf(p);
            // Bounded by the A&S erf polynomial's own ~1.5e-7 accuracy.
            assert!((normal_cdf(x) - p).abs() < 5e-7, "p={p}");
        }
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add_all(&[-0.5, 0.1, 0.3, 0.6, 0.99, 1.5]);
        assert_eq!(h.counts(), &[1, 1, 1, 1]);
        assert_eq!(h.outliers(), (1, 1));
        assert_eq!(h.total(), 6);
        assert!((h.bin_center(0) - 0.125).abs() < 1e-12);
    }
}
