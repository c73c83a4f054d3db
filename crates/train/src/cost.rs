//! Modeled compute/sparsification cost calibration.
//!
//! The paper's absolute times come from P100 GPUs + mpi4py on Piz Daint; ours come
//! from this cost profile. Everything is charged *per gradient element*, so the
//! proportions between compute, communication and sparsification — which determine
//! every qualitative result in Figs. 8–12 — are preserved at our smaller model
//! sizes.
//!
//! Derivation of the defaults from the paper's measurements on VGG-16
//! (n = 27.5M, local batch 16, Fig. 8):
//!
//! - forward+backward ≈ 0.25 s → `9e-9 s/param` compute;
//! - dense allreduce communication ≈ 0.5 s ≈ 2n·β_eff → `β_eff ≈ 9e-9 s/element`
//!   (≈440 MB/s effective per-flow bandwidth through PyTorch + mpi4py — far below
//!   the Aries link rate, as real stacks are);
//! - `torch.topk` style exact selection ≈ 0.3 ms launch+sync overhead +
//!   `7e-9 s/elem`;
//! - an O(n) threshold scan ≈ 0.03 ms + `0.7e-9 s/elem` (the GPU-friendly path);
//! - a sparse merge ≈ `2e-9 s/elem` merged.

use simnet::CostModel;

/// All modeled cost constants of one experiment.
#[derive(Clone, Copy, Debug)]
pub struct CostProfile {
    /// Network per-message latency (s).
    pub alpha: f64,
    /// Network per-element transfer time (s).
    pub beta: f64,
    /// Forward+backward compute per parameter per iteration (s).
    pub compute_per_param: f64,
    /// Exact top-k selection fixed launch cost (s).
    pub topk_launch: f64,
    /// Exact top-k selection per-element cost (s).
    pub topk_per_elem: f64,
    /// Threshold-scan fixed launch cost (s).
    pub scan_launch: f64,
    /// Threshold-scan per-element cost (s).
    pub scan_per_elem: f64,
    /// Sparse merge-sum cost per merged element (charged inside Ok-Topk's
    /// split-and-reduce and gTopk's tree, mirroring where the paper accounts it).
    pub merge_per_elem: f64,
    /// Fraction of forward+backward time a bucketed dense allreduce can hide
    /// (DenseOvlp): roughly the backward share, times pipeline efficiency.
    pub overlap_window: f64,
}

impl CostProfile {
    /// Calibration derived from the paper's Piz Daint measurements (see module docs).
    pub fn paper_calibrated() -> Self {
        Self {
            alpha: 1.5e-6,
            beta: 9e-9,
            compute_per_param: 9e-9,
            topk_launch: 3e-4,
            topk_per_elem: 7e-9,
            scan_launch: 3e-5,
            scan_per_elem: 0.7e-9,
            merge_per_elem: 2e-9,
            overlap_window: 0.55,
        }
    }

    /// Commodity-cloud network (≈25 µs, ≈40 MB/s effective), same compute — used to
    /// check the paper's claim that Ok-Topk's advantage grows on slower networks.
    pub fn commodity_cloud() -> Self {
        Self { alpha: 25e-6, beta: 9e-8, ..Self::paper_calibrated() }
    }

    /// The model size the calibration refers to (VGG-16's 27.5M parameters).
    pub const REFERENCE_N: f64 = 27.5e6;

    /// Rescale the *fixed* costs (message latency α, kernel-launch overheads) to a
    /// model of `n` parameters.
    ///
    /// Per-element costs transfer directly to smaller models, but fixed costs do
    /// not: at the paper's scale (n ≈ 27.5M–110M) the bandwidth terms dwarf the
    /// latency terms — the regime the paper explicitly targets ("the bandwidth
    /// term dominates", §2). Running the same physical constants against our
    /// ~100k-parameter stand-ins would instead put every algorithm in the
    /// latency-dominated regime and distort every comparison. Scaling fixed costs
    /// by `n / REFERENCE_N` keeps each experiment in the paper's proportion regime,
    /// which is what the reproduction targets (see DESIGN.md §1).
    pub fn scaled_for_model(mut self, n: usize) -> Self {
        let s = (n as f64 / Self::REFERENCE_N).min(1.0);
        self.alpha *= s;
        self.topk_launch *= s;
        self.scan_launch *= s;
        self
    }

    /// The simnet network model (α, β) of this profile.
    pub fn network(&self) -> CostModel {
        CostModel { alpha: self.alpha, beta: self.beta }
    }

    /// Modeled forward+backward seconds for a model with `n` parameters.
    pub fn fwd_bwd(&self, n: usize) -> f64 {
        self.compute_per_param * n as f64
    }

    /// Modeled exact top-k selection over `n` elements.
    pub fn topk_exact(&self, n: usize) -> f64 {
        self.topk_launch + self.topk_per_elem * n as f64
    }

    /// Modeled threshold scan over `n` elements (`passes` full passes).
    pub fn scan(&self, n: usize, passes: usize) -> f64 {
        self.scan_launch + self.scan_per_elem * (n * passes.max(1)) as f64
    }
}

impl Default for CostProfile {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportions_match_paper_regime() {
        let c = CostProfile::paper_calibrated();
        let n = 27_500_000usize; // VGG-16
                                 // Dense allreduce volume 2n: communication should be ~2× compute.
        let comm = 2.0 * n as f64 * c.beta;
        let compute = c.fwd_bwd(n);
        assert!(comm / compute > 1.5 && comm / compute < 2.5, "ratio {}", comm / compute);
        // Exact selection is the same order as compute; scan is ~10× cheaper.
        assert!(c.topk_exact(n) > 0.5 * compute);
        assert!(c.scan(n, 1) < 0.15 * c.topk_exact(n));
    }

    #[test]
    fn launch_costs_dominate_small_ops() {
        let c = CostProfile::paper_calibrated();
        assert!(c.topk_exact(1000) > 0.9 * c.topk_launch);
        assert!(c.scan(1000, 1) > 0.9 * c.scan_launch);
    }

    #[test]
    fn commodity_network_is_slower() {
        let a = CostProfile::paper_calibrated();
        let b = CostProfile::commodity_cloud();
        assert!(b.beta > a.beta * 5.0);
        assert!(b.alpha > a.alpha * 5.0);
        assert_eq!(a.compute_per_param, b.compute_per_param);
    }
}
