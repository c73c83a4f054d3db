//! Hybrid data + pipeline parallelism study — the paper's stated future work
//! (§6: "we aim to further utilize Ok-Topk to reduce the communication overhead in
//! distributed training with a hybrid data and pipeline parallelism").
//!
//! A `P = S × D` grid: `S` pipeline stages, each replicated `D`-way data-parallel.
//! The pipeline follows the GPipe schedule with `M` micro-batches: per-stage
//! compute fills `(M + S − 1)` slots (the `(S−1)/(M+S−1)` fraction being the
//! bubble), micro-batch activations hop between adjacent stages, and at the end of
//! the iteration each stage's `D` replicas allreduce their `n/S`-parameter
//! gradient shard. That last term is where the sparse allreduce plugs in — and the
//! *gradient allreduce time is measured*, not estimated: the chosen scheme
//! actually runs on a simulated `D`-rank cluster with an `n/S`-length gradient.

use crate::cost::CostProfile;
use crate::reducer::{Family, Scheme};
use rand::prelude::*;
use simnet::{Cluster, Comm};

/// Configuration of one hybrid-parallel design point.
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// Pipeline depth S (must divide `total_ranks`).
    pub stages: usize,
    /// Total ranks P; data-parallel width is `P / S`.
    pub total_ranks: usize,
    /// Micro-batches per iteration (GPipe schedule).
    pub microbatches: usize,
    /// Whole-model parameter count; each stage holds `n / S`.
    pub n: usize,
    /// Sparsity target for the sparse schemes (k over the whole model).
    pub density: f64,
    /// Activation elements exchanged per micro-batch per stage boundary.
    pub activation_elems: usize,
    /// Cost calibration.
    pub cost: CostProfile,
}

/// Modeled per-iteration time of one design point, split by source.
#[derive(Clone, Copy, Debug)]
pub struct HybridEstimate {
    /// Useful compute across the pipeline (all micro-batches, one stage depth).
    pub compute: f64,
    /// Pipeline bubble: idle slots of the GPipe schedule.
    pub bubble: f64,
    /// Activation/gradient-of-activation point-to-point traffic between stages.
    pub activation_comm: f64,
    /// Measured gradient allreduce time within one stage's data-parallel group.
    pub gradient_comm: f64,
}

impl HybridEstimate {
    /// Sum of all four components.
    pub fn total(&self) -> f64 {
        self.compute + self.bubble + self.activation_comm + self.gradient_comm
    }

    /// Idle fraction of the pipeline, `(S−1)/(M+S−1)` of the compute span.
    pub fn bubble_fraction(&self) -> f64 {
        self.bubble / (self.compute + self.bubble)
    }
}

impl HybridConfig {
    /// Data-parallel width `D = P / S`.
    pub fn dp_width(&self) -> usize {
        assert_eq!(self.total_ranks % self.stages, 0, "S must divide P");
        self.total_ranks / self.stages
    }

    /// Evaluate one allreduce scheme at this design point.
    ///
    /// Compute and activation terms come from the cost calibration; the gradient
    /// allreduce term is *measured* by running `scheme` on a simulated `D`-rank
    /// cluster over a synthetic `n/S`-length gradient (averaged over a steady-state
    /// iteration, with the re-evaluation traffic of threshold-based schemes
    /// amortized at τ′ = 32).
    pub fn evaluate(&self, scheme: Scheme) -> HybridEstimate {
        let s = self.stages;
        let d = self.dp_width();
        let m = self.microbatches;
        let stage_n = self.n / s;
        let cost = self.cost.scaled_for_model(self.n);

        // GPipe schedule: each of the (M + S − 1) slots takes one micro-batch's
        // forward+backward on one stage.
        let slot = cost.fwd_bwd(stage_n) / m as f64;
        let compute = slot * m as f64;
        let bubble = slot * (s - 1) as f64;

        // Activations: each micro-batch crosses S−1 boundaries forward and back.
        let hop = cost.alpha + cost.beta * self.activation_elems as f64;
        let activation_comm = 2.0 * hop * ((s - 1) * m) as f64;

        // Gradient allreduce within the stage group, measured.
        let gradient_comm = measure_allreduce(scheme, d, stage_n, self.density, cost);

        HybridEstimate { compute, bubble, activation_comm, gradient_comm }
    }
}

/// Steady-state allreduce time of `scheme` on `d` ranks over an `n`-length
/// gradient with exactly `k = density·n` selected entries per rank.
///
/// Measured on the collective itself (synthetic exact-k sparse inputs, like the
/// Table 1 harness), not through a training loop — the hybrid sweep is a schedule
/// cost study, and running it through residual dynamics would fold the warm-up
/// over-selection transient into every design point. Ok-Topk's amortized
/// (τ′-periodic) re-evaluation traffic is excluded by differencing two
/// deterministic runs. A stage group is one flat communicator, so the
/// hierarchical schemes run at `rpn = 1` — as their flat counterparts.
fn measure_allreduce(scheme: Scheme, d: usize, n: usize, density: f64, cost: CostProfile) -> f64 {
    if d == 1 {
        return 0.0;
    }
    let k = ((n as f64 * density).round() as usize).clamp(1, n);
    let accs: Vec<Vec<f32>> = (0..d)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(900 + r as u64);
            let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            sparse::select::topk_exact(&dense, k).to_dense(n)
        })
        .collect();
    // The time the slowest of `d` ranks finishes `body` at.
    fn makespan(d: usize, cost: &CostProfile, body: impl Fn(&mut Comm) + Send + Sync) -> f64 {
        let run = Cluster::new(d, cost.network()).run(|comm| {
            body(comm);
            comm.now()
        });
        run.results.into_iter().fold(0.0, f64::max)
    }

    match scheme.family().0 {
        Family::Dense => makespan(d, &cost, |comm| {
            collectives::allreduce_shared(comm, &accs[comm.rank()], 0.0, |_| {});
        }),
        Family::OkTopk => {
            let run = |iters: usize| {
                makespan(d, &cost, |comm| {
                    let mut okt = oktopk::OkTopk::new(
                        oktopk::OkTopkConfig::new(n, k)
                            .with_periods(1_000, 1_000)
                            .with_merge_cost(cost.merge_per_elem),
                    );
                    for t in 1..=iters {
                        okt.allreduce(comm, &accs[comm.rank()], t);
                    }
                })
            };
            (run(2) - run(1)).max(0.0)
        }
        Family::Baseline(_, exchange) => makespan(d, &cost, |comm| {
            let local = sparse::select::topk_exact(&accs[comm.rank()], k);
            exchange.run(comm, local, (n, k), 1);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> HybridConfig {
        HybridConfig {
            stages: 4,
            total_ranks: 16,
            microbatches: 8,
            n: 64_000,
            density: 0.02,
            activation_elems: 4_096,
            cost: CostProfile::paper_calibrated(),
        }
    }

    #[test]
    fn bubble_fraction_matches_gpipe_formula() {
        let cfg = base();
        let est = cfg.evaluate(Scheme::Dense);
        let expect =
            (cfg.stages as f64 - 1.0) / (cfg.microbatches as f64 + cfg.stages as f64 - 1.0);
        assert!((est.bubble_fraction() - expect).abs() < 1e-9);
    }

    #[test]
    fn more_microbatches_shrink_the_bubble() {
        let mut cfg = base();
        let few = cfg.evaluate(Scheme::Dense).bubble_fraction();
        cfg.microbatches = 32;
        let many = cfg.evaluate(Scheme::Dense).bubble_fraction();
        assert!(many < few);
    }

    #[test]
    fn oktopk_cuts_gradient_comm_vs_dense() {
        let cfg = base();
        let dense = cfg.evaluate(Scheme::Dense);
        let okt = cfg.evaluate(Scheme::OkTopk);
        assert!(
            okt.gradient_comm < dense.gradient_comm,
            "okt {} vs dense {}",
            okt.gradient_comm,
            dense.gradient_comm
        );
        // Everything except the gradient term is scheme-independent.
        assert_eq!(dense.compute, okt.compute);
        assert_eq!(dense.bubble, okt.bubble);
        assert_eq!(dense.activation_comm, okt.activation_comm);
    }

    #[test]
    fn every_scheme_evaluates_and_hier_schemes_cost_what_their_flat_ones_do() {
        // A stage group has no tiers: Hier-X must be measured as X, not panic.
        let cfg = base();
        assert_eq!(cfg.dp_width(), 4);
        let comm_of = |s: Scheme| cfg.evaluate(s).gradient_comm;
        for scheme in Scheme::all() {
            let t = comm_of(scheme);
            assert!(t.is_finite() && t >= 0.0, "{}: {t}", scheme.name());
        }
        for (hier, flat) in [
            (Scheme::HierDense, Scheme::Dense),
            (Scheme::HierGTopk, Scheme::GTopk),
            (Scheme::HierOkTopk, Scheme::OkTopk),
        ] {
            assert_eq!(comm_of(hier).to_bits(), comm_of(flat).to_bits(), "{}", hier.name());
        }
    }

    #[test]
    fn deeper_pipelines_trade_gradient_comm_for_bubble() {
        // With S up, each stage's gradient shard shrinks (cheaper allreduce) but
        // the bubble grows — the tradeoff the harness exists to explore.
        let mut cfg = base();
        cfg.stages = 1;
        cfg.microbatches = 8;
        let flat = cfg.evaluate(Scheme::Dense);
        cfg.stages = 8;
        let deep = cfg.evaluate(Scheme::Dense);
        assert!(deep.gradient_comm < flat.gradient_comm);
        assert!(deep.bubble > flat.bubble);
        assert_eq!(flat.bubble, 0.0);
    }

    #[test]
    fn dp_width_requires_divisibility() {
        let mut cfg = base();
        cfg.stages = 3; // 16 % 3 != 0
        let result = std::panic::catch_unwind(|| cfg.dp_width());
        assert!(result.is_err());
    }
}
