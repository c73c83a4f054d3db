//! Algorithm 2: error feedback around a sparse allreduce, and Ok-Topk SGD.
//!
//! Values that are *not* selected into the global top-k are not lost: they stay in a
//! per-worker residual ε and re-enter the accumulator next iteration, eventually
//! becoming large enough to be selected. Residual accumulation is what makes Topk
//! SGD converge (\[4\]; Theorem 4.1 builds on it under Assumption 1).
//!
//! Every sparse scheme runs that loop; only its selector and its exchange — a
//! [`SparseRow`] — differ. [`ErrorFeedback`] is the loop, and [`OkTopkSgd`] is
//! the loop with Ok-Topk's row: threshold reuse (§3.1.3) and Algorithm 1.
//! `scale` is the learning rate in SGD mode (VGG, LSTM: apply the update as
//! `w ← w − update`) and 1.0 in Adam mode (BERT: the update is `u_t / P`, the
//! averaged sparse gradient Adam is fed), matching §5.

use crate::config::OkTopkConfig;
use crate::oktopk::OkTopk;
use simnet::Net;
use sparse::CooGradient;

/// What sets one sparse scheme's error-feedback step apart from another's: how
/// it selects from the accumulator and how the selections become the sum.
pub trait SparseRow {
    /// What one exchange returns.
    type Out;

    /// `residual += scale·grad` in place, then this rank's selection from it
    /// at iteration `t` (1-based).
    fn accumulate_select<C: Net>(
        &mut self,
        comm: &mut C,
        residual: &mut [f32],
        grad: &[f32],
        scale: f32,
        t: usize,
    ) -> CooGradient;

    /// The global sum of the selections, with `finish` applied once where it
    /// is shared.
    fn exchange<C: Net>(
        &mut self,
        comm: &mut C,
        local: CooGradient,
        t: usize,
        finish: impl FnOnce(&mut CooGradient),
    ) -> Self::Out;

    /// The indexes of the selection that left ε.
    fn leaves(out: &Self::Out) -> &[u32];
}

/// The error-feedback pipeline of one rank: a row, the residual ε and the
/// iteration count. ε is the only n-sized buffer: a step accumulates into it
/// in place (there is no separate accumulator), selects from it, and zeroes
/// the entries that left — no heap allocation in the dense O(n) part.
pub struct ErrorFeedback<R> {
    /// The row: its selector's and its exchange's state.
    pub row: R,
    residual: Vec<f32>,
    t: usize,
}

/// Per-worker Ok-Topk SGD state: the pipeline with Ok-Topk's row.
pub type OkTopkSgd = ErrorFeedback<OkTopk>;

impl<R: SparseRow> ErrorFeedback<R> {
    /// `row` with a zero residual of length `n`; with `n = 0`, ε is built at
    /// the first step (a node leader learns there that it keeps one).
    pub fn with_row(row: R, n: usize) -> Self {
        Self { row, residual: vec![0.0; n], t: 0 }
    }

    /// The residual ε currently held.
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }

    /// One step (Algorithm 2 lines 4–7): accumulate and select, exchange with
    /// `u_t / P` as the sum's finish, and zero in ε what left it; the rest of
    /// the accumulator carries over. Collective: all ranks of `comm` step
    /// together.
    pub fn step<C: Net>(&mut self, comm: &mut C, grad: &[f32], scale: f32) -> R::Out {
        if self.residual.is_empty() {
            self.residual = vec![0.0; grad.len()];
        }
        assert_eq!(grad.len(), self.residual.len());
        self.t += 1;
        let p = comm.size() as f32;
        let local = self.row.accumulate_select(comm, &mut self.residual, grad, scale, self.t);
        let out = self.row.exchange(comm, local, self.t, |u| u.scale(1.0 / p));
        for &i in R::leaves(&out) {
            self.residual[i as usize] = 0.0;
        }
        out
    }
}

impl OkTopkSgd {
    /// Fresh optimizer state (zero residual) for the given configuration.
    pub fn new(cfg: OkTopkConfig) -> Self {
        Self::with_row(OkTopk::new(cfg.clone()), cfg.n)
    }

    /// The underlying allreduce state (thresholds, boundaries, periods).
    pub fn allreduce_state(&self) -> &OkTopk {
        &self.row
    }

    /// The accumulator this step would hand to the allreduce (ε + scale·grad);
    /// exposed for the ξ-measurement harness, which needs it *before* stepping.
    pub fn peek_accumulator(&self, grad: &[f32], scale: f32) -> Vec<f32> {
        self.residual.iter().zip(grad).map(|(&e, &g)| e + scale * g).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use simnet::{Cluster, CostModel};

    #[test]
    fn residual_mass_is_conserved() {
        // acc = ε + α·g must be exactly partitioned between the new residual and the
        // contributed entries: ε'ᵢ + [i contributed]·accᵢ = accᵢ.
        let (p, n, k) = (4, 120, 12);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut sgd = OkTopkSgd::new(OkTopkConfig::new(n, k));
            let mut rng = StdRng::seed_from_u64(17 + comm.rank() as u64);
            let mut ok = true;
            for _ in 0..5 {
                let grad: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let acc = sgd.peek_accumulator(&grad, 0.1);
                let step = sgd.step(comm, &grad, 0.1);
                let contributed: std::collections::HashSet<u32> =
                    step.meta.contributed.iter().copied().collect();
                for (i, (&got, &a)) in sgd.residual().iter().zip(&acc).enumerate() {
                    let expect = if contributed.contains(&(i as u32)) { 0.0 } else { a };
                    ok &= got == expect;
                }
            }
            ok
        });
        assert!(report.results.iter().all(|&ok| ok));
    }

    #[test]
    fn step_matches_two_buffer_reference() {
        // The in-place fused step against Algorithm 2 written out with a separate
        // accumulator: fresh `acc = ε + α·g`, `OkTopk::allreduce(acc)`, copy back,
        // and a private copy of u_t scaled by 1/P.
        // n spans more than one kernel tile and is a multiple of nothing.
        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        let (n, k, tau_prime) = (4501, 90, 4);
        for p in [1usize, 3, 4] {
            Cluster::new(p, CostModel::aries()).run(|comm| {
                let cfg = OkTopkConfig::new(n, k).with_periods(5, tau_prime);
                let mut sgd = OkTopkSgd::new(cfg.clone());
                let mut reference = crate::OkTopk::new(cfg);
                let mut residual = vec![0.0f32; n];
                let mut rng = StdRng::seed_from_u64(23 + comm.rank() as u64);
                for t in 1..=3 * tau_prime {
                    let grad: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    let acc: Vec<f32> =
                        residual.iter().zip(&grad).map(|(&e, &g)| e + 0.1 * g).collect();
                    let want = reference.allreduce(comm, &acc, t);
                    residual.copy_from_slice(&acc);
                    for &i in &want.contributed {
                        residual[i as usize] = 0.0;
                    }

                    // The step's update is u_t / P: a scaled clone of the reference's.
                    let mut want_update = want.update.as_ref().clone();
                    want_update.scale(1.0 / p as f32);

                    let got = sgd.step(comm, &grad, 0.1).meta;
                    let at = format!("p={p} rank={} t={t}", comm.rank());
                    assert_eq!(got.update.indexes(), want_update.indexes(), "{at}");
                    assert_eq!(bits(got.update.values()), bits(want_update.values()), "{at}");
                    assert_eq!(got.contributed, want.contributed, "{at}");
                    assert_eq!(got.local_th.to_bits(), want.local_th.to_bits(), "{at}");
                    assert_eq!(got.global_th.to_bits(), want.global_th.to_bits(), "{at}");
                    assert_eq!(bits(sgd.residual()), bits(&residual), "{at}");
                }
            });
        }
    }

    #[test]
    fn updates_identical_across_ranks() {
        let (p, n, k) = (8, 200, 10);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut sgd = OkTopkSgd::new(OkTopkConfig::new(n, k).with_periods(2, 3));
            let mut rng = StdRng::seed_from_u64(100 + comm.rank() as u64);
            let mut updates = Vec::new();
            for _ in 0..6 {
                let grad: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                updates.push(sgd.step(comm, &grad, 0.05).update);
            }
            updates
        });
        for r in 1..p {
            assert_eq!(report.results[r], report.results[0]);
        }
    }

    #[test]
    fn residuals_eventually_flush_small_coordinates() {
        // One coordinate receives a tiny but persistent gradient on every worker;
        // residual accumulation must eventually push it into the global top-k.
        let (p, n, k) = (4, 64, 2);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut sgd = OkTopkSgd::new(OkTopkConfig::new(n, k).with_periods(1, 1));
            let mut seen_small_coord = false;
            for t in 0..60 {
                // Large noise on coords 0..8 varies by iteration; coordinate 40 gets
                // a small constant signal.
                let mut grad = vec![0.0f32; n];
                let t = t as f32;
                for (c, g) in grad.iter_mut().take(8).enumerate() {
                    *g = ((t + c as f32) * 0.7).sin();
                }
                grad[40] = 0.05;
                let step = sgd.step(comm, &grad, 1.0);
                if step.update.indexes().contains(&40) {
                    seen_small_coord = true;
                }
            }
            seen_small_coord
        });
        assert!(report.results.iter().all(|&ok| ok), "coordinate 40 never selected");
    }

    #[test]
    fn converges_on_separable_quadratic() {
        // fᵢ(w) = ½‖w − cᵢ‖²; the average objective's optimum is mean(cᵢ).
        // Ok-Topk SGD with residual accumulation must approach it despite k ≪ n.
        // Theorem 4.1 promises convergence only under *diminishing* learning rates —
        // with antagonistic per-worker gradients a constant rate limit-cycles — so
        // the test uses a 1/t schedule and asserts a 10× error reduction.
        let (p, n, k) = (4, 64, 8);
        let mut rng = StdRng::seed_from_u64(7);
        let centers: Vec<Vec<f32>> =
            (0..p).map(|_| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        let mut mean = vec![0.0f32; n];
        for c in &centers {
            for (m, x) in mean.iter_mut().zip(c) {
                *m += x / p as f32;
            }
        }
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut sgd = OkTopkSgd::new(OkTopkConfig::new(n, k).with_periods(8, 8));
            let mut w = vec![0.0f32; n];
            for it in 0..1200 {
                let grad: Vec<f32> =
                    w.iter().zip(&centers[comm.rank()]).map(|(wi, ci)| wi - ci).collect();
                let lr = 0.1 / (1.0 + it as f32 / 100.0);
                let step = sgd.step(comm, &grad, lr);
                for (i, v) in step.update.iter() {
                    w[i as usize] -= v;
                }
            }
            let err: f64 =
                w.iter().zip(&mean).map(|(a, b)| ((a - b) as f64).powi(2)).sum::<f64>().sqrt();
            err
        });
        let initial: f64 = mean.iter().map(|&m| (m as f64).powi(2)).sum::<f64>().sqrt();
        for err in &report.results {
            assert!(*err < initial / 10.0, "did not converge: err={err}, initial={initial}");
        }
    }
}
