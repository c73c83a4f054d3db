//! TopkA: the allgather-based sparse allreduce (§2, \[36, 47\]).
//!
//! Every worker contributes its local k-sparse gradient; an allgather distributes all
//! P sparse gradients to every worker, which then reduces them locally. Simple, no
//! fill-in *during* communication — but the per-rank receive volume is `2k(P−1)`,
//! proportional to P, which is exactly the scalability wall the paper demonstrates
//! (Figs. 8, 10, 12).
//!
//! The Gaussiank baseline uses this same transport; only its local selection
//! differs (Gaussian-PPF threshold instead of exact top-k).

use crate::dense::allgather_assembled;
use simnet::Net;
use sparse::CooGradient;
use std::sync::Arc;

/// Sparse allreduce by allgather + local reduction.
///
/// Returns the merged sum of all workers' sparse contributions, made once per
/// process: every rank returns a handle to the same allocation. The output
/// density is the union of the input supports (same fill-in as TopkDSA's
/// result, §5.2); no re-selection is applied here — callers decide what to do
/// with the fill-in.
pub fn topk_allgather_allreduce<C: Net>(comm: &mut C, local: CooGradient) -> Arc<CooGradient> {
    topk_allgather_allreduce_with(comm, local, |_| {})
}

/// [`topk_allgather_allreduce`] that applies `finish` to the sum before it is
/// shared: the merge and `finish` run once per process, on the rank-ordered
/// items, by the rank that assembles them.
pub fn topk_allgather_allreduce_with<C: Net>(
    comm: &mut C,
    local: CooGradient,
    finish: impl FnOnce(&mut CooGradient),
) -> Arc<CooGradient> {
    comm.set_phase("topk_a");
    allgather_assembled(comm, local, |all| {
        let mut sum = CooGradient::merge_sum_many(all);
        finish(&mut sum);
        sum
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use simnet::{Cluster, CostModel};
    use sparse::select::topk_exact;

    fn random_dense(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn matches_serial_reference() {
        let (p, n, k) = (4, 200, 20);
        let mut rng = StdRng::seed_from_u64(9);
        let dense: Vec<Vec<f32>> = (0..p).map(|_| random_dense(n, &mut rng)).collect();
        let locals: Vec<CooGradient> = dense.iter().map(|d| topk_exact(d, k)).collect();

        let mut expect = CooGradient::new();
        for l in &locals {
            expect.merge_sum_into(l);
        }

        let report = Cluster::new(p, CostModel::aries())
            .run(|comm| topk_allgather_allreduce(comm, locals[comm.rank()].clone()));
        for got in &report.results {
            assert_eq!(**got, expect);
        }
    }

    #[test]
    fn volume_is_2k_p_minus_1_per_rank() {
        let (p, n, k) = (8, 4096, 64);
        let mut rng = StdRng::seed_from_u64(1);
        let dense: Vec<Vec<f32>> = (0..p).map(|_| random_dense(n, &mut rng)).collect();
        let locals: Vec<CooGradient> = dense.iter().map(|d| topk_exact(d, k)).collect();

        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            topk_allgather_allreduce(comm, locals[comm.rank()].clone());
        });
        // Every rank ends holding P sparse gradients of 2k elements each; total
        // traffic (send side, recursive doubling) equals receive side: 2k(P−1) per rank.
        let expected_total = (2 * k * (p - 1) * p) as u64;
        let total = report.ledger.total_elements();
        assert_eq!(total, expected_total);
    }

    #[test]
    fn overlapping_supports_merge() {
        // All ranks select the same indexes: result support stays k.
        let p = 4;
        let local = CooGradient::from_sorted(vec![1, 5, 9], vec![1.0, 2.0, 3.0]);
        let locals: Vec<CooGradient> = (0..p).map(|_| local.clone()).collect();
        let report = Cluster::new(p, CostModel::free())
            .run(|comm| topk_allgather_allreduce(comm, locals[comm.rank()].clone()));
        for got in &report.results {
            assert_eq!(got.indexes(), &[1, 5, 9]);
            assert_eq!(got.values(), &[4.0, 8.0, 12.0]);
        }
    }
}
