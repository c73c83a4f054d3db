//! gTopk: tree-based sparse allreduce with hierarchical re-selection (§2, \[42\]).
//!
//! A binary reduction tree merges pairs of k-sparse gradients and *re-selects the
//! top-k* of every merge, so the payload never exceeds 2k elements — that is how
//! gTopk defeats fill-in, at the price of discarding information at every level
//! (the result is an approximation of the true global top-k) and of paying the
//! selection cost `log P` times. A broadcast tree then distributes the final
//! top-k, for `4k·log P` total volume (Table 1).

use crate::dense::broadcast;
use simnet::Net;
use sparse::select::topk_exact;
use sparse::CooGradient;

const TAG_GTOPK: u64 = 0x30;

/// Re-select the k entries of largest magnitude from a merged COO gradient.
fn reselect(g: &CooGradient, k: usize) -> CooGradient {
    if g.nnz() <= k {
        return g.clone();
    }
    // Selection over the nnz values only (cheap: nnz ≤ 2k here), then re-assemble.
    let dense_vals: Vec<f32> = g.values().to_vec();
    let picked = topk_exact(&dense_vals, k);
    let keep: std::collections::HashSet<u32> = picked.indexes().iter().copied().collect();
    let mut idx = Vec::with_capacity(k);
    let mut val = Vec::with_capacity(k);
    for (pos, (i, v)) in g.iter().enumerate() {
        if keep.contains(&(pos as u32)) {
            idx.push(i);
            val.push(v);
        }
    }
    CooGradient::from_sorted(idx, val)
}

/// The reduction-tree phase of gTopk: merge pairs with top-k re-selection until
/// rank 0 holds the final ≤k-sparse selection. Returns `Some` on rank 0, `None`
/// everywhere else.
///
/// Exposed separately so hierarchical schemes can run the tree *within a node
/// group* (leaving the result at the node leader) without paying for the
/// broadcast that [`gtopk_allreduce`] appends.
pub fn gtopk_reduce_to_root<C: Net>(
    comm: &mut C,
    local: CooGradient,
    k: usize,
) -> Option<CooGradient> {
    let p = comm.size();
    let rank = comm.rank();
    if p == 1 {
        return Some(reselect(&local, k));
    }

    let mut data = local;
    // Fold ranks beyond the largest power of two into the main tree first.
    // COO gradients travel as moved (indexes, values) pairs — the pooled wire
    // fast path — with identical 2k wire accounting; a sender's role in the
    // reduction ends at its send, so nothing needs cloning.
    let m = if p.is_power_of_two() { p } else { 1 << (usize::BITS - 1 - p.leading_zeros()) };
    if rank >= m {
        comm.send(rank - m, TAG_GTOPK, std::mem::take(&mut data).into_parts());
        return None;
    } else if rank + m < p {
        let (idx, val): (Vec<u32>, Vec<f32>) = comm.recv(rank + m, TAG_GTOPK);
        let got = CooGradient::from_sorted(idx, val);
        data = reselect(&data.merge_sum(&got), k);
    }

    // Binary reduction tree over the first m ranks.
    let mut dist = 1;
    while dist < m {
        if rank & (2 * dist - 1) == dist {
            comm.send(rank - dist, TAG_GTOPK, std::mem::take(&mut data).into_parts());
            return None; // this rank's role in the reduction is done
        } else if rank & (2 * dist - 1) == 0 {
            let (idx, val): (Vec<u32>, Vec<f32>) = comm.recv(rank + dist, TAG_GTOPK);
            let got = CooGradient::from_sorted(idx, val);
            data = reselect(&data.merge_sum(&got), k);
        }
        dist *= 2;
    }

    debug_assert_eq!(rank, 0);
    Some(data)
}

/// gTopk sparse allreduce: reduction tree with per-level top-k re-selection, then a
/// binomial broadcast of the result. Every rank returns the same ≤k-sparse gradient.
pub fn gtopk_allreduce<C: Net>(comm: &mut C, local: CooGradient, k: usize) -> CooGradient {
    comm.set_phase("gtopk");
    let root_value = gtopk_reduce_to_root(comm, local, k);
    // Broadcast the final selection from rank 0 to everyone (all P ranks).
    broadcast(comm, 0, root_value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use simnet::{Cluster, CostModel};

    /// Serial emulation of the same tree (fold + binary reduction) for pow2 + fold.
    fn reference(locals: &[CooGradient], k: usize) -> CooGradient {
        let p = locals.len();
        let m = if p.is_power_of_two() {
            p
        } else {
            1 << (usize::BITS - 1 - p.leading_zeros()) as usize
        };
        let mut layer: Vec<CooGradient> = locals[..m].to_vec();
        for r in m..p {
            layer[r - m] = reselect(&layer[r - m].merge_sum(&locals[r]), k);
        }
        let mut dist = 1;
        while dist < m {
            let mut i = 0;
            while i + dist < m {
                if i & (2 * dist - 1) == 0 {
                    layer[i] = reselect(&layer[i].merge_sum(&layer[i + dist]), k);
                }
                i += 2 * dist;
            }
            dist *= 2;
        }
        layer[0].clone()
    }

    fn random_locals(p: usize, n: usize, k: usize, seed: u64) -> Vec<CooGradient> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p)
            .map(|_| {
                let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                topk_exact(&dense, k)
            })
            .collect()
    }

    #[test]
    fn matches_serial_tree_emulation() {
        for (p, seed) in [(2usize, 1u64), (4, 2), (8, 3), (16, 4), (3, 5), (6, 6), (12, 7)] {
            let (n, k) = (300, 24);
            let locals = random_locals(p, n, k, seed);
            let expect = reference(&locals, k);
            let report = Cluster::new(p, CostModel::aries())
                .run(|comm| gtopk_allreduce(comm, locals[comm.rank()].clone(), k));
            for got in &report.results {
                assert_eq!(got, &expect, "p={p}");
            }
        }
    }

    #[test]
    fn result_has_at_most_k_entries() {
        let (p, n, k) = (8, 500, 16);
        let locals = random_locals(p, n, k, 11);
        let report = Cluster::new(p, CostModel::aries())
            .run(|comm| gtopk_allreduce(comm, locals[comm.rank()].clone(), k));
        for got in &report.results {
            assert_eq!(got.nnz(), k);
        }
    }

    #[test]
    fn identical_supports_give_exact_sum() {
        // With fully overlapping supports, no information is discarded: the result
        // is the exact sparse sum.
        let p = 8;
        let base = CooGradient::from_sorted(vec![2, 7, 40], vec![0.5, -1.0, 2.0]);
        let locals: Vec<CooGradient> = (0..p).map(|_| base.clone()).collect();
        let report = Cluster::new(p, CostModel::free())
            .run(|comm| gtopk_allreduce(comm, locals[comm.rank()].clone(), 3));
        for got in &report.results {
            assert_eq!(got.indexes(), &[2, 7, 40]);
            assert_eq!(got.values(), &[4.0, -8.0, 16.0]);
        }
    }

    #[test]
    fn reselect_keeps_largest_magnitudes() {
        let g = CooGradient::from_sorted(vec![0, 1, 2, 3], vec![0.1, -5.0, 3.0, -0.2]);
        let r = reselect(&g, 2);
        assert_eq!(r.indexes(), &[1, 2]);
        assert_eq!(r.values(), &[-5.0, 3.0]);
    }

    #[test]
    fn volume_scales_with_log_p_not_p() {
        // Total traffic of gTopk is Θ(k·P) across the whole cluster (each rank
        // participates O(1) sends in the reduction + O(1) in the broadcast on
        // average), but the *critical path* per rank is O(k log P). Check total stays
        // linear in P while TopkA's is quadratic: at P=16 gTopk must move far less.
        let (n, k) = (4096, 64);
        let p = 16;
        let locals = random_locals(p, n, k, 13);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            gtopk_allreduce(comm, locals[comm.rank()].clone(), k);
        });
        let total = report.ledger.total_elements();
        // Reduction: ≤ (P−1)·2k; broadcast: ≤ (P−1)·2k.
        assert!(total <= (2 * (p as u64 - 1)) * (2 * k as u64));
    }
}
