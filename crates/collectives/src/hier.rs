//! Hierarchical (two-tier) collectives: intra-node reduce → inter-node exchange
//! among node leaders → intra-node broadcast.
//!
//! On a real cluster the links inside a node (NVLink, shared memory) are orders
//! of magnitude faster than the network between nodes, and the inter-node
//! fabric is often oversubscribed. A flat collective sends the same traffic
//! over both tiers; the hierarchical decomposition confines all but one
//! node-sized exchange to the fast tier, so inter-node volume and round count
//! drop from `f(P)` to `f(P / ranks_per_node)`.
//!
//! [`two_tier`] is the one place the node and leader groups are formed; each
//! scheme here is three closures handed to it. With `rpn = 1` every rank is its
//! own leader and each algorithm degenerates to its flat counterpart — that is
//! the behaviour on a cluster with no topology installed.

use crate::dense::{allreduce_shared, broadcast, broadcast_shared, reduce_scatter_block};
use crate::gtopk::{gtopk_allreduce, gtopk_reduce_to_root};
use simnet::{Comm, GroupComm, Net};
use sparse::CooGradient;
use std::sync::Arc;

/// Tag for gathering reduce-scattered shards at the node leader.
const TAG_HIER_GATHER: u64 = 0x41;

/// Reserved [`GroupComm`] id of the inter-node leader group. Node groups use
/// their node index as id, so node counts must stay below this value.
pub const LEADER_GROUP: u16 = 0xFFFF;

/// The effective ranks-per-node for hierarchical schemes on `comm`: the
/// installed topology's grouping clamped to the cluster size, or 1 when no
/// topology is installed (every rank its own leader — the flat degeneration).
pub fn ranks_per_node(comm: &Comm) -> usize {
    comm.topology().map_or(1, |t| t.ranks_per_node()).clamp(1, comm.size())
}

/// The two-tier skeleton every hierarchical scheme is an instance of. Each
/// node's ranks `[node·rpn, min((node+1)·rpn, P))` form a [`GroupComm`] whose
/// id is the node index (a partial last node is a smaller group); the node
/// *leaders* (global rank `node·rpn`, group rank 0) form a second one with the
/// reserved id [`LEADER_GROUP`]. `up` runs on the node group at every rank and
/// leaves what the node contributes at its leader; `across` runs on the leader
/// group, at leaders only, on what `up` returned there; `down` runs on the node
/// group again at every rank, the leader getting `Some` of what `across`
/// returned to hand to its node. Traffic is ledgered under `phase`, re-asserted
/// before `down` because the flat collective `across` runs may have set its own.
///
/// Returns what `down` returned — or, when `rpn` clamped to `[1, P]` is 1,
/// `None`: every rank is its own leader, no closure ran, and the caller runs
/// its flat scheme on `comm` itself.
pub fn two_tier<C: Net, U, A, R>(
    comm: &mut C,
    rpn: usize,
    phase: &'static str,
    up: impl FnOnce(&mut GroupComm<'_, C>) -> U,
    across: impl FnOnce(&mut GroupComm<'_, C>, U) -> A,
    down: impl FnOnce(&mut GroupComm<'_, C>, Option<A>) -> R,
) -> Option<R> {
    let (size, rank) = (comm.size(), comm.rank());
    let rpn = rpn.clamp(1, size);
    if rpn == 1 {
        return None;
    }
    assert!(size.div_ceil(rpn) < LEADER_GROUP as usize, "node count exceeds group-id space");
    comm.set_phase(phase);
    let lo = rank / rpn * rpn;
    let mut node = GroupComm::new(comm, (lo..(lo + rpn).min(size)).collect(), (rank / rpn) as u16);
    let contribution = up(&mut node);
    let led = (rank == lo).then(|| {
        let leaders = (0..size).step_by(rpn).collect();
        across(&mut GroupComm::new(node.global(), leaders, LEADER_GROUP), contribution)
    });
    node.set_phase(phase);
    Some(down(&mut node, led))
}

/// Dense sum-reduce to rank 0 of `comm`, in place at the root: reduce-scatter,
/// then gather the fully-reduced shards at the root. On return rank 0's `data`
/// holds the communicator-wide sum. `data` is only *read* on every other rank —
/// a non-root buffer comes back exactly as it went in.
///
/// This is the intra-node phase of the hierarchical schemes, exposed so
/// Ok-Topk's hierarchical variant can leave the node sum at the leader for a
/// single re-selection instead of paying a full intra-node allreduce.
pub fn reduce_to_root_dense<C: Net>(comm: &mut C, data: &mut [f32]) {
    if comm.size() == 1 {
        return;
    }
    let shard = reduce_scatter_block(comm, data);
    gather_at_root(comm, shard, data);
}

/// [`reduce_to_root_dense`] out of place: `data` is read-only on every rank;
/// rank 0 gets the communicator-wide sum in `out` (resized to `data.len()`),
/// and every other rank's `out` is left untouched. Same messages in the same
/// order as the in-place entry, so clocks and ledgers are identical — but a
/// caller that only borrows its input needs no copy of it, and only the root
/// ever holds a destination buffer.
pub fn reduce_to_root_dense_into<C: Net>(comm: &mut C, data: &[f32], out: &mut Vec<f32>) {
    if comm.rank() == 0 {
        out.resize(data.len(), 0.0);
    }
    if comm.size() == 1 {
        out.copy_from_slice(data);
        return;
    }
    let shard = reduce_scatter_block(comm, data);
    gather_at_root(comm, shard, out);
}

/// Second half of a reduce-to-root: every rank hands in the `(offset, shard)`
/// [`reduce_scatter_block`] left it with; rank 0 assembles the shards in `out`
/// (the full vector's length), every other rank sends its shard and never
/// touches `out`.
fn gather_at_root<C: Net>(comm: &mut C, (offset, mine): (usize, Vec<f32>), out: &mut [f32]) {
    if comm.rank() != 0 {
        return comm.send(0, TAG_HIER_GATHER, mine);
    }
    let (gsize, n) = (comm.size(), out.len());
    out[offset..offset + mine.len()].copy_from_slice(&mine);
    for src in 1..gsize {
        // Shard boundaries are the deterministic equal partition, so only
        // the payload travels.
        let lo = n * src / gsize;
        let got: Vec<f32> = comm.recv(src, TAG_HIER_GATHER);
        out[lo..lo + got.len()].copy_from_slice(&got);
        comm.recycle_f32(got);
    }
}

/// Hierarchical dense sum-allreduce, out of place with a shared result:
/// intra-node reduce-scatter + gather into the leader's `node_sum`,
/// leader-group [`allreduce_shared`] (which applies `finish`), intra-node
/// broadcast of the result's handle.
///
/// `grad` must have the same length on every rank and is only read; every rank
/// returns a handle to the same allocation. `node_sum` is written on node
/// leaders only (a leader that keeps it between calls allocates it once); off
/// the leader a rank allocates and copies nothing n-sized. With `rpn = 1` this
/// is exactly [`allreduce_shared`].
pub fn hier_dense_shared<C: Net>(
    comm: &mut C,
    grad: &[f32],
    rpn: usize,
    node_sum: &mut Vec<f32>,
    finish: impl FnOnce(&mut [f32]),
) -> Arc<Vec<f32>> {
    // `across` takes `finish` only if the skeleton runs; when it answers
    // `None` the flat call below still finds it here.
    let mut finish = Some(finish);
    let hier = two_tier(
        comm,
        rpn,
        "hier-dense",
        // Up: reduce-scatter the node sum across the node group, then gather
        // the shards at the leader. Bandwidth-optimal on the fast tier and
        // leaves the leader with the full node-local sum.
        |node| {
            reduce_to_root_dense_into(node, grad, node_sum);
            &*node_sum
        },
        // Across: leaders allreduce their node sums over the slow tier.
        |leaders, node_sum| {
            allreduce_shared(leaders, node_sum, 0.0, finish.take().expect("across runs once"))
        },
        // Down: the leader broadcasts the global sum's handle within its node.
        |node, global| broadcast_shared(node, 0, global),
    );
    hier.unwrap_or_else(|| {
        allreduce_shared(comm, grad, 0.0, finish.take().expect("two_tier ran nothing"))
    })
}

/// In-place form of [`hier_dense_shared`]: afterwards every rank's `data` holds
/// the global sum. With `rpn = 1` this is exactly [`allreduce_inplace`].
///
/// [`allreduce_inplace`]: crate::dense::allreduce_inplace
pub fn hier_dense_allreduce<C: Net>(comm: &mut C, data: &mut [f32], rpn: usize) {
    let sum = hier_dense_shared(comm, data, rpn, &mut Vec::new(), |_| {});
    data.copy_from_slice(&sum);
}

/// Hierarchical gTopk sparse allreduce: intra-node reduction tree with top-k
/// re-selection (result at the node leader), leader-group [`gtopk_allreduce`],
/// intra-node broadcast of the global selection.
///
/// Every rank returns the same ≤k-sparse gradient. The re-selection tree is the
/// same merge rule as flat gTopk, only regrouped so `log(rpn)` of its levels run
/// on the fast tier and `log(nodes)` on the slow one. With `rpn = 1` this is
/// exactly [`gtopk_allreduce`].
pub fn hier_gtopk_allreduce<C: Net>(
    comm: &mut C,
    local: CooGradient,
    k: usize,
    rpn: usize,
) -> CooGradient {
    // Moved through an `Option` for the same reason as `finish` above.
    let mut local = Some(local);
    let hier = two_tier(
        comm,
        rpn,
        "hier-gtopk",
        // Up: tree-reduce with re-selection; the leader (group rank 0) ends up
        // holding the node's top-k.
        |node| gtopk_reduce_to_root(node, local.take().expect("up runs once"), k),
        // Across: leaders run the flat gTopk allreduce among themselves.
        |leaders, node_topk| {
            gtopk_allreduce(leaders, node_topk.expect("leader holds its node's reduction"), k)
        },
        // Down: the leader broadcasts the global selection within its node.
        |node, global| broadcast(node, 0, global),
    );
    hier.unwrap_or_else(|| gtopk_allreduce(comm, local.take().expect("two_tier ran nothing"), k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::allreduce_inplace;
    use rand::prelude::*;
    use simnet::{Cluster, CostModel, Topology};
    use sparse::select::topk_exact;

    fn make_inputs(p: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p).map(|_| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
    }

    fn reference_sum(inputs: &[Vec<f32>]) -> Vec<f32> {
        let mut sum = vec![0.0f32; inputs[0].len()];
        for v in inputs {
            for (s, x) in sum.iter_mut().zip(v) {
                *s += x;
            }
        }
        sum
    }

    #[test]
    fn hier_dense_matches_reference_across_shapes() {
        // Pow2 and non-pow2 cluster sizes, full and partial last nodes.
        for (p, rpn) in [(4usize, 2usize), (8, 2), (8, 4), (6, 4), (7, 2), (8, 8), (8, 1)] {
            let n = 103;
            let inputs = make_inputs(p, n, 17 + p as u64 + rpn as u64);
            let expect = reference_sum(&inputs);
            let report = Cluster::new(p, CostModel::aries()).run(move |comm| {
                let mut data = inputs[comm.rank()].clone();
                hier_dense_allreduce(comm, &mut data, rpn);
                data
            });
            for (rank, got) in report.results.iter().enumerate() {
                for (g, e) in got.iter().zip(&expect) {
                    assert!((g - e).abs() < 1e-4, "p={p} rpn={rpn} rank={rank}: {g} vs {e}");
                }
            }
        }
    }

    #[test]
    fn hier_dense_all_ranks_agree_bitwise() {
        let (p, rpn, n) = (8, 4, 64);
        let inputs = make_inputs(p, n, 5);
        let report = Cluster::new(p, CostModel::aries()).run(move |comm| {
            let mut data = inputs[comm.rank()].clone();
            hier_dense_allreduce(comm, &mut data, rpn);
            data
        });
        for got in &report.results[1..] {
            assert_eq!(got, &report.results[0]);
        }
    }

    fn random_topk(p: usize, n: usize, k: usize, seed: u64) -> Vec<CooGradient> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p)
            .map(|_| {
                let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                topk_exact(&dense, k)
            })
            .collect()
    }

    #[test]
    fn hier_gtopk_identical_supports_give_exact_sum() {
        // Fully overlapping supports lose nothing to re-selection at any tier split.
        for rpn in [1usize, 2, 4] {
            let p = 8;
            let base = CooGradient::from_sorted(vec![2, 7, 40], vec![0.5, -1.0, 2.0]);
            let report = Cluster::new(p, CostModel::free())
                .run(move |comm| hier_gtopk_allreduce(comm, base.clone(), 3, rpn));
            for got in &report.results {
                assert_eq!(got.indexes(), &[2, 7, 40], "rpn={rpn}");
                assert_eq!(got.values(), &[4.0, -8.0, 16.0], "rpn={rpn}");
            }
        }
    }

    #[test]
    fn hier_gtopk_agrees_and_bounds_nnz() {
        for (p, rpn) in [(8usize, 2usize), (8, 4), (6, 4), (12, 4)] {
            let (n, k) = (500, 16);
            let locals = random_topk(p, n, k, 23);
            let report = Cluster::new(p, CostModel::aries())
                .run(move |comm| hier_gtopk_allreduce(comm, locals[comm.rank()].clone(), k, rpn));
            for got in &report.results[1..] {
                assert_eq!(got, &report.results[0], "p={p} rpn={rpn}");
            }
            assert!(report.results[0].nnz() <= k);
        }
    }

    #[test]
    fn hier_gtopk_rpn1_is_flat_gtopk_bitwise() {
        let (p, n, k) = (8, 400, 24);
        let locals = random_topk(p, n, k, 31);
        let l2 = locals.clone();
        let flat = Cluster::new(p, CostModel::aries())
            .run(move |comm| gtopk_allreduce(comm, locals[comm.rank()].clone(), k));
        let hier = Cluster::new(p, CostModel::aries())
            .run(move |comm| hier_gtopk_allreduce(comm, l2[comm.rank()].clone(), k, 1));
        assert_eq!(flat.results, hier.results);
    }

    #[test]
    fn hier_dense_cuts_inter_node_traffic() {
        // Under a two-tier topology the hierarchical variant must move fewer
        // bytes over inter-node links than the flat allreduce.
        let (p, rpn, n) = (8usize, 4usize, 1 << 12);
        let topo = Topology::two_tier(rpn, (1e-6, 1e-9), (25e-6, 8e-9));
        let inter = |topo: Topology, hier: bool| -> u64 {
            let inputs = make_inputs(p, n, 9);
            let report = Cluster::new(p, CostModel::aries())
                .with_topology(topo)
                .with_obs(true)
                .run(move |comm| {
                    let mut data = inputs[comm.rank()].clone();
                    if hier {
                        hier_dense_allreduce(comm, &mut data, rpn);
                    } else {
                        allreduce_inplace(comm, &mut data);
                    }
                });
            match report.metrics.get("net.inter_bytes") {
                Some(obs::MetricValue::PerRankU64(v)) => v.iter().sum(),
                other => panic!("missing inter_bytes counter: {other:?}"),
            }
        };
        let flat_bytes = inter(topo, false);
        let hier_bytes = inter(topo, true);
        assert!(
            hier_bytes < flat_bytes / 2,
            "hier moved {hier_bytes} inter-node bytes vs flat {flat_bytes}"
        );
    }
}
