//! TopkDSA: SparCML's dynamic sparse allreduce (§2, \[36\]).
//!
//! Sparse reduce-scatter (recursive halving over the index space) followed by an
//! allgatherv of the owned chunks. The support of the partial sums grows with every
//! merge — the *fill-in* problem — so each message picks the cheaper wire format:
//! COO (`2·nnz` elements) or dense (`span` elements). When fill-in passes the
//! switch-over point the algorithm effectively degrades toward a dense allreduce,
//! which is the behaviour the paper measures in Fig. 12 and quantifies in §5.2
//! (output density expanding to 13.2% / 34.5%).

use crate::dense::allgather_items;
use simnet::{Net, WireSize};
use sparse::partition::equal_boundaries;
use sparse::CooGradient;
use std::borrow::Cow;

const TAG_DSA: u64 = 0x20;

/// Wire format of one reduce-scatter chunk: whichever of COO and dense is smaller.
#[derive(Debug)]
enum DsaMsg {
    Sparse(CooGradient),
    Dense { offset: u32, values: Vec<f32> },
}

impl WireSize for DsaMsg {
    fn wire_elems(&self) -> u64 {
        match self {
            DsaMsg::Sparse(g) => g.wire_elems(),
            // +1 for the offset word.
            DsaMsg::Dense { values, .. } => values.len() as u64 + 1,
        }
    }
}

impl DsaMsg {
    /// Encode a COO shard covering `[lo, hi)`, choosing the cheaper
    /// representation. Takes the shard by value: the sparse case moves it onto
    /// the wire without copying.
    fn encode(shard: CooGradient, lo: u32, hi: u32) -> Self {
        let span = (hi - lo) as usize;
        if 2 * shard.nnz() <= span {
            DsaMsg::Sparse(shard)
        } else {
            let mut values = vec![0.0f32; span];
            for (i, v) in shard.iter() {
                values[(i - lo) as usize] = v;
            }
            DsaMsg::Dense { offset: lo, values }
        }
    }

    /// Decode back to COO (lossless: a dense chunk's zeros carry no information).
    /// A sparse chunk is read where it lies — after the allgather it is shared
    /// by every rank.
    fn decode(&self) -> Cow<'_, CooGradient> {
        match self {
            DsaMsg::Sparse(g) => Cow::Borrowed(g),
            DsaMsg::Dense { offset, values } => {
                let mut idx = Vec::new();
                let mut val = Vec::new();
                for (i, &v) in values.iter().enumerate() {
                    if v != 0.0 {
                        idx.push(offset + i as u32);
                        val.push(v);
                    }
                }
                Cow::Owned(CooGradient::from_sorted(idx, val))
            }
        }
    }

    fn is_dense(&self) -> bool {
        matches!(self, DsaMsg::Dense { .. })
    }
}

/// Fill-in statistics of one TopkDSA invocation on one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DsaStats {
    /// Nonzeros in the final (global) result.
    pub output_nnz: usize,
    /// `output_nnz / n` — the §5.2 density-expansion metric.
    pub output_density: f64,
    /// Whether any message fell back to the dense wire format.
    pub switched_dense: bool,
}

/// Result of a TopkDSA allreduce.
#[derive(Clone, Debug)]
pub struct DsaOutput {
    /// The reduced gradient (union support of all contributions).
    pub sum: CooGradient,
    /// Fill-in statistics of this invocation.
    pub stats: DsaStats,
}

/// SparCML-style dynamic sparse allreduce.
///
/// `n` is the dense gradient length (defines the index space). Power-of-two rank
/// counts use recursive halving; other sizes use a direct-exchange reduce-scatter
/// (same bandwidth, more messages), as noted in DESIGN.md.
pub fn dsa_allreduce<C: Net>(comm: &mut C, local: CooGradient, n: usize) -> DsaOutput {
    comm.set_phase("topk_dsa");
    let p = comm.size();
    if p == 1 {
        let nnz = local.nnz();
        return DsaOutput {
            sum: local,
            stats: DsaStats {
                output_nnz: nnz,
                output_density: nnz as f64 / n.max(1) as f64,
                switched_dense: false,
            },
        };
    }
    let bounds = equal_boundaries(n as u32, p);
    let mut switched = false;

    let (owned_region, owned) = if p.is_power_of_two() {
        recursive_halving(comm, local, &bounds, &mut switched)
    } else {
        direct_exchange(comm, local, &bounds, &mut switched)
    };

    // Allgatherv of owned chunks; again pick the cheaper wire format per chunk.
    let msg = DsaMsg::encode(owned, bounds[owned_region], bounds[owned_region + 1]);
    switched |= msg.is_dense();
    let all = allgather_items(comm, msg);
    let shards: Vec<Cow<CooGradient>> = all.iter().map(|m| m.decode()).collect();
    let sum = CooGradient::concat_ordered(&shards);
    let output_nnz = sum.nnz();
    DsaOutput {
        sum,
        stats: DsaStats {
            output_nnz,
            output_density: output_nnz as f64 / n.max(1) as f64,
            switched_dense: switched,
        },
    }
}

/// Recursive-halving sparse reduce-scatter (power-of-two P). Returns the region index
/// this rank ends up owning and its fully reduced COO chunk.
fn recursive_halving<C: Net>(
    comm: &mut C,
    mut data: CooGradient,
    bounds: &[u32],
    switched: &mut bool,
) -> (usize, CooGradient) {
    let p = comm.size();
    let rank = comm.rank();
    let (mut seg_lo, mut seg_len) = (0usize, p);
    let mut dist = p / 2;
    while dist >= 1 {
        let partner = rank ^ dist;
        let mid = seg_lo + seg_len / 2;
        let (keep, give) = if rank & dist == 0 {
            ((seg_lo, mid), (mid, seg_lo + seg_len))
        } else {
            ((mid, seg_lo + seg_len), (seg_lo, mid))
        };
        // Split the current chunk at the keep/give boundary and move both
        // halves out (the give half goes straight onto the wire).
        let mut halves = data
            .split_by_boundaries(&[
                bounds[keep.0.min(give.0)],
                bounds[mid],
                bounds[keep.1.max(give.1)],
            ])
            .into_iter();
        let lower = halves.next().expect("two regions");
        let upper = halves.next().expect("two regions");
        let (keep_shard, give_shard) =
            if keep.0 < give.0 { (lower, upper) } else { (upper, lower) };
        let msg = DsaMsg::encode(give_shard, bounds[give.0], bounds[give.1]);
        *switched |= msg.is_dense();
        let got: DsaMsg = comm.sendrecv(partner, TAG_DSA, msg, partner, TAG_DSA);
        data = keep_shard.merge_sum(&got.decode());
        seg_lo = keep.0;
        seg_len /= 2;
        dist /= 2;
    }
    (seg_lo, data)
}

/// Direct-exchange sparse reduce-scatter for arbitrary P: shard by region, send
/// region j to rank j (rotated), merge incoming shards of our own region.
fn direct_exchange<C: Net>(
    comm: &mut C,
    data: CooGradient,
    bounds: &[u32],
    switched: &mut bool,
) -> (usize, CooGradient) {
    let p = comm.size();
    let rank = comm.rank();
    let mut shards = data.split_by_boundaries(bounds);
    let mut mine = std::mem::take(&mut shards[rank]);
    for s in 1..p {
        let dst = (rank + s) % p;
        let msg = DsaMsg::encode(std::mem::take(&mut shards[dst]), bounds[dst], bounds[dst + 1]);
        *switched |= msg.is_dense();
        comm.send(dst, TAG_DSA, msg);
    }
    for s in 1..p {
        let src = (rank + p - s) % p;
        let got: DsaMsg = comm.recv(src, TAG_DSA);
        mine.merge_sum_into(&got.decode());
    }
    (rank, mine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use simnet::{Cluster, CostModel};
    use sparse::select::topk_exact;

    fn reference(locals: &[CooGradient]) -> CooGradient {
        let mut sum = CooGradient::new();
        for l in locals {
            sum.merge_sum_into(l);
        }
        sum
    }

    /// Same support, values equal up to f32 tree-reduction reassociation.
    fn assert_coo_close(a: &CooGradient, b: &CooGradient) {
        assert_eq!(a.indexes(), b.indexes());
        for (x, y) in a.values().iter().zip(b.values()) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    fn check(p: usize, n: usize, k: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let locals: Vec<CooGradient> = (0..p)
            .map(|_| {
                let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                topk_exact(&dense, k)
            })
            .collect();
        let expect = reference(&locals);
        let report = Cluster::new(p, CostModel::aries())
            .run(|comm| dsa_allreduce(comm, locals[comm.rank()].clone(), n));
        for out in &report.results {
            assert_coo_close(&out.sum, &expect);
            assert_eq!(out.stats.output_nnz, expect.nnz(), "p={p} n={n} k={k}");
        }
    }

    #[test]
    fn matches_reference_pow2() {
        check(2, 128, 16, 1);
        check(4, 200, 20, 2);
        check(8, 512, 30, 3);
        check(16, 1024, 10, 4);
    }

    #[test]
    fn matches_reference_non_pow2() {
        check(3, 100, 10, 5);
        check(6, 300, 25, 6);
    }

    #[test]
    fn dense_switchover_fires_at_high_density() {
        // k large relative to n: fill-in makes COO > dense quickly.
        let (p, n, k) = (8, 256, 100);
        let mut rng = StdRng::seed_from_u64(7);
        let locals: Vec<CooGradient> = (0..p)
            .map(|_| {
                let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(0.5f32..1.0)).collect();
                topk_exact(&dense, k)
            })
            .collect();
        let expect = reference(&locals);
        let report = Cluster::new(p, CostModel::aries())
            .run(|comm| dsa_allreduce(comm, locals[comm.rank()].clone(), n));
        for out in &report.results {
            assert_coo_close(&out.sum, &expect);
            assert!(out.stats.switched_dense, "expected dense switch-over");
            assert!(out.stats.output_density > 0.9);
        }
    }

    #[test]
    fn disjoint_supports_maximize_fill_in() {
        // Each rank selects a disjoint slice: output nnz = P·k (full fill-in).
        let (p, n, k) = (4, 400, 25);
        let locals: Vec<CooGradient> = (0..p)
            .map(|r| {
                let idx: Vec<u32> = (0..k as u32).map(|i| (r * 100) as u32 + i).collect();
                let val: Vec<f32> = (0..k).map(|i| 1.0 + i as f32).collect();
                CooGradient::from_sorted(idx, val)
            })
            .collect();
        let report = Cluster::new(p, CostModel::aries())
            .run(|comm| dsa_allreduce(comm, locals[comm.rank()].clone(), n));
        for out in &report.results {
            assert_eq!(out.stats.output_nnz, p * k);
        }
    }

    #[test]
    fn identical_supports_have_no_fill_in() {
        let (p, n) = (8, 1000);
        let base = CooGradient::from_sorted(vec![3, 500, 999], vec![1.0, -2.0, 0.5]);
        let locals: Vec<CooGradient> = (0..p).map(|_| base.clone()).collect();
        let report = Cluster::new(p, CostModel::aries())
            .run(|comm| dsa_allreduce(comm, locals[comm.rank()].clone(), n));
        for out in &report.results {
            assert_eq!(out.stats.output_nnz, 3);
            assert_eq!(out.sum.values(), &[8.0, -16.0, 4.0]);
            assert!(!out.stats.switched_dense);
        }
    }

    #[test]
    fn single_rank_passthrough() {
        let g = CooGradient::from_sorted(vec![1, 2], vec![1.0, 2.0]);
        let report =
            Cluster::new(1, CostModel::free()).run(|comm| dsa_allreduce(comm, g.clone(), 10));
        assert_eq!(report.results[0].sum, g);
        assert_eq!(report.results[0].stats.output_density, 0.2);
    }
}
