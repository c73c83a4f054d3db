//! Phase 1 of Algorithm 1: *split and reduce* (§3.1.1, Figs. 1–2).
//!
//! Each worker selects its local top-k values (by the reused threshold), splits them
//! into P regions along the agreed boundaries, and sends region `j` to worker `j`.
//! Worker `j` merges the P incoming shards into the reduced partial sum of its
//! region. Two communication optimizations from the paper:
//!
//! - **Destination rotation** (Fig. 2b): at step `s`, worker `i` targets worker
//!   `(i+s) mod P`, so no single endpoint is hit by everyone at once.
//! - **Bucketing**: sends are issued in buckets of non-blocking messages; the local
//!   reduction of the previous bucket's arrivals overlaps the current bucket's
//!   transfers.

use crate::config::OkTopkConfig;
use simnet::Net;
use sparse::{CooGradient, SelectScratch};

const TAG_SPLIT: u64 = 0x40;

/// Result of split-and-reduce on one worker. The caller still holds the local
/// top-k selection it passed in, so only the reduced region travels back.
pub struct SplitReduceOutput {
    /// Sum over all workers of their local top-k entries falling in *my* region.
    pub reduced_region: CooGradient,
    /// Number of local top-k values selected (Fig. 6 instrumentation).
    pub local_nnz: usize,
}

/// Run split-and-reduce: `local` is this worker's threshold-selected sparse
/// accumulator, `boundaries` the agreed `P+1` region boundaries. `scratch`
/// provides the spare buffers for the allocation-free shard merges (and
/// receives the storage of consumed incoming shards for reuse).
pub fn split_and_reduce<C: Net>(
    comm: &mut C,
    cfg: &OkTopkConfig,
    local: &CooGradient,
    boundaries: &[u32],
    scratch: &mut SelectScratch,
) -> SplitReduceOutput {
    comm.set_phase("okt_split_reduce");
    let p = comm.size();
    let rank = comm.rank();
    let local_nnz = local.nnz();

    if p == 1 {
        return SplitReduceOutput { reduced_region: local.clone(), local_nnz };
    }

    debug_assert_eq!(boundaries.len(), p + 1, "one region per rank");
    debug_assert_eq!(boundaries[0], 0, "regions must cover the index space from 0");
    debug_assert!(
        local.indexes().last().is_none_or(|&i| i < boundaries[p]),
        "a selected index at or past the last boundary lies in no region and would be dropped"
    );

    // Region j is sliced out of the sorted selection when its message is built,
    // and copied only into that message: no P shards are held at once. One
    // cursor walks the selection in send order. Both orders visit the regions
    // in ascending order except that they skip this rank's own region (sliced
    // first, into `acc`) and rotation wraps to region 0, so a region starts
    // where the last one ended, at the end of the own region, or at 0.
    let slice = |r: std::ops::Range<usize>| {
        CooGradient::from_sorted(local.indexes()[r.clone()].to_vec(), local.values()[r].to_vec())
    };
    let own = local.index_range(boundaries[rank], boundaries[rank + 1]);
    let mut acc = slice(own.clone());
    let mut cursor = 0;
    let mut shard = |j: usize| {
        let start = match j {
            0 => 0,
            _ if j == rank + 1 => own.end,
            _ => cursor,
        };
        let hi = boundaries[j + 1];
        cursor = start + local.indexes()[start..].iter().take_while(|&&i| i < hi).count();
        debug_assert_eq!(start..cursor, local.index_range(boundaries[j], hi), "region {j}");
        slice(start..cursor)
    };

    // Step s (1-based) pairs: send to (rank+s) mod P, receive from (rank−s) mod P.
    // Without rotation, everyone walks the peers in the same 0..P order — the
    // naive pattern of Fig. 2a that congests one endpoint per step. Both orders
    // are arithmetic in the step number; neither is stored.
    let steps = p - 1;
    let skip_self = |s: usize| if s < rank { s } else { s + 1 };
    let dst_at = |s: usize| if cfg.rotation { (rank + 1 + s) % p } else { skip_self(s) };
    let src_at = |s: usize| if cfg.rotation { (rank + p - 1 - s) % p } else { skip_self(s) };

    let (mut spare_idx, mut spare_val) = scratch.take_pair();
    let bucket = cfg.bucket_size.max(1);
    let mut sent = 0usize;
    let mut received = 0usize;
    while sent < steps || received < steps {
        // Fire the next bucket of non-blocking sends… (shards travel as
        // (indexes, values) pairs — the pooled fast path with the same 2·nnz
        // wire accounting; each is sent once)
        let send_hi = (sent + bucket).min(steps);
        for s in sent..send_hi {
            let dst = dst_at(s);
            comm.send(dst, TAG_SPLIT, shard(dst).into_parts());
        }
        sent = send_hi;
        // …then receive the matching bucket in arrival-schedule order: each
        // shard drains through the reception port while the previous shard's
        // merge — and the next bucket's transfers — proceed in modeled time.
        let recv_hi = (received + bucket).min(steps);
        for s in received..recv_hi {
            let (idx, val): (Vec<u32>, Vec<f32>) = comm.recv(src_at(s), TAG_SPLIT);
            let got = CooGradient::from_sorted(idx, val);
            let merged = acc.nnz() + got.nnz();
            acc.merge_sum_swap(&got, &mut spare_idx, &mut spare_val);
            scratch.recycle(got);
            if cfg.merge_cost_per_elem > 0.0 {
                comm.compute(cfg.merge_cost_per_elem * merged as f64);
            }
        }
        received = recv_hi;
    }
    scratch.recycle_parts(spare_idx, spare_val);

    SplitReduceOutput { reduced_region: acc, local_nnz }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use simnet::{Cluster, CostModel};
    use sparse::partition::equal_boundaries;
    use sparse::select::topk_exact;

    fn run_split_reduce(
        p: usize,
        n: usize,
        k: usize,
        seed: u64,
        cfg_mod: impl Fn(OkTopkConfig) -> OkTopkConfig,
    ) -> (Vec<CooGradient>, Vec<CooGradient>, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let locals: Vec<CooGradient> = (0..p)
            .map(|_| {
                let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                topk_exact(&dense, k)
            })
            .collect();
        let cfg = cfg_mod(OkTopkConfig::new(n, k));
        let bounds = equal_boundaries(n as u32, p);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut scratch = SelectScratch::new();
            split_and_reduce(comm, &cfg, &locals[comm.rank()].clone(), &bounds, &mut scratch)
                .reduced_region
        });
        let makespan = report.makespan();
        (locals, report.results, makespan)
    }

    fn check_regions(p: usize, n: usize, locals: &[CooGradient], regions: &[CooGradient]) {
        // Reference: serial merge of everything, then split by the same boundaries.
        let mut total = CooGradient::new();
        for l in locals {
            total.merge_sum_into(l);
        }
        let bounds = equal_boundaries(n as u32, p);
        let expect = total.split_by_boundaries(&bounds);
        for (got, want) in regions.iter().zip(&expect) {
            assert_eq!(got.indexes(), want.indexes());
            for (x, y) in got.values().iter().zip(want.values()) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    /// Split-and-reduce as it was written before regions were sliced on demand,
    /// kept only as the reference: all P shards materialised up front by
    /// `split_by_boundaries`, and the send and receive orders stored as vectors.
    fn split_and_reduce_materialised<C: Net>(
        comm: &mut C,
        cfg: &OkTopkConfig,
        local: &CooGradient,
        boundaries: &[u32],
    ) -> CooGradient {
        comm.set_phase("okt_split_reduce");
        let p = comm.size();
        let rank = comm.rank();
        let mut shards = local.split_by_boundaries(boundaries);
        let send_order: Vec<usize> = if cfg.rotation {
            (1..p).map(|s| (rank + s) % p).collect()
        } else {
            (0..p).filter(|&d| d != rank).collect()
        };
        let recv_order: Vec<usize> = if cfg.rotation {
            (1..p).map(|s| (rank + p - s) % p).collect()
        } else {
            (0..p).filter(|&d| d != rank).collect()
        };
        let mut acc = std::mem::take(&mut shards[rank]);
        let bucket = cfg.bucket_size.max(1);
        let (mut sent, mut received) = (0usize, 0usize);
        while sent < send_order.len() || received < recv_order.len() {
            let send_hi = (sent + bucket).min(send_order.len());
            for &dst in &send_order[sent..send_hi] {
                comm.send(dst, TAG_SPLIT, std::mem::take(&mut shards[dst]).into_parts());
            }
            sent = send_hi;
            let recv_hi = (received + bucket).min(recv_order.len());
            for &src in &recv_order[received..recv_hi] {
                let (idx, val): (Vec<u32>, Vec<f32>) = comm.recv(src, TAG_SPLIT);
                let got = CooGradient::from_sorted(idx, val);
                let merged = acc.nnz() + got.nnz();
                acc.merge_sum_into(&got);
                if cfg.merge_cost_per_elem > 0.0 {
                    comm.compute(cfg.merge_cost_per_elem * merged as f64);
                }
            }
            received = recv_hi;
        }
        acc
    }

    #[test]
    fn slicing_on_demand_is_the_materialised_schedule_bit_for_bit() {
        let (n, k) = (600usize, 48usize);
        for p in [2usize, 3, 5, 8] {
            let mut rng = StdRng::seed_from_u64(40 + p as u64);
            let locals: Vec<CooGradient> = (0..p)
                .map(|_| {
                    let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    topk_exact(&dense, k)
                })
                .collect();
            // Equal regions; uneven ones with region 1 empty; and the first
            // and last regions empty, which the send-order cursor meets
            // first and at the wrap.
            let equal = equal_boundaries(n as u32, p);
            let mut uneven = equal.clone();
            uneven[1] = uneven[2.min(p)];
            let mut ends_empty = equal.clone();
            ends_empty[1] = 0;
            ends_empty[p - 1] = n as u32;
            for (bounds, rotation) in [equal, uneven, ends_empty]
                .into_iter()
                .flat_map(|b| [(b.clone(), true), (b, false)])
            {
                for bucket in [1usize, 3, 8] {
                    let cfg = OkTopkConfig::new(n, k)
                        .with_rotation(rotation)
                        .with_bucket_size(bucket)
                        .with_merge_cost(1e-8);
                    let now = Cluster::new(p, CostModel::aries()).run(|comm| {
                        let mut scratch = SelectScratch::new();
                        split_and_reduce(comm, &cfg, &locals[comm.rank()], &bounds, &mut scratch)
                            .reduced_region
                    });
                    let then = Cluster::new(p, CostModel::aries()).run(|comm| {
                        split_and_reduce_materialised(comm, &cfg, &locals[comm.rank()], &bounds)
                    });
                    let what = format!("p={p} {bounds:?} rotation={rotation} bucket={bucket}");
                    assert_eq!(now.times, then.times, "{what}: clocks");
                    for rank in 0..p {
                        let bits = |g: &CooGradient| -> Vec<u32> {
                            g.values().iter().map(|v| v.to_bits()).collect()
                        };
                        let (a, b) = (&now.results[rank], &then.results[rank]);
                        assert_eq!(a.indexes(), b.indexes(), "{what}: rank {rank}'s region");
                        assert_eq!(bits(a), bits(b), "{what}: rank {rank}'s sums");
                        assert_eq!(
                            now.ledger.cell(rank, "okt_split_reduce"),
                            then.ledger.cell(rank, "okt_split_reduce"),
                            "{what}: rank {rank}'s ledger cell"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_regions_boundary_entries_and_empty_selections() {
        // Regions [0,5) [5,5) [5,9) [9,12): region 1 is empty, index 5 sits on
        // the boundary that opens region 2, index 11 is the last one covered.
        let bounds = [0u32, 5, 5, 9, 12];
        let locals = [
            CooGradient::from_sorted(vec![0, 5, 11], vec![1.0, 2.0, 3.0]),
            CooGradient::new(),
            CooGradient::from_sorted(vec![4, 5, 8, 9], vec![0.5, 0.25, -1.0, 4.0]),
            CooGradient::from_sorted(vec![5], vec![-2.25]),
        ];
        let cfg = OkTopkConfig::new(12, 4);
        let report = Cluster::new(4, CostModel::aries()).run(|comm| {
            let mut scratch = SelectScratch::new();
            split_and_reduce(comm, &cfg, &locals[comm.rank()], &bounds, &mut scratch).reduced_region
        });
        let expect = [
            CooGradient::from_sorted(vec![0, 4], vec![1.0, 0.5]),
            CooGradient::new(),
            CooGradient::from_sorted(vec![5, 8], vec![0.0, -1.0]),
            CooGradient::from_sorted(vec![9, 11], vec![4.0, 3.0]),
        ];
        assert_eq!(report.results, expect);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lies in no region")]
    fn an_index_past_the_last_boundary_is_refused_not_dropped() {
        let local = CooGradient::from_sorted(vec![3, 10], vec![1.0, 1.0]);
        let cfg = OkTopkConfig::new(10, 2);
        Cluster::new(2, CostModel::free()).run(|comm| {
            let mut scratch = SelectScratch::new();
            split_and_reduce(comm, &cfg, &local, &[0, 5, 10], &mut scratch).local_nnz
        });
    }

    #[test]
    fn regions_hold_global_partial_sums() {
        for &(p, n, k) in &[(2usize, 100usize, 10usize), (4, 256, 32), (8, 512, 40), (5, 300, 25)] {
            let (locals, regions, _) = run_split_reduce(p, n, k, p as u64, |c| c);
            check_regions(p, n, &locals, &regions);
        }
    }

    #[test]
    fn correct_without_rotation_and_tiny_buckets() {
        let (p, n, k) = (8, 400, 30);
        let (locals, regions, _) =
            run_split_reduce(p, n, k, 3, |c| c.with_rotation(false).with_bucket_size(1));
        check_regions(p, n, &locals, &regions);
    }

    #[test]
    fn rotation_improves_modeled_makespan() {
        // With equal regions and uniform data, rotation pipelines reception ports;
        // the naive all-hit-one-endpoint schedule serializes them.
        let (p, n, k) = (16, 20_000, 2_000);
        let (_, _, t_rot) = run_split_reduce(p, n, k, 7, |c| c.with_rotation(true));
        let (_, _, t_naive) = run_split_reduce(p, n, k, 7, |c| c.with_rotation(false));
        assert!(t_rot < t_naive * 0.95, "rotation {t_rot} should beat naive {t_naive}");
    }

    #[test]
    fn single_rank_is_identity() {
        let local = CooGradient::from_sorted(vec![1, 3], vec![0.5, -1.0]);
        let cfg = OkTopkConfig::new(10, 2);
        let report = Cluster::new(1, CostModel::free()).run(|comm| {
            let mut scratch = SelectScratch::new();
            let out = split_and_reduce(comm, &cfg, &local.clone(), &[0, 10], &mut scratch);
            (out.reduced_region, out.local_nnz)
        });
        let (region, nnz) = &report.results[0];
        assert_eq!(region, &local);
        assert_eq!(*nnz, 2);
    }

    #[test]
    fn straggler_slows_the_schedule_but_not_the_math() {
        // A 4x straggler (hitting the merge-cost compute blocks) must stretch
        // the modeled makespan without changing a single reduced value: chaos
        // perturbs *when*, never *what*.
        let (p, n, k) = (8, 4096, 256);
        let mut rng = StdRng::seed_from_u64(11);
        let locals: Vec<CooGradient> = (0..p)
            .map(|_| {
                let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                topk_exact(&dense, k)
            })
            .collect();
        let cfg = OkTopkConfig::new(n, k).with_merge_cost(1e-7);
        let bounds = equal_boundaries(n as u32, p);
        let run = |chaos: Option<simnet::ChaosPlan>| {
            let mut cluster = Cluster::new(p, CostModel::aries());
            if let Some(plan) = chaos {
                cluster = cluster.with_chaos(plan);
            }
            cluster.run(|comm| {
                let mut scratch = SelectScratch::new();
                split_and_reduce(comm, &cfg, &locals[comm.rank()].clone(), &bounds, &mut scratch)
                    .reduced_region
            })
        };
        let clean = run(None);
        let slow = run(Some(simnet::ChaosPlan::new(0).straggler(3, 4.0)));
        assert!(
            slow.makespan() > clean.makespan(),
            "straggler must stretch the makespan: {} vs {}",
            slow.makespan(),
            clean.makespan()
        );
        for (a, b) in clean.results.iter().zip(&slow.results) {
            assert_eq!(a.indexes(), b.indexes());
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn volume_is_at_most_2k_fraction_with_balanced_load() {
        // Uniform random supports on equal regions: each rank sends ≈ 2k(P−1)/P.
        let (p, n, k) = (8, 8192, 512);
        let mut rng = StdRng::seed_from_u64(21);
        let locals: Vec<CooGradient> = (0..p)
            .map(|_| {
                let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                topk_exact(&dense, k)
            })
            .collect();
        let cfg = OkTopkConfig::new(n, k);
        let bounds = equal_boundaries(n as u32, p);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut scratch = SelectScratch::new();
            split_and_reduce(comm, &cfg, &locals[comm.rank()].clone(), &bounds, &mut scratch);
        });
        let bound = 2.0 * k as f64 * (p - 1) as f64 / p as f64;
        for rank in 0..p {
            let sent = report.ledger.rank_elements(rank) as f64;
            // Uniform supports keep each rank within ~15% of the ideal share.
            assert!(sent <= bound * 1.15, "rank {rank}: sent {sent} > {bound}×1.15");
        }
    }
}
