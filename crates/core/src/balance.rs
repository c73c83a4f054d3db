//! Phase 2 of Algorithm 1: *balance and allgatherv* (§3.1.2, Fig. 3).
//!
//! Each worker filters its reduced region by the (reused) global threshold, packs
//! the survivors into a contiguous buffer, and the buffers are allgathered. Because
//! the global top-k values may concentrate in one worker's region, a recursive
//! doubling allgatherv alone could cost `2k·log P`; the paper bounds it by `4k` by
//! first *balancing* the data: an allgather of buffer sizes (latency-only), then a
//! point-to-point redistribution into equal-size chunks, then the allgatherv.
//! Balancing only runs when `max > trigger × mean` (the paper uses 4×).

use crate::config::OkTopkConfig;
use collectives::allgather_assembled;
use simnet::Net;
use sparse::CooGradient;
use std::sync::Arc;

const TAG_BAL: u64 = 0x50;

/// Result of balance-and-allgatherv on one worker.
pub struct BalanceOutput {
    /// `u_t`: the global-top-k sparse sum, assembled once per process — every
    /// worker holds a handle to the same allocation.
    pub global_topk: Arc<CooGradient>,
    /// Number of global top-k survivors (Fig. 6 instrumentation).
    pub global_nnz: usize,
    /// Whether the 4× trigger fired and data balancing ran (Fig. 7b).
    pub balanced: bool,
}

/// Run balance-and-allgatherv on the survivors of this worker's region.
///
/// `survivors` must be the entries of the reduced region with
/// `|value| ≥ global_threshold`, still sorted by index. Region ownership follows
/// rank order, so concatenating per-rank buffers in rank order yields a globally
/// index-sorted result.
pub fn balance_and_allgatherv<C: Net>(
    comm: &mut C,
    cfg: &OkTopkConfig,
    survivors: CooGradient,
) -> BalanceOutput {
    balance_and_allgatherv_with(comm, cfg, survivors, |_| {})
}

/// [`balance_and_allgatherv`] that applies `finish` to `u_t` before it is
/// shared: once per process, by the rank that assembles it.
pub(crate) fn balance_and_allgatherv_with<C: Net>(
    comm: &mut C,
    cfg: &OkTopkConfig,
    survivors: CooGradient,
    finish: impl FnOnce(&mut CooGradient),
) -> BalanceOutput {
    let p = comm.size();
    if p == 1 {
        let (global_nnz, mut global_topk) = (survivors.nnz(), survivors);
        finish(&mut global_topk);
        return BalanceOutput { global_topk: Arc::new(global_topk), global_nnz, balanced: false };
    }

    // Allgather of buffer sizes: P words, latency-dominated (§3.1.2), read once
    // per process into what every worker needs of them. The handle is dropped
    // before the data gather starts.
    comm.set_phase("okt_size_gather");
    let sizes = allgather_assembled(comm, survivors.nnz() as u64, Sizes::new);
    let total = sizes.prefix[p];
    let mean = total as f64 / p as f64;
    let need_balance =
        cfg.data_balancing && total > 0 && (sizes.max as f64) > cfg.balance_trigger * mean;

    let mine = if need_balance {
        comm.set_phase("okt_balance");
        rebalance(comm, survivors, &sizes.prefix)
    } else {
        survivors
    };
    drop(sizes);
    comm.set_phase("okt_allgather");
    let global_topk = allgather_assembled(comm, mine, |chunks| {
        let mut global_topk = CooGradient::concat_ordered(chunks);
        finish(&mut global_topk);
        global_topk
    });
    let global_nnz = global_topk.nnz();
    BalanceOutput { global_topk, global_nnz, balanced: need_balance }
}

/// What the size gather tells every worker: prefix sums of the per-worker
/// survivor counts (`prefix[P]` is the total) and the largest count.
struct Sizes {
    prefix: Vec<u64>,
    max: u64,
}

impl Sizes {
    fn new(counts: &[&u64]) -> Self {
        let mut prefix = Vec::with_capacity(counts.len() + 1);
        prefix.push(0);
        for &&c in counts {
            prefix.push(prefix[prefix.len() - 1] + c);
        }
        Sizes { prefix, max: counts.iter().map(|&&c| c).max().unwrap_or(0) }
    }
}

/// Redistribute the concatenation of all workers' buffers into P equal chunks by
/// point-to-point messages (blue arrows in Fig. 3). Worker `c` ends up with global
/// positions `[c·S/P, (c+1)·S/P)` of the rank-ordered concatenation, whose
/// per-worker prefix sums `prefix` the size gather produced.
fn rebalance<C: Net>(comm: &mut C, mine: CooGradient, prefix: &[u64]) -> CooGradient {
    let p = comm.size();
    let rank = comm.rank();

    let total = prefix[p];
    let chunk_bound = |c: usize| -> u64 { c as u64 * total / p as u64 };

    let my_start = prefix[rank];
    let my_end = prefix[rank + 1];
    let (idx, val) = mine.into_parts();

    // Send each overlap of my data with someone else's chunk.
    for c in 0..p {
        if c == rank {
            continue;
        }
        let lo = chunk_bound(c).max(my_start);
        let hi = chunk_bound(c + 1).min(my_end);
        if lo < hi {
            let a = (lo - my_start) as usize;
            let b = (hi - my_start) as usize;
            comm.send(c, TAG_BAL, (idx[a..b].to_vec(), val[a..b].to_vec()));
        }
    }

    // Assemble my chunk [chunk_bound(rank), chunk_bound(rank+1)) from overlapping
    // sources, in ascending source order (which is global position order).
    let c_lo = chunk_bound(rank);
    let c_hi = chunk_bound(rank + 1);
    let mut out_idx: Vec<u32> = Vec::with_capacity((c_hi - c_lo) as usize);
    let mut out_val: Vec<f32> = Vec::with_capacity((c_hi - c_lo) as usize);
    for src in 0..p {
        let lo = prefix[src].max(c_lo);
        let hi = prefix[src + 1].min(c_hi);
        if lo >= hi {
            continue;
        }
        if src == rank {
            let a = (lo - my_start) as usize;
            let b = (hi - my_start) as usize;
            out_idx.extend_from_slice(&idx[a..b]);
            out_val.extend_from_slice(&val[a..b]);
        } else {
            let (i, v): (Vec<u32>, Vec<f32>) = comm.recv(src, TAG_BAL);
            debug_assert_eq!(i.len() as u64, hi - lo);
            out_idx.extend_from_slice(&i);
            out_val.extend_from_slice(&v);
        }
    }
    CooGradient::from_sorted(out_idx, out_val)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Cluster, CostModel};

    /// Build disjoint per-rank survivor sets over an index space of `n`, with the
    /// given per-rank sizes, region r covering [r·n/p, (r+1)·n/p).
    fn survivors_with_sizes(sizes: &[usize], n: u32) -> Vec<CooGradient> {
        let p = sizes.len();
        sizes
            .iter()
            .enumerate()
            .map(|(r, &s)| {
                let base = r as u32 * n / p as u32;
                let idx: Vec<u32> = (0..s as u32).map(|i| base + i).collect();
                let val: Vec<f32> = (0..s).map(|i| (r * 100 + i) as f32 + 0.5).collect();
                CooGradient::from_sorted(idx, val)
            })
            .collect()
    }

    fn run(sizes: &[usize], trigger_on: bool) -> (Vec<BalanceOutput>, simnet::LedgerSnapshot) {
        let p = sizes.len();
        let n = 1_000_000u32;
        let locals = survivors_with_sizes(sizes, n);
        let cfg = OkTopkConfig::new(n as usize, sizes.iter().sum::<usize>().max(1))
            .with_data_balancing(trigger_on);
        let report = Cluster::new(p, CostModel::aries())
            .run(|comm| balance_and_allgatherv(comm, &cfg, locals[comm.rank()].clone()));
        (report.results, report.ledger)
    }

    fn expected_concat(sizes: &[usize]) -> CooGradient {
        CooGradient::concat_ordered(&survivors_with_sizes(sizes, 1_000_000))
    }

    #[test]
    fn uniform_sizes_skip_balancing() {
        let sizes = [10usize, 10, 10, 10];
        let (outs, _) = run(&sizes, true);
        let expect = expected_concat(&sizes);
        for out in &outs {
            assert!(!out.balanced);
            assert_eq!(*out.global_topk, expect);
            assert_eq!(out.global_nnz, 40);
        }
    }

    #[test]
    fn extreme_imbalance_triggers_and_preserves_result() {
        // Everything in worker 0 — the paper's extreme case.
        let sizes = [64usize, 0, 0, 0, 0, 0, 0, 0];
        let (outs, _) = run(&sizes, true);
        let expect = expected_concat(&sizes);
        for out in &outs {
            assert!(out.balanced);
            assert_eq!(*out.global_topk, expect);
        }
    }

    #[test]
    fn balancing_bounds_allgather_volume() {
        // With all data on one rank, a direct recursive-doubling allgatherv makes
        // that rank's 2k buffer traverse log P rounds; with balancing each rank
        // allgathers only ~2k/P. Compare allgather-phase traffic.
        let sizes = [512usize, 0, 0, 0, 0, 0, 0, 0];
        let p = sizes.len();
        let (_, ledger_bal) = run(&sizes, true);
        let (_, ledger_direct) = run(&sizes, false);
        // Aggregate volume is identical by symmetry of recursive doubling; the win
        // is on the *critical path*: without balancing the full 2k buffer traverses
        // every one of the log P rounds through the hot ranks.
        let max_bal = (0..p).map(|r| ledger_bal.cell(r, "okt_allgather").elements).max().unwrap();
        let max_direct =
            (0..p).map(|r| ledger_direct.cell(r, "okt_allgather").elements).max().unwrap();
        assert!(
            max_bal * 2 < max_direct,
            "balanced per-rank max {max_bal} should be far below direct {max_direct}"
        );
        // Balancing itself costs at most ~2k(P−1)/P.
        let bal = ledger_bal.phase_elements("okt_balance");
        let k2 = 2 * 512;
        assert!(bal as f64 <= k2 as f64 * (7.0 / 8.0) * 1.05, "balance moved {bal}");
    }

    #[test]
    fn moderate_imbalance_below_trigger_stays_direct() {
        // max = 3× mean < 4× trigger.
        let sizes = [30usize, 10, 0, 0];
        let (outs, _) = run(&sizes, true);
        for out in &outs {
            assert!(!out.balanced);
            assert_eq!(out.global_nnz, 40);
        }
    }

    #[test]
    fn empty_survivors_everywhere() {
        let sizes = [0usize, 0, 0, 0];
        let (outs, _) = run(&sizes, true);
        for out in &outs {
            assert!(!out.balanced);
            assert!(out.global_topk.is_empty());
        }
    }

    #[test]
    fn non_pow2_ranks_work() {
        let sizes = [50usize, 0, 0, 2, 1, 0];
        let (outs, _) = run(&sizes, true);
        let expect = expected_concat(&sizes);
        for out in &outs {
            assert_eq!(*out.global_topk, expect);
        }
    }

    #[test]
    fn single_rank_identity() {
        let g = CooGradient::from_sorted(vec![5], vec![2.0]);
        let cfg = OkTopkConfig::new(10, 1);
        let report = Cluster::new(1, CostModel::free())
            .run(|comm| balance_and_allgatherv(comm, &cfg, g.clone()).global_topk);
        assert_eq!(*report.results[0], g);
    }
}
