//! Algorithm 1: the O(k) sparse allreduce.

use crate::balance::balance_and_allgatherv_with;
use crate::config::OkTopkConfig;
use crate::sgd::SparseRow;
use crate::split_reduce::split_and_reduce;
use collectives::{allgather_assembled, allreduce_f64_shared};
use simnet::Net;
use sparse::partition::{balanced_boundaries, consensus_boundaries, equal_boundaries};
use sparse::scratch::{accumulate_select_scratch, filter_abs_ge_scratch, select_ge_scratch};
use sparse::select::exact_threshold;
use sparse::threshold::PeriodicExactEstimator;
use sparse::{CooGradient, SelectScratch};
use std::sync::Arc;

/// Persistent state of the O(k) sparse allreduce across training iterations:
/// the reused local/global thresholds, the agreed region boundaries, and the
/// pooled scratch buffers that keep the steady-state selection path off the
/// heap.
///
/// One instance lives on each rank; all instances must be driven with the same
/// iteration numbers (they exchange data collectively every call). What the
/// instances agree on exists once per process: the boundaries are one
/// allocation every rank holds a handle to, and the τ′ global threshold is
/// computed by one rank.
pub struct OkTopk {
    cfg: OkTopkConfig,
    local_est: PeriodicExactEstimator,
    global_th: f32,
    boundaries: Arc<Vec<u32>>,
    scratch: SelectScratch,
}

/// Everything one Ok-Topk step produces — what [`OkTopk::allreduce`] and the
/// row's exchange return — including the instrumentation the paper's Figs. 6–7
/// report.
#[derive(Clone, Debug)]
pub struct OkTopkOutput {
    /// `u_t`: the sparse sum restricted to the (approximate) global top-k
    /// support, after the pipeline's `finish` (the `1/P` of
    /// [`ErrorFeedback::step`](crate::ErrorFeedback::step)): the model update
    /// (SGD mode) or averaged sparse gradient (Adam mode). One allocation per
    /// process: every rank holds the same handle.
    pub update: Arc<CooGradient>,
    /// Indexes of this rank's local top-k entries that made it into the global
    /// top-k (Algorithm 1 line 14) — the entries whose residual is cleared.
    pub contributed: Vec<u32>,
    /// Local selection threshold in effect this iteration: `None` until
    /// Ok-Topk's own selector has run, as in an exchange of selections made
    /// elsewhere.
    pub local_th: Option<f32>,
    /// Global selection threshold in effect this iteration.
    pub global_th: f32,
    /// Number of locally selected values (target: ≈ k).
    pub local_nnz: usize,
    /// Number of global top-k values (target: ≈ k).
    pub global_nnz: usize,
    /// Whether the data-balancing step ran (4× trigger, §3.1.2).
    pub balanced: bool,
}

impl OkTopk {
    /// Fresh allreduce state for the given configuration.
    pub fn new(cfg: OkTopkConfig) -> Self {
        let local_est = PeriodicExactEstimator::new(cfg.threshold_reeval_period);
        // Steady-state selections land near k entries; start the pool there.
        let scratch = SelectScratch::with_nnz_hint(cfg.k);
        Self { cfg, local_est, global_th: 0.0, boundaries: Arc::default(), scratch }
    }

    /// The reused state: local threshold, global threshold, boundaries.
    pub fn export_state(&self) -> (Option<f32>, f32, Vec<u32>) {
        (self.local_est.cached(), self.global_th, self.boundaries.to_vec())
    }

    /// Whether iteration `t` re-evaluates thresholds (both local and global use τ′).
    pub fn is_reeval_iteration(&self, t: usize) -> bool {
        self.local_est.due(t)
    }

    /// Whether iteration `t` recomputes region boundaries.
    pub fn is_repartition_iteration(&self, t: usize) -> bool {
        t == 1
            || (t - 1).is_multiple_of(self.cfg.space_repartition_period)
            || self.boundaries.is_empty()
    }

    /// One O(k) sparse allreduce of the accumulator `acc` at iteration `t` (1-based,
    /// as in Algorithm 1). Collective: every rank must call with the same `t`.
    ///
    /// The entry for an input that is already accumulated; a training step holds
    /// ε and the gradient apart and enters through the error-feedback pipeline
    /// ([`OkTopkSgd`](crate::OkTopkSgd)), which shares everything after the
    /// selection.
    pub fn allreduce<C: Net>(&mut self, comm: &mut C, acc: &[f32], t: usize) -> OkTopkOutput {
        assert_eq!(acc.len(), self.cfg.n, "accumulator length must equal configured n");
        let local = self.select(acc, t);
        self.exchange(comm, local, t, |_| {})
    }

    /// Lines 2–4: local threshold, re-evaluated every τ′ iterations, then the
    /// O(n) scan; both run on pooled buffers and touch no heap at steady state.
    fn select(&mut self, acc: &[f32], t: usize) -> CooGradient {
        let local_th = self.local_est.threshold(t, acc, self.cfg.k);
        select_ge_scratch(acc, local_th, &mut self.scratch)
    }
}

/// Ok-Topk's row: threshold-reuse selection and Algorithm 1's exchange.
impl SparseRow for OkTopk {
    type Out = OkTopkOutput;

    /// Algorithm 2 line 4 and Algorithm 1 lines 2–4 together: `residual +=
    /// scale·grad` in place, then the local selection. On the τ′ − 1 of τ′
    /// iterations that reuse the local threshold the accumulation and the
    /// selection scan are one pass over the two arrays; a re-evaluation needs
    /// the whole accumulator before it can rank it, so it accumulates,
    /// radix-selects and scans. Bit-identical to accumulating into a second
    /// buffer and selecting as [`allreduce`](OkTopk::allreduce) does.
    fn accumulate_select<C: Net>(
        &mut self,
        _comm: &mut C,
        residual: &mut [f32],
        grad: &[f32],
        scale: f32,
        t: usize,
    ) -> CooGradient {
        assert_eq!(residual.len(), self.cfg.n, "residual length must equal configured n");
        match self.local_est.reused_at(t) {
            Some(th) => accumulate_select_scratch(residual, grad, scale, th, &mut self.scratch),
            None => {
                sparse::simd::axpy(residual, grad, scale);
                self.select(residual, t)
            }
        }
    }

    /// Algorithm 1 after the local selection (lines 5–14), shared by both entries.
    fn exchange<C: Net>(
        &mut self,
        comm: &mut C,
        local: CooGradient,
        t: usize,
        finish: impl FnOnce(&mut CooGradient),
    ) -> OkTopkOutput {
        assert!(t >= 1, "iterations are 1-based, as in Algorithm 1");
        let p = comm.size();
        let n = self.cfg.n as u32;

        // Lines 5–7: region boundaries, re-evaluated every τ iterations. Consensus
        // is a P+1-element f64 allreduce — latency-only, amortized over τ — whose
        // sum is turned into boundaries once per process.
        if self.is_repartition_iteration(t) {
            self.boundaries = if self.cfg.balanced_partition && p > 1 {
                comm.set_phase("okt_boundary");
                let mine = balanced_boundaries(local.indexes(), n, p);
                allreduce_f64_shared(comm, mine, |sum| consensus_boundaries(sum, p, n))
            } else {
                Arc::new(equal_boundaries(n, p))
            };
        }

        // Line 8: split and reduce.
        let sr = split_and_reduce(comm, &self.cfg, &local, &self.boundaries, &mut self.scratch);

        // Lines 9–12: global threshold re-evaluation, every τ′ iterations. This is
        // the expensive allgatherv the reuse strategy amortizes (the gather's own
        // allocations happen once per τ′, not per iteration); the gathered values
        // are concatenated and ranked once per process, not once per rank.
        if self.is_reeval_iteration(t) {
            comm.set_phase("okt_reeval_gather");
            let k = self.cfg.k;
            self.global_th = *allgather_assembled(comm, sr.reduced_region.clone(), |regions| {
                let values: Vec<f32> =
                    regions.iter().flat_map(|g| g.values().iter().copied()).collect();
                exact_threshold(&values, k)
            });
        }

        // Line 13: balance and allgatherv over the global-threshold survivors.
        let survivors =
            filter_abs_ge_scratch(&sr.reduced_region, self.global_th, &mut self.scratch);
        self.scratch.recycle(sr.reduced_region);
        let bal = balance_and_allgatherv_with(comm, &self.cfg, survivors, finish);

        // Line 14: indexes of local values that contributed to the global top-k.
        let contributed = intersect_sorted(local.indexes(), bal.global_topk.indexes());
        let local_nnz = sr.local_nnz;
        self.scratch.recycle(local);

        OkTopkOutput {
            global_nnz: bal.global_nnz,
            balanced: bal.balanced,
            update: bal.global_topk,
            contributed,
            local_th: self.local_est.cached(),
            global_th: self.global_th,
            local_nnz,
        }
    }

    fn leaves(out: &OkTopkOutput) -> &[u32] {
        &out.contributed
    }
}

/// Intersection of two strictly increasing index lists (two-pointer merge).
pub fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use simnet::{Cluster, CostModel};
    use sparse::select::{exact_threshold, select_ge};

    fn random_accs(p: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p).map(|_| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
    }

    /// Serial reference with the *same* selection semantics (threshold scans with
    /// exact thresholds): Topk(Σᵢ Topk(accᵢ)).
    fn reference(accs: &[Vec<f32>], k: usize) -> CooGradient {
        let mut sum = CooGradient::new();
        for acc in accs {
            let th = exact_threshold(acc, k);
            sum.merge_sum_into(&select_ge(acc, th));
        }
        let th = exact_threshold(sum.values(), k);
        sum.filter_abs_ge(th)
    }

    #[test]
    fn matches_semantic_with_fresh_thresholds() {
        // τ′ = 1 forces exact thresholds every iteration → the result must equal
        // Topk(Σ Topk(·)) exactly (up to f32 reassociation in the region sums).
        for &(p, n, k) in &[(2usize, 120usize, 12usize), (4, 300, 30), (8, 512, 25), (6, 250, 20)] {
            let accs = random_accs(p, n, 1000 + p as u64);
            let expect = reference(&accs, k);
            let report = Cluster::new(p, CostModel::aries()).run(|comm| {
                let mut okt = OkTopk::new(OkTopkConfig::new(n, k).with_periods(1, 1));
                okt.allreduce(comm, &accs[comm.rank()], 1)
            });
            for out in &report.results {
                assert_eq!(out.update.indexes(), expect.indexes(), "p={p}");
                for (x, y) in out.update.values().iter().zip(expect.values()) {
                    assert!((x - y).abs() < 1e-4);
                }
                assert_eq!(out.global_nnz, expect.nnz());
            }
        }
    }

    #[test]
    fn all_ranks_agree_across_iterations() {
        let (p, n, k) = (4, 200, 16);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut okt = OkTopk::new(OkTopkConfig::new(n, k).with_periods(4, 4));
            let mut rng = StdRng::seed_from_u64(31 + comm.rank() as u64);
            let mut updates = Vec::new();
            for t in 1..=6 {
                let acc: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let out = okt.allreduce(comm, &acc, t);
                updates.push(out.update);
            }
            updates
        });
        for r in 1..p {
            assert_eq!(report.results[r], report.results[0], "rank {r} diverged");
        }
    }

    #[test]
    fn contributed_is_subset_of_both() {
        let (p, n, k) = (4, 150, 15);
        let accs = random_accs(p, n, 77);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut okt = OkTopk::new(OkTopkConfig::new(n, k));
            let out = okt.allreduce(comm, &accs[comm.rank()], 1);
            let local_th = out.local_th.expect("allreduce selects");
            (out, local_th, accs[comm.rank()].clone())
        });
        for (out, local_th, acc) in &report.results {
            let global: std::collections::HashSet<u32> =
                out.update.indexes().iter().copied().collect();
            for &i in &out.contributed {
                assert!(global.contains(&i));
                assert!(acc[i as usize].abs() >= *local_th);
            }
        }
    }

    #[test]
    fn steady_state_volume_within_6k_bound() {
        // Two deterministic runs differing by one steady-state iteration isolate the
        // per-iteration traffic; it must respect the paper's 6k(P−1)/P bound (with a
        // small allowance because stale thresholds select ≈k, not exactly k).
        let (p, n, k) = (8, 4096, 256);
        let accs1 = random_accs(p, n, 5);
        let accs2 = random_accs(p, n, 6); // same distribution → thresholds stay valid

        let run = |iters: usize| {
            let accs1 = accs1.clone();
            let accs2 = accs2.clone();
            Cluster::new(p, CostModel::aries())
                .run(move |comm| {
                    let mut okt = OkTopk::new(OkTopkConfig::new(n, k).with_periods(1000, 1000));
                    for t in 1..=iters {
                        let acc = if t == 1 { &accs1 } else { &accs2 };
                        okt.allreduce(comm, &acc[comm.rank()], t);
                    }
                })
                .ledger
        };

        let l1 = run(1);
        let l2 = run(2);
        let bound = 6.0 * k as f64 * (p - 1) as f64 / p as f64;
        for rank in 0..p {
            let steady = (l2.rank_elements(rank) - l1.rank_elements(rank)) as f64;
            assert!(
                steady <= bound * 1.10,
                "rank {rank}: steady-state volume {steady} exceeds 6k(P-1)/P = {bound}"
            );
            assert!(steady > 0.0);
        }
    }

    #[test]
    fn exchange_of_given_selections_stays_within_6k_bound() {
        // The pipeline's exchange entry on exact top-k selections made
        // elsewhere: Ok-Topk's selector never runs, so no local threshold is
        // reported, and the second step — after a barrier, reusing the first
        // step's boundaries and global threshold — sends at most 6k(P−1)/P.
        let (n, k) = (4096, 256);
        for p in [4usize, 8] {
            let steps = [random_accs(p, n, 40 + p as u64), random_accs(p, n, 50 + p as u64)];
            let run = |iters: usize| {
                Cluster::new(p, CostModel::aries()).run(|comm| {
                    let cfg = OkTopkConfig::new(n, k).with_periods(1000, 1000);
                    let mut sgd = crate::OkTopkSgd::new(cfg);
                    let mut ths = Vec::new();
                    for accs in &steps[..iters] {
                        let local = sparse::select::topk_exact(&accs[comm.rank()], k);
                        ths.push(sgd.exchange(comm, local).local_th);
                        comm.barrier();
                    }
                    ths
                })
            };
            let (two, one) = (run(2), run(1));
            assert!(two.results.iter().flatten().all(Option::is_none), "p={p}: a local threshold");
            let bound = 6.0 * k as f64 * (p - 1) as f64 / p as f64;
            for rank in 0..p {
                let sent = two.ledger.rank_elements(rank) - one.ledger.rank_elements(rank);
                assert!(sent > 0 && sent as f64 <= bound, "p={p} rank {rank}: {sent} > {bound}");
            }
        }
    }

    #[test]
    fn steady_state_volume_at_least_lower_bound_total() {
        // Theorem 3.1: every rank must receive ≥ 2k(P−1)/P elements, so the cluster
        // total is ≥ 2k(P−1). (Sent == received in aggregate.)
        let (p, n, k) = (8, 4096, 256);
        let accs1 = random_accs(p, n, 5);
        let accs2 = random_accs(p, n, 6);
        let run = |iters: usize| {
            let accs1 = accs1.clone();
            let accs2 = accs2.clone();
            Cluster::new(p, CostModel::aries())
                .run(move |comm| {
                    let mut okt = OkTopk::new(OkTopkConfig::new(n, k).with_periods(1000, 1000));
                    for t in 1..=iters {
                        let acc = if t == 1 { &accs1 } else { &accs2 };
                        okt.allreduce(comm, &acc[comm.rank()], t);
                    }
                })
                .ledger
        };
        let steady = run(2).total_elements() - run(1).total_elements();
        // The global top-k holds ≈k entries; allow the threshold approximation ±25%.
        let lower = (2.0 * k as f64 * (p - 1) as f64 * 0.75) as u64;
        assert!(steady >= lower, "total steady volume {steady} < {lower}");
    }

    #[test]
    fn single_rank_degenerates_to_local_topk() {
        let n = 64;
        let k = 8;
        // Strictly increasing magnitudes: no ties, so threshold selection is exact.
        let acc: Vec<f32> = (0..n).map(|i| (i as f32 + 1.0) * 0.1).collect();
        let report = Cluster::new(1, CostModel::free()).run(|comm| {
            let mut okt = OkTopk::new(OkTopkConfig::new(n, k));
            okt.allreduce(comm, &acc, 1)
        });
        let out = &report.results[0];
        let expect = sparse::select::topk_exact(&acc, k);
        assert_eq!(out.update.indexes(), expect.indexes());
        assert_eq!(out.contributed, expect.indexes());
    }

    /// The boundary consensus's sum in the per-rank allreduce's order: for a
    /// power-of-two P the recursive-doubling tree with the lower block first
    /// (rank 0's reading), otherwise the rank-ordered sum from zero.
    fn consensus_sum_reference(mine: &[Vec<f64>]) -> Vec<f64> {
        let add = |a: Vec<f64>, b: &[f64]| a.iter().zip(b).map(|(x, y)| x + y).collect();
        if !mine.len().is_power_of_two() {
            return mine.iter().fold(vec![0.0; mine[0].len()], |sum, v| add(sum, v));
        }
        if mine.len() == 1 {
            return mine[0].clone();
        }
        let (lo, hi) = mine.split_at(mine.len() / 2);
        add(consensus_sum_reference(lo), &consensus_sum_reference(hi))
    }

    #[test]
    fn flat_sgd_keeps_one_copy_of_what_the_ranks_agree_on() {
        // Boundaries and the update are identical on every rank, so they exist
        // once per process: every rank holds a handle to the same allocation.
        // Their bits are a per-rank reference's — Algorithm 2 written out with
        // a second buffer and today's clone + scale of u_t, and the consensus
        // summed in the per-rank allreduce's order — and the contributed
        // indexes and residuals are unchanged. τ = τ′, so every other step
        // both repartitions and re-evaluates.
        use crate::OkTopkSgd;
        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        let (n, k, tau) = (2048, 60, 2);
        for p in [4usize, 6] {
            let report = Cluster::new(p, CostModel::aries()).run(|comm| {
                let cfg = OkTopkConfig::new(n, k).with_periods(tau, tau);
                let mut sgd = OkTopkSgd::new(cfg.clone());
                let mut reference = OkTopk::new(cfg);
                let mut residual = vec![0.0f32; n];
                let mut rng = StdRng::seed_from_u64(61 + comm.rank() as u64);
                let mut steps = Vec::new();
                for t in 1..=3 * tau {
                    let grad: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    let acc: Vec<f32> =
                        residual.iter().zip(&grad).map(|(&e, &g)| e + 0.1 * g).collect();
                    let want = reference.allreduce(comm, &acc, t);
                    residual.copy_from_slice(&acc);
                    for &i in &want.contributed {
                        residual[i as usize] = 0.0;
                    }
                    let mut want_update = want.update.as_ref().clone();
                    want_update.scale(1.0 / p as f32);

                    let repartition = sgd.allreduce_state().is_repartition_iteration(t);
                    let step = sgd.step(comm, &grad, 0.1);
                    let at = format!("p={p} rank={} t={t}", comm.rank());
                    assert_eq!(step.update.indexes(), want_update.indexes(), "{at}");
                    assert_eq!(bits(step.update.values()), bits(want_update.values()), "{at}");
                    assert_eq!(step.contributed, want.contributed, "{at}");
                    assert_eq!(bits(sgd.residual()), bits(&residual), "{at}");
                    // What this rank brought to the consensus, for the reference.
                    let local = repartition
                        .then(|| select_ge(&acc, step.local_th.unwrap()).indexes().to_vec());
                    steps.push((Arc::clone(&sgd.allreduce_state().boundaries), step.update, local));
                }
                steps
            });
            let repartitions = (0..3 * tau).filter(|&t| report.results[0][t].2.is_some()).count();
            assert_eq!(repartitions, 3, "p={p}");
            for t in 0..3 * tau {
                let (bounds, update, local) = &report.results[0][t];
                for (rank, steps) in report.results.iter().enumerate() {
                    let at = format!("p={p} rank={rank} step {}", t + 1);
                    assert!(Arc::ptr_eq(&steps[t].0, bounds), "{at}: a second boundary vector");
                    assert!(Arc::ptr_eq(&steps[t].1, update), "{at}: a second update");
                }
                if local.is_some() {
                    let mine: Vec<Vec<f64>> = report
                        .results
                        .iter()
                        .map(|s| {
                            balanced_boundaries(s[t].2.as_ref().expect("all ranks"), n as u32, p)
                        })
                        .collect();
                    let want = consensus_boundaries(&consensus_sum_reference(&mine), p, n as u32);
                    assert_eq!(**bounds, want, "p={p} step {}: boundaries", t + 1);
                }
            }
        }
    }

    #[test]
    fn intersect_sorted_basics() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 9], &[2, 3, 9, 10]), vec![3, 9]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u32>::new());
        assert_eq!(intersect_sorted(&[7], &[7]), vec![7]);
        assert_eq!(intersect_sorted(&[1, 2], &[3, 4]), Vec::<u32>::new());
    }

    #[test]
    fn naive_partition_ablation_still_correct() {
        let (p, n, k) = (4, 300, 30);
        let accs = random_accs(p, n, 13);
        let expect = reference(&accs, k);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut okt = OkTopk::new(
                OkTopkConfig::new(n, k)
                    .with_periods(1, 1)
                    .with_balanced_partition(false)
                    .with_rotation(false)
                    .with_data_balancing(false),
            );
            okt.allreduce(comm, &accs[comm.rank()], 1)
        });
        for out in &report.results {
            assert_eq!(out.update.indexes(), expect.indexes());
        }
    }
}
