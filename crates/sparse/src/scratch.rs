//! Reusable scratch buffers for the steady-state selection hot path.
//!
//! Ok-Topk's per-iteration cost is dominated by a handful of O(n)/O(k) passes:
//! the threshold scan, the survivor filter, and the shard merges of
//! split-and-reduce. The algorithms are cheap; what hurts at steady state is
//! that each pass conjures fresh `Vec`s and drops them microseconds later.
//! [`SelectScratch`] owns that storage across
//! iterations: buffers are taken from a pool, filled, handed out as
//! [`CooGradient`]s, and recycled back once the gradient has been consumed.
//! After a warm-up iteration or two the capacities cover the steady-state
//! working set and the whole selection path performs **zero heap allocations**
//! (asserted by the `zero_alloc` integration test). The radix select's
//! histograms are not per scratch: [`crate::select::exact_threshold`] takes
//! them from one process-wide pool.
//!
//! Every pass here runs serially on the calling rank's thread, its O(n) loop
//! bodies through the explicit-lane kernels in [`crate::simd`] (bit-identical
//! to the scalar scan at every width — the `parity` proptest suite). Ranks are
//! the unit of host parallelism: cores are shared between ranks by `simnet`'s
//! event engine, never inside a kernel (DESIGN.md §7).

use crate::coo::CooGradient;
use crate::select::exact_threshold;

/// Most buffer pairs ever retained in the pool; `recycle` beyond this drops the
/// buffers instead of hoarding them. A steady Ok-Topk step takes three pairs:
/// its local selection, split-and-reduce's merge spare and the
/// global-threshold survivors (which leave with the allgatherv), so a deeper
/// pool only keeps hint-sized pairs idle on every rank.
const MAX_POOL: usize = 3;

/// Pooled scratch storage for the selection path. See the module docs.
#[derive(Debug, Default)]
pub struct SelectScratch {
    idx_pool: Vec<Vec<u32>>,
    val_pool: Vec<Vec<f32>>,
    /// Largest nnz produced so far; `take_pair` pre-reserves this much so the
    /// serial push loops never reallocate at steady state.
    nnz_hint: usize,
}

impl SelectScratch {
    /// Empty scratch; buffers warm up over the first iterations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch whose first `take_pair` already reserves `hint` entries.
    pub fn with_nnz_hint(hint: usize) -> Self {
        Self { nnz_hint: hint, ..Self::default() }
    }

    /// Take a cleared `(indexes, values)` buffer pair from the pool, with
    /// capacity at least the current nnz hint.
    pub fn take_pair(&mut self) -> (Vec<u32>, Vec<f32>) {
        let mut idx = self.idx_pool.pop().unwrap_or_default();
        let mut val = self.val_pool.pop().unwrap_or_default();
        idx.clear();
        val.clear();
        // `reserve` is a no-op once the pooled capacity covers the hint.
        idx.reserve(self.nnz_hint);
        val.reserve(self.nnz_hint);
        (idx, val)
    }

    /// Return a consumed gradient's storage to the pool.
    pub fn recycle(&mut self, g: CooGradient) {
        let (idx, val) = g.into_parts();
        self.recycle_parts(idx, val);
    }

    /// Return raw parallel arrays to the pool. A buffer smaller than the nnz
    /// hint (a `to_vec` of an incoming shard, empty or not) is dropped:
    /// pooled, it would take a slot and make the next `take_pair` grow it.
    pub fn recycle_parts(&mut self, idx: Vec<u32>, val: Vec<f32>) {
        let fits = |cap: usize| cap > 0 && cap >= self.nnz_hint;
        if self.idx_pool.len() < MAX_POOL && fits(idx.capacity()) {
            self.idx_pool.push(idx);
        }
        if self.val_pool.len() < MAX_POOL && fits(val.capacity()) {
            self.val_pool.push(val);
        }
    }

    fn note_nnz(&mut self, nnz: usize) {
        self.nnz_hint = self.nnz_hint.max(nnz);
    }
}

/// [`crate::select::select_ge`] on pooled buffers. Allocation-free at steady
/// state.
pub fn select_ge_scratch(
    dense: &[f32],
    threshold: f32,
    scratch: &mut SelectScratch,
) -> CooGradient {
    let (mut idx, mut val) = scratch.take_pair();
    crate::simd::scan_keep_append(dense, threshold, 0, &mut idx, &mut val);
    scratch.note_nnz(idx.len());
    CooGradient::from_sorted(idx, val)
}

/// Frozen benchmark surface: `benchmark/src/probes.rs:188` times this at 1 and
/// 2 threads for `okpar.select_t2_over_t1`. Delete with that call.
#[doc(hidden)]
pub fn select_ge_with_threads(
    dense: &[f32],
    threshold: f32,
    scratch: &mut SelectScratch,
    _threads: usize,
) -> CooGradient {
    select_ge_scratch(dense, threshold, scratch)
}

/// [`crate::simd::accumulate_scan_keep_append`] on pooled buffers: error
/// feedback `residual += scale·grad` in place and the `|ε| >= threshold`
/// selection of the result, in one serial pass over both arrays.
pub fn accumulate_select_scratch(
    residual: &mut [f32],
    grad: &[f32],
    scale: f32,
    threshold: f32,
    scratch: &mut SelectScratch,
) -> CooGradient {
    let (mut idx, mut val) = scratch.take_pair();
    crate::simd::accumulate_scan_keep_append(residual, grad, scale, threshold, &mut idx, &mut val);
    scratch.note_nnz(idx.len());
    CooGradient::from_sorted(idx, val)
}

/// Frozen benchmark surface: `benchmark/src/probes.rs:80,185` time this.
/// [`exact_threshold`] pools its own histograms, so the scratch goes unused.
/// Delete with those calls.
#[doc(hidden)]
pub fn exact_threshold_scratch(values: &[f32], k: usize, _scratch: &mut SelectScratch) -> f32 {
    exact_threshold(values, k)
}

/// [`CooGradient::filter_abs_ge`] writing into pooled buffers.
pub fn filter_abs_ge_scratch(
    g: &CooGradient,
    threshold: f32,
    scratch: &mut SelectScratch,
) -> CooGradient {
    let (mut idx, mut val) = scratch.take_pair();
    for (i, v) in g.iter() {
        if v.abs() >= threshold {
            idx.push(i);
            val.push(v);
        }
    }
    scratch.note_nnz(idx.len());
    CooGradient::from_sorted(idx, val)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::select_ge;
    use rand::prelude::*;

    fn random_dense(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let v = rng.gen_range(-1.0f32..1.0);
                if v.abs() < 0.2 {
                    0.0 // exercise the zero-skip and duplicate-heavy regime
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn scratch_select_matches_plain_select() {
        let mut scratch = SelectScratch::new();
        for n in [0usize, 1, 5, 100, 1000] {
            let dense = random_dense(n, 42 + n as u64);
            for th in [0.0f32, 0.3, 0.9, f32::INFINITY] {
                let got = select_ge_scratch(&dense, th, &mut scratch);
                let want = select_ge(&dense, th);
                assert_eq!(got, want, "n={n} th={th}");
                scratch.recycle(got);
            }
        }
    }

    #[test]
    fn frozen_forwarder_ignores_its_thread_count() {
        let mut scratch = SelectScratch::new();
        for n in [0usize, 7, 4097] {
            let dense = random_dense(n, 90 + n as u64);
            let want = select_ge_scratch(&dense, 0.3, &mut scratch);
            for threads in [1usize, 2, 17] {
                let got = select_ge_with_threads(&dense, 0.3, &mut scratch, threads);
                assert_eq!(got, want, "n={n} threads={threads}");
                scratch.recycle(got);
            }
        }
    }

    #[test]
    fn filter_scratch_matches_plain_filter() {
        let mut scratch = SelectScratch::new();
        let g = CooGradient::from_unsorted(vec![(0, 0.1), (4, -0.5), (9, 0.3)]);
        let got = filter_abs_ge_scratch(&g, 0.3, &mut scratch);
        assert_eq!(got, g.filter_abs_ge(0.3));
    }

    #[test]
    fn pool_reuses_capacity_across_iterations() {
        let mut scratch = SelectScratch::new();
        let dense = random_dense(5000, 3);
        // Warm up, then confirm the recycled buffers keep their capacity.
        let g = select_ge_scratch(&dense, 0.0, &mut scratch);
        let warm_nnz = g.nnz();
        scratch.recycle(g);
        assert!(scratch.nnz_hint >= warm_nnz);
        let (idx, val) = scratch.take_pair();
        assert!(idx.capacity() >= warm_nnz && val.capacity() >= warm_nnz);
        scratch.recycle_parts(idx, val);
    }
}
