//! Reusable scratch buffers for the steady-state selection hot path.
//!
//! Ok-Topk's per-iteration cost is dominated by a handful of O(n)/O(k) passes:
//! the radix select's counting passes, the threshold scan, the survivor
//! filter, and the shard merges of split-and-reduce. The algorithms are cheap;
//! what hurts at steady state is that each pass conjures fresh `Vec`s and drops
//! them microseconds later. [`SelectScratch`] owns that storage across
//! iterations: buffers are taken from a pool, filled, handed out as
//! [`CooGradient`]s, and recycled back once the gradient has been consumed.
//! After a warm-up iteration or two the capacities cover the steady-state
//! working set and the whole selection path performs **zero heap allocations**
//! (asserted by the `zero_alloc` integration test).
//!
//! The `*_with_threads` variants additionally run their O(n) passes
//! data-parallel over [`okpar`] chunk partitions, dispatched through okpar's
//! persistent worker pool (no per-call thread spawns). Chunks are always
//! consumed in index order, so the output is bit-identical to the serial pass
//! for every thread count (asserted by the `parity` proptest suite). The
//! auto-dispatching wrappers (`select_ge_scratch`, …) pick their thread count
//! adaptively — one worker per [`SCAN_GRAIN`] elements, capped at
//! [`okpar::configured_threads`] (the `OKTOPK_THREADS` knob) — so small inputs
//! take the serial path with zero dispatch overhead. The zero-allocation
//! steady-state guarantee holds on both paths: the serial path touches only
//! pooled buffers, and the pool's dispatch enqueues into a queue retained for
//! the process lifetime (allocation-free on the caller thread after warm-up).
//!
//! Within each chunk (and on the serial path) the O(n) loop bodies run through
//! the explicit-lane kernels in [`crate::simd`], so SIMD composes with the
//! okpar data-parallelism. The lane kernels are bit-identical to the scalar
//! scan at every width, so the parity guarantee above is unchanged.

use crate::coo::CooGradient;
use crate::select::{radix_select, RADIX_HIST_WORDS};
use okpar::SendPtr;

/// Elements per worker chunk for the O(n) scan passes — the selection
/// granularity cutoff. One worker per this many elements (so inputs under
/// twice this stay serial); calibrated so a chunk's scan (tens of µs) dwarfs
/// the ~1µs pool dispatch.
pub const SCAN_GRAIN: usize = 1 << 14;

/// Most buffer pairs ever retained in the pool; `recycle` beyond this drops the
/// buffers instead of hoarding them.
const MAX_POOL: usize = 8;

/// Pooled scratch storage for the selection path. See the module docs.
#[derive(Debug, Default)]
pub struct SelectScratch {
    /// The radix select's histograms ([`RADIX_HIST_WORDS`] once first used).
    hist: Vec<u32>,
    /// Per-chunk survivor counts for the two-pass parallel threshold scan.
    counts: Vec<usize>,
    /// Per-chunk output offsets (exclusive prefix sums of `counts`).
    offsets: Vec<usize>,
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

    /// The current capacity hint (largest nnz seen so far).
    pub fn nnz_hint(&self) -> usize {
        self.nnz_hint
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

    /// Return raw parallel arrays to the pool.
    pub fn recycle_parts(&mut self, idx: Vec<u32>, val: Vec<f32>) {
        if self.idx_pool.len() < MAX_POOL {
            self.idx_pool.push(idx);
        }
        if self.val_pool.len() < MAX_POOL {
            self.val_pool.push(val);
        }
    }

    fn note_nnz(&mut self, nnz: usize) {
        self.nnz_hint = self.nnz_hint.max(nnz);
    }
}

/// Pick the thread count for an auto-dispatched pass over `len` elements:
/// one worker per [`SCAN_GRAIN`] elements, capped at the configured count.
fn auto_threads(len: usize) -> usize {
    okpar::threads_for(len, SCAN_GRAIN)
}

/// [`crate::select::select_ge`] on pooled buffers, auto-parallel
/// (`OKTOPK_THREADS`). Allocation-free at steady state on the serial path.
pub fn select_ge_scratch(
    dense: &[f32],
    threshold: f32,
    scratch: &mut SelectScratch,
) -> CooGradient {
    select_ge_with_threads(dense, threshold, scratch, auto_threads(dense.len()))
}

/// [`select_ge_scratch`] with an explicit thread count (no size gate); the
/// result is bit-identical to the serial scan for every `threads`.
pub fn select_ge_with_threads(
    dense: &[f32],
    threshold: f32,
    scratch: &mut SelectScratch,
    threads: usize,
) -> CooGradient {
    let (mut idx, mut val) = scratch.take_pair();
    let chunks = okpar::chunk_count(dense.len(), threads);
    if chunks <= 1 {
        crate::simd::scan_keep_append(dense, threshold, 0, &mut idx, &mut val);
    } else {
        // Two passes so every entry lands exactly where the serial scan would
        // put it: count matches per chunk, prefix-sum into disjoint output
        // windows, then fill the windows in parallel — all through the
        // persistent pool, on pooled buffers (no per-call allocation).
        let SelectScratch { counts, offsets, .. } = scratch;
        counts.clear();
        counts.resize(chunks, 0);
        let counts_ptr = SendPtr::new(counts.as_mut_ptr());
        okpar::run_chunks(dense.len(), threads, |ci, r| {
            let c = crate::simd::count_keep(&dense[r], threshold);
            // Safety: each chunk index writes only its own counts slot.
            unsafe { *counts_ptr.get().add(ci) = c };
        });
        offsets.clear();
        let mut total = 0usize;
        for &c in counts.iter() {
            offsets.push(total);
            total += c;
        }
        idx.resize(total, 0);
        val.resize(total, 0.0);
        let idx_ptr = SendPtr::new(idx.as_mut_ptr());
        let val_ptr = SendPtr::new(val.as_mut_ptr());
        let (counts, offsets) = (&*counts, &*offsets);
        okpar::run_chunks(dense.len(), threads, |ci, r| {
            // Safety: output windows [offsets[ci], offsets[ci] + counts[ci])
            // are disjoint by construction of the prefix sums.
            let ip = unsafe { idx_ptr.slice_mut(offsets[ci], counts[ci]) };
            let vp = unsafe { val_ptr.slice_mut(offsets[ci], counts[ci]) };
            let base = r.start as u32;
            let w = crate::simd::scan_keep_write(&dense[r], threshold, base, ip, vp);
            debug_assert_eq!(w, ip.len());
        });
    }
    scratch.note_nnz(idx.len());
    CooGradient::from_sorted(idx, val)
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

/// [`crate::select::exact_threshold`] with the radix select's histograms kept
/// in the scratch. Reads `values` in place; allocation-free after the first call.
pub fn exact_threshold_scratch(values: &[f32], k: usize, scratch: &mut SelectScratch) -> f32 {
    scratch.hist.resize(RADIX_HIST_WORDS, 0);
    radix_select(values, k, &mut scratch.hist)
}

/// [`crate::select::topk_exact`] on pooled buffers, auto-parallel.
pub fn topk_exact_scratch(dense: &[f32], k: usize, scratch: &mut SelectScratch) -> CooGradient {
    topk_exact_with_threads(dense, k, scratch, auto_threads(dense.len()))
}

/// [`topk_exact_scratch`] with an explicit thread count.
pub fn topk_exact_with_threads(
    dense: &[f32],
    k: usize,
    scratch: &mut SelectScratch,
    threads: usize,
) -> CooGradient {
    if k == 0 || dense.is_empty() {
        return CooGradient::new();
    }
    let k = k.min(dense.len());
    let th = exact_threshold_scratch(dense, k, scratch);
    let selected = select_ge_with_threads(dense, th, scratch, threads);
    if selected.nnz() <= k {
        return selected;
    }
    // The scan overshot k on threshold-magnitude ties; drop the *last* excess
    // tied entries in place (keep lowest indexes, like `topk_exact`).
    let excess = selected.nnz() - k;
    let (mut idx, mut val) = selected.into_parts();
    let ties = val.iter().filter(|v| v.abs() == th).count();
    debug_assert!(ties >= excess);
    let keep_ties = ties - excess;
    let (mut seen, mut w) = (0usize, 0usize);
    for r in 0..idx.len() {
        if val[r].abs() == th {
            seen += 1;
            if seen > keep_ties {
                continue;
            }
        }
        idx[w] = idx[r];
        val[w] = val[r];
        w += 1;
    }
    debug_assert_eq!(w, k);
    idx.truncate(w);
    val.truncate(w);
    CooGradient::from_sorted(idx, val)
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
    use crate::select::{exact_threshold, select_ge, topk_exact};
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
    fn scratch_threshold_matches_plain_threshold() {
        let mut scratch = SelectScratch::new();
        for n in [1usize, 2, 17, 333, 2000] {
            let dense = random_dense(n, 7 + n as u64);
            for k in [1usize, 2, n / 2 + 1, n, n + 5] {
                assert_eq!(
                    exact_threshold_scratch(&dense, k, &mut scratch),
                    exact_threshold(&dense, k),
                    "n={n} k={k}"
                );
            }
        }
        assert_eq!(exact_threshold_scratch(&[], 3, &mut scratch), f32::INFINITY);
        assert_eq!(exact_threshold_scratch(&[1.0], 0, &mut scratch), f32::INFINITY);
    }

    #[test]
    fn scratch_topk_matches_plain_topk() {
        let mut scratch = SelectScratch::new();
        for n in [1usize, 8, 100, 999] {
            let dense = random_dense(n, 1 + n as u64);
            for k in [1usize, 3, n / 2 + 1, n] {
                let got = topk_exact_scratch(&dense, k, &mut scratch);
                let want = topk_exact(&dense, k);
                assert_eq!(got, want, "n={n} k={k}");
                scratch.recycle(got);
            }
        }
        // Tie-heavy input exercises the in-place trim.
        let ties = [0.5f32; 8];
        let got = topk_exact_scratch(&ties, 3, &mut scratch);
        assert_eq!(got.indexes(), &[0, 1, 2]);
    }

    #[test]
    fn parallel_paths_bit_identical_to_serial() {
        for n in [1usize, 2, 7, 100, 101, 1000, 4097] {
            let dense = random_dense(n, 90 + n as u64);
            let mut s1 = SelectScratch::new();
            let serial = select_ge_with_threads(&dense, 0.3, &mut s1, 1);
            for threads in [2usize, 3, 4, 7] {
                let mut sp = SelectScratch::new();
                let par = select_ge_with_threads(&dense, 0.3, &mut sp, threads);
                assert_eq!(par, serial, "n={n} threads={threads}");
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
        assert!(scratch.nnz_hint() >= warm_nnz);
        let (idx, val) = scratch.take_pair();
        assert!(idx.capacity() >= warm_nnz && val.capacity() >= warm_nnz);
        scratch.recycle_parts(idx, val);
    }
}
