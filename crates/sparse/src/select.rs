//! Exact top-k selection primitives.
//!
//! The paper's §2 reviews why top-k selection is a real cost on accelerators: full
//! sorts are `O(n log n)`, selection is `O(n)`. Ok-Topk sidesteps the cost by
//! computing an *exact* threshold only every τ′ iterations (with the radix select
//! here) and reusing it, so the steady-state per-iteration cost is a single `O(n)`
//! threshold scan.
//!
//! ## Magnitude order
//!
//! "k-th largest magnitude" means k-th largest *magnitude bit pattern*,
//! `v.to_bits() & 0x7fff_ffff` compared as an integer. On finite values that is
//! the usual order of `|v|`; it also fixes the cases `<` leaves open: `-0.0` and
//! `+0.0` are equal, subnormals sit between zero and the smallest normal, `±∞`
//! is above every finite value and every NaN is above `∞`. [`exact_threshold`]
//! and [`exact_threshold_by_sort`] both use it, so they agree bit for bit on
//! every input. A NaN among the k
//! largest therefore *counts toward k* — and since `|v| >= th` is false whenever
//! either side is NaN, the threshold scan never emits it: the selection comes
//! out short by the number of NaNs (empty, if the threshold itself is NaN).
//!
//! This module provides the exact primitives; estimators that decide *when* to use
//! them live in [`crate::threshold`].

use crate::coo::CooGradient;
use std::sync::{Mutex, PoisonError};

/// Clears the sign bit: what is left of an `f32`'s bits is its magnitude key.
const MAGNITUDE_MASK: u32 = 0x7fff_ffff;
/// The 31-bit key is resolved most-significant digit first, 11 + 10 + 10 bits.
const TOP_BITS: u32 = 11;
const LOW_BITS: u32 = 10;
/// Interleaved copies of the counters, so that a run of equal keys (a residual
/// buffer that is mostly exact zeros) does not serialize on one counter's
/// store-to-load latency.
const TOP_COPIES: usize = 4;
const LOW_COPIES: usize = 2;
/// `u32` words of histogram the radix select needs (32 KiB).
const RADIX_HIST_WORDS: usize = TOP_COPIES << TOP_BITS;

/// The process's radix histograms, between selects. A select pops one, counts
/// into it and pushes it back without parking in between, so the pool holds
/// as many buffers as selects ever ran at once — the run tokens W under the
/// event engine, P under the thread oracle — and not one per rank, which at
/// P = 1024 would be 32 MiB for a select Ok-Topk runs once every τ′ steps.
static HISTOGRAMS: Mutex<Vec<Vec<u32>>> = Mutex::new(Vec::new());

#[inline(always)]
fn magnitude_key(v: f32) -> u32 {
    v.to_bits() & MAGNITUDE_MASK
}

/// The `k`-th largest magnitude in `values` — the exact top-k threshold (see the
/// module docs for the order on non-finite values).
///
/// `O(n)` by radix select, on 32 KiB of histograms from a process-wide pool:
/// allocation-free once as many selects as run concurrently have finished.
/// `k` is clamped to `[1, n]`; an empty input or `k = 0` yields `+∞` (select nothing).
pub fn exact_threshold(values: &[f32], k: usize) -> f32 {
    // Any buffer in the pool is valid — the select zeroes the counters it
    // uses — so a lock poisoned by a panic elsewhere is safe to recover.
    let pooled = HISTOGRAMS.lock().unwrap_or_else(PoisonError::into_inner).pop();
    let mut hist = pooled.unwrap_or_else(|| vec![0; RADIX_HIST_WORDS]);
    let th = radix_select(values, k, &mut hist);
    HISTOGRAMS.lock().unwrap_or_else(PoisonError::into_inner).push(hist);
    th
}

/// MSD radix select of the `k`-th largest magnitude key, reading `values` in
/// place: histogram the top 11 bits of every key, walk down from the top bucket
/// to the one that holds rank `k`, then twice histogram the next 10 bits of the
/// keys inside that bucket. Three counting passes whatever the data, no copy and
/// no data-dependent worst case. `hist` must hold [`RADIX_HIST_WORDS`] words.
fn radix_select(values: &[f32], k: usize, hist: &mut [u32]) -> f32 {
    if values.is_empty() || k == 0 {
        return f32::INFINITY;
    }
    assert!(values.len() <= u32::MAX as usize, "bucket counters are u32");
    let k = k.min(values.len());

    let buckets = 1usize << TOP_BITS;
    let counters = &mut hist[..TOP_COPIES * buckets];
    counters.fill(0);
    let shift = 2 * LOW_BITS;
    let mut blocks = values.chunks_exact(TOP_COPIES);
    for block in &mut blocks {
        for (copy, &v) in block.iter().enumerate() {
            counters[(copy << TOP_BITS) | (magnitude_key(v) >> shift) as usize] += 1;
        }
    }
    for &v in blocks.remainder() {
        counters[(magnitude_key(v) >> shift) as usize] += 1;
    }
    let (top, k) = bucket_of_rank(counters, buckets, k);
    let (mid, k) = refine(values, shift, top, hist, k);
    let prefix = (top << LOW_BITS) | mid;
    let (low, _) = refine(values, LOW_BITS, prefix, hist, k);
    f32::from_bits((prefix << LOW_BITS) | low)
}

/// One refinement pass: among the keys with `key >> shift == prefix`, the value of
/// the next [`LOW_BITS`] bits that holds rank `k` (counted from the largest), and
/// the rank left inside it.
fn refine(values: &[f32], shift: u32, prefix: u32, hist: &mut [u32], k: usize) -> (u32, usize) {
    const BLOCK: usize = 16;
    let buckets = 1usize << LOW_BITS;
    let counters = &mut hist[..LOW_COPIES * buckets];
    counters.fill(0);
    let digit = |key: u32| ((key >> (shift - LOW_BITS)) as usize) & (buckets - 1);
    let mut blocks = values.chunks_exact(BLOCK);
    for block in &mut blocks {
        // Most blocks hold no key of the wanted bucket; this branch-free test
        // vectorizes and skips them without touching the counters.
        let mut any = false;
        for &v in block {
            any |= magnitude_key(v) >> shift == prefix;
        }
        if any {
            for (j, &v) in block.iter().enumerate() {
                let key = magnitude_key(v);
                if key >> shift == prefix {
                    counters[((j % LOW_COPIES) << LOW_BITS) | digit(key)] += 1;
                }
            }
        }
    }
    for &v in blocks.remainder() {
        let key = magnitude_key(v);
        if key >> shift == prefix {
            counters[digit(key)] += 1;
        }
    }
    bucket_of_rank(counters, buckets, k)
}

/// Walk the summed copies of a histogram down from the top bucket to the one
/// holding rank `k`; returns that bucket and the rank left inside it.
fn bucket_of_rank(counters: &[u32], buckets: usize, mut k: usize) -> (u32, usize) {
    for b in (0..buckets).rev() {
        let count: usize = counters[b..].iter().step_by(buckets).map(|&c| c as usize).sum();
        if count >= k {
            return (b as u32, k);
        }
        k -= count;
    }
    unreachable!("rank {k} exceeds the number of counted keys")
}

/// The same threshold computed by a full sort; `O(n log n)`. Used as the reference
/// implementation in tests and as the "naive sort-based selection" cost baseline.
/// (`total_cmp` on sign-cleared values *is* the magnitude-key order.)
pub fn exact_threshold_by_sort(values: &[f32], k: usize) -> f32 {
    if values.is_empty() || k == 0 {
        return f32::INFINITY;
    }
    let k = k.min(values.len());
    let mut mags: Vec<f32> = values.iter().map(|v| v.abs()).collect();
    mags.sort_unstable_by(f32::total_cmp);
    mags[mags.len() - k]
}

/// Select all entries with `|value| >= threshold` from a dense gradient — the
/// GPU-friendly `O(n)` scan the paper's steady-state iterations use.
///
/// Exact zeros are never selected (even at threshold 0): an explicit zero carries no
/// information in a sparse gradient, and dense↔COO wire conversions cannot
/// round-trip it.
///
/// Allocates fresh output buffers every call; the steady-state training path uses
/// [`crate::scratch::select_ge_scratch`], which reuses pooled buffers sized from
/// the previous iteration's nnz.
pub fn select_ge(dense: &[f32], threshold: f32) -> CooGradient {
    let mut indexes = Vec::new();
    let mut values = Vec::new();
    for (i, &v) in dense.iter().enumerate() {
        if v.abs() >= threshold && v != 0.0 {
            indexes.push(i as u32);
            values.push(v);
        }
    }
    CooGradient::from_sorted(indexes, values)
}

/// Exact top-k selection: the `k` entries of largest magnitude, ties broken toward
/// lower indexes. Returns `min(k, #nonzeros)` entries (exact zeros are never
/// selected; see [`select_ge`]).
pub fn topk_exact(dense: &[f32], k: usize) -> CooGradient {
    if k == 0 || dense.is_empty() {
        return CooGradient::new();
    }
    let k = k.min(dense.len());
    let th = exact_threshold(dense, k);
    // A threshold scan may overshoot k when magnitudes tie at the threshold;
    // trim the excess among threshold-equal entries (keep lowest indexes).
    let selected = select_ge(dense, th);
    if selected.nnz() <= k {
        return selected;
    }
    let excess = selected.nnz() - k;
    let (idx, val) = selected.into_parts();
    let mut at_threshold_to_drop = excess;
    let mut keep_idx = Vec::with_capacity(k);
    let mut keep_val = Vec::with_capacity(k);
    // Drop the *last* `excess` entries whose magnitude equals the threshold.
    let ties: Vec<usize> = (0..idx.len()).filter(|&i| val[i].abs() == th).collect();
    let drop_from = ties.len() - at_threshold_to_drop;
    let drop_set: std::collections::HashSet<usize> = ties[drop_from..].iter().copied().collect();
    for i in 0..idx.len() {
        if drop_set.contains(&i) {
            at_threshold_to_drop -= 1;
            continue;
        }
        keep_idx.push(idx[i]);
        keep_val.push(val[i]);
    }
    debug_assert_eq!(at_threshold_to_drop, 0);
    CooGradient::from_sorted(keep_idx, keep_val)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn radix_select_matches_sort_threshold() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 17, 100, 1000] {
            let values: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            for k in [1usize, 2, n / 2 + 1, n] {
                let a = exact_threshold(&values, k);
                let b = exact_threshold_by_sort(&values, k);
                assert_eq!(a, b, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn pooled_histograms_carry_nothing_from_one_select_to_the_next() {
        // Large, then small, then large again: every select but the first runs
        // on a histogram another one has counted into.
        let mut rng = StdRng::seed_from_u64(42);
        for n in [2000usize, 1, 333, 17, 2, 2000] {
            let values: Vec<f32> = (0..n)
                .map(|_| {
                    let v = rng.gen_range(-1.0f32..1.0);
                    if v.abs() < 0.2 {
                        0.0
                    } else {
                        v
                    }
                })
                .collect();
            for k in [1usize, 2, n / 2 + 1, n, n + 5] {
                let got = exact_threshold(&values, k);
                assert_eq!(got, exact_threshold_by_sort(&values, k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn empty_and_zero_k() {
        assert_eq!(exact_threshold(&[], 3), f32::INFINITY);
        assert_eq!(exact_threshold(&[1.0], 0), f32::INFINITY);
        assert!(topk_exact(&[], 3).is_empty());
        assert!(topk_exact(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn topk_exact_returns_exactly_k() {
        let dense = [0.1f32, -0.9, 0.5, 0.5, -0.5, 0.2];
        let g = topk_exact(&dense, 3);
        assert_eq!(g.nnz(), 3);
        // Largest magnitudes are 0.9 and then the 0.5-ties; lowest indexes kept.
        assert_eq!(g.indexes(), &[1, 2, 3]);
    }

    #[test]
    fn topk_with_all_equal_values() {
        let dense = [0.5f32; 8];
        let g = topk_exact(&dense, 3);
        assert_eq!(g.nnz(), 3);
        assert_eq!(g.indexes(), &[0, 1, 2]);
    }

    #[test]
    fn select_ge_scan() {
        let dense = [0.1f32, -0.9, 0.5, 0.0];
        let g = select_ge(&dense, 0.5);
        assert_eq!(g.indexes(), &[1, 2]);
        assert_eq!(g.values(), &[-0.9, 0.5]);
    }

    #[test]
    fn k_larger_than_n_selects_all() {
        let dense = [0.3f32, -0.1];
        let g = topk_exact(&dense, 10);
        assert_eq!(g.nnz(), 2);
    }

    #[test]
    fn radix_select_is_fast_on_mostly_zero_input() {
        // Residual accumulators are ~99% exact zeros: every counting pass piles
        // onto one bucket, which must cost a constant factor and nothing more.
        let n = 1 << 18;
        let mut values = vec![0.0f32; n];
        for i in 0..n / 100 {
            values[i * 100] = (i as f32 + 1.0) * 0.001;
        }
        let start = std::time::Instant::now();
        let th = exact_threshold(&values, n / 200);
        assert!(th > 0.0);
        assert!(
            start.elapsed() < std::time::Duration::from_millis(500),
            "radix select took {:?} on duplicate-heavy input",
            start.elapsed()
        );
        assert_eq!(th, exact_threshold_by_sort(&values, n / 200));
    }

    #[test]
    fn radix_select_handles_duplicates_and_negatives() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let n = rng.gen_range(1..200);
            let values: Vec<f32> =
                (0..n).map(|_| (rng.gen_range(-5i32..5) as f32) * 0.25).collect();
            let k = rng.gen_range(1..=n);
            assert_eq!(exact_threshold(&values, k), exact_threshold_by_sort(&values, k));
        }
    }

    #[test]
    fn non_finite_values_follow_the_magnitude_key_order() {
        // NaN above ±∞ above every finite value; −0.0 = +0.0 below the subnormals.
        let sub = f32::from_bits(1);
        let values = [1.0f32, f32::NAN, -2.0, f32::NEG_INFINITY, -0.0, sub, 0.0, f32::INFINITY];
        let want = [f32::NAN, f32::INFINITY, f32::INFINITY, 2.0, 1.0, sub, 0.0, 0.0];
        for (k, w) in (1..).zip(want) {
            let got = exact_threshold(&values, k);
            assert_eq!(got.to_bits(), w.to_bits(), "k={k}");
            assert_eq!(got.to_bits(), exact_threshold_by_sort(&values, k).to_bits(), "k={k}");
        }
        // A NaN that ranks in the top k takes one of the k places and is never
        // emitted; a NaN threshold selects nothing.
        assert_eq!(select_ge(&values, exact_threshold(&values, 4)).indexes(), &[2, 3, 7]);
        assert!(select_ge(&values, exact_threshold(&values, 1)).is_empty());
    }
}
