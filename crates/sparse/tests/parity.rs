//! Parity of the scratch-based selection kernels and the SIMD lane kernels
//! with their plain references.
//!
//! `sparse::scratch` promises results *bit-identical* to the allocating
//! references in `sparse::select`, on a cold scratch and on one whose pooled
//! buffers have been used; the radix select agrees with the full sort on cold
//! and used histograms; `sparse::simd` promises every kernel bit-identical to
//! the scalar loop at every lane width.

use proptest::prelude::*;
use sparse::scratch::{filter_abs_ge_scratch, select_ge_scratch, SelectScratch};
use sparse::select::{exact_threshold, exact_threshold_by_sort, select_ge};
use sparse::CooGradient;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Dense vectors with repeated magnitudes (ties), exact zeros and signed
/// values — the cases where a sloppy scan would diverge first.
fn dense_vec() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        prop_oneof![
            -1.0f32..1.0f32,
            -1.0f32..1.0f32,
            -1.0f32..1.0f32,
            Just(0.0f32),
            (0..8u32).prop_map(|q| q as f32 * 0.125),
            (0..8u32).prop_map(|q| q as f32 * -0.125),
        ],
        0..523,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn select_ge_scratch_matches_allocating(
        dense in dense_vec(),
        threshold in 0.0f32..0.9,
    ) {
        let want = select_ge(&dense, threshold);
        let mut scratch = SelectScratch::new();
        // Twice per scratch: the second call runs on recycled buffers.
        for round in 0..2 {
            let got = select_ge_scratch(&dense, threshold, &mut scratch);
            prop_assert_eq!(got.indexes(), want.indexes(), "indexes diverged: round={}", round);
            prop_assert_eq!(
                bits(got.values()), bits(want.values()),
                "values diverged: round={}", round
            );
            scratch.recycle(got);
        }
    }

    #[test]
    fn pooled_exact_threshold_matches_sort(
        dense in dense_vec(),
        k in 0usize..64,
    ) {
        let want = exact_threshold_by_sort(&dense, k);
        // Twice: the second call runs on a histogram the first counted into.
        for round in 0..2 {
            let got = exact_threshold(&dense, k);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "round={}", round);
        }
    }

    #[test]
    fn filter_abs_ge_scratch_matches_coo_filter(
        dense in dense_vec(),
        threshold in 0.0f32..0.9,
    ) {
        // Build a sparse input from the dense draw, then filter both ways.
        let g = select_ge(&dense, 1e-6);
        let want = g.filter_abs_ge(threshold);
        let mut scratch = SelectScratch::new();
        let got = filter_abs_ge_scratch(&g, threshold, &mut scratch);
        prop_assert_eq!(got.indexes(), want.indexes());
        prop_assert_eq!(bits(got.values()), bits(want.values()));
    }
}

/// Tie-heavy input with exact zeros, far longer than any tile or lane width.
fn large_quantized(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            let v = ((h >> 33) % 2000) as f32 / 1000.0 - 1.0;
            if v.abs() < 0.5 {
                0.0
            } else {
                (v * 8.0).round() / 8.0
            }
        })
        .collect()
}

/// Deterministic sweep over lengths straddling the lane widths (4, 8) and the
/// scan's block boundaries, plus one large tie-heavy input, all on one shared
/// scratch.
#[test]
fn boundary_lengths_are_bit_identical() {
    let mut scratch = SelectScratch::new();
    let mut inputs: Vec<Vec<f32>> = [0, 1, 2, 6, 7, 8, 13, 27, 28, 29, 255, 256, 257]
        .iter()
        .map(|&len| (0..len).map(|i| ((i as f32 * 0.37).sin() * 100.0).round() / 100.0).collect())
        .collect();
    inputs.push(large_quantized(8 * (1 << 14) + 13, 7));
    for dense in &inputs {
        let len = dense.len();
        let want_sel = select_ge(dense, 0.25);
        let got_sel = select_ge_scratch(dense, 0.25, &mut scratch);
        assert_eq!(got_sel, want_sel, "select_ge len={len}");
        scratch.recycle(got_sel);

        for k in [0, 1, len / 50, len / 2, len] {
            let want = exact_threshold_by_sort(dense, k);
            let got = exact_threshold(dense, k);
            assert_eq!(got.to_bits(), want.to_bits(), "exact_threshold len={len} k={k}");
            let want_k = select_ge(dense, want);
            let got_k = select_ge_scratch(dense, got, &mut scratch);
            assert_eq!(got_k, want_k, "select at exact threshold len={len} k={k}");
            scratch.recycle(got_k);
        }
    }
}

/// SIMD/scalar lane parity: every `sparse::simd` kernel must be bit-identical
/// to the scalar reference — the mask kernels at widths {scalar, 4, 8},
/// regardless of whether the host accelerates the width (unsupported widths
/// fall back to portable lane cores computing the same math).
mod lane_parity {
    use super::{bits, dense_vec};
    use proptest::prelude::*;
    use sparse::simd::{self, Lanes};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn counts_match_scalar(dense in dense_vec(), th in 0.0f32..0.9) {
            let want_ge = dense.iter().filter(|v| v.abs() >= th).count();
            for lanes in Lanes::ALL {
                prop_assert_eq!(simd::count_abs_ge_with_lanes(&dense, th, lanes), want_ge,
                    "count_abs_ge lanes={:?}", lanes);
            }
        }

        #[test]
        fn keep_scan_matches_scalar(dense in dense_vec(), th in 0.0f32..0.9, base in 0u32..1000) {
            let (mut want_i, mut want_v) = (Vec::new(), Vec::new());
            simd::scan_keep_append_with_lanes(&dense, th, base, &mut want_i, &mut want_v, Lanes::S1);
            for lanes in [Lanes::W4, Lanes::W8] {
                let (mut gi, mut gv) = (Vec::new(), Vec::new());
                simd::scan_keep_append_with_lanes(&dense, th, base, &mut gi, &mut gv, lanes);
                prop_assert_eq!(&gi, &want_i, "append indexes lanes={:?}", lanes);
                prop_assert_eq!(bits(&gv), bits(&want_v), "append values lanes={:?}", lanes);
            }
        }

        #[test]
        fn elementwise_kernels_match_scalar(
            dense in dense_vec(),
            other in dense_vec(),
            scale in -2.0f32..2.0,
        ) {
            let n = dense.len().min(other.len());
            let (a, g) = (&dense[..n], &other[..n]);
            let mut acc = vec![0f32; n];
            simd::fused_scale_add(&mut acc, a, g, scale);
            let want: Vec<f32> = a.iter().zip(g).map(|(&e, &gv)| e + scale * gv).collect();
            prop_assert_eq!(bits(&acc), bits(&want), "fused_scale_add");

            let mut scaled = a.to_vec();
            simd::scale_inplace(&mut scaled, scale);
            let want: Vec<f32> = a.iter().map(|&v| v * scale).collect();
            prop_assert_eq!(bits(&scaled), bits(&want), "scale_inplace");
        }

        /// The fused accumulate+select leaves the residual bits and emits the
        /// selection that `fused_scale_add` into a second buffer followed by
        /// `select_ge` does — for lengths around the tile and lane widths and
        /// for the thresholds that select everything, nothing, and (NaN) nothing.
        #[test]
        fn accumulate_select_matches_fuse_then_select(
            seed in any::<u64>(),
            len in prop_oneof![
                0usize..40,
                2040usize..2060,
                4090usize..4110,
                Just(0usize),
                Just(2048usize),
            ],
            scale in -2.0f32..2.0,
            th in prop_oneof![
                0.0f32..0.9,
                Just(0.0f32),
                Just(f32::INFINITY),
                Just(f32::NAN),
            ],
        ) {
            let draw = |salt: u64| -> Vec<f32> {
                (0..len as u64)
                    .map(|i| {
                        let h = (i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
                        match h >> 61 {
                            0 => 0.0,
                            1 => ((h >> 20) % 8) as f32 * 0.125,
                            _ => ((h >> 20) % 2001) as f32 / 1000.0 - 1.0,
                        }
                    })
                    .collect()
            };
            let (e, g) = (draw(1), draw(2));
            let mut acc = vec![0f32; len];
            simd::fused_scale_add(&mut acc, &e, &g, scale);
            let want = sparse::select::select_ge(&acc, th);

            let mut residual = e.clone();
            let (mut gi, mut gv) = (Vec::new(), Vec::new());
            simd::accumulate_scan_keep_append(&mut residual, &g, scale, th, &mut gi, &mut gv);
            prop_assert_eq!(bits(&residual), bits(&acc), "residual");
            prop_assert_eq!(&gi[..], want.indexes(), "indexes");
            prop_assert_eq!(bits(&gv), bits(want.values()), "values");
        }

        #[test]
        fn gather_madd_matches_scalar(
            src in super::dense_vec(),
            width in 0usize..80,
            rows in prop::collection::vec((0usize..1000, -2.0f32..2.0), 0..12),
        ) {
            // `width` output lanes cover the 32- and 8-wide panels and every
            // remainder; each gathered row starts anywhere it fits in `src`.
            let width = width.min(src.len());
            let (offs, coefs): (Vec<usize>, Vec<f32>) = rows
                .iter()
                .map(|&(o, c)| (o % (src.len() - width + 1), c))
                .unzip();
            let init: Vec<f32> = (0..width).map(|i| (i as f32 * 0.31).sin()).collect();
            // Scalar reference: every lane adds its terms in ascending row order.
            let mut want = init.clone();
            for (&off, &c) in offs.iter().zip(&coefs) {
                for (p, o) in want.iter_mut().enumerate() {
                    *o += c * src[off + p];
                }
            }
            let mut got = init.clone();
            simd::gather_madd(&mut got, &src, &offs, &coefs);
            prop_assert_eq!(bits(&got), bits(&want), "gather_madd");

            let mut got1 = init.clone();
            for (&off, &c) in offs.iter().zip(&coefs) {
                simd::axpy(&mut got1, &src[off..], c);
            }
            prop_assert_eq!(bits(&got1), bits(&want), "axpy chain");
        }
    }
}

/// A shared scratch carried across heterogeneous calls must never leak state
/// from one call into the next.
#[test]
fn scratch_reuse_across_mixed_calls_is_stateless() {
    let mut scratch = SelectScratch::new();
    let a: Vec<f32> = (0..300).map(|i| ((i * 7 % 13) as f32 - 6.0) / 6.0).collect();
    let b: Vec<f32> = (0..41).map(|i| ((i * 5 % 11) as f32 - 5.0) / 5.0).collect();
    for _ in 0..3 {
        let got = select_ge_scratch(&a, 0.5, &mut scratch);
        assert_eq!(got, select_ge(&a, 0.5));
        scratch.recycle(got);
        assert_eq!(exact_threshold(&b, 9), exact_threshold_by_sort(&b, 9));
        let g = CooGradient::from_sorted(vec![2, 5, 9], vec![0.1, -0.9, 0.4]);
        assert_eq!(filter_abs_ge_scratch(&g, 0.3, &mut scratch), g.filter_abs_ge(0.3));
    }
}
