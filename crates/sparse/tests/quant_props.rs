//! Property tests for the quantized sparse gradients (`sparse::quant`).
//!
//! Linear max-abs quantization makes three promises the unit tests only spot-
//! check: the round-trip error of every value is bounded by half a quantization
//! step (the mode's `max_abs_error` is one step, so ~0.5·step + rounding slop),
//! indexes survive exactly, and the wire accounting always beats raw COO while
//! never under-counting the packed payload. The scale pass itself runs through
//! the SIMD `max_abs` kernel, so its lane parity is asserted here too.

use proptest::prelude::*;
use sparse::quant::{QuantMode, QuantizedCoo};
use sparse::simd;
use sparse::CooGradient;

/// Sparse gradients with mixed magnitudes, signs, and a few near-zero values —
/// plus the occasional large outlier that dominates the scale.
fn coo_strategy() -> impl Strategy<Value = CooGradient> {
    prop::collection::vec(
        (
            0u32..100_000,
            prop_oneof![-1.0f32..1.0f32, -0.01f32..0.01f32, -100.0f32..100.0f32, Just(0.0f32),],
        ),
        0..300,
    )
    .prop_map(CooGradient::from_unsorted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_error_is_within_half_a_step(g in coo_strategy()) {
        let max_abs = g.values().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        for mode in [QuantMode::Q16, QuantMode::Q8] {
            let q = QuantizedCoo::quantize(&g, mode);
            let back = q.dequantize();
            prop_assert_eq!(back.indexes(), g.indexes(), "{:?}: indexes must survive", mode);
            prop_assert_eq!(back.nnz(), g.nnz());
            // Round-to-nearest: error ≤ 0.51 steps (slop for the f32 division),
            // except Q8's saturating clamp which stays within one full step.
            let step = mode.max_abs_error(max_abs);
            let bound = step * 0.51 + f32::EPSILON * max_abs.max(1.0);
            for (&orig, &rec) in g.values().iter().zip(back.values()) {
                prop_assert!(
                    (orig - rec).abs() <= bound.max(step),
                    "{:?}: {} -> {} exceeds bound {}", mode, orig, rec, bound
                );
            }
        }
    }

    #[test]
    fn quantization_is_idempotent(g in coo_strategy()) {
        // Quantize → dequantize → quantize must reproduce the same wire data:
        // dequantized values are exact multiples of the scale, so the second
        // pass re-derives the same grid (up to the max-abs value, which is
        // reconstructed exactly by construction).
        for mode in [QuantMode::Q16, QuantMode::Q8] {
            let once = QuantizedCoo::quantize(&g, mode).dequantize();
            let twice = QuantizedCoo::quantize(&once, mode).dequantize();
            let max_abs = once.values().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let tol = mode.max_abs_error(max_abs) * 0.51 + f32::EPSILON;
            for (&a, &b) in once.values().iter().zip(twice.values()) {
                prop_assert!((a - b).abs() <= tol, "{:?}: {} vs {}", mode, a, b);
            }
        }
    }

    #[test]
    fn wire_size_accounting_is_exact(g in coo_strategy()) {
        use simnet::WireSize;
        let k = g.nnz();
        let q16 = QuantizedCoo::quantize(&g, QuantMode::Q16).wire_elems();
        let q8 = QuantizedCoo::quantize(&g, QuantMode::Q8).wire_elems();
        // k u32 indexes + ceil(k/2) or ceil(k/4) packed value words + 1 scale word.
        prop_assert_eq!(q16, (k + k.div_ceil(2)) as u64 + 1);
        prop_assert_eq!(q8, (k + k.div_ceil(4)) as u64 + 1);
        // The +1 scale word means the break-even is k=4 (Q16) — at k=3 the
        // packing exactly ties COO's 2k.
        if k >= 4 {
            prop_assert!(q16 < 2 * k as u64, "Q16 must beat COO for k={}", k);
            prop_assert!(q8 < q16, "Q8 must beat Q16 for k={}", k);
        }
    }

    #[test]
    fn scale_pass_is_lane_invariant(g in coo_strategy()) {
        // The quantizer's max-abs scan runs through sparse::simd's lane core;
        // the scale (and therefore every quantized value) must equal a serial
        // fold's.
        let want = g.values().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        prop_assert_eq!(simd::max_abs(g.values()).to_bits(), want.to_bits());
    }

    #[test]
    fn largest_magnitude_survives_exactly(g in coo_strategy()) {
        // The max-abs value defines the scale, so it must round-trip to within
        // one float ulp of itself under Q16 (it maps to ±IMAX exactly).
        prop_assume!(!g.is_empty());
        let max_abs = g.values().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        prop_assume!(max_abs > 0.0);
        let back = QuantizedCoo::quantize(&g, QuantMode::Q16).dequantize();
        let back_max = back.values().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let rel = (back_max - max_abs).abs() / max_abs;
        prop_assert!(rel < 1e-6, "max {} -> {}", max_abs, back_max);
    }
}
