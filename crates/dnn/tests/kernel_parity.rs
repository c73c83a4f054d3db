//! Parity of the tiled dense kernels with the naive loops.
//!
//! The tiled/lane-vectorized kernels promise bit-identity to the *naive
//! explicit loops* (ascending reduction index, zero-skip) — checked here
//! against reference implementations written out longhand, through the
//! public entries.

use dnn::ops::{matmul_acc, matmul_acc_wt, matmul_acc_xt};
use proptest::prelude::*;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Matrix entries with a healthy dose of exact zeros (the kernels skip
/// zero multiplicands, which must not perturb the accumulation order of the
/// surviving terms).
fn mat(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        prop_oneof![-2.0f32..2.0f32, -2.0f32..2.0f32, -2.0f32..2.0f32, Just(0.0f32)],
        len..=len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_values_match_naive_reference(
        a in mat(7 * 5),
        b in mat(5 * 3),
        init in mat(7 * 3),
    ) {
        // Proptest-drawn values (zeros included) through the forward kernel.
        let mut want = init.clone();
        reference_matmul_acc(&a, &b, &mut want, 7, 5, 3);
        let mut got = init.clone();
        matmul_acc(&a, &b, &mut got, 7, 5, 3);
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

/// Naive ikj reference for `matmul_acc` — the exact loops the tiled kernel
/// must reproduce bit-for-bit (ascending `i`, zero-skip).
fn reference_matmul_acc(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    rows: usize,
    inner: usize,
    cols: usize,
) {
    for b in 0..rows {
        for i in 0..inner {
            let xv = x[b * inner + i];
            if xv == 0.0 {
                continue;
            }
            for j in 0..cols {
                out[b * cols + j] += xv * w[i * cols + j];
            }
        }
    }
}

/// Naive reference for `matmul_acc_xt` — batch-outer accumulation, zero-skip.
fn reference_matmul_acc_xt(
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    rows: usize,
    inner: usize,
    cols: usize,
) {
    for b in 0..rows {
        for i in 0..inner {
            let xv = x[b * inner + i];
            if xv == 0.0 {
                continue;
            }
            for j in 0..cols {
                dw[i * cols + j] += xv * dy[b * cols + j];
            }
        }
    }
}

/// Naive reference for `matmul_acc_wt` — one lone dot product per output.
fn reference_matmul_acc_wt(
    dy: &[f32],
    w: &[f32],
    out: &mut [f32],
    rows: usize,
    inner: usize,
    cols: usize,
) {
    for b in 0..rows {
        for i in 0..inner {
            let mut acc = 0.0f32;
            for j in 0..cols {
                acc += dy[b * cols + j] * w[i * cols + j];
            }
            out[b * inner + i] += acc;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiled_matmul_acc_matches_naive_reference_at_all_lane_widths(
        (rows, inner, cols) in (1usize..7, 1usize..80, 1usize..12),
        seed in 0u64..1000,
    ) {
        // `inner` ranges past KC=64 so the gather-block boundary is crossed.
        let (x, w, init) = materialize(rows * inner, inner * cols, rows * cols, seed);
        let mut want = init.clone();
        reference_matmul_acc(&x, &w, &mut want, rows, inner, cols);
        let mut got = init.clone();
        matmul_acc(&x, &w, &mut got, rows, inner, cols);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn tiled_matmul_acc_xt_matches_naive_reference_at_all_lane_widths(
        (rows, inner, cols) in (1usize..80, 1usize..7, 1usize..12),
        seed in 0u64..1000,
    ) {
        // `rows` (the reduction dim here) ranges past KC=64.
        let (x, dy, init) = materialize(rows * inner, rows * cols, inner * cols, seed);
        let mut want = init.clone();
        reference_matmul_acc_xt(&x, &dy, &mut want, rows, inner, cols);
        let mut got = init.clone();
        matmul_acc_xt(&x, &dy, &mut got, rows, inner, cols);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn register_tiled_matmul_acc_wt_matches_naive_dots(
        (rows, inner, cols) in (1usize..7, 1usize..40, 1usize..12),
        seed in 0u64..1000,
    ) {
        // The 4-way dot tile must reproduce each lone dot product exactly
        // (`inner` crosses the 4-output tile boundary at every remainder).
        let (dy, w, init) = materialize(rows * cols, inner * cols, rows * inner, seed);
        let mut want = init.clone();
        reference_matmul_acc_wt(&dy, &w, &mut want, rows, inner, cols);
        let mut got = init.clone();
        matmul_acc_wt(&dy, &w, &mut got, rows, inner, cols);
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

/// Column counts straddling the NC=1024 panel boundary.
#[test]
fn panel_boundary_columns_match_reference() {
    for &(rows, inner, cols) in &[(2usize, 5usize, 1023usize), (1, 9, 1024), (2, 3, 1030)] {
        let (x, w, init) = materialize(rows * inner, inner * cols, rows * cols, 77);
        let mut want = init.clone();
        reference_matmul_acc(&x, &w, &mut want, rows, inner, cols);
        let (x2, dy2, init2) = materialize(rows * inner, rows * cols, inner * cols, 78);
        let mut want2 = init2.clone();
        reference_matmul_acc_xt(&x2, &dy2, &mut want2, rows, inner, cols);
        let mut got = init.clone();
        matmul_acc(&x, &w, &mut got, rows, inner, cols);
        assert_eq!(got, want, "matmul_acc {rows}x{inner}x{cols}");
        let mut got2 = init2.clone();
        matmul_acc_xt(&x2, &dy2, &mut got2, rows, inner, cols);
        assert_eq!(got2, want2, "matmul_acc_xt {rows}x{inner}x{cols}");
    }
}

/// Deterministic pseudo-random matrices (sin-based, ~20% exact zeros) so the
/// shape sweeps need no RNG plumbing.
fn materialize(la: usize, lb: usize, lout: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let gen = |len: usize, salt: u64| -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 97 + salt) % 1000)
                    as f32
                    / 500.0)
                    - 1.0;
                if v.abs() < 0.2 {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    };
    (gen(la, 1), gen(lb, 2), gen(lout, 3))
}

/// Degenerate and odd shapes through the public entries: single elements,
/// dimensions below, at and off multiples of the 4-wide register tiles.
#[test]
fn awkward_shapes_match_reference() {
    for &(rows, inner, cols) in &[
        (1usize, 1usize, 1usize),
        (2, 3, 1),
        (3, 7, 2),
        (7, 13, 5),
        (8, 8, 8),
        (13, 4, 9),
        (17, 2, 3),
    ] {
        let (x, w, init) = materialize(rows * inner, inner * cols, rows * cols, 42);
        let mut want = init.clone();
        reference_matmul_acc(&x, &w, &mut want, rows, inner, cols);
        let mut got = init.clone();
        matmul_acc(&x, &w, &mut got, rows, inner, cols);
        assert_eq!(got, want, "matmul_acc {rows}x{inner}x{cols}");

        let (dy, w2, init2) = materialize(rows * cols, inner * cols, rows * inner, 43);
        let mut want2 = init2.clone();
        reference_matmul_acc_wt(&dy, &w2, &mut want2, rows, inner, cols);
        let mut got2 = init2.clone();
        matmul_acc_wt(&dy, &w2, &mut got2, rows, inner, cols);
        assert_eq!(got2, want2, "matmul_acc_wt {rows}x{inner}x{cols}");

        let (x3, dy3, init3) = materialize(rows * inner, rows * cols, inner * cols, 44);
        let mut want3 = init3.clone();
        reference_matmul_acc_xt(&x3, &dy3, &mut want3, rows, inner, cols);
        let mut got3 = init3.clone();
        matmul_acc_xt(&x3, &dy3, &mut got3, rows, inner, cols);
        assert_eq!(got3, want3, "matmul_acc_xt {rows}x{inner}x{cols}");
    }
}
