//! Parity of the tiled dense kernels with the naive loops.
//!
//! The lane-parallel kernels promise bit-identity to the *naive explicit
//! loops* (ascending reduction index; zero-skip in `matmul_acc` and
//! `matmul_acc_xt`, none in `matmul_acc_wt`) — checked here against reference
//! implementations written out longhand, through the public entries, at the
//! models' real shapes, at every panel remainder and on signed zeros and NaN.

use dnn::ops::{matmul_acc, matmul_acc_wt, matmul_acc_xt, transpose};
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

/// `matmul_acc_wt` as a backward pass runs it: the weight packed transposed
/// first.
fn shipped_matmul_acc_wt(
    dy: &[f32],
    w: &[f32],
    out: &mut [f32],
    rows: usize,
    inner: usize,
    cols: usize,
) {
    let mut wt = Vec::new();
    matmul_acc_wt(dy, transpose(w, inner, cols, &mut wt), out, rows, inner, cols);
}

/// All three kernels against their references at one `(rows, inner, cols)`,
/// bit for bit, on operands from `gen(len, salt)`.
fn check_shape(rows: usize, inner: usize, cols: usize, gen: impl Fn(usize, u64) -> Vec<f32>) {
    let (x, w, init) = (gen(rows * inner, 1), gen(inner * cols, 2), gen(rows * cols, 3));
    let mut want = init.clone();
    reference_matmul_acc(&x, &w, &mut want, rows, inner, cols);
    let mut got = init;
    matmul_acc(&x, &w, &mut got, rows, inner, cols);
    assert_eq!(bits(&got), bits(&want), "matmul_acc {rows}x{inner}x{cols}");

    let (dy, init) = (gen(rows * cols, 4), gen(rows * inner, 5));
    let mut want = init.clone();
    reference_matmul_acc_wt(&dy, &w, &mut want, rows, inner, cols);
    let mut got = init;
    shipped_matmul_acc_wt(&dy, &w, &mut got, rows, inner, cols);
    assert_eq!(bits(&got), bits(&want), "matmul_acc_wt {rows}x{inner}x{cols}");

    let init = gen(inner * cols, 6);
    let mut want = init.clone();
    reference_matmul_acc_xt(&x, &dy, &mut want, rows, inner, cols);
    let mut got = init;
    matmul_acc_xt(&x, &dy, &mut got, rows, inner, cols);
    assert_eq!(bits(&got), bits(&want), "matmul_acc_xt {rows}x{inner}x{cols}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiled_matmul_acc_matches_naive_reference_at_all_lane_widths(
        (rows, inner, cols) in (1usize..7, 1usize..80, 1usize..80),
        seed in 0u64..1000,
    ) {
        // `inner` ranges past KC=64 so the gather-block boundary is crossed;
        // `cols` (the output lanes) past the 32-wide register panel.
        let (x, w, init) = materialize(rows * inner, inner * cols, rows * cols, seed);
        let mut want = init.clone();
        reference_matmul_acc(&x, &w, &mut want, rows, inner, cols);
        let mut got = init.clone();
        matmul_acc(&x, &w, &mut got, rows, inner, cols);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn tiled_matmul_acc_xt_matches_naive_reference_at_all_lane_widths(
        (rows, inner, cols) in (1usize..80, 1usize..7, 1usize..80),
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
        (rows, inner, cols) in (1usize..7, 1usize..80, 1usize..150),
        seed in 0u64..1000,
    ) {
        // Every output lane must reproduce its lone dot product exactly:
        // `inner` (the output lanes) crosses the 8- and 32-wide panels at
        // every remainder, `cols` (the reduction) the KC=64 block.
        let (dy, w, init) = materialize(rows * cols, inner * cols, rows * inner, seed);
        let mut want = init.clone();
        reference_matmul_acc_wt(&dy, &w, &mut want, rows, inner, cols);
        let mut got = init.clone();
        shipped_matmul_acc_wt(&dy, &w, &mut got, rows, inner, cols);
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

/// The shapes the models run: BertLite's linears at rows = batch·seq = 32
/// (d_model 64, ff 128, vocab 64), and LstmNet's cell (96 × 256) and head
/// (64 × 24) at rows = batch = 2, the head also stacked over 20 timesteps.
#[test]
fn model_shapes_match_reference() {
    for &(rows, inner, cols) in &[
        (32usize, 64usize, 64usize),
        (32, 64, 128),
        (32, 128, 64),
        (2, 96, 256),
        (2, 64, 24),
        (40, 64, 24),
    ] {
        check_shape(rows, inner, cols, |len, salt| materialize_one(len, 90 + salt));
    }
}

/// Wide rows: many 32-lane panels plus a remainder, in all three kernels.
#[test]
fn panel_boundary_columns_match_reference() {
    for &(rows, inner, cols) in &[(2usize, 5usize, 1023usize), (1, 9, 1024), (2, 3, 1030)] {
        check_shape(rows, inner, cols, |len, salt| materialize_one(len, 77 + salt));
    }
}

/// Output widths at, below and above every panel width (1, 8, 32) and the
/// KC=64 reduction block, in all three kernels.
#[test]
fn panel_remainders_match_reference() {
    for width in [1usize, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65, 97] {
        check_shape(3, width, width, |len, salt| materialize_one(len, 7 * width as u64 + salt));
        check_shape(width, 5, width, |len, salt| materialize_one(len, 3 * width as u64 + salt));
    }
}

/// Signed zeros, NaN and all-zero rows, at the model shapes. A zero
/// multiplier the gather kernels skip must stay skipped (`0·NaN` would
/// poison the output), and `wt` must *not* skip one — its reference adds
/// every term. (No infinities: `0·∞` makes a NaN whose payload depends on
/// operand order, which the compiler may swap.)
#[test]
fn special_values_match_reference() {
    let special = |len: usize, salt: u64| -> Vec<f32> {
        let mut v = materialize_one(len, salt);
        for (i, x) in v.iter_mut().enumerate() {
            match (i as u64 * 7 + salt) % 29 {
                0 => *x = -0.0,
                1 => *x = 0.0,
                2 if i % 5 == 0 => *x = f32::NAN,
                _ => {}
            }
        }
        // The first and a middle stretch of 24 elements are all zero: whole
        // rows or columns of every operand at these shapes.
        let mid = len / 2;
        v[..len.min(24)].fill(0.0);
        v[mid..(mid + 24).min(len)].fill(-0.0);
        v
    };
    for &(rows, inner, cols) in
        &[(32usize, 64usize, 128usize), (2, 96, 256), (2, 64, 24), (3, 33, 9)]
    {
        check_shape(rows, inner, cols, special);
    }
}

/// Deterministic pseudo-random matrices (~20% exact zeros) so the shape
/// sweeps need no RNG plumbing.
fn materialize(la: usize, lb: usize, lout: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    (
        materialize_one(la, seed * 97 + 1),
        materialize_one(lb, seed * 97 + 2),
        materialize_one(lout, seed * 97 + 3),
    )
}

fn materialize_one(len: usize, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let v = (((i as u64).wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f32
                / 500.0)
                - 1.0;
            if v.abs() < 0.2 {
                0.0
            } else {
                v
            }
        })
        .collect()
}

/// Degenerate and odd shapes through the public entries: empty dimensions,
/// single elements, dimensions below, at and off multiples of the panel
/// widths.
#[test]
fn awkward_shapes_match_reference() {
    for &(rows, inner, cols) in &[
        (0usize, 3usize, 2usize),
        (2, 0, 3),
        (2, 3, 0),
        (1, 1, 1),
        (2, 3, 1),
        (3, 7, 2),
        (7, 13, 5),
        (8, 8, 8),
        (13, 4, 9),
        (17, 2, 3),
    ] {
        check_shape(rows, inner, cols, |len, salt| materialize_one(len, 42 + salt));
    }
}
