//! Dense kernels: matmul, bias, activations, softmax cross-entropy.
//!
//! All kernels operate on row-major `[rows, cols]` slices.
//!
//! The three matmul kernels carry the forward/backward flops and are blocked,
//! register-tiled, and lane-vectorized:
//!
//! - [`matmul_acc`] and [`matmul_acc_xt`] gather the nonzero multipliers of
//!   each [`KC`]-wide reduction block (ReLU activations make many of them
//!   zero), then stream [`NC`]-wide output panels through the
//!   [`sparse::simd::axpy4`] microkernel — four fused row-updates per pass,
//!   one load/store of the output per element instead of four.
//! - [`matmul_acc_wt`] computes four dot products at once over shared loads of
//!   the `dy` row (a 4-way register tile of independent scalar accumulator
//!   chains). It is deliberately *not* lane-vectorized: splitting one dot
//!   product across lanes would reassociate the f32 sum; four independent
//!   chains give the ILP without touching any accumulation order.
//!
//! Every tiling decision preserves the exact per-element operation sequence of
//! the naive ikj loops (ascending reduction index, zero-skip included), so the
//! results are **bit-identical** to the scalar reference — asserted by the
//! `kernel_parity` proptest suite against an explicit-loop reference
//! implementation.
//!
//! The kernels run serially on the calling rank's thread — ranks are the unit
//! of host parallelism, `simnet`'s event engine shares the cores between them
//! (DESIGN.md §7).

use sparse::simd;

/// Reduction-block width for the nonzero gather in [`matmul_acc`] /
/// [`matmul_acc_xt`]: the `(index, multiplier)` pairs of one block fit in two
/// stack arrays (512 B) and the gathered run feeds the 4-row microkernel.
pub const KC: usize = 64;

/// Output-panel width (f32 elements) for the cache-blocked column walk: one
/// panel of the output row plus four source rows stay L1-resident (20 KiB).
pub const NC: usize = 1024;

/// `out[b, j] += Σᵢ x[b, i] · w[i, j]` — x: `[rows, inner]`, w: `[inner, cols]`.
///
/// Tiled: gather the nonzero `(i, x[b,i])` pairs of each [`KC`] block, then
/// run the gathered quads through the [`simd::axpy4`] microkernel over
/// [`NC`]-wide panels of the output row. Per output element the reduction
/// order is ascending `i` with zero-skip — exactly the naive ikj loop, hence
/// bit-identical.
pub fn matmul_acc(x: &[f32], w: &[f32], out: &mut [f32], rows: usize, inner: usize, cols: usize) {
    debug_assert_eq!(x.len(), rows * inner);
    debug_assert_eq!(w.len(), inner * cols);
    debug_assert_eq!(out.len(), rows * cols);
    let mut idxs = [0usize; KC];
    let mut vals = [0f32; KC];
    for b in 0..rows {
        let xb = &x[b * inner..(b + 1) * inner];
        let ob = &mut out[b * cols..(b + 1) * cols];
        for bs in (0..inner).step_by(KC) {
            let be = (bs + KC).min(inner);
            let mut m = 0usize;
            for (i, &xv) in xb[bs..be].iter().enumerate() {
                if xv != 0.0 {
                    // Gather survivors only: the quad kernel must never inject
                    // an `+= 0.0·w` term the scalar loop skipped (common after
                    // ReLU, and adding 0.0 is not a bitwise no-op for -0.0).
                    idxs[m] = bs + i;
                    vals[m] = xv;
                    m += 1;
                }
            }
            if m == 0 {
                continue;
            }
            for jp in (0..cols).step_by(NC) {
                let je = (jp + NC).min(cols);
                let op = &mut ob[jp..je];
                let mut q = 0usize;
                while q + 4 <= m {
                    let rows4 = [
                        &w[idxs[q] * cols + jp..idxs[q] * cols + je],
                        &w[idxs[q + 1] * cols + jp..idxs[q + 1] * cols + je],
                        &w[idxs[q + 2] * cols + jp..idxs[q + 2] * cols + je],
                        &w[idxs[q + 3] * cols + jp..idxs[q + 3] * cols + je],
                    ];
                    let a = [vals[q], vals[q + 1], vals[q + 2], vals[q + 3]];
                    simd::axpy4(op, rows4, a);
                    q += 4;
                }
                while q < m {
                    let wrow = &w[idxs[q] * cols + jp..idxs[q] * cols + je];
                    simd::axpy(op, wrow, vals[q]);
                    q += 1;
                }
            }
        }
    }
}

/// `out[b, i] += Σⱼ dy[b, j] · w[i, j]` — gradient w.r.t. the input of a matmul
/// (dy: `[rows, cols]`, w: `[inner, cols]`, out: `[rows, inner]`).
pub fn matmul_acc_wt(
    dy: &[f32],
    w: &[f32],
    out: &mut [f32],
    rows: usize,
    inner: usize,
    cols: usize,
) {
    debug_assert_eq!(dy.len(), rows * cols);
    debug_assert_eq!(w.len(), inner * cols);
    debug_assert_eq!(out.len(), rows * inner);
    for b in 0..rows {
        let dyb = &dy[b * cols..(b + 1) * cols];
        let ob = &mut out[b * inner..(b + 1) * inner];
        let mut i = 0usize;
        while i + 4 <= inner {
            let a = dot4(
                dyb,
                &w[i * cols..(i + 1) * cols],
                &w[(i + 1) * cols..(i + 2) * cols],
                &w[(i + 2) * cols..(i + 3) * cols],
                &w[(i + 3) * cols..(i + 4) * cols],
            );
            ob[i] += a[0];
            ob[i + 1] += a[1];
            ob[i + 2] += a[2];
            ob[i + 3] += a[3];
            i += 4;
        }
        while i < inner {
            let wrow = &w[i * cols..(i + 1) * cols];
            let mut acc = 0.0f32;
            for (d, wv) in dyb.iter().zip(wrow) {
                acc += d * wv;
            }
            ob[i] += acc;
            i += 1;
        }
    }
}

/// Four dot products against a shared left vector, as four *independent*
/// scalar accumulator chains walking `j` in ascending order. This is register
/// tiling without lane vectorization: each accumulator sees the exact f32
/// operation sequence of a lone serial dot product (no reassociation), while
/// the four chains give the core ILP and amortize the `d` loads 4×.
#[inline]
fn dot4(d: &[f32], w0: &[f32], w1: &[f32], w2: &[f32], w3: &[f32]) -> [f32; 4] {
    let mut a = [0.0f32; 4];
    for (j, &dv) in d.iter().enumerate() {
        a[0] += dv * w0[j];
        a[1] += dv * w1[j];
        a[2] += dv * w2[j];
        a[3] += dv * w3[j];
    }
    a
}

/// `dw[i, j] += Σ_b x[b, i] · dy[b, j]` — gradient w.r.t. the weights of a matmul.
///
/// Tiled: the loop nest is `i` outer / `b` inner (the transpose of the naive kernel's
/// order): per `dw` row, gather the nonzero `(b, x[b,i])` pairs of each [`KC`]
/// batch block and run the quads through [`simd::axpy4`] over [`NC`]-wide
/// panels. Every `dw[i, j]` still accumulates its batch contributions in
/// ascending `b` with zero-skip — the identical f32 sequence the naive
/// `b`-outer loop produces, because distinct `dw` rows never interact.
pub fn matmul_acc_xt(
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    rows: usize,
    inner: usize,
    cols: usize,
) {
    debug_assert_eq!(x.len(), rows * inner);
    debug_assert_eq!(dy.len(), rows * cols);
    debug_assert_eq!(dw.len(), inner * cols);
    let mut bidx = [0usize; KC];
    let mut vals = [0f32; KC];
    for i in 0..inner {
        let dwrow = &mut dw[i * cols..(i + 1) * cols];
        for bs in (0..rows).step_by(KC) {
            let be = (bs + KC).min(rows);
            let mut m = 0usize;
            for b in bs..be {
                let xv = x[b * inner + i];
                if xv != 0.0 {
                    bidx[m] = b;
                    vals[m] = xv;
                    m += 1;
                }
            }
            if m == 0 {
                continue;
            }
            for jp in (0..cols).step_by(NC) {
                let je = (jp + NC).min(cols);
                let dwp = &mut dwrow[jp..je];
                let mut q = 0usize;
                while q + 4 <= m {
                    let rows4 = [
                        &dy[bidx[q] * cols + jp..bidx[q] * cols + je],
                        &dy[bidx[q + 1] * cols + jp..bidx[q + 1] * cols + je],
                        &dy[bidx[q + 2] * cols + jp..bidx[q + 2] * cols + je],
                        &dy[bidx[q + 3] * cols + jp..bidx[q + 3] * cols + je],
                    ];
                    let a = [vals[q], vals[q + 1], vals[q + 2], vals[q + 3]];
                    simd::axpy4(dwp, rows4, a);
                    q += 4;
                }
                while q < m {
                    let dyrow = &dy[bidx[q] * cols + jp..bidx[q] * cols + je];
                    simd::axpy(dwp, dyrow, vals[q]);
                    q += 1;
                }
            }
        }
    }
}

/// Add a bias row to every row of `out` (`[rows, cols]`).
pub fn add_bias(out: &mut [f32], bias: &[f32], rows: usize, cols: usize) {
    for b in 0..rows {
        for (o, &bv) in out[b * cols..(b + 1) * cols].iter_mut().zip(bias) {
            *o += bv;
        }
    }
}

/// Accumulate the bias gradient: `db[j] += Σ_b dy[b, j]`.
pub fn bias_grad(dy: &[f32], db: &mut [f32], rows: usize, cols: usize) {
    for b in 0..rows {
        for (dbv, &d) in db.iter_mut().zip(&dy[b * cols..(b + 1) * cols]) {
            *dbv += d;
        }
    }
}

/// In-place ReLU; returns nothing, the caller keeps `y` as the backward mask.
pub fn relu_inplace(y: &mut [f32]) {
    for v in y {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// ReLU backward: zero `dy` where the forward output was zero.
pub fn relu_backward(dy: &mut [f32], y: &[f32]) {
    for (d, &v) in dy.iter_mut().zip(y) {
        if v <= 0.0 {
            *d = 0.0;
        }
    }
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Row-wise softmax of `logits` (`[rows, cols]`), in place.
pub fn softmax_rows(logits: &mut [f32], rows: usize, cols: usize) {
    for b in 0..rows {
        let row = &mut logits[b * cols..(b + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Fused softmax + cross-entropy over rows with integer targets.
///
/// Writes `d_logits = (softmax − onehot) · scale` and returns
/// `(total loss, #correct argmax)`. Rows whose target is `IGNORE` contribute
/// nothing (used by masked-LM where only masked positions are scored).
/// Target sentinel meaning "do not score this row" (masked-LM unscored positions).
pub const IGNORE: u32 = u32::MAX;

/// Fused softmax + cross-entropy with integer targets; writes
/// `d_logits = (softmax − onehot)·scale`, returns `(summed loss, #correct)`.
/// Rows whose target is [`IGNORE`] are skipped.
pub fn softmax_xent(
    logits: &[f32],
    targets: &[u32],
    d_logits: &mut [f32],
    rows: usize,
    cols: usize,
    scale: f32,
) -> (f64, usize) {
    debug_assert_eq!(logits.len(), rows * cols);
    debug_assert_eq!(targets.len(), rows);
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    for b in 0..rows {
        let dl = &mut d_logits[b * cols..(b + 1) * cols];
        if targets[b] == IGNORE {
            dl.fill(0.0);
            continue;
        }
        let row = &logits[b * cols..(b + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (d, &v) in dl.iter_mut().zip(row) {
            *d = (v - max).exp();
            sum += *d;
        }
        let inv = 1.0 / sum;
        let t = targets[b] as usize;
        let prob_t = (dl[t] * inv).max(1e-12);
        loss += -(prob_t as f64).ln();
        let argmax =
            row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap_or(0);
        if argmax == t {
            correct += 1;
        }
        for (j, d) in dl.iter_mut().enumerate() {
            *d = (*d * inv - if j == t { 1.0 } else { 0.0 }) * scale;
        }
    }
    (loss, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_values() {
        // [1 2; 3 4] × [5 6; 7 8] = [19 22; 43 50]
        let x = [1.0, 2.0, 3.0, 4.0];
        let w = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0f32; 4];
        matmul_acc(&x, &w, &mut out, 2, 2, 2);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_transposes_are_consistent() {
        // dx = dy·Wᵀ and dW = xᵀ·dy must match explicit index formulas.
        let (rows, inner, cols) = (2, 3, 2);
        let x = [0.5f32, -1.0, 2.0, 1.5, 0.0, -0.5];
        let w = [1.0f32, -2.0, 0.5, 1.0, -1.5, 2.0];
        let dy = [1.0f32, 0.5, -1.0, 2.0];

        let mut dx = vec![0.0f32; rows * inner];
        matmul_acc_wt(&dy, &w, &mut dx, rows, inner, cols);
        for b in 0..rows {
            for i in 0..inner {
                let mut want = 0.0f32;
                for j in 0..cols {
                    want += dy[b * cols + j] * w[i * cols + j];
                }
                assert!((dx[b * inner + i] - want).abs() < 1e-6);
            }
        }

        let mut dw = vec![0.0f32; inner * cols];
        matmul_acc_xt(&x, &dy, &mut dw, rows, inner, cols);
        for i in 0..inner {
            for j in 0..cols {
                let mut want = 0.0f32;
                for b in 0..rows {
                    want += x[b * inner + i] * dy[b * cols + j];
                }
                assert!((dw[i * cols + j] - want).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn bias_and_relu() {
        let mut out = [1.0f32, -2.0, 3.0, -4.0];
        add_bias(&mut out, &[0.5, 0.5], 2, 2);
        assert_eq!(out, [1.5, -1.5, 3.5, -3.5]);
        relu_inplace(&mut out);
        assert_eq!(out, [1.5, 0.0, 3.5, 0.0]);
        let mut dy = [1.0f32; 4];
        relu_backward(&mut dy, &out);
        assert_eq!(dy, [1.0, 0.0, 1.0, 0.0]);
        let mut db = [0.0f32; 2];
        bias_grad(&[1.0, 2.0, 3.0, 4.0], &mut db, 2, 2);
        assert_eq!(db, [4.0, 6.0]);
    }

    #[test]
    fn softmax_rows_normalizes() {
        let mut l = [0.0f32, 0.0, 1000.0, 1000.0];
        softmax_rows(&mut l, 2, 2);
        assert!((l[0] - 0.5).abs() < 1e-6 && (l[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn xent_loss_and_gradient() {
        let logits = [2.0f32, 0.0, 0.0, 2.0];
        let targets = [0u32, 0];
        let mut dl = [0.0f32; 4];
        let (loss, correct) = softmax_xent(&logits, &targets, &mut dl, 2, 2, 1.0);
        assert_eq!(correct, 1);
        // Row 0: p(target) = e²/(e²+1) ≈ 0.881 → -ln ≈ 0.127.
        // Row 1: p(target) = 1/(1+e²) ≈ 0.119 → -ln ≈ 2.127.
        assert!((loss - (0.126928 + 2.126928)).abs() < 1e-4);
        // Gradients sum to zero per row.
        assert!((dl[0] + dl[1]).abs() < 1e-6);
        assert!(dl[0] < 0.0 && dl[1] > 0.0);
    }

    #[test]
    fn xent_ignores_masked_rows() {
        let logits = [1.0f32, 2.0, 3.0, 4.0];
        let targets = [IGNORE, 1];
        let mut dl = [9.0f32; 4];
        let (loss, correct) = softmax_xent(&logits, &targets, &mut dl, 2, 2, 1.0);
        assert_eq!(dl[0], 0.0);
        assert_eq!(dl[1], 0.0);
        assert_eq!(correct, 1);
        assert!(loss > 0.0);
    }

    #[test]
    fn numerical_gradient_of_xent() {
        let logits = [0.3f32, -0.7, 1.2];
        let targets = [2u32];
        let mut dl = [0.0f32; 3];
        softmax_xent(&logits, &targets, &mut dl, 1, 3, 1.0);
        let eps = 1e-3f32;
        for j in 0..3 {
            let mut lp = logits;
            lp[j] += eps;
            let mut lm = logits;
            lm[j] -= eps;
            let mut scratch = [0.0f32; 3];
            let (fp, _) = softmax_xent(&lp, &targets, &mut scratch, 1, 3, 1.0);
            let (fm, _) = softmax_xent(&lm, &targets, &mut scratch, 1, 3, 1.0);
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!((num - dl[j]).abs() < 1e-3, "j={j}: {num} vs {}", dl[j]);
        }
    }
}
