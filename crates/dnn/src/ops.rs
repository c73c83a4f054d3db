//! Dense kernels: matmul, bias, activations, softmax cross-entropy.
//!
//! All kernels operate on row-major `[rows, cols]` slices.
//!
//! The three matmul kernels carry the forward/backward flops. All three run
//! through one register-panel microkernel, [`sparse::simd::gather_madd`]:
//! `acc[p] += Σ_q c_q · src[off_q + p]`, with the lanes on *independent
//! outputs* — a panel of outputs stays in registers while each lane adds its
//! own terms in ascending `q`.
//!
//! - [`matmul_acc`] and [`matmul_acc_xt`] gather the nonzero multipliers of
//!   each [`KC`]-wide reduction block (ReLU activations make many of them
//!   zero) and run the gathered rows through the kernel straight into the
//!   output row.
//! - [`matmul_acc_wt`] reads the weight transposed (a [`Transposed`] from
//!   [`transpose`], packed once per weight per backward pass), so the outputs `i` of one `dy` row are
//!   contiguous lanes: each lane's dot product starts from a zeroed
//!   accumulator, adds every `j` in ascending order and is then added to the
//!   output — the sequence of one lone scalar dot product. Lanes along the
//!   reduction index `j` would reassociate that sum; lanes across outputs do
//!   not.
//!
//! Every decision preserves the exact per-element operation sequence of the
//! naive loops (ascending reduction index, with zero-skip in the two gather
//! kernels and without it in `wt`), so the results are **bit-identical** to
//! the scalar reference — asserted by the `kernel_parity` suite against
//! explicit-loop reference implementations.
//!
//! The kernels run serially on the calling rank's thread — ranks are the unit
//! of host parallelism, `simnet`'s event engine shares the cores between them
//! (DESIGN.md §7).

use sparse::simd;
use std::sync::{Mutex, PoisonError};

/// Reduction-block width: the `(offset, multiplier)` pairs of one block fit in
/// two stack arrays (768 B) and feed one [`simd::gather_madd`] call.
pub const KC: usize = 64;

/// `out[b, j] += Σᵢ x[b, i] · w[i, j]` — x: `[rows, inner]`, w: `[inner, cols]`.
///
/// Per [`KC`] block of `i`, gather the nonzero `(i, x[b,i])` pairs and add the
/// gathered rows of `w` into the output row with [`simd::gather_madd`]. Per
/// output element the reduction order is ascending `i` with zero-skip —
/// exactly the naive ikj loop, hence bit-identical.
pub fn matmul_acc(x: &[f32], w: &[f32], out: &mut [f32], rows: usize, inner: usize, cols: usize) {
    debug_assert_eq!(x.len(), rows * inner);
    debug_assert_eq!(w.len(), inner * cols);
    debug_assert_eq!(out.len(), rows * cols);
    for b in 0..rows {
        let ob = &mut out[b * cols..(b + 1) * cols];
        gather_rows_madd(ob, w, cols, &x[b * inner..(b + 1) * inner]);
    }
}

/// `acc += Σ_r mults[r] · src[r·stride ..][..acc.len()]` over the nonzero
/// `mults`, in ascending `r`, one [`KC`] block per kernel call. Skipping a
/// zero multiplier is part of the contract: an injected `+= 0.0·v` is not a
/// bitwise no-op (`-0.0`, or a non-finite `v`).
fn gather_rows_madd(acc: &mut [f32], src: &[f32], stride: usize, mults: &[f32]) {
    let mut offs = [0usize; KC];
    let mut vals = [0f32; KC];
    for (blk, block) in mults.chunks(KC).enumerate() {
        let mut m = 0usize;
        for (r, &v) in block.iter().enumerate() {
            if v != 0.0 {
                offs[m] = (blk * KC + r) * stride;
                vals[m] = v;
                m += 1;
            }
        }
        if m > 0 {
            simd::gather_madd(acc, src, &offs[..m], &vals[..m]);
        }
    }
}

/// A weight packed transposed by [`transpose`]: the `[cols, rows]` layout
/// [`matmul_acc_wt`] reads. Only `transpose` makes one, so a raw weight —
/// the same length in either layout — cannot be passed to the kernel.
#[derive(Clone, Copy, Debug)]
pub struct Transposed<'a>(&'a [f32]);

/// `wt = wᵀ`: the `[cols, rows]` transpose of the row-major `[rows, cols]`
/// matrix `w`, written over `wt` (which keeps its capacity from call to call).
pub fn transpose<'a>(w: &[f32], rows: usize, cols: usize, wt: &'a mut Vec<f32>) -> Transposed<'a> {
    debug_assert_eq!(w.len(), rows * cols);
    wt.clear();
    for j in 0..cols {
        wt.extend(w.iter().skip(j).step_by(cols));
    }
    Transposed(wt)
}

/// Buffers lent by [`with_wt_buffer`].
static WT_BUFFERS: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());

/// Run `f` with a buffer to [`transpose`] a weight into, taken from a
/// process-wide pool and returned to it afterwards. A backward pass does not
/// park while it holds one, so the pool holds as many buffers as passes ever
/// ran at once — at most the engine's run tokens — and not one per rank.
pub(crate) fn with_wt_buffer(f: impl FnOnce(&mut Vec<f32>)) {
    // Any pooled buffer will do — `transpose` overwrites it — so a lock
    // poisoned by a panic elsewhere is safe to recover.
    let pooled = WT_BUFFERS.lock().unwrap_or_else(PoisonError::into_inner).pop();
    let mut buf = pooled.unwrap_or_default();
    f(&mut buf);
    WT_BUFFERS.lock().unwrap_or_else(PoisonError::into_inner).push(buf);
}

/// `out[b, i] += Σⱼ dy[b, j] · w[i, j]` — gradient w.r.t. the input of a matmul
/// (dy: `[rows, cols]`, w: `[inner, cols]`, out: `[rows, inner]`), with the
/// weight passed transposed: `wt` = [`transpose`]`(w)`, `[cols, inner]`.
///
/// Per `dy` row, a register panel of outputs `i` accumulates from zero over
/// every `j` in ascending order (no zero-skip) and is then added to `out`:
/// each output's f32 sequence is that of one serial dot product.
pub fn matmul_acc_wt(
    dy: &[f32],
    wt: Transposed<'_>,
    out: &mut [f32],
    rows: usize,
    inner: usize,
    cols: usize,
) {
    debug_assert_eq!(dy.len(), rows * cols);
    let Transposed(wt) = wt;
    debug_assert_eq!(wt.len(), inner * cols);
    debug_assert_eq!(out.len(), rows * inner);
    let mut offs = [0usize; KC];
    for b in 0..rows {
        let dyb = &dy[b * cols..(b + 1) * cols];
        let ob = &mut out[b * inner..(b + 1) * inner];
        for (i0, op) in (0..inner).step_by(simd::PANEL).zip(ob.chunks_mut(simd::PANEL)) {
            let mut acc = [0f32; simd::PANEL];
            let acc = &mut acc[..op.len()];
            for (blk, coefs) in dyb.chunks(KC).enumerate() {
                for (q, off) in offs[..coefs.len()].iter_mut().enumerate() {
                    *off = (blk * KC + q) * inner + i0;
                }
                simd::gather_madd(acc, wt, &offs[..coefs.len()], coefs);
            }
            for (o, a) in op.iter_mut().zip(acc.iter()) {
                *o += a;
            }
        }
    }
}

/// `dw[i, j] += Σ_b x[b, i] · dy[b, j]` — gradient w.r.t. the weights of a matmul.
///
/// The loop nest is `i` outer / `b` inner (the transpose of the naive kernel's
/// order): per `dw` row, gather the nonzero `(b, x[b,i])` pairs of each [`KC`]
/// batch block and add the gathered `dy` rows with [`simd::gather_madd`].
/// Every `dw[i, j]` still accumulates its batch contributions in ascending `b`
/// with zero-skip — the identical f32 sequence the naive `b`-outer loop
/// produces, because distinct `dw` rows never interact.
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
    let mut xi = [0f32; KC];
    for i in 0..inner {
        let dwrow = &mut dw[i * cols..(i + 1) * cols];
        for bs in (0..rows).step_by(KC) {
            let be = (bs + KC).min(rows);
            for (b, v) in (bs..be).zip(xi.iter_mut()) {
                *v = x[b * inner + i];
            }
            gather_rows_madd(dwrow, &dy[bs * cols..], cols, &xi[..be - bs]);
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
        let mut wt = Vec::new();
        matmul_acc_wt(&dy, transpose(&w, inner, cols, &mut wt), &mut dx, rows, inner, cols);
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
