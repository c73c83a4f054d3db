//! LSTM cell with explicit BPTT support.

use crate::arena::{Arena, Slot};
use crate::ops::{
    add_bias, bias_grad, matmul_acc, matmul_acc_wt, matmul_acc_xt, sigmoid, transpose, Transposed,
};
use rand::prelude::*;

/// Single LSTM cell. One fused weight matrix `[(in+hid), 4·hid]` with gate order
/// (input, forget, cell, output); forget-gate biases initialized to 1.
#[derive(Clone, Copy, Debug)]
pub struct LstmCell {
    /// Input dimension.
    pub in_dim: usize,
    /// Hidden/cell state dimension.
    pub hid: usize,
    w: Slot,
    b: Slot,
}

/// Per-timestep cache for backward.
pub struct LstmState {
    /// `[batch, in+hid]` concatenated input.
    pub concat: Vec<f32>,
    /// `[batch, 4·hid]` post-activation gates (i, f, g, o).
    pub gates: Vec<f32>,
    /// `[batch, hid]` previous cell state.
    pub c_prev: Vec<f32>,
    /// `[batch, hid]` tanh of the new cell state.
    pub tanh_c: Vec<f32>,
}

impl LstmCell {
    /// New cell with fused gate weights and forget-bias 1 init.
    pub fn new(arena: &mut Arena, rng: &mut StdRng, in_dim: usize, hid: usize) -> Self {
        let fan_in = (in_dim + hid) as f32;
        let bound = (6.0 / fan_in).sqrt();
        let w = arena.alloc_uniform((in_dim + hid) * 4 * hid, bound, rng);
        let b = arena.alloc_with(4 * hid, || 0.0);
        let cell = Self { in_dim, hid, w, b };
        // Forget-gate bias = 1 improves early gradient flow (standard practice).
        let bias = &mut arena.params_mut()[b.offset + hid..b.offset + 2 * hid];
        bias.fill(1.0);
        cell
    }

    /// One timestep: returns `(h_new, c_new, cache)`.
    pub fn step_forward(
        &self,
        arena: &Arena,
        x_t: &[f32],
        h: &[f32],
        c: &[f32],
        batch: usize,
    ) -> (Vec<f32>, Vec<f32>, LstmState) {
        let (hid, ind) = (self.hid, self.in_dim);
        debug_assert_eq!(x_t.len(), batch * ind);
        debug_assert_eq!(h.len(), batch * hid);

        let mut concat = vec![0.0f32; batch * (ind + hid)];
        for bi in 0..batch {
            concat[bi * (ind + hid)..bi * (ind + hid) + ind]
                .copy_from_slice(&x_t[bi * ind..(bi + 1) * ind]);
            concat[bi * (ind + hid) + ind..(bi + 1) * (ind + hid)]
                .copy_from_slice(&h[bi * hid..(bi + 1) * hid]);
        }

        let mut z = vec![0.0f32; batch * 4 * hid];
        matmul_acc(&concat, arena.p(self.w), &mut z, batch, ind + hid, 4 * hid);
        add_bias(&mut z, arena.p(self.b), batch, 4 * hid);

        let mut gates = z; // reuse storage, apply activations in place
        let mut c_new = vec![0.0f32; batch * hid];
        let mut h_new = vec![0.0f32; batch * hid];
        let mut tanh_c = vec![0.0f32; batch * hid];
        for bi in 0..batch {
            let g = &mut gates[bi * 4 * hid..(bi + 1) * 4 * hid];
            for j in 0..hid {
                g[j] = sigmoid(g[j]); // i
                g[hid + j] = sigmoid(g[hid + j]); // f
                g[2 * hid + j] = g[2 * hid + j].tanh(); // g
                g[3 * hid + j] = sigmoid(g[3 * hid + j]); // o
                let cv = g[hid + j] * c[bi * hid + j] + g[j] * g[2 * hid + j];
                c_new[bi * hid + j] = cv;
                let tc = cv.tanh();
                tanh_c[bi * hid + j] = tc;
                h_new[bi * hid + j] = g[3 * hid + j] * tc;
            }
        }
        let cache = LstmState { concat, gates, c_prev: c.to_vec(), tanh_c };
        (h_new, c_new, cache)
    }

    /// Pack the fused weight transposed into `wt`, once per backward pass:
    /// every [`LstmCell::step_backward`] of the pass reads it, so the pack is
    /// paid once for all timesteps rather than once per step.
    pub fn transpose_weights<'a>(&self, arena: &Arena, wt: &'a mut Vec<f32>) -> Transposed<'a> {
        transpose(arena.p(self.w), self.in_dim + self.hid, 4 * self.hid, wt)
    }

    /// One BPTT step: given `dh` and `dc` flowing in from the future, accumulates
    /// weight grads and returns `(dx_t, dh_prev, dc_prev)`. `wt` is this pass's
    /// [`LstmCell::transpose_weights`].
    pub fn step_backward(
        &self,
        arena: &mut Arena,
        cache: &LstmState,
        dh: &[f32],
        dc_in: &[f32],
        batch: usize,
        wt: Transposed<'_>,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (hid, ind) = (self.hid, self.in_dim);
        let mut dz = vec![0.0f32; batch * 4 * hid];
        let mut dc_prev = vec![0.0f32; batch * hid];
        for bi in 0..batch {
            let g = &cache.gates[bi * 4 * hid..(bi + 1) * 4 * hid];
            for j in 0..hid {
                let (i_g, f_g, g_g, o_g) = (g[j], g[hid + j], g[2 * hid + j], g[3 * hid + j]);
                let tc = cache.tanh_c[bi * hid + j];
                let dh_j = dh[bi * hid + j];
                let mut dc = dc_in[bi * hid + j] + dh_j * o_g * (1.0 - tc * tc);
                let d_o = dh_j * tc;
                let d_i = dc * g_g;
                let d_g = dc * i_g;
                let d_f = dc * cache.c_prev[bi * hid + j];
                dc *= f_g;
                dc_prev[bi * hid + j] = dc;
                let dzb = &mut dz[bi * 4 * hid..(bi + 1) * 4 * hid];
                dzb[j] = d_i * i_g * (1.0 - i_g);
                dzb[hid + j] = d_f * f_g * (1.0 - f_g);
                dzb[2 * hid + j] = d_g * (1.0 - g_g * g_g);
                dzb[3 * hid + j] = d_o * o_g * (1.0 - o_g);
            }
        }
        {
            let (_, gw) = arena.pg_mut(self.w);
            matmul_acc_xt(&cache.concat, &dz, gw, batch, ind + hid, 4 * hid);
        }
        {
            let (_, gb) = arena.pg_mut(self.b);
            bias_grad(&dz, gb, batch, 4 * hid);
        }
        let mut dconcat = vec![0.0f32; batch * (ind + hid)];
        matmul_acc_wt(&dz, wt, &mut dconcat, batch, ind + hid, 4 * hid);
        let mut dx = vec![0.0f32; batch * ind];
        let mut dh_prev = vec![0.0f32; batch * hid];
        for bi in 0..batch {
            dx[bi * ind..(bi + 1) * ind]
                .copy_from_slice(&dconcat[bi * (ind + hid)..bi * (ind + hid) + ind]);
            dh_prev[bi * hid..(bi + 1) * hid]
                .copy_from_slice(&dconcat[bi * (ind + hid) + ind..(bi + 1) * (ind + hid)]);
        }
        (dx, dh_prev, dc_prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck::check_param_grads;

    /// Unrolled 3-step forward computing a scalar loss = ½‖h_T‖².
    fn unrolled_loss(cell: &LstmCell, arena: &Arena, xs: &[Vec<f32>], batch: usize) -> f64 {
        let mut h = vec![0.0f32; batch * cell.hid];
        let mut c = vec![0.0f32; batch * cell.hid];
        for x in xs {
            let (h2, c2, _) = cell.step_forward(arena, x, &h, &c, batch);
            h = h2;
            c = c2;
        }
        h.iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
    }

    #[test]
    fn bptt_gradients_match_numerical() {
        let mut arena = Arena::new();
        let mut rng = StdRng::seed_from_u64(12);
        let cell = LstmCell::new(&mut arena, &mut rng, 3, 4);
        let batch = 2;
        let xs: Vec<Vec<f32>> = (0..3)
            .map(|t| (0..batch * 3).map(|i| ((i + t * 5) as f32 * 0.37).sin() * 0.8).collect())
            .collect();

        // Analytic: forward through 3 steps keeping caches, backward in reverse.
        let mut h = vec![0.0f32; batch * 4];
        let mut c = vec![0.0f32; batch * 4];
        let mut caches = Vec::new();
        for x in &xs {
            let (h2, c2, cache) = cell.step_forward(&arena, x, &h, &c, batch);
            caches.push(cache);
            h = h2;
            c = c2;
        }
        arena.zero_grads();
        let mut dh = h.clone(); // d(½‖h‖²)/dh = h
        let mut dc = vec![0.0f32; batch * 4];
        let mut buf = Vec::new();
        let wt = cell.transpose_weights(&arena, &mut buf);
        for cache in caches.iter().rev() {
            let (_dx, dh_prev, dc_prev) =
                cell.step_backward(&mut arena, cache, &dh, &dc, batch, wt);
            dh = dh_prev;
            dc = dc_prev;
        }
        let analytic = arena.grads().to_vec();

        let mut loss_fn = |a: &Arena| unrolled_loss(&cell, a, &xs, batch);
        check_param_grads(&mut arena, &mut loss_fn, &analytic, 3e-2);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut arena = Arena::new();
        let mut rng = StdRng::seed_from_u64(0);
        let cell = LstmCell::new(&mut arena, &mut rng, 2, 3);
        let b = arena.p(cell.b);
        assert_eq!(&b[3..6], &[1.0, 1.0, 1.0]);
        assert_eq!(&b[0..3], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn zero_input_keeps_state_near_zero() {
        let mut arena = Arena::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cell = LstmCell::new(&mut arena, &mut rng, 2, 3);
        let (h, c, _) = cell.step_forward(&arena, &[0.0; 2], &[0.0; 3], &[0.0; 3], 1);
        // With zero input and zero state, g-gate tanh(0)=0 → c = 0, h = 0.
        assert!(h.iter().all(|v| v.abs() < 1e-6));
        assert!(c.iter().all(|v| v.abs() < 1e-6));
    }
}
