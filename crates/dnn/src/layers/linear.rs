//! Fully connected layer.

use crate::arena::{Arena, Slot};
use crate::ops::{
    add_bias, bias_grad, matmul_acc, matmul_acc_wt, matmul_acc_xt, transpose, with_wt_buffer,
};
use rand::prelude::*;

/// `y = x·W + b`, W: `[in_dim, out_dim]` row-major, b: `[out_dim]`.
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    /// Input features.
    pub in_dim: usize,
    /// Output features.
    pub out_dim: usize,
    w: Slot,
    b: Slot,
}

impl Linear {
    /// Kaiming-uniform init: `bound = sqrt(6 / in_dim)`.
    pub fn new(arena: &mut Arena, rng: &mut StdRng, in_dim: usize, out_dim: usize) -> Self {
        let bound = (6.0 / in_dim as f32).sqrt();
        let w = arena.alloc_uniform(in_dim * out_dim, bound, rng);
        let b = arena.alloc_zeros(out_dim);
        Self { in_dim, out_dim, w, b }
    }

    /// `x`: `[batch, in_dim]` → returns `[batch, out_dim]`.
    pub fn forward(&self, arena: &Arena, x: &[f32], batch: usize) -> Vec<f32> {
        debug_assert_eq!(x.len(), batch * self.in_dim);
        let mut y = vec![0.0f32; batch * self.out_dim];
        matmul_acc(x, arena.p(self.w), &mut y, batch, self.in_dim, self.out_dim);
        add_bias(&mut y, arena.p(self.b), batch, self.out_dim);
        y
    }

    /// Accumulates weight/bias grads; returns `dx` (`[batch, in_dim]`).
    pub fn backward(&self, arena: &mut Arena, x: &[f32], dy: &[f32], batch: usize) -> Vec<f32> {
        debug_assert_eq!(dy.len(), batch * self.out_dim);
        {
            let (_, gw) = arena.pg_mut(self.w);
            matmul_acc_xt(x, dy, gw, batch, self.in_dim, self.out_dim);
        }
        {
            let (_, gb) = arena.pg_mut(self.b);
            bias_grad(dy, gb, batch, self.out_dim);
        }
        let mut dx = vec![0.0f32; batch * self.in_dim];
        with_wt_buffer(|buf| {
            let wt = transpose(arena.p(self.w), self.in_dim, self.out_dim, buf);
            matmul_acc_wt(dy, wt, &mut dx, batch, self.in_dim, self.out_dim);
        });
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck::check_param_grads;
    use crate::ops::softmax_xent;

    #[test]
    fn forward_shape_and_bias() {
        let mut arena = Arena::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut arena, &mut rng, 3, 2);
        // Overwrite params with known values.
        arena.params_mut()[..6].copy_from_slice(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        arena.params_mut()[6..8].copy_from_slice(&[0.5, -0.5]);
        let y = lin.forward(&arena, &[1.0, 2.0, 3.0], 1);
        // y0 = 1·1 + 2·0 + 3·1 + 0.5 = 4.5 ; y1 = 1·0 + 2·1 + 3·1 − 0.5 = 4.5
        assert_eq!(y, vec![4.5, 4.5]);
    }

    #[test]
    fn gradients_match_numerical() {
        let mut arena = Arena::new();
        let mut rng = StdRng::seed_from_u64(3);
        let lin = Linear::new(&mut arena, &mut rng, 4, 3);
        let x = [0.2f32, -0.4, 0.1, 0.9, -0.3, 0.7, 0.5, -0.8];
        let targets = [1u32, 2];

        let mut loss_fn = |a: &Arena| {
            let y = lin.forward(a, &x, 2);
            let mut dl = vec![0.0f32; y.len()];
            softmax_xent(&y, &targets, &mut dl, 2, 3, 1.0).0
        };

        // Analytic gradients.
        let y = lin.forward(&arena, &x, 2);
        let mut dl = vec![0.0f32; y.len()];
        softmax_xent(&y, &targets, &mut dl, 2, 3, 1.0);
        arena.zero_grads();
        lin.backward(&mut arena, &x, &dl, 2);
        let analytic = arena.grads().to_vec();

        check_param_grads(&mut arena, &mut loss_fn, &analytic, 2e-2);
    }

    #[test]
    fn input_gradient_matches_numerical() {
        let mut arena = Arena::new();
        let mut rng = StdRng::seed_from_u64(4);
        let lin = Linear::new(&mut arena, &mut rng, 3, 2);
        let x = [0.3f32, -0.2, 0.8];
        let targets = [0u32];

        let y = lin.forward(&arena, &x, 1);
        let mut dl = vec![0.0f32; 2];
        softmax_xent(&y, &targets, &mut dl, 1, 2, 1.0);
        arena.zero_grads();
        let dx = lin.backward(&mut arena, &x, &dl, 1);

        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let mut scratch = vec![0.0f32; 2];
            let fp =
                softmax_xent(&lin.forward(&arena, &xp, 1), &targets, &mut scratch, 1, 2, 1.0).0;
            let fm =
                softmax_xent(&lin.forward(&arena, &xm, 1), &targets, &mut scratch, 1, 2, 1.0).0;
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!((num - dx[i]).abs() < 1e-3, "i={i}: {num} vs {}", dx[i]);
        }
    }
}
