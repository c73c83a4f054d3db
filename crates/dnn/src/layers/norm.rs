//! Layer normalization.

use crate::arena::{Arena, Slot};

/// LayerNorm over the last dimension: `y = γ · (x − μ)/σ + β` per row.
#[derive(Clone, Copy, Debug)]
pub struct LayerNorm {
    /// Normalized (last) dimension.
    pub dim: usize,
    gamma: Slot,
    beta: Slot,
}

const EPS: f32 = 1e-5;

/// Forward cache needed by backward: per-row inverse std and normalized values.
pub struct LnCache {
    /// Per-row 1/σ.
    pub inv_std: Vec<f32>,
    /// Normalized inputs (pre-γ/β).
    pub xhat: Vec<f32>,
}

impl LayerNorm {
    /// New LayerNorm with γ = 1, β = 0.
    pub fn init(arena: &mut Arena, dim: usize) -> Self {
        let gamma = arena.alloc_with(dim, || 1.0);
        let beta = arena.alloc_zeros(dim);
        Self { dim, gamma, beta }
    }

    /// `x`: `[rows, dim]` → `(y, cache)`.
    pub fn forward(&self, arena: &Arena, x: &[f32], rows: usize) -> (Vec<f32>, LnCache) {
        let d = self.dim;
        debug_assert_eq!(x.len(), rows * d);
        let gamma = arena.p(self.gamma);
        let beta = arena.p(self.beta);
        let mut y = vec![0.0f32; x.len()];
        let mut inv_std = vec![0.0f32; rows];
        let mut xhat = vec![0.0f32; x.len()];
        for r in 0..rows {
            let row = &x[r * d..(r + 1) * d];
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let is = 1.0 / (var + EPS).sqrt();
            inv_std[r] = is;
            for j in 0..d {
                let xh = (row[j] - mean) * is;
                xhat[r * d + j] = xh;
                y[r * d + j] = gamma[j] * xh + beta[j];
            }
        }
        (y, LnCache { inv_std, xhat })
    }

    /// Accumulates γ/β grads; returns `dx`.
    pub fn backward(
        &self,
        arena: &mut Arena,
        cache: &LnCache,
        dy: &[f32],
        rows: usize,
    ) -> Vec<f32> {
        let d = self.dim;
        {
            let (_, gg) = arena.pg_mut(self.gamma);
            for r in 0..rows {
                for j in 0..d {
                    gg[j] += dy[r * d + j] * cache.xhat[r * d + j];
                }
            }
        }
        {
            let (_, gb) = arena.pg_mut(self.beta);
            for r in 0..rows {
                for j in 0..d {
                    gb[j] += dy[r * d + j];
                }
            }
        }
        let gamma = arena.p(self.gamma);
        let mut dx = vec![0.0f32; rows * d];
        for r in 0..rows {
            // dxhat = dy·γ ; dx = (dxhat − mean(dxhat) − xhat·mean(dxhat·xhat))·inv_std
            let mut mean_dxh = 0.0f32;
            let mut mean_dxh_xh = 0.0f32;
            for j in 0..d {
                let dxh = dy[r * d + j] * gamma[j];
                mean_dxh += dxh;
                mean_dxh_xh += dxh * cache.xhat[r * d + j];
            }
            mean_dxh /= d as f32;
            mean_dxh_xh /= d as f32;
            for j in 0..d {
                let dxh = dy[r * d + j] * gamma[j];
                dx[r * d + j] =
                    (dxh - mean_dxh - cache.xhat[r * d + j] * mean_dxh_xh) * cache.inv_std[r];
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_rows() {
        let mut arena = Arena::new();
        let ln = LayerNorm::init(&mut arena, 4);
        let x = [1.0f32, 2.0, 3.0, 4.0, -2.0, -2.0, 2.0, 2.0];
        let (y, _) = ln.forward(&arena, &x, 2);
        for r in 0..2 {
            let row = &y[r * 4..(r + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn gradients_match_numerical() {
        let mut arena = Arena::new();
        let ln = LayerNorm::init(&mut arena, 3);
        // Make γ/β non-trivial.
        arena.params_mut().copy_from_slice(&[1.5, 0.5, 2.0, 0.1, -0.2, 0.3]);
        let x = [0.4f32, -0.9, 1.3, 2.0, 0.1, -0.7];
        let target = [0.5f32, -0.5, 1.0, 0.0, 0.3, -0.3];

        let loss = |a: &Arena, xi: &[f32]| -> f64 {
            let (y, _) = ln.forward(a, xi, 2);
            y.iter().zip(&target).map(|(v, t)| 0.5 * ((v - t) as f64).powi(2)).sum()
        };

        let (y, cache) = ln.forward(&arena, &x, 2);
        let dy: Vec<f32> = y.iter().zip(&target).map(|(v, t)| v - t).collect();
        arena.zero_grads();
        let dx = ln.backward(&mut arena, &cache, &dy, 2);
        let analytic = arena.grads().to_vec();

        let eps = 1e-3f32;
        for (i, &want) in analytic.iter().enumerate() {
            let orig = arena.params()[i];
            arena.params_mut()[i] = orig + eps;
            let fp = loss(&arena, &x);
            arena.params_mut()[i] = orig - eps;
            let fm = loss(&arena, &x);
            arena.params_mut()[i] = orig;
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!((num - want).abs() < 2e-3, "param {i}: {num} vs {want}");
        }
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let num = ((loss(&arena, &xp) - loss(&arena, &xm)) / (2.0 * eps as f64)) as f32;
            assert!((num - dx[i]).abs() < 2e-3, "x {i}: {num} vs {}", dx[i]);
        }
    }
}
