//! Optimizers: SGD with momentum and Adam (dense + sparse application).
//!
//! Matching the paper's recipes (§5): SGD for VGG and LSTM, Adam for BERT, where
//! the sparse allreduce runs on raw gradients and Adam is applied afterwards — on
//! the global top-k support only ([`Adam::step_sparse`], lazy sparse Adam).

/// SGD with (optional) momentum. `velocity` persists across steps; it is
/// allocated at the first step with momentum, so plain SGD holds nothing.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient μ (0 disables momentum).
    pub momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// New optimizer; the velocity takes the length of the first parameter
    /// vector stepped with momentum.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self { lr, momentum, velocity: Vec::new() }
    }

    /// Dense step: `v ← μv + g; w ← w − lr·v`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        debug_assert_eq!(params.len(), grads.len());
        if self.momentum == 0.0 {
            for (w, &g) in params.iter_mut().zip(grads) {
                *w -= self.lr * g;
            }
            return;
        }
        if self.velocity.is_empty() {
            self.velocity = vec![0.0; params.len()];
        }
        debug_assert_eq!(self.velocity.len(), params.len());
        for ((w, v), &g) in params.iter_mut().zip(&mut self.velocity).zip(grads) {
            *v = self.momentum * *v + g;
            *w -= self.lr * *v;
        }
    }
}

/// Adam with decoupled weight decay (AdamW-style), supporting sparse gradients.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Base learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator stabilizer ε.
    pub eps: f32,
    /// Decoupled (AdamW-style) weight decay.
    pub weight_decay: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// New optimizer for `n` parameters.
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32, weight_decay: f32, n: usize) -> Self {
        Self { lr, beta1, beta2, eps, weight_decay, m: vec![0.0; n], v: vec![0.0; n], t: 0 }
    }

    /// Override the base learning rate (for schedules; the effective rate also
    /// includes bias correction).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn bias_corrected_lr(&self) -> f32 {
        let t = self.t as f32;
        self.lr * (1.0 - self.beta2.powf(t)).sqrt() / (1.0 - self.beta1.powf(t))
    }

    /// Dense Adam step.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        debug_assert_eq!(params.len(), grads.len());
        self.t += 1;
        let alpha = self.bias_corrected_lr();
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            params[i] -= alpha * self.m[i] / (self.v[i].sqrt() + self.eps)
                + self.lr * self.weight_decay * params[i];
        }
    }

    /// Lazy sparse Adam: update moments and weights only at the given indexes
    /// (the global top-k support). Used in the paper's BERT recipe where Adam runs
    /// on the sparse-allreduced gradient.
    pub fn step_sparse(&mut self, params: &mut [f32], indexes: &[u32], values: &[f32]) {
        debug_assert_eq!(indexes.len(), values.len());
        self.t += 1;
        let alpha = self.bias_corrected_lr();
        for (&iu, &g) in indexes.iter().zip(values) {
            let i = iu as usize;
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            params[i] -= alpha * self.m[i] / (self.v[i].sqrt() + self.eps)
                + self.lr * self.weight_decay * params[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_without_momentum_is_plain_descent() {
        let mut opt = Sgd::new(0.1, 0.0);
        let mut w = vec![1.0f32, -1.0];
        opt.step(&mut w, &[0.5, -0.5]);
        assert_eq!(w, vec![0.95, -0.95]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(0.1, 0.9);
        let mut w = vec![0.0f32];
        opt.step(&mut w, &[1.0]); // v=1, w=-0.1
        opt.step(&mut w, &[1.0]); // v=1.9, w=-0.29
        assert!((w[0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut opt = Adam::new(0.05, 0.9, 0.999, 1e-8, 0.0, 1);
        let mut w = vec![3.0f32];
        for _ in 0..500 {
            let g = w[0]; // d(w²/2)
            opt.step(&mut w, &[g]);
        }
        assert!(w[0].abs() < 0.05, "w={}", w[0]);
    }

    #[test]
    fn sparse_adam_touches_only_given_indexes() {
        let mut opt = Adam::new(0.1, 0.9, 0.999, 1e-8, 0.0, 4);
        let mut w = vec![1.0f32, 2.0, 3.0, 4.0];
        opt.step_sparse(&mut w, &[1, 3], &[0.5, -0.5]);
        assert_eq!(w[0], 1.0);
        assert_eq!(w[2], 3.0);
        assert!(w[1] < 2.0);
        assert!(w[3] > 4.0);
    }

    #[test]
    fn sparse_and_dense_agree_on_full_support() {
        let n = 4;
        let grads = vec![0.3f32, -0.2, 0.9, 0.0];
        let idx: Vec<u32> = (0..n as u32).collect();
        let mut dense = Adam::new(0.01, 0.9, 0.999, 1e-8, 0.01, n);
        let mut sparse = Adam::new(0.01, 0.9, 0.999, 1e-8, 0.01, n);
        let mut wd = vec![1.0f32; n];
        let mut ws = vec![1.0f32; n];
        for _ in 0..3 {
            dense.step(&mut wd, &grads);
            sparse.step_sparse(&mut ws, &idx, &grads);
        }
        for (a, b) in wd.iter().zip(&ws) {
            assert!((a - b).abs() < 1e-7);
        }
    }
}
