//! VggLite: a compact VGG-style convolutional classifier (the VGG-16 stand-in).
//!
//! conv3×3(3→16) → ReLU → maxpool → conv3×3(16→32) → ReLU → maxpool →
//! fc(512→128) → ReLU → fc(128→classes), on 3×16×16 inputs. ≈72k parameters —
//! small enough to train many data-parallel replicas on one CPU, large enough for
//! realistic gradient sparsity structure.

use crate::arena::Arena;
use crate::data::ImageBatch;
use crate::layers::{Conv2d, Linear, MaxPool2d};
use crate::model::{EvalStats, Model, TrainStats};
use crate::ops::{relu_backward, relu_inplace, softmax_xent};
use rand::prelude::*;

/// The VGG-16 stand-in (see module docs).
pub struct VggLite {
    arena: Arena,
    conv1: Conv2d,
    conv2: Conv2d,
    fc1: Linear,
    fc2: Linear,
    /// Number of output classes.
    pub classes: usize,
    hw: usize,
}

impl VggLite {
    /// All replicas constructed with the same `seed` start identical.
    /// Default width (≈72k parameters), 3×16×16 inputs, 10 classes.
    pub fn new(seed: u64) -> Self {
        Self::with_width(seed, 16, 32, 128, 10, 16)
    }

    /// Fully parameterized constructor (channel widths, FC width, classes, image size).
    pub fn with_width(
        seed: u64,
        c1: usize,
        c2: usize,
        fc: usize,
        classes: usize,
        hw: usize,
    ) -> Self {
        assert!(hw.is_multiple_of(4));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = Arena::new();
        let conv1 = Conv2d::new(&mut arena, &mut rng, 3, c1);
        let conv2 = Conv2d::new(&mut arena, &mut rng, c1, c2);
        let flat = c2 * (hw / 4) * (hw / 4);
        let fc1 = Linear::new(&mut arena, &mut rng, flat, fc);
        let fc2 = Linear::new(&mut arena, &mut rng, fc, classes);
        Self { arena, conv1, conv2, fc1, fc2, classes, hw }
    }

    /// Forward pass returning logits and (optionally) the caches for backward.
    fn forward_full(&self, batch: &ImageBatch) -> (Vec<f32>, [Vec<f32>; 5], [Vec<u32>; 2]) {
        let b = batch.batch;
        let hw = self.hw;
        let mut a1 = self.conv1.forward(&self.arena, &batch.pixels, b, hw, hw);
        relu_inplace(&mut a1);
        let (p1, arg1) = MaxPool2d::forward(&a1, b, self.conv1.out_ch, hw, hw);
        let mut a2 = self.conv2.forward(&self.arena, &p1, b, hw / 2, hw / 2);
        relu_inplace(&mut a2);
        let (p2, arg2) = MaxPool2d::forward(&a2, b, self.conv2.out_ch, hw / 2, hw / 2);
        let mut f1 = self.fc1.forward(&self.arena, &p2, b);
        relu_inplace(&mut f1);
        let logits = self.fc2.forward(&self.arena, &f1, b);
        (logits, [a1, p1, a2, p2, f1], [arg1, arg2])
    }
}

impl Model for VggLite {
    type Batch = ImageBatch;

    fn arena(&self) -> &Arena {
        &self.arena
    }

    fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    fn forward_backward(&mut self, batch: &ImageBatch) -> TrainStats {
        let b = batch.batch;
        let hw = self.hw;
        let (logits, [a1, p1, a2, p2, f1], [arg1, arg2]) = self.forward_full(batch);

        let mut dlogits = vec![0.0f32; logits.len()];
        let (loss, correct) = softmax_xent(
            &logits,
            &batch.labels,
            &mut dlogits,
            b,
            self.classes,
            1.0 / b as f32, // mean loss gradient
        );

        let mut df1 = self.fc2.backward(&mut self.arena, &f1, &dlogits, b);
        relu_backward(&mut df1, &f1);
        let dp2 = self.fc1.backward(&mut self.arena, &p2, &df1, b);
        let mut da2 = MaxPool2d::backward(&dp2, &arg2, a2.len());
        relu_backward(&mut da2, &a2);
        let dp1 = self.conv2.backward(&mut self.arena, &p1, &da2, b, hw / 2, hw / 2);
        let mut da1 = MaxPool2d::backward(&dp1, &arg1, a1.len());
        relu_backward(&mut da1, &a1);
        self.conv1.backward(&mut self.arena, &batch.pixels, &da1, b, hw, hw);

        TrainStats { loss, correct, count: b }
    }

    fn evaluate(&self, batch: &ImageBatch) -> EvalStats {
        let b = batch.batch;
        let (logits, _, _) = self.forward_full(batch);
        let mut scratch = vec![0.0f32; logits.len()];
        let (loss, correct) =
            softmax_xent(&logits, &batch.labels, &mut scratch, b, self.classes, 1.0);
        EvalStats { loss, correct, count: b }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticImages;

    #[test]
    fn param_count_is_vgglite_sized() {
        let m = VggLite::new(0);
        // conv1 448 + conv2 4640 + fc1 (512·128+128) + fc2 (128·10+10)
        assert_eq!(m.num_params(), 448 + 4640 + 512 * 128 + 128 + 1280 + 10);
    }

    #[test]
    fn same_seed_same_params() {
        let a = VggLite::new(42);
        let b = VggLite::new(42);
        assert_eq!(a.params(), b.params());
        let c = VggLite::new(43);
        assert_ne!(a.params(), c.params());
    }

    #[test]
    fn gradients_are_finite_and_nonzero() {
        let mut m = VggLite::new(1);
        let data = SyntheticImages::new(2);
        let batch = data.train_batch(0, 0, 1, 4);
        m.zero_grads();
        let stats = m.forward_backward(&batch);
        assert!(stats.loss.is_finite() && stats.loss > 0.0);
        let nnz = m.grads().iter().filter(|g| **g != 0.0).count();
        assert!(nnz > m.num_params() / 2, "gradient mostly zero: {nnz}");
        assert!(m.grads().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn learns_the_synthetic_task() {
        // A few SGD steps must cut the training loss markedly (templates + noise is
        // nearly linearly separable).
        let mut m = VggLite::new(1);
        let data = SyntheticImages::new(2);
        let mut opt = crate::optim::Sgd::new(0.05, 0.9);
        let first = {
            let b = data.train_batch(0, 0, 1, 16);
            m.evaluate(&b).mean_loss()
        };
        for it in 0..30 {
            let b = data.train_batch(it, 0, 1, 16);
            m.zero_grads();
            m.forward_backward(&b);
            let g = m.grads().to_vec();
            opt.step(m.params_mut(), &g);
        }
        let test = data.test_batch(0, 32);
        let eval = m.evaluate(&test);
        assert!(eval.mean_loss() < first * 0.5, "no learning: {} -> {}", first, eval.mean_loss());
        assert!(eval.accuracy() > 0.5, "test acc {}", eval.accuracy());
    }
}
