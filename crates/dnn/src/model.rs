//! The interface the distributed trainer drives.

use crate::arena::Arena;

/// Result of one forward+backward pass over a batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrainStats {
    /// Sum of per-example (or per-scored-token) losses.
    pub loss: f64,
    /// Correct argmax predictions.
    pub correct: usize,
    /// Number of scored predictions (examples or tokens).
    pub count: usize,
}

/// Result of a forward-only evaluation pass.
pub type EvalStats = TrainStats;

impl TrainStats {
    /// Mean loss per scored prediction.
    pub fn mean_loss(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.loss / self.count as f64
        }
    }

    /// Fraction of correct argmax predictions.
    pub fn accuracy(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.correct as f64 / self.count as f64
        }
    }

    /// Error rate = 1 − accuracy; for the LSTM task this is the WER proxy.
    pub fn error_rate(&self) -> f64 {
        1.0 - self.accuracy()
    }

    /// Accumulate another batch's statistics.
    pub fn merge(&mut self, other: &TrainStats) {
        self.loss += other.loss;
        self.correct += other.correct;
        self.count += other.count;
    }
}

/// A trainable model with flat parameter/gradient storage.
///
/// The gradient of the whole model is a single dense slice — the input of every
/// allreduce scheme in this workspace — and parameter updates are plain slice
/// mutations (dense) or scatters (sparse). A model is its [`Arena`]: the state
/// methods are the arena's, read through [`arena`](Self::arena).
pub trait Model {
    /// Task-specific batch type (images, token sequences, masked sequences…).
    type Batch;

    /// The model's parameters and gradients.
    fn arena(&self) -> &Arena;
    /// Mutable access to the model's parameters and gradients.
    fn arena_mut(&mut self) -> &mut Arena;

    /// Forward + backward on one batch; gradients *accumulate* into the arena
    /// (callers zero them between iterations).
    fn forward_backward(&mut self, batch: &Self::Batch) -> TrainStats;

    /// Forward-only evaluation.
    fn evaluate(&self, batch: &Self::Batch) -> EvalStats;

    /// Total parameter count.
    fn num_params(&self) -> usize {
        self.arena().len()
    }
    /// The flat parameter vector.
    fn params(&self) -> &[f32] {
        self.arena().params()
    }
    /// Mutable flat parameter vector (for optimizers / sparse updates);
    /// copy-on-write while the vector is shared.
    fn params_mut(&mut self) -> &mut [f32] {
        self.arena_mut().params_mut()
    }
    /// The flat gradient vector (input of every allreduce).
    fn grads(&self) -> &[f32] {
        self.arena().grads()
    }
    /// Reset all gradients to zero.
    fn zero_grads(&mut self) {
        self.arena_mut().zero_grads();
    }
}
