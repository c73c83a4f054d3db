//! The interface the distributed trainer drives.

use std::sync::Arc;

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
/// mutations (dense) or scatters (sparse).
pub trait Model {
    /// Task-specific batch type (images, token sequences, masked sequences…).
    type Batch;

    /// Total parameter count.
    fn num_params(&self) -> usize;
    /// The flat parameter vector.
    fn params(&self) -> &[f32];
    /// Mutable flat parameter vector (for optimizers / sparse updates);
    /// copy-on-write while the vector is shared.
    fn params_mut(&mut self) -> &mut [f32];
    /// A handle to the flat parameter vector, for other replicas to adopt.
    fn params_handle(&self) -> Arc<Vec<f32>>;
    /// Take `params` (same length) as this model's parameters, sharing the
    /// allocation: data-parallel replicas in one process hold one vector.
    fn adopt_params(&mut self, params: Arc<Vec<f32>>);
    /// The flat gradient vector (input of every allreduce).
    fn grads(&self) -> &[f32];
    /// Reset all gradients to zero.
    fn zero_grads(&mut self);

    /// Forward + backward on one batch; gradients *accumulate* into the arena
    /// (callers zero them between iterations).
    fn forward_backward(&mut self, batch: &Self::Batch) -> TrainStats;

    /// Forward-only evaluation.
    fn evaluate(&self, batch: &Self::Batch) -> EvalStats;
}
