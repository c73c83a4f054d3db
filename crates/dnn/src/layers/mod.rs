//! Neural-network layers over the flat [`crate::Arena`].
//!
//! Every layer stores only its [`crate::Slot`]s and hyperparameters; activations are
//! owned by the caller (the model), which keeps backward passes explicit and
//! allocation-light. Each layer's backward is verified against numerical gradients
//! in its module tests.

pub mod attention;
pub mod conv;
pub mod embedding;
pub mod linear;
pub mod lstm;
pub mod norm;

pub use attention::MultiHeadAttention;
pub use conv::{Conv2d, MaxPool2d};
pub use embedding::Embedding;
pub use linear::Linear;
pub use lstm::{LstmCell, LstmState};
pub use norm::LayerNorm;

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Shared numerical-gradient checking helper for layer tests.

    use crate::Arena;

    /// Check `d(scalar loss)/d(params)` computed by `backward` against central
    /// differences. `forward_loss` must be a pure function of the arena parameters.
    pub fn check_param_grads(
        arena: &mut Arena,
        forward_loss: &mut dyn FnMut(&Arena) -> f64,
        analytic: &[f32],
        tol: f32,
    ) {
        let eps = 1e-3f32;
        assert_eq!(analytic.len(), arena.len());
        for (i, &a) in analytic.iter().enumerate() {
            let orig = arena.params()[i];
            arena.params_mut()[i] = orig + eps;
            let fp = forward_loss(arena);
            arena.params_mut()[i] = orig - eps;
            let fm = forward_loss(arena);
            arena.params_mut()[i] = orig;
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            let denom = 1.0f32.max(a.abs()).max(num.abs());
            assert!((num - a).abs() / denom < tol, "param {i}: numerical {num} vs analytic {a}");
        }
    }
}
