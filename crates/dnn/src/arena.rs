//! Flat parameter/gradient storage shared by all layers of a model.

use rand::prelude::*;
use std::sync::Arc;

/// A layer's view into the arena: `len` consecutive f32s starting at `offset`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// First element of the slot in the arena.
    pub offset: usize,
    /// Number of elements.
    pub len: usize,
}

impl Slot {
    fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// Contiguous parameter and gradient storage.
///
/// Keeping the whole model in two flat vectors makes the gradient a single dense
/// slice, which is what every allreduce variant in this workspace consumes, and
/// makes "apply this sparse update to the model" a scatter.
///
/// The parameters sit behind an `Arc`, so data-parallel replicas in one
/// process can hold one vector ([`Arena::adopt_params`]); writes through
/// [`Arena::params_mut`] copy it first only while it is shared.
#[derive(Clone, Debug, Default)]
pub struct Arena {
    params: Arc<Vec<f32>>,
    grads: Vec<f32>,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `len` parameters initialized by `init` (called once per element).
    /// Both vectors grow to exactly their new length: a model holds its
    /// gradients for the whole run, so amortized growth would keep up to twice
    /// their size.
    pub fn alloc_with(&mut self, len: usize, mut init: impl FnMut() -> f32) -> Slot {
        let params = Arc::make_mut(&mut self.params);
        let offset = params.len();
        params.reserve_exact(len);
        params.extend(std::iter::repeat_with(&mut init).take(len));
        self.grads.reserve_exact(len);
        self.grads.resize(params.len(), 0.0);
        Slot { offset, len }
    }

    /// Allocate `len` zero-initialized parameters (biases).
    pub fn alloc_zeros(&mut self, len: usize) -> Slot {
        self.alloc_with(len, || 0.0)
    }

    /// Allocate with uniform init in `[-bound, bound]` (Kaiming/Xavier-style bounds
    /// are computed by the layers).
    pub fn alloc_uniform(&mut self, len: usize, bound: f32, rng: &mut StdRng) -> Slot {
        self.alloc_with(len, || rng.gen_range(-bound..=bound))
    }

    /// Total number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the arena holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Parameters of one slot.
    pub fn p(&self, s: Slot) -> &[f32] {
        &self.params[s.range()]
    }

    /// Gradients of one slot.
    pub fn g(&self, s: Slot) -> &[f32] {
        &self.grads[s.range()]
    }

    /// Simultaneous read-params / write-grads views of one slot — the shape every
    /// backward pass needs.
    pub fn pg_mut(&mut self, s: Slot) -> (&[f32], &mut [f32]) {
        (&self.params[s.range()], &mut self.grads[s.range()])
    }

    /// The entire parameter vector (for the optimizer / allreduce).
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable view of the entire parameter vector: copy-on-write, so it
    /// copies nothing unless another holder shares the vector.
    pub fn params_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.params).as_mut_slice()
    }

    /// A handle to the parameter vector, for other replicas to adopt.
    pub fn params_handle(&self) -> Arc<Vec<f32>> {
        Arc::clone(&self.params)
    }

    /// Replace the parameters with `params` (same length), sharing its
    /// allocation instead of copying it.
    pub fn adopt_params(&mut self, params: Arc<Vec<f32>>) {
        assert_eq!(params.len(), self.params.len(), "adopted parameters of another model size");
        self.params = params;
    }

    /// The entire gradient vector.
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// Reset all gradients to zero.
    pub fn zero_grads(&mut self) {
        self.grads.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_disjoint_and_ordered() {
        let mut a = Arena::new();
        let s1 = a.alloc_zeros(3);
        let s2 = a.alloc_with(2, || 1.5);
        assert_eq!(s1, Slot { offset: 0, len: 3 });
        assert_eq!(s2, Slot { offset: 3, len: 2 });
        assert_eq!(a.len(), 5);
        assert_eq!(a.p(s2), &[1.5, 1.5]);
        assert_eq!(a.p(s1), &[0.0; 3]);
    }

    #[test]
    fn pg_mut_allows_read_write() {
        let mut a = Arena::new();
        let s = a.alloc_with(2, || 2.0);
        {
            let (p, g) = a.pg_mut(s);
            g[0] = p[0] * 3.0;
            g[1] = p[1] * 4.0;
        }
        assert_eq!(a.g(s), &[6.0, 8.0]);
        a.zero_grads();
        assert_eq!(a.g(s), &[0.0, 0.0]);
    }

    #[test]
    fn uniform_init_respects_bounds_and_seed() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let mut a1 = Arena::new();
        let mut a2 = Arena::new();
        let s1 = a1.alloc_uniform(100, 0.25, &mut r1);
        let s2 = a2.alloc_uniform(100, 0.25, &mut r2);
        assert_eq!(a1.p(s1), a2.p(s2));
        assert!(a1.p(s1).iter().all(|v| v.abs() <= 0.25));
    }

    #[test]
    fn params_mut_copies_only_a_shared_vector() {
        let mut a = Arena::new();
        a.alloc_with(4, || 1.0);
        let before = a.params().as_ptr();
        a.params_mut()[0] = 2.0;
        assert_eq!(a.params().as_ptr(), before, "an unshared arena copied on write");

        let mut b = a.clone();
        assert_eq!(b.params().as_ptr(), before, "a clone shares the parameters");
        b.params_mut()[1] = 3.0;
        assert_ne!(b.params().as_ptr(), before, "a write to shared parameters copies them");
        assert_eq!(a.params(), &[2.0, 1.0, 1.0, 1.0], "the other holder's values moved");
        assert_eq!(b.params(), &[2.0, 3.0, 1.0, 1.0]);

        a.adopt_params(b.params_handle());
        assert_eq!(a.params().as_ptr(), b.params().as_ptr());
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn a_model_is_its_arena() {
        use crate::data::SyntheticImages;
        use crate::model::Model;
        use crate::models::VggLite;
        let mut m = VggLite::with_width(3, 4, 8, 16, 4, 8);
        assert_eq!(m.num_params(), m.arena().len());
        assert_eq!(m.params().as_ptr(), m.arena().params().as_ptr());

        let before = m.params().as_ptr();
        let first = m.params()[1];
        m.params_mut()[0] = 0.5;
        assert_eq!(m.arena().params().as_ptr(), before, "an unshared model copied on write");
        let other = m.arena().params_handle();
        m.params_mut()[1] = 0.25;
        assert_ne!(m.arena().params().as_ptr(), before, "a write to shared parameters stayed");
        assert_eq!(m.arena().params()[..2], [0.5, 0.25]);
        assert_eq!(other[..2], [0.5, first], "the other holder's values moved");

        let batch = SyntheticImages::with_shape(1, 4, 3, 8, 0.5).train_batch(0, 0, 1, 2);
        m.forward_backward(&batch);
        assert_eq!(m.grads().as_ptr(), m.arena().grads().as_ptr());
        assert!(m.arena().grads().iter().any(|&g| g != 0.0));
        m.zero_grads();
        assert!(m.arena().grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn vectors_grow_to_exact_capacity() {
        use crate::model::Model;
        use crate::models::{BertLite, LstmNet, VggLite};
        let exact = |name: &str, a: &Arena| {
            assert_eq!(a.params.capacity(), a.len(), "{name}: parameter slack");
            assert_eq!(a.grads.capacity(), a.len(), "{name}: gradient slack");
        };
        exact("VggLite", VggLite::new(0).arena());
        exact("LstmNet", LstmNet::new(0).arena());
        exact("BertLite", BertLite::new(0).arena());
        let mut a = Arena::new();
        for len in [3, 1, 7, 64, 5] {
            a.alloc_zeros(len);
            exact("an arena after each allocation", &a);
        }
    }
}
