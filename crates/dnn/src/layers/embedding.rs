//! Token embedding lookup table.

use crate::arena::{Arena, Slot};
use rand::prelude::*;

/// Embedding table `[vocab, dim]`; forward is a gather, backward a scatter-add.
#[derive(Clone, Copy, Debug)]
pub struct Embedding {
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding dimension.
    pub dim: usize,
    table: Slot,
}

impl Embedding {
    /// New embedding table with uniform init.
    pub fn new(arena: &mut Arena, rng: &mut StdRng, vocab: usize, dim: usize) -> Self {
        let bound = (3.0 / dim as f32).sqrt();
        let table = arena.alloc_uniform(vocab * dim, bound, rng);
        Self { vocab, dim, table }
    }

    /// `tokens`: `[count]` → `[count, dim]`.
    pub fn forward(&self, arena: &Arena, tokens: &[u32]) -> Vec<f32> {
        let table = arena.p(self.table);
        let mut out = Vec::with_capacity(tokens.len() * self.dim);
        for &t in tokens {
            let t = t as usize;
            debug_assert!(t < self.vocab, "token {t} out of vocab {}", self.vocab);
            out.extend_from_slice(&table[t * self.dim..(t + 1) * self.dim]);
        }
        out
    }

    /// Scatter-add `d_out` (`[count, dim]`) into the table gradient.
    pub fn backward(&self, arena: &mut Arena, tokens: &[u32], d_out: &[f32]) {
        let (_, grad) = arena.pg_mut(self.table);
        for (i, &t) in tokens.iter().enumerate() {
            let t = t as usize;
            let src = &d_out[i * self.dim..(i + 1) * self.dim];
            for (g, &d) in grad[t * self.dim..(t + 1) * self.dim].iter_mut().zip(src) {
                *g += d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_and_scatter() {
        let mut arena = Arena::new();
        let mut rng = StdRng::seed_from_u64(2);
        let emb = Embedding::new(&mut arena, &mut rng, 4, 2);
        arena.params_mut().copy_from_slice(&[
            0.0, 0.1, // token 0
            1.0, 1.1, // token 1
            2.0, 2.1, // token 2
            3.0, 3.1, // token 3
        ]);
        let out = emb.forward(&arena, &[2, 0, 2]);
        assert_eq!(out, vec![2.0, 2.1, 0.0, 0.1, 2.0, 2.1]);

        arena.zero_grads();
        emb.backward(&mut arena, &[2, 0, 2], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // Token 2 receives the sum of the two occurrences.
        assert_eq!(arena.grads(), &[3.0, 4.0, 0.0, 0.0, 6.0, 8.0, 0.0, 0.0]);
    }
}
