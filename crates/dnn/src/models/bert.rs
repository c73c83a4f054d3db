//! BertLite: a small pre-LN transformer encoder with a masked-LM head (the BERT
//! stand-in). Token + learned positional embeddings, 2 encoder blocks
//! (LN → MHA → residual; LN → FFN → residual), final LN, vocab projection;
//! loss is cross-entropy on masked positions only.

use crate::arena::{Arena, Slot};
use crate::data::SeqBatch;
use crate::layers::{Embedding, LayerNorm, Linear, MultiHeadAttention};
use crate::model::{EvalStats, Model, TrainStats};
use crate::ops::{relu_backward, relu_inplace, softmax_xent, IGNORE};
use rand::prelude::*;

struct Block {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ff1: Linear,
    ff2: Linear,
}

/// The BERT / Wikipedia masked-LM stand-in (see module docs).
pub struct BertLite {
    arena: Arena,
    embed: Embedding,
    pos: Slot,
    blocks: Vec<Block>,
    ln_f: LayerNorm,
    head: Linear,
    /// Vocabulary size (last id is `[MASK]`).
    pub vocab: usize,
    /// Embedding/model dimension.
    pub d_model: usize,
    /// (Maximum) sequence length.
    pub seq: usize,
}

impl BertLite {
    /// Default width (≈77k parameters): vocab 64, d_model 64, 4 heads, 2 blocks.
    pub fn new(seed: u64) -> Self {
        Self::with_width(seed, 64, 64, 4, 2, 128, 16)
    }

    /// Fully parameterized constructor.
    pub fn with_width(
        seed: u64,
        vocab: usize,
        d_model: usize,
        heads: usize,
        depth: usize,
        ff: usize,
        seq: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = Arena::new();
        let embed = Embedding::new(&mut arena, &mut rng, vocab, d_model);
        let pos = arena.alloc_uniform(seq * d_model, 0.05, &mut rng);
        let blocks = (0..depth)
            .map(|_| Block {
                ln1: LayerNorm::init(&mut arena, d_model),
                attn: MultiHeadAttention::new(&mut arena, &mut rng, d_model, heads),
                ln2: LayerNorm::init(&mut arena, d_model),
                ff1: Linear::new(&mut arena, &mut rng, d_model, ff),
                ff2: Linear::new(&mut arena, &mut rng, ff, d_model),
            })
            .collect();
        let ln_f = LayerNorm::init(&mut arena, d_model);
        let head = Linear::new(&mut arena, &mut rng, d_model, vocab);
        Self { arena, embed, pos, blocks, ln_f, head, vocab, d_model, seq }
    }

    fn embed_input(&self, batch: &SeqBatch) -> Vec<f32> {
        let d = self.d_model;
        let mut x = self.embed.forward(&self.arena, &batch.tokens);
        let pos = self.arena.p(self.pos);
        for bi in 0..batch.batch {
            for t in 0..batch.seq {
                let row = &mut x[(bi * batch.seq + t) * d..(bi * batch.seq + t + 1) * d];
                for (v, &p) in row.iter_mut().zip(&pos[t * d..(t + 1) * d]) {
                    *v += p;
                }
            }
        }
        x
    }
}

/// Per-block forward cache. The residual streams themselves need no caching:
/// their backward is the identity added onto the branch gradients.
struct BlockCache {
    ln1_cache: crate::layers::norm::LnCache,
    ln1_out: Vec<f32>,
    attn_cache: crate::layers::attention::AttnCache,
    ln2_cache: crate::layers::norm::LnCache,
    ln2_out: Vec<f32>,
    hidden: Vec<f32>,
}

impl BertLite {
    fn forward_full(
        &self,
        batch: &SeqBatch,
    ) -> (Vec<f32>, Vec<BlockCache>, Vec<f32>, crate::layers::norm::LnCache) {
        let rows = batch.batch * batch.seq;
        let mut x = self.embed_input(batch);
        let mut caches = Vec::with_capacity(self.blocks.len());
        for blk in &self.blocks {
            let (ln1_out, ln1_cache) = blk.ln1.forward(&self.arena, &x, rows);
            let (attn_out, attn_cache) =
                blk.attn.forward(&self.arena, &ln1_out, batch.batch, batch.seq);
            let mut x_mid = x.clone();
            for (a, b) in x_mid.iter_mut().zip(&attn_out) {
                *a += b;
            }
            let (ln2_out, ln2_cache) = blk.ln2.forward(&self.arena, &x_mid, rows);
            let mut hidden = blk.ff1.forward(&self.arena, &ln2_out, rows);
            relu_inplace(&mut hidden);
            let ff_out = blk.ff2.forward(&self.arena, &hidden, rows);
            let mut x_next = x_mid.clone();
            for (a, b) in x_next.iter_mut().zip(&ff_out) {
                *a += b;
            }
            x = x_next;
            let _ = x_mid;
            caches.push(BlockCache { ln1_cache, ln1_out, attn_cache, ln2_cache, ln2_out, hidden });
        }
        let (final_out, ln_f_cache) = self.ln_f.forward(&self.arena, &x, rows);
        (final_out, caches, x, ln_f_cache)
    }
}

impl Model for BertLite {
    type Batch = SeqBatch;

    fn arena(&self) -> &Arena {
        &self.arena
    }

    fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    fn forward_backward(&mut self, batch: &SeqBatch) -> TrainStats {
        let rows = batch.batch * batch.seq;
        let d = self.d_model;
        let (final_out, caches, _x_last, ln_f_cache) = self.forward_full(batch);
        let logits = self.head.forward(&self.arena, &final_out, rows);

        let scored = batch.targets.iter().filter(|&&t| t != IGNORE).count().max(1);
        let mut dlogits = vec![0.0f32; logits.len()];
        let (loss, correct) = softmax_xent(
            &logits,
            &batch.targets,
            &mut dlogits,
            rows,
            self.vocab,
            1.0 / scored as f32,
        );

        let d_final = self.head.backward(&mut self.arena, &final_out, &dlogits, rows);
        let mut dx = self.ln_f.backward(&mut self.arena, &ln_f_cache, &d_final, rows);

        for (blk, cache) in self.blocks.iter().zip(&caches).rev() {
            // FFN branch.
            let mut d_hidden = blk.ff2.backward(&mut self.arena, &cache.hidden, &dx, rows);
            relu_backward(&mut d_hidden, &cache.hidden);
            let d_ln2_out = blk.ff1.backward(&mut self.arena, &cache.ln2_out, &d_hidden, rows);
            let d_x_mid_ln = blk.ln2.backward(&mut self.arena, &cache.ln2_cache, &d_ln2_out, rows);
            let mut d_x_mid = dx; // residual path
            for (a, b) in d_x_mid.iter_mut().zip(&d_x_mid_ln) {
                *a += b;
            }
            // Attention branch.
            let d_ln1_out = blk.attn.backward(
                &mut self.arena,
                &cache.ln1_out,
                &cache.attn_cache,
                &d_x_mid,
                batch.batch,
                batch.seq,
            );
            let d_x_ln = blk.ln1.backward(&mut self.arena, &cache.ln1_cache, &d_ln1_out, rows);
            let mut d_x = d_x_mid;
            for (a, b) in d_x.iter_mut().zip(&d_x_ln) {
                *a += b;
            }
            dx = d_x;
        }

        // Embedding + positional gradients.
        self.embed.backward(&mut self.arena, &batch.tokens, &dx);
        {
            let (_, gpos) = self.arena.pg_mut(self.pos);
            for bi in 0..batch.batch {
                for t in 0..batch.seq {
                    let row = &dx[(bi * batch.seq + t) * d..(bi * batch.seq + t + 1) * d];
                    for (g, &v) in gpos[t * d..(t + 1) * d].iter_mut().zip(row) {
                        *g += v;
                    }
                }
            }
        }

        TrainStats { loss, correct, count: scored }
    }

    fn evaluate(&self, batch: &SeqBatch) -> EvalStats {
        let rows = batch.batch * batch.seq;
        let (final_out, _, _, _) = self.forward_full(batch);
        let logits = self.head.forward(&self.arena, &final_out, rows);
        let scored = batch.targets.iter().filter(|&&t| t != IGNORE).count();
        let mut scratch = vec![0.0f32; logits.len()];
        let (loss, correct) =
            softmax_xent(&logits, &batch.targets, &mut scratch, rows, self.vocab, 1.0);
        EvalStats { loss, correct, count: scored }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticMaskedLm;

    #[test]
    fn param_count_in_expected_range() {
        let m = BertLite::new(0);
        // ≈ 77k parameters (embeddings + 2 blocks + head); exact value asserted so
        // accidental architecture changes are caught.
        let expect = 64 * 64 // token embedding
            + 16 * 64 // positional
            + 2 * (2 * 128 // two LayerNorms
                + 4 * (64 * 64 + 64) // q,k,v,o
                + 64 * 128 + 128 // ff1
                + 128 * 64 + 64) // ff2
            + 128 // final LN
            + 64 * 64 + 64; // head
        assert_eq!(m.num_params(), expect);
    }

    #[test]
    fn gradients_flow_to_all_parameter_groups() {
        let mut m = BertLite::new(3);
        let data = SyntheticMaskedLm::new(4);
        let b = data.train_batch(0, 0, 1, 4);
        m.zero_grads();
        let stats = m.forward_backward(&b);
        assert!(stats.loss.is_finite() && stats.count > 0);
        let g = m.grads();
        assert!(g.iter().all(|v| v.is_finite()));
        // Every major slot should receive gradient somewhere.
        let nnz = g.iter().filter(|v| **v != 0.0).count();
        assert!(nnz > m.num_params() / 4, "too-sparse gradient: {nnz}/{}", m.num_params());
    }

    #[test]
    fn loss_decreases_with_adam() {
        // A reduced-width instance so the test is fast in debug builds; full-size
        // BertLite convergence is exercised by the fig13 harness in release mode.
        let mut m = BertLite::with_width(5, 16, 32, 2, 1, 64, 12);
        let data = SyntheticMaskedLm::with_shape(6, 16, 12, 0.2);
        let mut opt = crate::optim::Adam::new(5e-3, 0.9, 0.999, 1e-8, 0.0, m.num_params());
        let before = m.evaluate(&data.test_batch(0, 16)).mean_loss();
        // The loss plateaus near unigram entropy (≈2.5) for a long stretch before
        // attention locks onto the bigram structure; 400 iterations clears that
        // plateau with margin at this width.
        for it in 0..400 {
            let b = data.train_batch(it, 0, 1, 16);
            m.zero_grads();
            m.forward_backward(&b);
            let g = m.grads().to_vec();
            opt.step(m.params_mut(), &g);
        }
        let after = m.evaluate(&data.test_batch(0, 16)).mean_loss();
        // Chance level is ln(15) ≈ 2.71; the model must clearly beat it.
        assert!(
            after < before * 0.8 && after < 2.5,
            "masked-LM loss did not improve: {before} -> {after}"
        );
    }
}
