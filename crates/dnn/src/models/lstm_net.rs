//! LstmNet: an LSTM sequence model (the AN4 speech-recognition stand-in).
//!
//! embedding(vocab→32) → LSTM(hid 64), unrolled with full BPTT → per-step
//! fc(64→vocab) predicting the next token. The held-out per-token argmax error
//! rate plays the role of the paper's Word Error Rate.

use crate::arena::Arena;
use crate::data::SeqBatch;
use crate::layers::{Embedding, Linear, LstmCell};
use crate::model::{EvalStats, Model, TrainStats};
use crate::ops::{softmax_xent, with_wt_buffer};
use rand::prelude::*;

/// The LSTM / AN4 stand-in (see module docs).
pub struct LstmNet {
    arena: Arena,
    embed: Embedding,
    cell: LstmCell,
    head: Linear,
    /// Vocabulary size.
    pub vocab: usize,
    /// LSTM hidden dimension.
    pub hid: usize,
}

impl LstmNet {
    /// Default width (≈27k parameters): vocab 24, embedding 32, hidden 64.
    pub fn new(seed: u64) -> Self {
        Self::with_width(seed, 24, 32, 64)
    }

    /// Fully parameterized constructor.
    pub fn with_width(seed: u64, vocab: usize, emb: usize, hid: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = Arena::new();
        let embed = Embedding::new(&mut arena, &mut rng, vocab, emb);
        let cell = LstmCell::new(&mut arena, &mut rng, emb, hid);
        let head = Linear::new(&mut arena, &mut rng, hid, vocab);
        Self { arena, embed, cell, head, vocab, hid }
    }

    /// Unrolled forward; returns per-step logits `[seq][batch·vocab]` plus the
    /// caches needed for BPTT (per-step hidden states and LSTM states).
    #[allow(clippy::type_complexity)]
    fn forward_full(
        &self,
        batch: &SeqBatch,
    ) -> (Vec<Vec<f32>>, Vec<Vec<f32>>, Vec<crate::layers::LstmState>) {
        let (b, s) = (batch.batch, batch.seq);
        let mut h = vec![0.0f32; b * self.hid];
        let mut c = vec![0.0f32; b * self.hid];
        let mut logits_t = Vec::with_capacity(s);
        let mut hidden_t = Vec::with_capacity(s);
        let mut caches = Vec::with_capacity(s);
        for t in 0..s {
            // Gather column t of the batch: tokens[b_i·seq + t].
            let toks: Vec<u32> = (0..b).map(|bi| batch.tokens[bi * s + t]).collect();
            let x = self.embed.forward(&self.arena, &toks);
            let (h2, c2, cache) = self.cell.step_forward(&self.arena, &x, &h, &c, b);
            h = h2;
            c = c2;
            logits_t.push(self.head.forward(&self.arena, &h, b));
            hidden_t.push(h.clone());
            caches.push(cache);
        }
        (logits_t, hidden_t, caches)
    }

    fn targets_at(&self, batch: &SeqBatch, t: usize) -> Vec<u32> {
        (0..batch.batch).map(|bi| batch.targets[bi * batch.seq + t]).collect()
    }
}

impl Model for LstmNet {
    type Batch = SeqBatch;

    fn arena(&self) -> &Arena {
        &self.arena
    }

    fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    fn forward_backward(&mut self, batch: &SeqBatch) -> TrainStats {
        let (b, s) = (batch.batch, batch.seq);
        let (hid, vocab) = (self.hid, self.vocab);
        let (logits_t, hidden_t, caches) = self.forward_full(batch);

        let scale = 1.0 / (b * s) as f32; // mean over all scored positions
        let mut stats = TrainStats::default();
        // The head's gradients do not depend on the recurrence, so one backward
        // call covers every timestep: rows stacked latest step first, the order
        // BPTT visits them, so each weight gradient adds its terms in the same
        // sequence as one call per step would.
        let mut dlogits = vec![0.0f32; s * b * vocab];
        let mut hidden_rev = Vec::with_capacity(s * b * hid);
        for (t, dl) in (0..s).rev().zip(dlogits.chunks_exact_mut(b * vocab)) {
            let targets = self.targets_at(batch, t);
            let (loss, correct) = softmax_xent(&logits_t[t], &targets, dl, b, vocab, scale);
            stats.loss += loss;
            stats.correct += correct;
            stats.count += b;
            hidden_rev.extend_from_slice(&hidden_t[t]);
        }
        let dh_head = self.head.backward(&mut self.arena, &hidden_rev, &dlogits, s * b);

        let mut dh = vec![0.0f32; b * hid];
        let mut dc = vec![0.0f32; b * hid];
        // BPTT: walk timesteps in reverse, adding each step's head gradient to the
        // hidden-state gradient flowing back through the cell. The cell's weight
        // is packed transposed once, and every timestep reads it.
        with_wt_buffer(|buf| {
            let wt = self.cell.transpose_weights(&self.arena, buf);
            for (t, dh_t) in (0..s).rev().zip(dh_head.chunks_exact(b * hid)) {
                for (a, g) in dh.iter_mut().zip(dh_t) {
                    *a += g;
                }
                let (dx, dh_prev, dc_prev) =
                    self.cell.step_backward(&mut self.arena, &caches[t], &dh, &dc, b, wt);
                let toks: Vec<u32> = (0..b).map(|bi| batch.tokens[bi * s + t]).collect();
                self.embed.backward(&mut self.arena, &toks, &dx);
                dh = dh_prev;
                dc = dc_prev;
            }
        });
        stats
    }

    #[allow(clippy::needless_range_loop)] // t indexes parallel per-step buffers
    fn evaluate(&self, batch: &SeqBatch) -> EvalStats {
        let (b, s) = (batch.batch, batch.seq);
        let (logits_t, _, _) = self.forward_full(batch);
        let mut stats = EvalStats::default();
        let mut scratch = vec![0.0f32; b * self.vocab];
        for t in 0..s {
            let targets = self.targets_at(batch, t);
            let (loss, correct) =
                softmax_xent(&logits_t[t], &targets, &mut scratch, b, self.vocab, 1.0);
            stats.loss += loss;
            stats.correct += correct;
            stats.count += b;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticSequences;

    #[test]
    fn param_count_is_lstmnet_sized() {
        let m = LstmNet::new(0);
        // embed 24·32 + lstm (96·256 + 256) + head (64·24 + 24)
        assert_eq!(m.num_params(), 24 * 32 + 96 * 256 + 256 + 64 * 24 + 24);
    }

    #[test]
    fn replicas_agree_and_gradients_flow() {
        let mut m = LstmNet::new(5);
        assert_eq!(m.params(), LstmNet::new(5).params());
        let data = SyntheticSequences::new(1);
        let b = data.train_batch(0, 0, 1, 4);
        m.zero_grads();
        let stats = m.forward_backward(&b);
        assert!(stats.loss.is_finite() && stats.count == 4 * data.seq);
        assert!(m.grads().iter().any(|&g| g != 0.0));
        assert!(m.grads().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn learns_the_markov_chain() {
        let mut m = LstmNet::new(2);
        let data = SyntheticSequences::new(3);
        let mut opt = crate::optim::Sgd::new(0.5, 0.9);
        let before = m.evaluate(&data.test_batch(0, 32)).error_rate();
        for it in 0..60 {
            let b = data.train_batch(it, 0, 1, 16);
            m.zero_grads();
            m.forward_backward(&b);
            let g = m.grads().to_vec();
            opt.step(m.params_mut(), &g);
        }
        let after = m.evaluate(&data.test_batch(0, 32)).error_rate();
        // Chance error ≈ 1 − 1/24 ≈ 0.96; the chain's best predictor sits much lower.
        assert!(after < before - 0.15, "WER proxy did not improve: {before} -> {after}");
        assert!(after < 0.60, "after={after}");
    }
}
