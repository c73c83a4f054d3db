//! Seeded synthetic datasets standing in for Cifar-10, AN4 and Wikipedia.
//!
//! Every dataset is a deterministic function `index → sample`, so data-parallel
//! workers can shard the index space without any coordination, runs are exactly
//! reproducible, and the train/test split is just two disjoint index ranges.
//!
//! The datasets are synthetic but *learnable with an error floor*: images are class
//! templates plus Gaussian-ish noise; sequences follow a seeded Markov chain whose
//! entropy lower-bounds the next-token error (the WER-proxy); masked-LM streams add
//! Zipfian unigram weights on top of bigram structure. Convergence curves therefore
//! have the familiar shape — fast early progress, noisy plateau — which is what the
//! §5.4 comparisons (Ok-Topk ≈ Dense accuracy) need.

use rand::prelude::*;

/// Offset separating test indexes from train indexes.
const TEST_OFFSET: u64 = 1 << 40;

/// A batch of images: `pixels` is `[batch, channels·h·w]` row-major.
#[derive(Clone, Debug)]
pub struct ImageBatch {
    /// Row-major `[batch, channels·h·w]` pixel data.
    pub pixels: Vec<f32>,
    /// Class labels, one per image.
    pub labels: Vec<u32>,
    /// Number of images in the batch.
    pub batch: usize,
}

/// A batch of token sequences with next-token targets: both `[batch, seq]`.
#[derive(Clone, Debug)]
pub struct SeqBatch {
    /// Input tokens, `[batch, seq]` row-major.
    pub tokens: Vec<u32>,
    /// Per-position targets (next token, or masked original / IGNORE).
    pub targets: Vec<u32>,
    /// Number of sequences in the batch.
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
}

/// Cifar-10 stand-in: 10 class templates (3×16×16) + per-sample noise.
#[derive(Clone, Debug)]
pub struct SyntheticImages {
    templates: Vec<Vec<f32>>,
    /// Number of classes (templates).
    pub classes: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height = width.
    pub hw: usize,
    noise: f32,
    seed: u64,
}

impl SyntheticImages {
    /// Default Cifar-10-like shape: 10 classes of 3×16×16 images.
    pub fn new(seed: u64) -> Self {
        Self::with_shape(seed, 10, 3, 16, 0.6)
    }

    /// Fully parameterized constructor (class count, image shape, noise level).
    pub fn with_shape(seed: u64, classes: usize, channels: usize, hw: usize, noise: f32) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let templates = (0..classes)
            .map(|_| (0..channels * hw * hw).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        Self { templates, classes, channels, hw, noise, seed }
    }

    /// Flattened pixel count per image.
    pub fn pixels_per_image(&self) -> usize {
        self.channels * self.hw * self.hw
    }

    fn sample(&self, index: u64) -> (Vec<f32>, u32) {
        let label = (index % self.classes as u64) as u32;
        let mut rng = StdRng::seed_from_u64(self.seed ^ index.wrapping_mul(0x9E3779B97F4A7C15));
        let pixels = self.templates[label as usize]
            .iter()
            .map(|&t| t + self.noise * (rng.gen_range(-1.0f32..1.0) + rng.gen_range(-1.0f32..1.0)))
            .collect();
        (pixels, label)
    }

    fn batch_at(&self, start: u64, batch: usize) -> ImageBatch {
        let mut pixels = Vec::with_capacity(batch * self.pixels_per_image());
        let mut labels = Vec::with_capacity(batch);
        for i in 0..batch as u64 {
            let (p, l) = self.sample(start + i);
            pixels.extend_from_slice(&p);
            labels.push(l);
        }
        ImageBatch { pixels, labels, batch }
    }

    /// Training batch `b` for worker `rank` of `world` (disjoint shards).
    pub fn train_batch(&self, iter: u64, rank: usize, world: usize, batch: usize) -> ImageBatch {
        let start = (iter * world as u64 + rank as u64) * batch as u64;
        self.batch_at(start, batch)
    }

    /// Deterministic held-out batch (disjoint from all training indexes).
    pub fn test_batch(&self, block: u64, batch: usize) -> ImageBatch {
        self.batch_at(TEST_OFFSET + block * batch as u64, batch)
    }
}

/// Seeded Markov chain over `vocab` tokens; shared by the AN4 and Wikipedia
/// stand-ins. Each token has a few preferred successors, so the chain is learnable
/// but stochastic (non-zero error floor).
#[derive(Clone, Debug)]
struct MarkovChain {
    vocab: usize,
    /// `[vocab, vocab]` row-stochastic transition matrix (CDF rows for sampling).
    cdf: Vec<f32>,
    seed: u64,
}

impl MarkovChain {
    fn new(seed: u64, vocab: usize, peakedness: f32) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cdf = vec![0.0f32; vocab * vocab];
        for t in 0..vocab {
            // Two preferred successors get most of the mass; the rest is uniform.
            let a = rng.gen_range(0..vocab);
            let b = rng.gen_range(0..vocab);
            let mut probs = vec![(1.0 - peakedness) / vocab as f32; vocab];
            probs[a] += peakedness * 0.65;
            probs[b] += peakedness * 0.35;
            let mut acc = 0.0f32;
            for (j, p) in probs.iter().enumerate() {
                acc += p;
                cdf[t * vocab + j] = acc;
            }
            cdf[t * vocab + vocab - 1] = 1.0;
        }
        Self { vocab, cdf, seed }
    }

    fn walk(&self, index: u64, len: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ index.wrapping_mul(0xD1B54A32D192ED03));
        let mut t = (rng.gen::<u64>() % self.vocab as u64) as usize;
        let mut out = Vec::with_capacity(len);
        out.push(t as u32);
        for _ in 1..len {
            let u: f32 = rng.gen();
            let row = &self.cdf[t * self.vocab..(t + 1) * self.vocab];
            t = row.partition_point(|&c| c < u).min(self.vocab - 1);
            out.push(t as u32);
        }
        out
    }
}

/// AN4 stand-in: next-token prediction over a Markov chain; the per-token argmax
/// error rate on held-out data is the WER proxy.
#[derive(Clone, Debug)]
pub struct SyntheticSequences {
    chain: MarkovChain,
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length.
    pub seq: usize,
}

impl SyntheticSequences {
    /// Default AN4-like shape: vocabulary 24, sequences of 20 tokens.
    pub fn new(seed: u64) -> Self {
        Self::with_shape(seed, 24, 20, 0.85)
    }

    /// Fully parameterized constructor; `peakedness` sets how deterministic the chain is.
    pub fn with_shape(seed: u64, vocab: usize, seq: usize, peakedness: f32) -> Self {
        Self { chain: MarkovChain::new(seed, vocab, peakedness), vocab, seq }
    }

    fn batch_at(&self, start: u64, batch: usize) -> SeqBatch {
        let mut tokens = Vec::with_capacity(batch * self.seq);
        let mut targets = Vec::with_capacity(batch * self.seq);
        for i in 0..batch as u64 {
            let walk = self.chain.walk(start + i, self.seq + 1);
            tokens.extend_from_slice(&walk[..self.seq]);
            targets.extend_from_slice(&walk[1..]);
        }
        SeqBatch { tokens, targets, batch, seq: self.seq }
    }

    /// Training batch `iter` for worker `rank` of `world` (disjoint shards).
    pub fn train_batch(&self, iter: u64, rank: usize, world: usize, batch: usize) -> SeqBatch {
        let start = (iter * world as u64 + rank as u64) * batch as u64;
        self.batch_at(start, batch)
    }

    /// Deterministic held-out batch (disjoint from all training indexes).
    pub fn test_batch(&self, block: u64, batch: usize) -> SeqBatch {
        self.batch_at(TEST_OFFSET + block * batch as u64, batch)
    }
}

/// Wikipedia masked-LM stand-in: Markov-chain token streams with 15% of positions
/// masked; targets are [`crate::ops::IGNORE`] everywhere else. The last vocab id is
/// reserved as the `[MASK]` token.
#[derive(Clone, Debug)]
pub struct SyntheticMaskedLm {
    chain: MarkovChain,
    /// Vocabulary size (the last id is reserved for `[MASK]`).
    pub vocab: usize,
    /// Sequence length.
    pub seq: usize,
    /// Probability that a position is masked (and scored).
    pub mask_prob: f64,
    seed: u64,
}

impl SyntheticMaskedLm {
    /// Default Wikipedia-MLM-like shape: vocabulary 64, sequence 16, 15% masking.
    pub fn new(seed: u64) -> Self {
        Self::with_shape(seed, 64, 16, 0.15)
    }

    /// Fully parameterized constructor.
    pub fn with_shape(seed: u64, vocab: usize, seq: usize, mask_prob: f64) -> Self {
        assert!(vocab >= 4);
        // Content tokens use ids 0..vocab-1; vocab-1 is [MASK].
        Self { chain: MarkovChain::new(seed, vocab - 1, 0.8), vocab, seq, mask_prob, seed }
    }

    /// The reserved `[MASK]` token id (last vocabulary entry).
    pub fn mask_token(&self) -> u32 {
        (self.vocab - 1) as u32
    }

    fn batch_at(&self, start: u64, batch: usize) -> SeqBatch {
        let mut tokens = Vec::with_capacity(batch * self.seq);
        let mut targets = Vec::with_capacity(batch * self.seq);
        for i in 0..batch as u64 {
            let walk = self.chain.walk(start + i, self.seq);
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ (start + i).wrapping_mul(0xA24BAED4963EE407));
            let mut masked_any = false;
            let base = tokens.len();
            for &t in &walk {
                if rng.gen_bool(self.mask_prob) {
                    tokens.push(self.mask_token());
                    targets.push(t);
                    masked_any = true;
                } else {
                    tokens.push(t);
                    targets.push(crate::ops::IGNORE);
                }
            }
            if !masked_any {
                // Guarantee at least one scored position per sequence.
                let pos = (rng.gen::<u64>() % self.seq as u64) as usize;
                targets[base + pos] = walk[pos];
                tokens[base + pos] = self.mask_token();
            }
        }
        SeqBatch { tokens, targets, batch, seq: self.seq }
    }

    /// Training batch `iter` for worker `rank` of `world` (disjoint shards).
    pub fn train_batch(&self, iter: u64, rank: usize, world: usize, batch: usize) -> SeqBatch {
        let start = (iter * world as u64 + rank as u64) * batch as u64;
        self.batch_at(start, batch)
    }

    /// Deterministic held-out batch (disjoint from all training indexes).
    pub fn test_batch(&self, block: u64, batch: usize) -> SeqBatch {
        self.batch_at(TEST_OFFSET + block * batch as u64, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::IGNORE;

    #[test]
    fn images_are_deterministic_and_sharded() {
        let d = SyntheticImages::new(3);
        let a = d.train_batch(5, 1, 4, 8);
        let b = d.train_batch(5, 1, 4, 8);
        assert_eq!(a.pixels, b.pixels);
        assert_eq!(a.labels, b.labels);
        // Different rank → different samples.
        let c = d.train_batch(5, 2, 4, 8);
        assert_ne!(a.pixels, c.pixels);
        // Test batch disjoint from training (different content).
        let t = d.test_batch(0, 8);
        assert_ne!(a.pixels, t.pixels);
    }

    #[test]
    fn image_labels_cycle_through_classes() {
        let d = SyntheticImages::new(1);
        let b = d.train_batch(0, 0, 1, 20);
        assert_eq!(&b.labels[..10], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn same_class_samples_correlate() {
        // Two samples of class 0 must be closer to each other than to class 5.
        let d = SyntheticImages::new(7);
        let b = d.train_batch(0, 0, 1, 20);
        let ppi = d.pixels_per_image();
        let img = |i: usize| &b.pixels[i * ppi..(i + 1) * ppi];
        let dist =
            |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        let same = dist(img(0), img(10)); // both class 0
        let diff = dist(img(0), img(5)); // class 0 vs class 5
        assert!(same < diff, "same={same} diff={diff}");
    }

    #[test]
    fn sequences_targets_are_shifted_tokens() {
        let d = SyntheticSequences::new(11);
        let b = d.train_batch(0, 0, 1, 4);
        for s in 0..4 {
            for j in 0..d.seq - 1 {
                assert_eq!(b.targets[s * d.seq + j], b.tokens[s * d.seq + j + 1]);
            }
        }
    }

    #[test]
    fn markov_chain_is_predictable_but_not_trivially() {
        // The most likely successor should dominate but not saturate.
        let d = SyntheticSequences::new(13);
        let mut counts = std::collections::HashMap::new();
        for i in 0..200u64 {
            let b = d.batch_at(i, 1);
            for j in 0..d.seq - 1 {
                *counts.entry((b.tokens[j], b.tokens[j + 1])).or_insert(0usize) += 1;
            }
        }
        // For the most common source token, its best successor should account for
        // 40–90% of transitions.
        let mut by_src: std::collections::HashMap<u32, Vec<usize>> = Default::default();
        for ((s, _t), c) in &counts {
            by_src.entry(*s).or_default().push(*c);
        }
        let (_, best) =
            by_src.iter().max_by_key(|(_, v)| v.iter().sum::<usize>()).expect("some transitions");
        let total: usize = best.iter().sum();
        let max = *best.iter().max().expect("non-empty");
        let frac = max as f64 / total as f64;
        assert!(frac > 0.35 && frac < 0.95, "frac={frac}");
    }

    #[test]
    fn masked_lm_masks_scored_positions_only() {
        let d = SyntheticMaskedLm::new(17);
        let b = d.train_batch(0, 0, 1, 16);
        let mut scored = 0usize;
        for j in 0..b.tokens.len() {
            if b.targets[j] != IGNORE {
                scored += 1;
                assert_eq!(b.tokens[j], d.mask_token());
                assert!(b.targets[j] < d.mask_token());
            } else {
                assert_ne!(b.tokens[j], d.mask_token());
            }
        }
        // ~15% of 256 positions, with at least one per sequence.
        assert!((16..100).contains(&scored), "scored={scored}");
    }
}
