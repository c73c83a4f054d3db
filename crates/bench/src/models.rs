//! The three stand-in models and their synthetic data, as one table: every
//! figure that trains names a [`Data`] and gets its model with it.

use dnn::data::{SyntheticImages, SyntheticMaskedLm, SyntheticSequences};
use dnn::models::{BertLite, LstmNet, VggLite};
use dnn::Model;
use simnet::ChaosPlan;
use train::{run_data_parallel_chaos, RunResult, TrainConfig};

/// A synthetic dataset; its variant fixes the model that trains on it.
#[derive(Clone)]
pub enum Data {
    /// VGG-16 stand-in on Cifar-10 stand-in images.
    Images(SyntheticImages),
    /// LSTM stand-in on AN4 stand-in sequences.
    Sequences(SyntheticSequences),
    /// BERT stand-in on masked-LM stand-in text.
    MaskedLm(SyntheticMaskedLm),
}

/// Work that needs the model's type, run by [`Data::with_model`].
pub trait ModelJob {
    type Out;
    /// `model` builds the model; `train(iter, rank, world, batch)` is a
    /// training batch and `test(block, batch)` a held-out one.
    fn run<M: Model>(
        self,
        model: fn() -> M,
        train: &(dyn Fn(u64, usize, usize, usize) -> M::Batch + Sync),
        test: &dyn Fn(u64, usize) -> M::Batch,
    ) -> Self::Out
    where
        M::Batch: Sync;
}

impl Data {
    pub fn vgg() -> Self {
        Data::Images(SyntheticImages::new(2))
    }

    pub fn lstm() -> Self {
        Data::Sequences(SyntheticSequences::new(3))
    }

    pub fn bert() -> Self {
        Data::MaskedLm(SyntheticMaskedLm::new(5))
    }

    /// Run `job` on the model this data trains: the one place that pairs a
    /// dataset with its model.
    pub fn with_model<J: ModelJob>(&self, job: J) -> J::Out {
        match self {
            Data::Images(d) => job.run(
                || VggLite::new(16),
                &|it, r, w, b| d.train_batch(it, r, w, b),
                &|blk, b| d.test_batch(blk, b),
            ),
            Data::Sequences(d) => job.run(
                || LstmNet::new(21),
                &|it, r, w, b| d.train_batch(it, r, w, b),
                &|blk, b| d.test_batch(blk, b),
            ),
            Data::MaskedLm(d) => job.run(
                || BertLite::new(13),
                &|it, r, w, b| d.train_batch(it, r, w, b),
                &|blk, b| d.test_batch(blk, b),
            ),
        }
    }

    /// Parameter count of the model this data trains.
    pub fn num_params(&self) -> usize {
        struct NumParams;
        impl ModelJob for NumParams {
            type Out = usize;
            fn run<M: Model>(
                self,
                model: fn() -> M,
                _: &(dyn Fn(u64, usize, usize, usize) -> M::Batch + Sync),
                _: &dyn Fn(u64, usize) -> M::Batch,
            ) -> usize
            where
                M::Batch: Sync,
            {
                model().num_params()
            }
        }
        self.with_model(NumParams)
    }

    /// Train the model on `p` ranks, under `chaos` if given, evaluating on
    /// four held-out batches of `eval_batch` samples (none if 0).
    pub fn train(
        &self,
        p: usize,
        cfg: &TrainConfig,
        chaos: Option<ChaosPlan>,
        eval_batch: usize,
    ) -> RunResult {
        struct Train<'a>(usize, &'a TrainConfig, Option<ChaosPlan>, usize);
        impl ModelJob for Train<'_> {
            type Out = RunResult;
            fn run<M: Model>(
                self,
                model: fn() -> M,
                train: &(dyn Fn(u64, usize, usize, usize) -> M::Batch + Sync),
                test: &dyn Fn(u64, usize) -> M::Batch,
            ) -> RunResult
            where
                M::Batch: Sync,
            {
                let Train(p, cfg, chaos, eval_batch) = self;
                let blocks = if eval_batch > 0 { 0..4 } else { 0..0 };
                let eval: Vec<_> = blocks.map(|b| test(b, eval_batch)).collect();
                let lb = cfg.local_batch;
                let batch = |it, r, w| train(it, r, w, lb);
                run_data_parallel_chaos(p, cfg, chaos, model, batch, &eval)
            }
        }
        self.with_model(Train(p, cfg, chaos, eval_batch))
    }
}
