//! The data-parallel training loop with full instrumentation.

use crate::cost::CostProfile;
use crate::reducer::{ReduceMetrics, Reducer, Scheme, Update};
use collectives::{allreduce_inplace, allreduce_sum_f64};
use dnn::optim::{Adam, Sgd};
use dnn::Model;
use simnet::{Cluster, Comm, Engine};
use sparse::select::topk_exact;
use sparse::stats::l2_norm;
use std::sync::{Arc, Mutex};

/// Which optimizer applies the reduced update (mirrors §5's recipes).
#[derive(Clone, Copy, Debug)]
pub enum OptimizerKind {
    /// Plain SGD; sparse schemes fold the learning rate into their accumulators
    /// and the returned sparse delta is subtracted directly.
    Sgd {
        /// Base learning rate.
        lr: f32,
    },
    /// Adam on the (sparse or dense) averaged gradient, as in the BERT recipe.
    Adam {
        /// Base learning rate.
        lr: f32,
        /// Decoupled weight decay.
        weight_decay: f32,
    },
}

/// One experiment's knobs.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Gradient-exchange scheme under test.
    pub scheme: Scheme,
    /// Density k/n.
    pub density: f64,
    /// Training iterations.
    pub iters: usize,
    /// Per-rank batch size (global batch = P × this).
    pub local_batch: usize,
    /// Modeled cost calibration.
    pub cost: CostProfile,
    /// τ (space repartition) and τ′ (threshold re-evaluation) for Ok-Topk.
    pub tau: usize,
    /// τ′ for Ok-Topk (see [`tau`](Self::tau) doc).
    pub tau_prime: usize,
    /// Which optimizer applies the reduced update.
    pub optimizer: OptimizerKind,
    /// `lr_t = lr / (1 + t/decay)`; 0 disables decay.
    pub lr_decay_iters: usize,
    /// Evaluate on held-out data every this many iterations (0 = never).
    pub eval_every: usize,
    /// Measure ξ (Assumption 1) every this many iterations (0 = never). Ok-Topk
    /// only: a run of any other scheme refuses a nonzero value.
    pub measure_xi_every: usize,
    /// Read by nothing: there is one engine. Kept only because
    /// `benchmark/src/runner.rs` (frozen outside this crate) sets it; goes
    /// with [`Engine`] when a benchmark PR drops that line.
    pub engine: Option<Engine>,
    /// Per-rank stack size; `None` keeps the cluster default. The paper-scale
    /// sweeps (P up to 4096 ranks in one process) shrink this so rank stacks
    /// stay a bounded share of the address space.
    pub stack_bytes: Option<usize>,
    /// Record every rank's activity trace, each interval under the ledger
    /// phase it was charged to (`fwd_bwd`, `sparsify`, the exchange's own
    /// phases), for `simnet::export_chrome`; see `RunResult::traces`.
    pub profile: bool,
    /// Two-tier topology installed on the simulated network; `None` is flat.
    /// It sets the hierarchical schemes' node grouping and prices every link
    /// by its tier (tiers equal to the flat cost model change only grouping).
    pub topology: Option<simnet::Topology>,
}

impl TrainConfig {
    /// Paper-flavored defaults (τ = 64, τ′ = 32, SGD lr 0.1, 100 iterations).
    pub fn new(scheme: Scheme, density: f64) -> Self {
        Self {
            scheme,
            density,
            iters: 100,
            local_batch: 8,
            cost: CostProfile::paper_calibrated(),
            tau: 64,
            tau_prime: 32,
            optimizer: OptimizerKind::Sgd { lr: 0.1 },
            lr_decay_iters: 0,
            eval_every: 0,
            measure_xi_every: 0,
            engine: None,
            stack_bytes: None,
            profile: false,
            topology: None,
        }
    }
}

/// Per-iteration instrumentation (identical on every rank; collected from rank 0).
#[derive(Clone, Copy, Debug, Default)]
pub struct IterRecord {
    /// 1-based iteration number.
    pub t: usize,
    /// Modeled seconds: forward+backward compute (incl. I/O).
    pub compute: f64,
    /// Modeled seconds: visible communication (after any overlap).
    pub comm: f64,
    /// Global mean training loss of this iteration.
    pub train_loss: f64,
    /// The reducer's account of this step: modeled sparsification seconds,
    /// selection and result sizes, Gaussiank's prediction, TopkDSA's fill-in
    /// and whether Ok-Topk balanced.
    pub reduce: ReduceMetrics,
    /// Assumption-1 ξ, when measured.
    pub xi: Option<f64>,
}

/// A held-out evaluation snapshot.
#[derive(Clone, Copy, Debug)]
pub struct EvalPoint {
    /// Iteration at which the snapshot was taken.
    pub t: usize,
    /// Modeled wall-clock at which this evaluation state was reached.
    pub time: f64,
    /// Mean held-out loss.
    pub loss: f64,
    /// Held-out argmax accuracy.
    pub accuracy: f64,
}

/// Everything one training run produces.
pub struct RunResult {
    /// The scheme that ran.
    pub scheme: Scheme,
    /// Per-iteration instrumentation.
    pub records: Vec<IterRecord>,
    /// Held-out evaluation snapshots.
    pub evals: Vec<EvalPoint>,
    /// Modeled makespan of the whole run (slowest rank).
    pub makespan: f64,
    /// The run's metrics snapshot (simnet's instruments; empty values
    /// when observability is disabled).
    pub metrics: obs::MetricsSnapshot,
    /// Per-rank activity traces (empty unless [`TrainConfig::profile`]).
    pub traces: Vec<Vec<simnet::TraceEvent>>,
}

/// The one optimizer of a run, built from [`OptimizerKind`].
enum Optimizer {
    Sgd(Sgd),
    Adam(Adam),
}

/// The model state every replica holds in common: Algorithm 2 applies the
/// same update on every worker, so the P replicas' parameters and optimizer
/// moments are one copy per process, not one per rank. A rank keeps only what
/// differs per rank: gradients, ε and activations.
struct SharedModel(Mutex<ModelState>);

struct ModelState {
    params: Arc<Vec<f32>>,
    opt: Optimizer,
    /// The last step applied to `params`.
    t: usize,
}

impl SharedModel {
    fn new(params: Arc<Vec<f32>>, kind: OptimizerKind) -> Self {
        let opt = match kind {
            OptimizerKind::Sgd { lr } => Optimizer::Sgd(Sgd::new(lr, 0.0)),
            OptimizerKind::Adam { lr, weight_decay } => {
                Optimizer::Adam(Adam::new(lr, 0.9, 0.999, 1e-8, weight_decay, params.len()))
            }
        };
        Self(Mutex::new(ModelState { params, opt, t: 0 }))
    }

    /// The parameters after the last step applied.
    fn params(&self) -> Arc<Vec<f32>> {
        Arc::clone(&self.0.lock().expect("model state lock").params)
    }

    /// The parameters after step `t`, which applies `update` at rate `lr_t`.
    /// The first rank to get here for step `t` makes the next vector and
    /// steps the optimizer; every later one receives the same handle. No rank
    /// can reach step `t + 1` before every rank has passed step `t`: its
    /// update is an allreduce of every rank's step-`(t + 1)` gradient, which
    /// each rank computes only after adopting step `t`'s parameters.
    fn apply(&self, t: usize, update: &Update, lr_t: f32) -> Arc<Vec<f32>> {
        let mut state = self.0.lock().expect("model state lock");
        if state.t == t {
            return Arc::clone(&state.params);
        }
        assert_eq!(state.t + 1, t, "step {t} applied after step {}", state.t);
        let ModelState { params, opt, t: applied } = &mut *state;
        // Every rank still holds the previous vector, so this is the step's
        // one parameter copy.
        let params_mut = Arc::make_mut(params);
        match (update, opt) {
            (Update::Dense(avg), Optimizer::Sgd(s)) => {
                s.lr = lr_t;
                s.step(params_mut, avg)
            }
            (Update::Dense(avg), Optimizer::Adam(a)) => {
                a.set_lr(lr_t);
                a.step(params_mut, avg)
            }
            (Update::Sparse(u), Optimizer::Sgd(_)) => {
                // SGD mode: the sparse delta already carries the learning rate.
                for (i, v) in u.iter() {
                    params_mut[i as usize] -= v;
                }
            }
            (Update::Sparse(u), Optimizer::Adam(a)) => {
                a.set_lr(lr_t);
                a.step_sparse(params_mut, u.indexes(), u.values())
            }
        }
        *applied = t;
        Arc::clone(params)
    }
}

/// What each rank closure returns; only rank 0's records/evals are kept, but
/// traces are collected from every rank.
struct RankRun {
    records: Vec<IterRecord>,
    evals: Vec<EvalPoint>,
    trace: Vec<simnet::TraceEvent>,
}

impl RunResult {
    /// Mean (compute, sparsify, comm) per iteration, skipping `warmup` iterations.
    pub fn mean_breakdown(&self, warmup: usize) -> (f64, f64, f64) {
        let tail = &self.records[warmup.min(self.records.len())..];
        if tail.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let n = tail.len() as f64;
        (
            tail.iter().map(|r| r.compute).sum::<f64>() / n,
            tail.iter().map(|r| r.reduce.sparsify_time).sum::<f64>() / n,
            tail.iter().map(|r| r.comm).sum::<f64>() / n,
        )
    }
}

/// Run `cfg.iters` iterations of data-parallel training of the model produced by
/// `make_model` on `p` ranks, exchanging gradients with `cfg.scheme`.
///
/// - `make_model()` must be deterministic (all replicas start identical).
/// - `make_batch(iter, rank, world)` supplies disjoint shards.
/// - `eval_batches` are evaluated by rank 0 every `cfg.eval_every` iterations.
pub fn run_data_parallel<M, FM, FB>(
    p: usize,
    cfg: &TrainConfig,
    make_model: FM,
    make_batch: FB,
    eval_batches: &[M::Batch],
) -> RunResult
where
    M: Model,
    M::Batch: Sync,
    FM: Fn() -> M + Send + Sync,
    FB: Fn(u64, usize, usize) -> M::Batch + Send + Sync,
{
    run_data_parallel_chaos(p, cfg, None, make_model, make_batch, eval_batches)
}

/// [`run_data_parallel`] with an optional chaos plan applied to the cluster —
/// the paper-scale robustness legs train under perturbed link/compute timing
/// while everything else (determinism per plan, instrumentation) is unchanged.
pub fn run_data_parallel_chaos<M, FM, FB>(
    p: usize,
    cfg: &TrainConfig,
    chaos: Option<simnet::ChaosPlan>,
    make_model: FM,
    make_batch: FB,
    eval_batches: &[M::Batch],
) -> RunResult
where
    M: Model,
    M::Batch: Sync,
    FM: Fn() -> M + Send + Sync,
    FB: Fn(u64, usize, usize) -> M::Batch + Send + Sync,
{
    assert!(
        cfg.measure_xi_every == 0 || cfg.scheme == Scheme::OkTopk,
        "ξ is measured under Ok-Topk only, not {}",
        cfg.scheme.name()
    );
    // Rescale fixed costs (latency, kernel launches) to this model's size so the
    // experiment sits in the paper's bandwidth-dominated regime (see cost.rs).
    // This model's parameters are the initial state every rank adopts.
    let (n, shared) = {
        let model = make_model();
        (model.num_params(), SharedModel::new(model.arena().params_handle(), cfg.optimizer))
    };
    let mut cfg = *cfg;
    cfg.cost = cfg.cost.scaled_for_model(n);
    let cfg = &cfg;
    let mut cluster = Cluster::new(p, cfg.cost.network());
    if let Some(bytes) = cfg.stack_bytes {
        cluster = cluster.with_stack_bytes(bytes);
    }
    if let Some(plan) = chaos {
        cluster = cluster.with_chaos(plan);
    }
    if let Some(topo) = cfg.topology {
        cluster = cluster.with_topology(topo);
    }
    let report =
        cluster.run(|comm| train_rank(comm, cfg, &shared, &make_model, &make_batch, eval_batches));
    let makespan = report.makespan();
    let metrics = report.metrics;
    let mut traces = Vec::with_capacity(p);
    let mut rank0 = None;
    for (rank, run) in report.results.into_iter().enumerate() {
        traces.push(run.trace);
        if rank == 0 {
            rank0 = Some((run.records, run.evals));
        }
    }
    let (records, evals) = rank0.expect("rank 0 result");
    RunResult { scheme: cfg.scheme, records, evals, makespan, metrics, traces }
}

fn train_rank<M, FM, FB>(
    comm: &mut Comm,
    cfg: &TrainConfig,
    shared: &SharedModel,
    make_model: &FM,
    make_batch: &FB,
    eval_batches: &[M::Batch],
) -> RankRun
where
    M: Model,
    FM: Fn() -> M,
    FB: Fn(u64, usize, usize) -> M::Batch,
{
    let rank = comm.rank();
    let world = comm.size();
    if cfg.profile {
        comm.enable_trace();
    }
    let mut model = make_model();
    model.arena_mut().adopt_params(shared.params());
    let n = model.num_params();
    let mut reducer = Reducer::new(cfg.scheme, n, cfg.density, cfg.cost, cfg.tau, cfg.tau_prime)
        .with_ranks_per_node(collectives::ranks_per_node(comm));
    let k = reducer.k();

    let base_lr = match cfg.optimizer {
        OptimizerKind::Sgd { lr } | OptimizerKind::Adam { lr, .. } => lr,
    };

    let fwd_time = cfg.cost.fwd_bwd(n);
    let overlap = if cfg.scheme.overlaps_backward() { cfg.cost.overlap_window } else { 0.0 };

    let mut records = Vec::with_capacity(cfg.iters);
    let mut evals = Vec::new();

    for t in 1..=cfg.iters {
        // Learning-rate schedule, for whichever optimizer runs and whichever
        // update kind the scheme returns. SGD also folds the rate into the
        // gradient scale; Adam applies it in its step.
        let lr_t = if cfg.lr_decay_iters > 0 {
            base_lr / (1.0 + t as f32 / cfg.lr_decay_iters as f32)
        } else {
            base_lr
        };
        let scale = match cfg.optimizer {
            OptimizerKind::Sgd { .. } => lr_t,
            OptimizerKind::Adam { .. } => 1.0,
        };

        // Real gradient computation on this rank's shard, traced under a
        // phase of its own rather than the last step's exchange.
        comm.set_phase("fwd_bwd");
        let batch = make_batch((t - 1) as u64, rank, world);
        model.zero_grads();
        let stats = model.forward_backward(&batch);

        // Modeled compute: the non-overlappable share now, the rest (DenseOvlp's
        // overlap window) runs concurrently with communication below.
        comm.compute(fwd_time * (1.0 - overlap));
        let t_comm_start = comm.now();

        // ξ instrumentation part A: gather the dense accumulator/gradient averages
        // out-of-band (free mode: zero modeled cost, no ledger pollution).
        let xi_prep = if cfg.measure_xi_every > 0 && t % cfg.measure_xi_every == 0 {
            // This step's accumulator ε + scale·g, built where it is summed.
            let residual = reducer.residual().iter().zip(model.grads());
            let mut acc_sum: Vec<f32> = residual.map(|(&e, &g)| e + scale * g).collect();
            comm.set_free_mode(true);
            allreduce_inplace(comm, &mut acc_sum);
            let mut grad_sum = model.grads().to_vec();
            allreduce_inplace(comm, &mut grad_sum);
            comm.set_free_mode(false);
            Some((acc_sum, grad_sum))
        } else {
            None
        };

        // The overlapped backward tail (DenseOvlp) is spent *inside* the
        // allreduce, spread across its steps between each send and its receive.
        let (update, metrics) =
            reducer.reduce_with_overlap(comm, model.grads(), scale, fwd_time * overlap);
        let t_comm_end = comm.now();

        let comm_visible =
            ((t_comm_end - t_comm_start) - metrics.sparsify_time - fwd_time * overlap).max(0.0);

        // ξ part B: compare the paper's Eq. 5 terms.
        let xi = xi_prep.map(|(acc_sum, grad_sum)| {
            let pf = world as f32;
            let true_avg: Vec<f32> = acc_sum.iter().map(|v| v / pf).collect();
            let topk_true = topk_exact(&true_avg, k);
            let applied = match &update {
                Update::Sparse(u) => u.as_ref().clone(),
                Update::Dense(_) => unreachable!("xi is only measured for Ok-Topk"),
            };
            let mut neg = applied;
            neg.scale(-1.0);
            let diff = topk_true.merge_sum(&neg);
            let denom = (scale as f64) * l2_norm(&grad_sum) / world as f64;
            if denom > 0.0 {
                diff.l2_norm() / denom
            } else {
                0.0
            }
        });

        // Apply the update once per process; every rank adopts the result.
        model.arena_mut().adopt_params(shared.apply(t, &update, lr_t));

        // Global mean training loss (free mode; 2 words).
        comm.set_free_mode(true);
        let sums = allreduce_sum_f64(comm, vec![stats.loss, stats.count as f64]);
        comm.set_free_mode(false);
        let train_loss = if sums[1] > 0.0 { sums[0] / sums[1] } else { 0.0 };

        records.push(IterRecord {
            t,
            compute: fwd_time,
            comm: comm_visible,
            train_loss,
            reduce: metrics,
            xi,
        });

        // Held-out evaluation: offline (does not advance the modeled clock), on
        // rank 0 only (all replicas are identical).
        if cfg.eval_every > 0 && (t % cfg.eval_every == 0 || t == cfg.iters) && rank == 0 {
            let mut agg = dnn::EvalStats::default();
            for b in eval_batches {
                agg.merge(&model.evaluate(b));
            }
            evals.push(EvalPoint {
                t,
                time: comm.now(),
                loss: agg.mean_loss(),
                accuracy: agg.accuracy(),
            });
        }
    }

    RankRun { records, evals, trace: comm.take_trace() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::data::SyntheticImages;
    use dnn::models::VggLite;

    fn small_cfg(scheme: Scheme) -> TrainConfig {
        let mut cfg = TrainConfig::new(scheme, 0.05);
        cfg.iters = 6;
        cfg.local_batch = 2;
        cfg.tau = 2;
        cfg.tau_prime = 2;
        cfg.optimizer = OptimizerKind::Sgd { lr: 0.05 };
        cfg.eval_every = 3;
        cfg
    }

    fn run_scheme(scheme: Scheme, p: usize) -> RunResult {
        let cfg = small_cfg(scheme);
        let data = SyntheticImages::with_shape(1, 4, 3, 8, 0.5);
        let eval: Vec<_> = (0..2).map(|b| data.test_batch(b, 8)).collect();
        let local_batch = cfg.local_batch;
        run_data_parallel(
            p,
            &cfg,
            || VggLite::with_width(7, 4, 8, 16, 4, 8),
            move |iter, rank, world| data.train_batch(iter, rank, world, local_batch),
            &eval,
        )
    }

    #[test]
    fn every_scheme_trains_and_records() {
        for scheme in Scheme::all() {
            let res = run_scheme(scheme, 4);
            assert_eq!(res.records.len(), 6, "{}", scheme.name());
            assert!(res.makespan > 0.0);
            assert_eq!(res.evals.len(), 2);
            for r in &res.records {
                assert!(r.compute > 0.0);
                assert!(r.comm >= 0.0 && r.reduce.sparsify_time >= 0.0);
                assert!(r.train_loss.is_finite());
                if scheme.is_sparse() {
                    assert!(r.reduce.local_nnz.is_some(), "{}", scheme.name());
                }
            }
        }
    }

    #[test]
    fn losses_decrease_for_dense_and_oktopk() {
        for scheme in [Scheme::Dense, Scheme::OkTopk] {
            let cfg = {
                let mut c = small_cfg(scheme);
                c.iters = 25;
                c.density = 0.1;
                c
            };
            let data = SyntheticImages::with_shape(1, 4, 3, 8, 0.5);
            let eval: Vec<_> = (0..2).map(|b| data.test_batch(b, 8)).collect();
            let res = run_data_parallel(
                2,
                &cfg,
                || VggLite::with_width(7, 4, 8, 16, 4, 8),
                move |iter, rank, world| data.train_batch(iter, rank, world, 2),
                &eval,
            );
            let first = res.records[0].train_loss;
            let last = res.records.last().expect("records").train_loss;
            assert!(last < first, "{}: {first} -> {last}", scheme.name());
        }
    }

    /// The learning-rate schedule reaches Adam whatever update kind the
    /// scheme returns: a dense scheme decays it as a sparse one does.
    #[test]
    fn adam_lr_decay_applies_to_dense_and_sparse_updates() {
        for scheme in [Scheme::Dense, Scheme::TopkA] {
            let losses = |lr_decay_iters: usize| {
                let mut cfg = small_cfg(scheme);
                cfg.iters = 3;
                cfg.eval_every = 0;
                cfg.optimizer = OptimizerKind::Adam { lr: 1e-2, weight_decay: 0.0 };
                cfg.lr_decay_iters = lr_decay_iters;
                let data = SyntheticImages::with_shape(1, 4, 3, 8, 0.5);
                let res = run_data_parallel(
                    2,
                    &cfg,
                    || VggLite::with_width(7, 4, 8, 16, 4, 8),
                    move |iter, rank, world| data.train_batch(iter, rank, world, 2),
                    &[],
                );
                res.records.iter().map(|r| r.train_loss.to_bits()).collect::<Vec<_>>()
            };
            assert_ne!(losses(1), losses(0), "{}: lr decay never reached Adam", scheme.name());
        }
    }

    #[test]
    fn dense_ovlp_hides_communication() {
        let dense = run_scheme(Scheme::Dense, 4);
        let ovlp = run_scheme(Scheme::DenseOvlp, 4);
        let (_, _, comm_d) = dense.mean_breakdown(1);
        let (_, _, comm_o) = ovlp.mean_breakdown(1);
        assert!(comm_o < comm_d, "overlap did not reduce visible comm: {comm_o} vs {comm_d}");
    }

    #[test]
    fn xi_is_measured_for_oktopk() {
        let mut cfg = small_cfg(Scheme::OkTopk);
        cfg.measure_xi_every = 2;
        cfg.iters = 6;
        let data = SyntheticImages::with_shape(1, 4, 3, 8, 0.5);
        let res = run_data_parallel(
            4,
            &cfg,
            || VggLite::with_width(7, 4, 8, 16, 4, 8),
            move |iter, rank, world| data.train_batch(iter, rank, world, 2),
            &[],
        );
        let measured: Vec<f64> = res.records.iter().filter_map(|r| r.xi).collect();
        assert_eq!(measured.len(), 3);
        assert!(measured.iter().all(|x| x.is_finite() && *x >= 0.0));
    }

    #[test]
    #[should_panic(expected = "ξ is measured under Ok-Topk only, not TopkA")]
    fn xi_measurement_refuses_other_schemes() {
        let mut cfg = small_cfg(Scheme::TopkA);
        cfg.measure_xi_every = 2;
        let data = SyntheticImages::with_shape(1, 4, 3, 8, 0.5);
        run_data_parallel(
            2,
            &cfg,
            || VggLite::with_width(7, 4, 8, 16, 4, 8),
            move |iter, rank, world| data.train_batch(iter, rank, world, 2),
            &[],
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_scheme(Scheme::OkTopk, 3);
        let b = run_scheme(Scheme::OkTopk, 3);
        assert_eq!(a.makespan, b.makespan);
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.train_loss, y.train_loss);
            assert_eq!(x.comm, y.comm);
        }
    }

    /// End-to-end trainer schedule invariance: a training run's Virtual-class
    /// metrics (simnet's per-rank clocks, traffic and waits) are functions of
    /// the data, so a run serialized on one worker and one where every rank is
    /// its own runnable thread must record them bit for bit.
    #[test]
    fn trainer_metrics_match_across_worker_counts() {
        let mut cfg = small_cfg(Scheme::OkTopk);
        cfg.iters = 4;
        cfg.eval_every = 0;
        let data = SyntheticImages::with_shape(1, 4, 3, 8, 0.5);
        let model = || VggLite::with_width(7, 4, 8, 16, 4, 8);
        let batch = move |it: u64, r: usize, w: usize| data.train_batch(it, r, w, 2);
        cfg.cost = cfg.cost.scaled_for_model(model().num_params());
        let run = |workers: usize| {
            let shared = SharedModel::new(model().arena().params_handle(), cfg.optimizer);
            Cluster::new(3, cfg.cost.network())
                .with_workers(workers)
                .run(|comm| train_rank(comm, &cfg, &shared, &model, &batch, &[]).records.len())
        };
        let serial = run(1);
        let parallel = run(3);
        assert_eq!(serial.makespan(), parallel.makespan(), "makespan diverged");
        assert_eq!(
            serial.metrics.parity_view(),
            parallel.metrics.parity_view(),
            "trainer virtual metrics diverged across worker counts"
        );
    }
}
