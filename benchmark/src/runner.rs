//! Runs one workload from outside, through public functions only.
//!
//! The benchmark-owned loop ([`run_loop`]) is closed: P ranks step together
//! in lock-step collectives, so the client count is P and there is no arrival
//! schedule. A timed step on rank 0 is
//! `barrier -> compute -> reduce/step -> apply -> barrier`; gradients are
//! generated before the opening barrier, outside the timed window.

use crate::gen;
use crate::trace::{Recorder, Span};
use crate::workloads::{Kind, Spec};
use dnn::data::SyntheticMaskedLm;
use dnn::models::BertLite;
use dnn::optim::Adam;
use dnn::Model;
use simnet::{Cluster, Comm, Engine, SchedMode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use train::reducer::ReduceMetrics;
use train::{CostProfile, OptimizerKind, Reducer, RunResult, Scheme, TrainConfig, Update};

/// Learning rate folded into the sparse accumulators (the `okbench` value).
pub const LR: f32 = 0.1;
/// Rank stacks, as in `okbench scale`: thousands of ranks share one process.
pub const STACK_BYTES: usize = 1 << 20;
/// Dense updates are checksummed and cross-checked on every `STRIDE`-th
/// element, so the check stays a small share of the step it rides in.
pub const STRIDE: usize = 61;

/// Event-engine run tokens: the product default, pinned so it can be recorded.
pub fn workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

pub fn cost_profile(n: usize) -> CostProfile {
    CostProfile::paper_calibrated().scaled_for_model(n)
}

/// The cluster every pass of `spec` runs on: event engine pinned, everything
/// else at product defaults, stated explicitly so provenance can record it.
pub fn cluster(spec: &Spec, seed: u64, obs: bool) -> Cluster {
    let mut c = Cluster::new(spec.p, cost_profile(spec.n).network())
        .with_engine(Engine::Event)
        .with_sched(SchedMode::Fast)
        .with_workers(workers())
        .with_stack_bytes(STACK_BYTES)
        .with_obs(obs);
    if let Some(topo) = spec.topology() {
        c = c.with_topology(topo);
    }
    if let Some(plan) = spec.chaos_plan(seed) {
        c = c.with_chaos(plan);
    }
    c
}

/// How one pass of the benchmark-owned loop runs.
#[derive(Clone, Copy)]
pub struct LoopOpts {
    pub seed: u64,
    /// Keep sampling timed steps until this much wall time has passed since
    /// the first one (the modeled window always completes first).
    pub budget: Duration,
    /// Stop at the first timed step: a set-up measurement.
    pub setup_only: bool,
    /// Record spans on rank 0.
    pub traced: bool,
    /// Metrics registry on (the product default) or off.
    pub obs: bool,
    /// When this pass's set-up began.
    pub launch: Instant,
}

/// What rank 0 saw of one timed step.
#[derive(Clone, Copy, Debug)]
pub struct StepRecord {
    pub wall_ns: u64,
    /// Host time inside `Reducer::reduce`.
    pub reduce_wall_ns: u64,
    pub compute_s: f64,
    /// Virtual seconds inside the exchange call (sparsify included).
    pub exchange_s: f64,
    /// What `Reducer::reduce` reported: modeled sparsify time, selection sizes.
    pub reduce: ReduceMetrics,
    pub reeval: bool,
}

/// Registry and clock at an edge of the modeled window, taken by rank 0 right
/// after a closing barrier, when no other rank can be sending.
pub struct Edge {
    pub v: f64,
    pub metrics: obs::MetricsSnapshot,
}

/// Everything one pass produces.
pub struct LoopOut {
    /// Launch to rank 0's first timed step.
    pub setup: Duration,
    /// Every timed step (the modeled window first, then whatever fit).
    pub steps: Vec<StepRecord>,
    /// Window start and end; `None` for a set-up-only pass.
    pub window: Option<(Edge, Edge)>,
    /// Steps in the modeled window whose update checksum differed on any rank.
    pub checksum_mismatches: usize,
    /// Rank 0's update checksums over the modeled window.
    pub checksums: Vec<u64>,
    /// Rank 0's checksum chain over the warm-up steps.
    pub warm_chain: u64,
    /// Every `STRIDE`-th element of rank 0's dense update on the window's
    /// last step (empty for sparse schemes).
    pub dense_sample: Vec<f32>,
    /// The global step index that sample was taken at.
    pub dense_sample_step: u64,
    pub spans: Vec<Span>,
    /// Whole-run traffic by phase (the registry has no per-phase view).
    pub ledger: simnet::LedgerSnapshot,
    /// `VmHWM` right after the pass, KiB.
    pub vm_hwm_kb: u64,
}

/// The gradient exchange of one rank: a `Reducer` and the step count that
/// tells which calls re-evaluate Ok-Topk's thresholds.
struct Exchange {
    reducer: Reducer,
    oktopk_tau_prime: Option<usize>,
    calls: usize,
    scale: f32,
}

impl Exchange {
    fn new(spec: &Spec) -> Self {
        let (scheme, scale) = match spec.kind {
            Kind::Reduce(scheme) => (scheme, LR),
            // The trainer's Adam recipe: scale 1, the optimizer owns the rate.
            Kind::Train => (Scheme::OkTopk, 1.0),
        };
        let cost = cost_profile(spec.n);
        Exchange {
            reducer: Reducer::new(scheme, spec.n, spec.density, cost, spec.tau, spec.tau_prime)
                .with_ranks_per_node(spec.rpn),
            oktopk_tau_prime: matches!(scheme, Scheme::OkTopk | Scheme::HierOkTopk)
                .then_some(spec.tau_prime),
            calls: 0,
            scale,
        }
    }

    /// One exchange; also whether this call re-evaluated the thresholds.
    fn step(&mut self, comm: &mut Comm, grad: &[f32]) -> (Update, ReduceMetrics, bool) {
        self.calls += 1;
        let reeval = self
            .oktopk_tau_prime
            .is_some_and(|tp| self.calls == 1 || (self.calls - 1).is_multiple_of(tp));
        let (update, metrics) = self.reducer.reduce(comm, grad, self.scale);
        (update, metrics, reeval)
    }
}

fn fnv(h: u64, word: u32) -> u64 {
    (h ^ word as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Checksum an update: every entry of a sparse one, every `STRIDE`-th
/// element of a dense one.
fn checksum(update: &Update) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    match update {
        Update::Dense(avg) => {
            for v in avg.iter().step_by(STRIDE) {
                h = fnv(h, v.to_bits());
            }
        }
        Update::Sparse(u) => {
            for (i, v) in u.iter() {
                h = fnv(fnv(h, i), v.to_bits());
            }
        }
    }
    h
}

/// Where a rank's gradients come from and what its updates are applied to.
enum Source {
    /// Generated gradients ([`gen::grad`]) and a plain weight vector.
    Synthetic { g: Vec<f32>, w: Vec<f32> },
    /// `train_bert_p16` rebuilt from its parts: BertLite's forward+backward
    /// on this rank's shard, Adam on the sparse update.
    Model(Box<ModelRank>),
}

struct ModelRank {
    model: BertLite,
    adam: Adam,
    data: SyntheticMaskedLm,
    first_iter: u64,
}

impl Source {
    fn new(spec: &Spec, seed: u64) -> Self {
        match spec.kind {
            Kind::Train => Source::Model(Box::new(ModelRank {
                model: bert(seed),
                adam: Adam::new(TRAIN_LR, 0.9, 0.999, 1e-8, TRAIN_WEIGHT_DECAY, spec.n),
                data: train_data(),
                first_iter: train_first_iter(seed),
            })),
            Kind::Reduce(_) => Source::Synthetic { g: vec![0.0; spec.n], w: vec![0.0; spec.n] },
        }
    }

    /// Modeled-and-real compute of step `s`; the span name says which layer
    /// does the host work.
    fn compute(&mut self, comm: &mut Comm, seed: u64, s: u64, nominal: f64) -> f64 {
        match self {
            Source::Synthetic { .. } => {
                let seconds = gen::compute_seconds(seed, comm.rank(), s, nominal);
                comm.compute(seconds);
                seconds
            }
            Source::Model(m) => {
                let batch = m.data.train_batch(
                    m.first_iter + s,
                    comm.rank(),
                    comm.size(),
                    TRAIN_LOCAL_BATCH,
                );
                m.model.zero_grads();
                m.model.forward_backward(&batch);
                comm.compute(nominal);
                nominal
            }
        }
    }

    fn grad(&self) -> &[f32] {
        match self {
            Source::Synthetic { g, .. } => g,
            Source::Model(m) => m.model.grads(),
        }
    }

    fn apply(&mut self, update: &Update, s: u64) {
        match (self, update) {
            (Source::Synthetic { w, .. }, Update::Dense(avg)) => sparse::simd::axpy(w, avg, -LR),
            (Source::Synthetic { w, .. }, Update::Sparse(u)) => {
                for (i, v) in u.iter() {
                    w[i as usize] -= v;
                }
            }
            (Source::Model(m), Update::Sparse(u)) => {
                m.adam.set_lr(TRAIN_LR / (1.0 + (s + 1) as f32 / TRAIN_LR_DECAY_ITERS as f32));
                m.adam.step_sparse(m.model.params_mut(), u.indexes(), u.values());
            }
            (Source::Model(_), Update::Dense(_)) => unreachable!("the model trains on Ok-Topk"),
        }
    }
}

struct Rank0 {
    setup: Duration,
    steps: Vec<StepRecord>,
    edges: Vec<Edge>,
    dense_sample: Vec<f32>,
    dense_sample_step: u64,
    spans: Vec<Span>,
}

struct RankOut {
    checksums: Vec<u64>,
    warm_chain: u64,
    rank0: Option<Rank0>,
}

/// Peak resident set of this process so far (Linux `VmHWM`), KiB.
pub fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// One pass of the benchmark-owned loop. For `Kind::Train` this is the
/// trainer's step rebuilt from its parts (forward+backward, `Reducer::reduce`,
/// Adam), which is what the traced pass needs to see inside a step.
pub fn run_loop(spec: &Spec, opts: LoopOpts) -> LoopOut {
    assert!(spec.warmup >= 1, "the modeled window opens after a warm-up step");
    let (warmup, model_steps, k) = (spec.warmup, spec.model_steps, spec.k());
    let nominal_compute = cost_profile(spec.n).fwd_bwd(spec.n);
    // Rank 0 publishes the index of the last timed step; every rank reads it
    // after the next opening barrier. Comparing indexes (not a flag) makes
    // the decision the same on every rank whatever the interleaving.
    let stop_after = AtomicUsize::new(usize::MAX);
    let report = cluster(spec, opts.seed, opts.obs).run(|comm: &mut Comm| {
        let rank = comm.rank();
        let mut exchange = Exchange::new(spec);
        let mut source = Source::new(spec, opts.seed);
        let compute_span = match spec.kind {
            Kind::Train => "dnn.fwd_bwd",
            Kind::Reduce(_) => "train.compute",
        };
        let mut rec = Recorder::new(opts.launch, opts.traced && rank == 0);
        let mut out = RankOut { checksums: Vec::new(), warm_chain: 0, rank0: None };
        let mut r0 = (rank == 0).then(|| Rank0 {
            setup: Duration::ZERO,
            steps: Vec::new(),
            edges: Vec::new(),
            dense_sample: Vec::new(),
            dense_sample_step: 0,
            spans: Vec::new(),
        });
        let mut first_timed = None;
        for s in 0.. {
            let timed = s >= warmup;
            let ti = s.saturating_sub(warmup);
            if let Source::Synthetic { g, .. } = &mut source {
                gen::grad(opts.seed, rank, s as u64, k, g);
            }
            comm.barrier();
            if timed && ti == 0 {
                first_timed = Some(Instant::now());
                if let Some(r0) = r0.as_mut() {
                    r0.setup = opts.launch.elapsed();
                }
            }
            if timed && (opts.setup_only || ti > stop_after.load(Ordering::SeqCst)) {
                break;
            }

            let v_start = comm.now();
            rec.enter("step", s as u64, v_start);
            let t0 = Instant::now();
            rec.enter(compute_span, s as u64, v_start);
            let compute_s = source.compute(comm, opts.seed, s as u64, nominal_compute);
            rec.exit(comm.now());
            let v_exchange = comm.now();
            rec.enter("train.reduce", s as u64, v_exchange);
            let t_reduce = Instant::now();
            let (update, reduce, reeval) = exchange.step(comm, source.grad());
            let reduce_wall_ns = t_reduce.elapsed().as_nanos() as u64;
            let exchange_s = comm.now() - v_exchange;
            rec.exit(comm.now());
            rec.enter("train.apply", s as u64, comm.now());
            source.apply(&update, s as u64);
            let sum = checksum(&update);
            rec.exit(comm.now());
            comm.barrier();
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let v_end = comm.now();
            rec.exit(v_end);

            let last_modeled = timed && ti + 1 == model_steps;
            if !timed {
                out.warm_chain = gen::mix(out.warm_chain ^ sum);
            } else if ti < model_steps {
                out.checksums.push(sum);
            }
            let Some(r0) = r0.as_mut() else { continue };
            if s + 1 == warmup || last_modeled {
                r0.edges.push(Edge { v: v_end, metrics: comm.obs().snapshot() });
            }
            if last_modeled {
                if let Update::Dense(avg) = &update {
                    r0.dense_sample = avg.iter().step_by(STRIDE).copied().collect();
                    r0.dense_sample_step = s as u64;
                }
            }
            if timed {
                r0.steps.push(StepRecord {
                    wall_ns,
                    reduce_wall_ns,
                    compute_s,
                    exchange_s,
                    reduce,
                    reeval,
                });
                let spent = first_timed.expect("set at the first timed step").elapsed();
                if ti + 1 >= model_steps && spent >= opts.budget {
                    stop_after.store(ti, Ordering::SeqCst);
                }
            }
        }
        if let Some(r0) = r0.as_mut() {
            r0.spans = rec.into_spans();
        }
        out.rank0 = r0;
        out
    });
    let vm_hwm_kb = vm_hwm_kb();

    let mut results = report.results;
    let r0 = results[0].rank0.take().expect("rank 0 reports");
    let checksums = std::mem::take(&mut results[0].checksums);
    let checksum_mismatches = (0..checksums.len())
        .filter(|&i| results[1..].iter().any(|r| r.checksums.get(i) != Some(&checksums[i])))
        .count();
    let mut edges = r0.edges.into_iter();
    let window = match (edges.next(), edges.next()) {
        (Some(a), Some(b)) => Some((a, b)),
        _ => None,
    };
    LoopOut {
        setup: r0.setup,
        steps: r0.steps,
        window,
        checksum_mismatches,
        checksums,
        warm_chain: results[0].warm_chain,
        dense_sample: r0.dense_sample,
        dense_sample_step: r0.dense_sample_step,
        spans: r0.spans,
        ledger: report.ledger,
        vm_hwm_kb,
    }
}

/// The serial f64 reference for the dense workload: regenerate every rank's
/// gradient of `step`, sum each sampled element in f64, and return the worst
/// relative error of rank 0's averaged update against it.
pub fn dense_reference_error(spec: &Spec, seed: u64, step: u64, sample: &[f32]) -> f64 {
    let mut sums = vec![0.0f64; sample.len()];
    let mut g = vec![0.0f32; spec.n];
    for rank in 0..spec.p {
        gen::grad(seed, rank, step, spec.k(), &mut g);
        for (s, v) in sums.iter_mut().zip(g.iter().step_by(STRIDE)) {
            *s += *v as f64;
        }
    }
    // Relative to the gradient scale, not to each (possibly cancelling) sum.
    let scale = sums.iter().fold(0.0f64, |m, s| m.max(s.abs())) / spec.p as f64;
    sums.iter()
        .zip(sample)
        .map(|(s, got)| (s / spec.p as f64 - *got as f64).abs() / scale.max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max)
}

/// `train_bert_p16`: what one trainer run gives back, plus the step clock.
pub struct TrainOut {
    pub result: RunResult,
    /// Launch to rank 0's first timed step (the one after the warm-up steps).
    pub setup: Duration,
    /// Intervals between rank 0's consecutive `make_batch` callbacks, from
    /// the first timed step on.
    pub step_wall_ns: Vec<u64>,
    pub vm_hwm_kb: u64,
}

pub const TRAIN_EVAL_EVERY: usize = 25;
const TRAIN_LR: f32 = 1e-3;
const TRAIN_WEIGHT_DECAY: f32 = 0.01;
/// Fixed, not tied to the run length, so a short set-up run and the full run
/// walk the same learning-rate schedule.
const TRAIN_LR_DECAY_ITERS: usize = 300;
pub const TRAIN_LOCAL_BATCH: usize = 2;
/// The masked-LM task `okbench fig13` trains on.
const TRAIN_TASK_SEED: u64 = 5;

/// The masked-LM task: the same Markov chain for every seed, so one loss
/// target fits them all. The seed picks the model's initial weights and
/// which stretch of the sample stream is trained on.
pub fn train_data() -> SyntheticMaskedLm {
    SyntheticMaskedLm::new(TRAIN_TASK_SEED)
}

fn train_first_iter(seed: u64) -> u64 {
    gen::key(&[seed, 0xDA7A]) % (1 << 20)
}

pub fn bert(seed: u64) -> BertLite {
    BertLite::new(gen::key(&[seed, 0xBE27]))
}

pub fn train_config(spec: &Spec, scheme: Scheme, iters: usize) -> TrainConfig {
    let mut cfg = TrainConfig::new(scheme, spec.density);
    cfg.iters = iters;
    cfg.local_batch = TRAIN_LOCAL_BATCH;
    cfg.optimizer = OptimizerKind::Adam { lr: TRAIN_LR, weight_decay: TRAIN_WEIGHT_DECAY };
    cfg.lr_decay_iters = TRAIN_LR_DECAY_ITERS;
    cfg.tau = spec.tau;
    cfg.tau_prime = spec.tau_prime;
    cfg.eval_every = TRAIN_EVAL_EVERY;
    cfg.engine = Some(Engine::Event);
    cfg.stack_bytes = Some(STACK_BYTES);
    cfg
}

/// One `run_data_parallel` run of `scheme` for `iters` iterations. The
/// trainer owns the loop, so the step clock is read from outside: rank 0's
/// `make_batch(iter, 0, P)` callback marks the start of every step.
pub fn run_train(
    spec: &Spec,
    seed: u64,
    scheme: Scheme,
    iters: usize,
    launch: Instant,
) -> TrainOut {
    let cfg = train_config(spec, scheme, iters);
    let data = train_data();
    let first_iter = train_first_iter(seed);
    let eval: Vec<_> = (0..4).map(|b| data.test_batch(b, 16)).collect();
    let stamps = Mutex::new(Vec::with_capacity(iters));
    let result = train::run_data_parallel(
        spec.p,
        &cfg,
        || bert(seed),
        |iter, rank, world| {
            if rank == 0 {
                stamps.lock().expect("stamp lock").push(Instant::now());
            }
            data.train_batch(first_iter + iter, rank, world, TRAIN_LOCAL_BATCH)
        },
        &eval,
    );
    let vm_hwm_kb = vm_hwm_kb();
    let stamps = stamps.into_inner().expect("stamp lock");
    let timed = &stamps[spec.warmup.min(stamps.len() - 1)..];
    TrainOut {
        result,
        setup: timed[0] - launch,
        step_wall_ns: timed.windows(2).map(|w| (w[1] - w[0]).as_nanos() as u64).collect(),
        vm_hwm_kb,
    }
}
