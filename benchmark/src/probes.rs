//! Per-layer host timings: direct calls into each layer's public functions
//! on the workload's own shapes (P, n, k, message size). Probes run only in
//! the traced pass, so they never perturb the end-to-end numbers.
//!
//! Local probes (`sparse`, `dnn`, `okpar`) run on the calling thread; the
//! collective ones (`simnet`, `collectives`, `core`) run inside one cluster
//! of the workload's size, each bracketed by barriers and timed on rank 0.

use crate::gen;
use crate::report::{median, metric, Metric};
use crate::runner::{self, LR};
use crate::trace::{Recorder, Span};
use crate::workloads::Spec;
use dnn::Model;
use oktopk::balance::balance_and_allgatherv;
use oktopk::split_reduce::split_and_reduce;
use oktopk::{OkTopkConfig, OkTopkSgd};
use simnet::{Comm, GroupComm};
use sparse::scratch::{
    exact_threshold_scratch, filter_abs_ge_scratch, select_ge_scratch, select_ge_with_threads,
};
use sparse::{CooGradient, SelectScratch};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the probes measured, each under its declared metric name and unit.
/// A probe that cannot run on a workload reports 0.
#[derive(Default)]
pub struct Values(pub Vec<Metric>);

impl Values {
    fn insert(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(metric(name, unit, value));
    }

    /// The value measured under `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
    }
}

const TAG_PROBE: u64 = 0x7E57;
/// Elements of the small pooled buffers the message-path probes move: the
/// size of a split-and-reduce shard at large P.
const SMALL_MSG: usize = 16;
/// Smallest chunk (elements) the large-transfer probe moves.
const LARGE_MSG: usize = 4096;
/// Gathered-selection bytes above which the TopkA probe is skipped: every
/// rank holds all P selections at once, P^2 * k words in one process.
const TOPKA_BYTES_CAP: usize = 256 << 20;

/// Median nanoseconds of one call of `f`: at least `min_reps` calls, more
/// until `min_time` has passed.
fn time_ns(min_reps: usize, min_time: Duration, mut f: impl FnMut()) -> f64 {
    let begin = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || begin.elapsed() < min_time {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

const PROBE_TIME: Duration = Duration::from_millis(25);

/// `sparse` kernels on one rank's gradient of the workload's length.
pub fn sparse_probes(spec: &Spec, seed: u64, rec: &mut Recorder, out: &mut Values) {
    let (n, k, p) = (spec.n, spec.k(), spec.p);
    let mut g = vec![0.0f32; n];
    gen::grad(seed, 0, spec.warmup as u64, k, &mut g);
    let mut other = vec![0.0f32; n];
    gen::grad(seed, 1 % p, spec.warmup as u64, k, &mut other);
    let mut scratch = SelectScratch::with_nnz_hint(k);
    let per_elem = |ns: f64| ns / n as f64;

    rec.enter("sparse.exact_threshold", 0, 0.0);
    let mut th = 0.0;
    let ns =
        time_ns(3, PROBE_TIME, || th = exact_threshold_scratch(black_box(&g), k, &mut scratch));
    out.insert("sparse.exact_threshold_ns_per_elem", "ns", per_elem(ns));
    rec.exit(0.0);

    // The reused threshold is the exact one of the same data: selects about k.
    rec.enter("sparse.select_ge", 0, 0.0);
    let ns = time_ns(3, PROBE_TIME, || {
        let sel = select_ge_scratch(black_box(&g), th, &mut scratch);
        scratch.recycle(black_box(sel));
    });
    out.insert("sparse.select_ge_ns_per_elem", "ns", per_elem(ns));
    rec.exit(0.0);

    rec.enter("sparse.count_abs_ge", 0, 0.0);
    let ns = time_ns(3, PROBE_TIME, || {
        black_box(sparse::simd::count_abs_ge(black_box(&g), th));
    });
    out.insert("sparse.count_abs_ge_ns_per_elem", "ns", per_elem(ns));
    rec.exit(0.0);

    rec.enter("sparse.residual_fuse", 0, 0.0);
    let mut acc = vec![0.0f32; n];
    let ns = time_ns(3, PROBE_TIME, || {
        sparse::simd::fused_scale_add(&mut acc, black_box(&other), black_box(&g), LR);
    });
    out.insert("sparse.residual_fuse_ns_per_elem", "ns", per_elem(ns));
    rec.exit(0.0);

    // Two ranks' selections, as split-and-reduce merges them.
    let a = select_ge_scratch(&g, th, &mut SelectScratch::new());
    let b = select_ge_scratch(&other, th, &mut SelectScratch::new());
    rec.enter("sparse.coo_merge", 0, 0.0);
    let (mut spare_idx, mut spare_val) = (Vec::new(), Vec::new());
    let ns = time_ns(3, PROBE_TIME, || {
        let mut sum = a.clone();
        sum.merge_sum_swap(black_box(&b), &mut spare_idx, &mut spare_val);
        black_box(sum);
    });
    out.insert("sparse.coo_merge_ns_per_nnz", "ns", ns / (a.nnz() + b.nnz()).max(1) as f64);
    rec.exit(0.0);

    rec.enter("sparse.split_by_boundaries", 0, 0.0);
    let bounds = sparse::partition::equal_boundaries(n as u32, p);
    let ns = time_ns(3, PROBE_TIME, || {
        black_box(black_box(&a).split_by_boundaries(&bounds));
    });
    out.insert("sparse.split_by_boundaries_ns_per_nnz", "ns", ns / a.nnz().max(1) as f64);
    rec.exit(0.0);

    out.insert("sparse.simd_lanes", "count", sparse::simd::caps().lanes.width() as f64);
}

/// `dnn` on the BertLite shape `train_bert_p16` trains, one rank, one batch.
pub fn dnn_probes(seed: u64, rec: &mut Recorder, out: &mut Values) {
    let mut model = runner::bert(seed);
    let batch = runner::train_data().train_batch(0, 0, 1, runner::TRAIN_LOCAL_BATCH);
    let n = model.num_params();

    rec.enter("dnn.fwd_bwd", 0, 0.0);
    let ns = time_ns(30, PROBE_TIME, || {
        model.zero_grads();
        black_box(model.forward_backward(&batch));
    });
    out.insert("dnn.fwd_bwd_host_ms", "ms", ns / 1e6);
    rec.exit(0.0);

    rec.enter("dnn.optimizer", 0, 0.0);
    let mut adam = dnn::optim::Adam::new(1e-3, 0.9, 0.999, 1e-8, 0.01, n);
    let grads = model.grads().to_vec();
    let ns = time_ns(30, PROBE_TIME, || adam.step(model.params_mut(), black_box(&grads)));
    out.insert("dnn.optimizer_host_us", "us", ns / 1e3);
    rec.exit(0.0);

    // The model's dominant matmul: (batch * seq) x d_model by d_model x ff.
    rec.enter("dnn.matmul", 0, 0.0);
    let (rows, inner, cols) = (runner::TRAIN_LOCAL_BATCH * model.seq, model.d_model, 128);
    let x = vec![0.5f32; rows * inner];
    let w = vec![0.25f32; inner * cols];
    let mut y = vec![0.0f32; rows * cols];
    let ns = time_ns(30, PROBE_TIME, || {
        dnn::ops::matmul_acc(black_box(&x), black_box(&w), &mut y, rows, inner, cols);
    });
    out.insert("dnn.matmul_gflops", "GFLOP/s", 2.0 * (rows * inner * cols) as f64 / ns);
    rec.exit(0.0);
}

/// `okpar`: what the thread pool costs and whether it pays on this host.
pub fn okpar_probes(spec: &Spec, seed: u64, rec: &mut Recorder, out: &mut Values) {
    let (n, k) = (spec.n, spec.k());
    out.insert("okpar.threads", "count", okpar::configured_threads() as f64);

    rec.enter("okpar.dispatch", 0, 0.0);
    okpar::prewarm(2);
    let ns = time_ns(200, PROBE_TIME, || {
        okpar::run_chunks(2, 2, |i, _| {
            black_box(i);
        })
    });
    out.insert("okpar.dispatch_us", "us", ns / 1e3);
    rec.exit(0.0);

    rec.enter("okpar.select", 0, 0.0);
    let mut g = vec![0.0f32; n];
    gen::grad(seed, 0, spec.warmup as u64, k, &mut g);
    let mut scratch = SelectScratch::with_nnz_hint(k);
    let th = exact_threshold_scratch(&g, k, &mut scratch);
    let mut select_ns = |threads: usize| {
        time_ns(5, PROBE_TIME, || {
            let sel = select_ge_with_threads(black_box(&g), th, &mut scratch, threads);
            scratch.recycle(black_box(sel));
        })
    };
    let (t1, t2) = (select_ns(1), select_ns(2));
    out.insert("okpar.select_t2_over_t1", "ratio", t2 / t1);
    rec.exit(0.0);
}

/// What rank 0 brings back from the probe cluster.
struct ClusterOut {
    values: Values,
    spans: Vec<Span>,
}

/// Run `f` on every rank between two barriers; on return the host time and
/// the virtual time (closing barrier included) rank 0 saw.
fn bracket(
    comm: &mut Comm,
    rec: &mut Recorder,
    name: &'static str,
    f: impl FnOnce(&mut Comm),
) -> (f64, f64) {
    comm.barrier();
    let v0 = comm.now();
    rec.enter(name, 0, v0);
    let t = Instant::now();
    f(comm);
    comm.barrier();
    let host_ns = t.elapsed().as_nanos() as f64;
    let v1 = comm.now();
    rec.exit(v1);
    (host_ns, v1 - v0)
}

fn small_buffer(comm: &mut Comm) -> Vec<f32> {
    let mut buf = comm.take_f32(SMALL_MSG);
    buf.resize(SMALL_MSG, 1.0);
    buf
}

fn simnet_probes(comm: &mut Comm, rec: &mut Recorder, spec: &Spec, out: &mut Values) {
    let (p, rank) = (comm.size(), comm.rank());
    // Every rank sends a small pooled buffer to every other, then receives:
    // the skeleton of split-and-reduce at this P.
    let rounds = (100_000 / (p * (p - 1))).clamp(1, 50);
    let (host, _) = bracket(comm, rec, "simnet.alltoall", |comm| {
        for _ in 0..rounds {
            for s in 1..p {
                let buf = small_buffer(comm);
                comm.isend((rank + s) % p, TAG_PROBE, buf).wait();
            }
            for s in 1..p {
                let got: Vec<f32> = comm.recv((rank + p - s) % p, TAG_PROBE);
                comm.recycle_f32(got);
            }
        }
    });
    out.insert("simnet.alltoall_ns_per_msg", "ns", host / (rounds * p * (p - 1)) as f64);

    // Neighbour exchange of small pooled buffers: the handoff path.
    let rounds = (50_000 / p).clamp(10, 2_000);
    let partner = if rank % 2 == 0 { (rank + 1) % p } else { rank - 1 };
    let (host, _) = bracket(comm, rec, "simnet.pingpong", |comm| {
        // With an odd P the last rank has no partner of its own parity.
        if p % 2 == 1 && rank == p - 1 {
            return;
        }
        for _ in 0..rounds {
            let buf = small_buffer(comm);
            let got: Vec<f32> = comm.sendrecv(partner, TAG_PROBE, buf, partner, TAG_PROBE);
            comm.recycle_f32(got);
        }
    });
    out.insert("simnet.pingpong_ns_per_msg", "ns", host / (rounds * (p - p % 2)) as f64);

    // Ring shift of the dense allreduce's chunk at this (P, n), but never so
    // small that the per-message cost above hides the per-byte cost.
    let chunk = (spec.n / p).max(LARGE_MSG);
    let rounds = (4_000_000 / (chunk * p)).clamp(2, 64);
    let (host, _) = bracket(comm, rec, "simnet.ring_large", |comm| {
        for _ in 0..rounds {
            let mut buf = comm.take_f32(chunk);
            buf.resize(chunk, 1.0);
            let got: Vec<f32> =
                comm.sendrecv((rank + 1) % p, TAG_PROBE, buf, (rank + p - 1) % p, TAG_PROBE);
            comm.recycle_f32(got);
        }
    });
    out.insert("simnet.ring_large_ns_per_byte", "ns", host / (rounds * p * chunk * 4) as f64);

    let rounds = 20;
    let (host, _) = bracket(comm, rec, "simnet.barrier", |comm| {
        for _ in 0..rounds {
            comm.barrier();
        }
    });
    out.insert("simnet.barrier_us", "us", host / rounds as f64 / 1e3);
}

fn collectives_probes(
    comm: &mut Comm,
    rec: &mut Recorder,
    spec: &Spec,
    g: &[f32],
    out: &mut Values,
) {
    let (p, k) = (comm.size(), spec.k());
    let rpn = if spec.rpn > 1 { spec.rpn } else { 8.min(p) };
    let local = sparse::topk_exact(g, k);

    let mut data = g.to_vec();
    let (host, v) = bracket(comm, rec, "collectives.dense_ring", |comm| {
        collectives::allreduce_inplace(comm, &mut data);
    });
    out.insert("collectives.dense_ring_host_ms", "ms", host / 1e6);
    out.insert("collectives.dense_ring_modeled_s", "s", v);

    let mine = local.clone();
    let (host, v) = bracket(comm, rec, "collectives.gtopk", |comm| {
        black_box(collectives::gtopk_allreduce(comm, mine, k));
    });
    out.insert("collectives.gtopk_host_ms", "ms", host / 1e6);
    out.insert("collectives.gtopk_modeled_s", "s", v);

    if p * p * 2 * k * 4 <= TOPKA_BYTES_CAP {
        let (host, v) = bracket(comm, rec, "collectives.topk_a", |comm| {
            black_box(collectives::topk_allgather_allreduce(comm, local));
        });
        out.insert("collectives.topk_a_host_ms", "ms", host / 1e6);
        out.insert("collectives.topk_a_modeled_s", "s", v);
    } else {
        out.insert("collectives.topk_a_host_ms", "ms", 0.0);
        out.insert("collectives.topk_a_modeled_s", "s", 0.0);
    }

    data.copy_from_slice(g);
    let (_, v) = bracket(comm, rec, "collectives.hier_dense", |comm| {
        collectives::hier_dense_allreduce(comm, &mut data, rpn);
    });
    out.insert("collectives.hier_dense_modeled_s", "s", v);

    data.copy_from_slice(g);
    let node = comm.rank() / rpn;
    let members: Vec<usize> = (node * rpn..((node + 1) * rpn).min(p)).collect();
    let (host, _) = bracket(comm, rec, "collectives.reduce_to_root", |comm| {
        let mut group = GroupComm::new(comm, members, node as u16);
        collectives::reduce_to_root_dense(&mut group, &mut data);
    });
    out.insert("collectives.reduce_to_root_host_ms", "ms", host / 1e6);
}

/// Ok-Topk's two phases on a live step's inputs: one real step warms the
/// thresholds and boundaries, then the next step's accumulator is selected
/// with the exported state and pushed through each phase separately.
fn core_probes(
    comm: &mut Comm,
    rec: &mut Recorder,
    spec: &Spec,
    seed: u64,
    g: &mut [f32],
    out: &mut Values,
) {
    let cfg = OkTopkConfig::new(spec.n, spec.k())
        .with_periods(spec.tau, spec.tau_prime)
        .with_merge_cost(runner::cost_profile(spec.n).merge_per_elem);
    let mut sgd = OkTopkSgd::new(cfg.clone());
    sgd.step(comm, g, LR);
    gen::grad(seed, comm.rank(), spec.warmup as u64 + 1, spec.k(), g);
    let acc = sgd.peek_accumulator(g, LR);
    let (local_th, global_th, boundaries) = sgd.allreduce_state().export_state();
    let mut scratch = SelectScratch::with_nnz_hint(spec.k());
    let local = select_ge_scratch(&acc, local_th.expect("set by the first step"), &mut scratch);

    let mut reduced = CooGradient::new();
    let (host, v) = bracket(comm, rec, "core.split_reduce", |comm| {
        reduced = split_and_reduce(comm, &cfg, &local, &boundaries, &mut scratch).reduced_region;
    });
    out.insert("core.split_reduce_host_ms", "ms", host / 1e6);
    out.insert("core.split_reduce_modeled_s", "s", v);

    let survivors = filter_abs_ge_scratch(&reduced, global_th, &mut scratch);
    let (host, v) = bracket(comm, rec, "core.balance_allgatherv", |comm| {
        black_box(balance_and_allgatherv(comm, &cfg, survivors));
    });
    out.insert("core.balance_allgatherv_host_ms", "ms", host / 1e6);
    out.insert("core.balance_allgatherv_modeled_s", "s", v);
}

/// All collective probes, in one cluster of the workload's size and network.
pub fn cluster_probes(spec: &Spec, seed: u64, origin: Instant, out: &mut Values) -> Vec<Span> {
    assert!(spec.p >= 2, "the message-path probes need a peer");
    // A clean network: the probes price the layers, not the chaos plan.
    let clean = Spec { chaos: false, ..*spec };
    let report = runner::cluster(&clean, seed, true).run(|comm: &mut Comm| {
        let rank = comm.rank();
        let mut rec = Recorder::new(origin, rank == 0);
        let mut values = Values::default();
        let mut g = vec![0.0f32; spec.n];
        gen::grad(seed, rank, spec.warmup as u64, spec.k(), &mut g);
        simnet_probes(comm, &mut rec, spec, &mut values);
        collectives_probes(comm, &mut rec, spec, &g, &mut values);
        if spec.is_oktopk() {
            core_probes(comm, &mut rec, spec, seed, &mut g, &mut values);
        } else {
            for name in ["core.split_reduce_host_ms", "core.balance_allgatherv_host_ms"] {
                values.insert(name, "ms", 0.0);
            }
            for name in ["core.split_reduce_modeled_s", "core.balance_allgatherv_modeled_s"] {
                values.insert(name, "s", 0.0);
            }
        }
        (rank == 0).then(|| ClusterOut { values, spans: rec.into_spans() })
    });
    let rank0 = report.results.into_iter().next().flatten().expect("rank 0 reports");
    out.0.extend(rank0.values.0);

    // Spawn and join P rank threads that do nothing.
    let spawn_ns = time_ns(3, Duration::ZERO, || {
        runner::cluster(&clean, seed, true).run(|_| ());
    });
    out.insert("simnet.spawn_join_ms", "ms", spawn_ns / 1e6);
    rank0.spans
}
