//! The traced pass: per-layer metrics, each tied to the end-to-end metric it
//! should move (see the interaction table in `README.md`).
//!
//! Counts come from an untraced pass of exactly the modeled window; host
//! timings come from the probes; spans come from a second, traced pass. A
//! metric that does not apply to a workload (no model, no Ok-Topk, no
//! topology) reads 0 there.

use crate::e2e::{self, fixed_opts, modeled_of, Modeled};
use crate::probes::{self, Values};
use crate::report::{
    counter, hist_count, median, metric, ns_to_f64, per_rank_f64, per_rank_u64, percentile, ratio,
    Checks, Metric,
};
use crate::runner::{self, run_loop, LoopOpts, LoopOut, StepRecord};
use crate::trace::{self, Recorder, Span};
use crate::workloads::{Kind, Spec};
use obs::MetricsSnapshot;
use std::time::Instant;
use train::Scheme;

pub struct Layers {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    pub notes: String,
}

fn median_step_ns(out: &LoopOut) -> f64 {
    median(&ns_to_f64(&out.steps.iter().map(|s| s.wall_ns).collect::<Vec<_>>()))
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    ratio(v.iter().sum(), v.len() as f64)
}

/// Counter deltas over the modeled window.
struct Window<'a> {
    a: &'a MetricsSnapshot,
    b: &'a MetricsSnapshot,
}

impl Window<'_> {
    fn count(&self, name: &str) -> f64 {
        (counter(self.b, name) - counter(self.a, name)) as f64
    }

    fn hist(&self, name: &str) -> f64 {
        (hist_count(self.b, name) - hist_count(self.a, name)) as f64
    }

    fn sum_u64(&self, name: &str) -> f64 {
        let (a, b) = (per_rank_u64(self.a, name), per_rank_u64(self.b, name));
        (b.iter().sum::<u64>() - a.iter().sum::<u64>()) as f64
    }

    fn sum_f64(&self, name: &str) -> f64 {
        per_rank_f64(self.b, name).iter().sum::<f64>()
            - per_rank_f64(self.a, name).iter().sum::<f64>()
    }
}

/// The window's steps on rank 0.
fn window_steps<'a>(spec: &Spec, out: &'a LoopOut) -> &'a [StepRecord] {
    &out.steps[..spec.model_steps]
}

fn simnet_counts(spec: &Spec, a: &LoopOut, probes: &Values, m: &mut Vec<Metric>) {
    let (ea, eb) = a.window.as_ref().expect("window");
    let w = Window { a: &ea.metrics, b: &eb.metrics };
    let rank_steps = (spec.p * spec.model_steps) as f64;
    let msgs = w.hist("sim.msg_elems");
    let bytes = w.sum_u64("sim.tx_bytes");
    let grants = w.count("engine.token_grants");
    let handoffs = w.count("engine.handoff_hit") + w.count("engine.handoff_miss");
    let spins = w.count("engine.spin_hit") + w.count("engine.spin_park");
    let pool = w.count("pool.hit") + w.count("pool.miss");
    m.push(metric("simnet.msgs_per_rank_step", "count", msgs / rank_steps));
    m.push(metric("simnet.pool_hit_rate", "ratio", ratio(w.count("pool.hit"), pool)));
    m.push(metric(
        "simnet.pool_idle_mb_max",
        "MB",
        counter(&eb.metrics, "pool.idle_bytes_max") as f64 / (1 << 20) as f64,
    ));
    m.push(metric("simnet.parks_per_rank_step", "count", w.count("engine.parks") / rank_steps));
    m.push(metric("simnet.handoff_rate", "ratio", ratio(handoffs, grants)));
    m.push(metric("simnet.spin_hit_rate", "ratio", ratio(w.count("engine.spin_hit"), spins)));
    m.push(metric(
        "simnet.ready_depth_max",
        "count",
        counter(&eb.metrics, "engine.ready_depth_max") as f64,
    ));
    // How much of a step is pure message path: the step's messages at the
    // all-to-all probe's cost each, plus its bytes at the large-transfer
    // probe's cost each, over the median step.
    let steps = spec.model_steps as f64;
    let path_ns = (msgs * probes.get("simnet.alltoall_ns_per_msg")
        + bytes * probes.get("simnet.ring_large_ns_per_byte"))
        / steps;
    m.push(metric("simnet.skeleton_share", "ratio", path_ns / median_step_ns(a)));
    // Modeled idle share: virtual seconds ranks spent waiting in recv.
    let waited = w.sum_f64("sim.recv_wait_vsec");
    m.push(metric("simnet.recv_wait_share", "ratio", waited / (spec.p as f64 * (eb.v - ea.v))));

    let tiers = w.sum_u64("net.intra_bytes") + w.sum_u64("net.inter_bytes");
    let inter = if spec.rpn > 1 { ratio(w.sum_u64("net.inter_bytes"), tiers) } else { 0.0 };
    m.push(metric("topo.inter_bytes_share", "ratio", inter));
    let perturbed: f64 = ["chaos.straggler", "chaos.jitter", "chaos.degrade", "chaos.pause"]
        .iter()
        .map(|name| w.count(name))
        .sum();
    m.push(metric("chaos.perturbed_events_per_step", "count", perturbed / steps));
}

fn core_counts(spec: &Spec, a: &LoopOut, modeled: &Modeled, m: &mut Vec<Metric>) {
    let k = spec.k() as f64;
    let steps = window_steps(spec, a);
    let host_p50 = |reeval: bool| {
        let v: Vec<f64> =
            steps.iter().filter(|s| s.reeval == reeval).map(|s| s.wall_ns as f64 / 1e6).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let on = spec.is_oktopk();
    let gate = |v: f64| if on { v } else { 0.0 };
    // Ledger totals cover the warm-up steps too: the pass has a fixed length.
    let rank_steps = (spec.p * (spec.warmup + spec.model_steps)) as f64;
    let phase = |name: &str| a.ledger.phase_elements(name) as f64 / rank_steps / k;
    m.push(metric("core.reuse_step_host_ms_p50", "ms", gate(host_p50(false))));
    m.push(metric("core.reeval_step_host_ms_p50", "ms", gate(host_p50(true))));
    m.push(metric("core.wire_words_over_k", "ratio", gate(modeled.wire_bytes / 4.0 / k)));
    m.push(metric("core.split_reduce_words_over_k", "ratio", phase("okt_split_reduce")));
    m.push(metric("core.allgatherv_words_over_k", "ratio", phase("okt_allgather")));
    m.push(metric(
        "core.balanced_share",
        "ratio",
        mean(steps.iter().filter_map(|s| s.reduce.balanced).map(|b| b as u64 as f64)),
    ));
    m.push(metric(
        "core.global_nnz_over_k",
        "ratio",
        gate(mean(steps.iter().filter_map(|s| s.reduce.global_nnz).map(|g| g as f64 / k))),
    ));
    m.push(metric(
        "sparse.selected_over_k",
        "ratio",
        gate(mean(
            steps
                .iter()
                .filter(|s| !s.reeval)
                .filter_map(|s| s.reduce.local_nnz)
                .map(|l| l as f64 / k),
        )),
    ));
}

/// Re-parent `spans` under the list they are appended to.
fn append_spans(all: &mut Vec<Span>, spans: Vec<Span>) {
    let base = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

fn write_trace(workload: &str, spans: &[Span]) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{workload}.trace.json");
    std::fs::write(&path, trace::chrome_json(workload, spans))?;
    Ok(path)
}

/// The trainer-only numbers: a full Ok-Topk run and a Dense run of the same
/// seed and length.
struct TrainExtras {
    final_eval_loss: f64,
    loss_gap_vs_dense: f64,
    time_to_target_s: f64,
    trainer_step_ns: f64,
    breakdown: (f64, f64, f64),
    speedup_vs_dense: f64,
}

fn train_extras(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    quick: bool,
    checks: &mut Checks,
) -> TrainExtras {
    let iters = e2e::train_iters(spec, seconds);
    let run = |scheme, iters| runner::run_train(spec, seed, scheme, iters, Instant::now());
    let okt = run(Scheme::OkTopk, iters);
    let prefix = run(Scheme::OkTopk, e2e::train_prefix_iters(spec, iters));
    let dense = run(Scheme::Dense, iters);
    e2e::check_train(spec, &okt.result, &prefix.result, quick, checks);
    let last = |r: &runner::TrainOut| r.result.evals.last().map_or(0.0, |e| e.loss);
    TrainExtras {
        final_eval_loss: last(&okt),
        loss_gap_vs_dense: last(&okt) - last(&dense),
        time_to_target_s: e2e::time_to_target(&okt.result).unwrap_or(0.0),
        trainer_step_ns: median(&ns_to_f64(&okt.step_wall_ns)),
        breakdown: okt.result.mean_breakdown(spec.warmup),
        speedup_vs_dense: e2e::train_modeled(spec, &dense.result, None).step_s
            / e2e::train_modeled(spec, &okt.result, None).step_s,
    }
}

/// Run the traced pass of `spec`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, quick: bool) -> Layers {
    let origin = Instant::now();
    let mut checks = Checks::default();
    let mut m: Vec<Metric> = Vec::new();
    let mut probes = Values::default();

    // Counts: an untraced pass of exactly the modeled window.
    let jobs_before = counter(&obs::global().snapshot(), "okpar.jobs");
    let a = run_loop(spec, fixed_opts(seed));
    let jobs = counter(&obs::global().snapshot(), "okpar.jobs") - jobs_before;
    let modeled = modeled_of(spec, &a);
    let chaos_over_clean = e2e::check_loop(spec, seed, &a, &mut checks);
    let step_ns = median_step_ns(&a);

    // Spans: the same pass with the recorder on.
    let mut b = run_loop(spec, LoopOpts { traced: true, launch: origin, ..fixed_opts(seed) });
    // The registry's cost: the same pass with it off.
    let c = run_loop(spec, LoopOpts { obs: false, ..fixed_opts(seed) });
    checks.check(modeled_of(spec, &b).fingerprint == modeled.fingerprint, || {
        "traced and untraced passes disagree on the modeled numbers".to_string()
    });

    // Probes, recorded as spans of their own.
    let mut spans = std::mem::take(&mut b.spans);
    let mut rec = Recorder::new(origin, true);
    rec.enter("probes", 0, 0.0);
    probes::sparse_probes(spec, seed, &mut rec, &mut probes);
    probes::dnn_probes(seed, &mut rec, &mut probes);
    probes::okpar_probes(spec, seed, &mut rec, &mut probes);
    rec.exit(0.0);
    append_spans(&mut spans, rec.into_spans());
    append_spans(&mut spans, probes::cluster_probes(spec, seed, origin, &mut probes));

    // Reference passes for the derived ratios.
    let dense_step_s = match spec.kind {
        Kind::Reduce(Scheme::Dense) => modeled.step_s,
        Kind::Train => 0.0, // taken from the trainer runs below
        _ => {
            let dense = Spec { kind: Kind::Reduce(Scheme::Dense), ..*spec };
            modeled_of(spec, &run_loop(&dense, fixed_opts(seed))).step_s
        }
    };
    let hier_over_flat = if spec.kind == Kind::Reduce(Scheme::HierOkTopk) {
        let flat = Spec { kind: Kind::Reduce(Scheme::OkTopk), ..*spec };
        modeled_of(spec, &run_loop(&flat, fixed_opts(seed))).step_s / modeled.step_s
    } else {
        0.0
    };
    let extras =
        (spec.kind == Kind::Train).then(|| train_extras(spec, seed, seconds, quick, &mut checks));

    let probe = |name: &str| probes.get(name);

    // sparse
    // Computed, not measured: bytes one rank's selection path touches per
    // step. Ok-Topk: fuse (2 reads + 1 write) and one threshold scan, plus
    // the exact threshold's |x| copy amortised over tau'. Dense: copy, scale.
    let n_bytes = 4.0 * spec.n as f64;
    let scanned = if spec.is_oktopk() {
        n_bytes * (4.0 + 2.0 / spec.tau_prime as f64)
    } else {
        n_bytes * 3.0
    };
    m.push(metric("sparse.bytes_scanned_per_step", "bytes", scanned));
    // Selecting ranks' kernel time over the core time a step has.
    let selecting = if !spec.is_oktopk() { 0 } else { spec.p.div_ceil(spec.rpn) } as f64;
    let kernel_ns = spec.n as f64
        * (probe("sparse.residual_fuse_ns_per_elem")
            + probe("sparse.select_ge_ns_per_elem")
            + probe("sparse.exact_threshold_ns_per_elem") / spec.tau_prime as f64);
    let cores = runner::workers().min(spec.p) as f64;
    m.push(metric(
        "sparse.kernel_share_of_step",
        "ratio",
        selecting * kernel_ns / (step_ns * cores),
    ));

    // simnet, topo, chaos
    simnet_counts(spec, &a, &probes, &mut m);
    m.push(metric("topo.hier_over_flat_modeled", "ratio", hier_over_flat));
    m.push(metric(
        "chaos.chaos_over_clean_modeled",
        "ratio",
        if spec.chaos { chaos_over_clean } else { 0.0 },
    ));

    // core
    core_counts(spec, &a, &modeled, &mut m);

    // train
    let steps = window_steps(spec, &a);
    let reduce_ms: Vec<f64> = steps.iter().map(|s| s.reduce_wall_ns as f64 / 1e6).collect();
    m.push(metric("train.reduce_host_ms_p50", "ms", median(&reduce_ms)));
    m.push(metric("train.reduce_host_ms_p90", "ms", percentile(&reduce_ms, 0.9)));
    let (compute_s, sparsify_s, comm_s) = match &extras {
        Some(x) => x.breakdown,
        None => (
            mean(steps.iter().map(|s| s.compute_s)),
            mean(steps.iter().map(|s| s.reduce.sparsify_time)),
            mean(steps.iter().map(|s| s.exchange_s - s.reduce.sparsify_time)),
        ),
    };
    m.push(metric("train.modeled_compute_s", "s", compute_s));
    m.push(metric("train.modeled_sparsify_s", "s", sparsify_s));
    m.push(metric("train.modeled_comm_s", "s", comm_s));
    // Derived, never gated: a faster Dense model must not read as a regression.
    let speedup = extras.as_ref().map_or(dense_step_s / modeled.step_s, |x| x.speedup_vs_dense);
    m.push(metric("train.modeled_speedup_vs_dense", "ratio", speedup));
    // The trainer's step against the same step rebuilt from its parts.
    let overhead =
        extras.as_ref().map_or(0.0, |x| (x.trainer_step_ns - step_ns) / x.trainer_step_ns);
    m.push(metric("train.trainer_overhead_share", "ratio", overhead));
    let x = extras.as_ref();
    m.push(metric("train.final_eval_loss", "nats", x.map_or(0.0, |x| x.final_eval_loss)));
    m.push(metric("train.eval_loss_gap_vs_dense", "nats", x.map_or(0.0, |x| x.loss_gap_vs_dense)));
    m.push(metric("train.modeled_time_to_target_s", "s", x.map_or(0.0, |x| x.time_to_target_s)));

    // dnn
    let fwd_share = if spec.kind == Kind::Train {
        probe("dnn.fwd_bwd_host_ms") * 1e6 * spec.p as f64 / (step_ns * cores)
    } else {
        0.0
    };
    m.push(metric("dnn.fwd_bwd_share_of_step", "ratio", fwd_share));

    // okpar
    m.push(metric(
        "okpar.jobs_per_step",
        "count",
        jobs as f64 / (spec.warmup + spec.model_steps) as f64,
    ));

    // obs
    m.push(metric("obs.on_over_off_step", "ratio", step_ns / median_step_ns(&c)));
    m.push(metric("obs.trace_overhead_share", "ratio", median_step_ns(&b) / step_ns - 1.0));

    let mut notes = String::from("self time by layer (host ms):");
    for (layer, ns) in trace::self_time_by_layer(&spans) {
        notes.push_str(&format!(" {layer}={:.2}", ns as f64 / 1e6));
    }
    match write_trace(spec.name, &spans) {
        Ok(path) => notes.push_str(&format!("\ntrace: {} spans -> {path}", spans.len())),
        Err(e) => notes.push_str(&format!("\ntrace not written: {e}")),
    }
    notes.push_str(&format!(
        "\nuntraced_step_ms_p50={:.3} sim_fingerprint={:016x}",
        step_ns / 1e6,
        modeled.fingerprint
    ));
    // Every probe value is a metric of its own, under the name it was taken.
    m.extend(probes.0);
    Layers { metrics: m, checks, notes }
}
