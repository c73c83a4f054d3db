//! # okbench — reproduction harnesses for every table and figure
//!
//! One binary per experiment (`cargo run --release -p okbench --bin figNN`),
//! printing the same rows/series the paper reports, plus the gated host benches
//! (`hotpath`, `msgpath`, `chaos`, `hier`, `scale`).
//!
//! All harnesses run a *quick* configuration by default (minutes on a laptop
//! core); set `OKBENCH_FULL=1` for configurations closer to the paper's scale.
//! EXPERIMENTS.md records paper-vs-measured for the quick settings.

use dnn::models::{BertLite, LstmNet, VggLite};
use train::{Scheme, TrainConfig};

/// Whether the full-scale configuration was requested.
pub fn full_scale() -> bool {
    std::env::var("OKBENCH_FULL").map(|v| v == "1").unwrap_or(false)
}

/// Scale an iteration count by the quick/full switch.
pub fn iters(quick: usize, full: usize) -> usize {
    if full_scale() {
        full
    } else {
        quick
    }
}

/// Standard model constructors with fixed seeds so every harness trains the same
/// replicas.
pub fn vgg() -> VggLite {
    VggLite::new(16)
}

pub fn lstm() -> LstmNet {
    LstmNet::new(21)
}

pub fn bert() -> BertLite {
    BertLite::new(13)
}

/// Print a breakdown row in a fixed-width table (seconds per iteration).
pub fn print_breakdown_row(scheme: Scheme, compute: f64, sparsify: f64, comm: f64) {
    println!(
        "  {:<10} sparsification {:>9.4}s  communication {:>9.4}s  compute+IO {:>9.4}s  total {:>9.4}s",
        scheme.name(),
        sparsify,
        comm,
        compute,
        compute + sparsify + comm
    );
}

/// Simple fixed-width series printer: `label: v1 v2 v3 …`.
pub fn print_series(label: &str, values: &[f64]) {
    print!("  {label:<24}");
    for v in values {
        print!(" {v:>10.4}");
    }
    println!();
}

/// Standard header shared by every `BENCH_*.json` harness and the text-mode
/// figure/table harnesses: host shape (cores, SIMD capabilities), the
/// simulation engine in effect, wall time, peak RSS, and a compact snapshot
/// of the process-global observability registry. One implementation so the
/// files stay mechanically comparable across PRs and hosts.
pub struct Header {
    bench: &'static str,
    quick: bool,
    start: std::time::Instant,
}

impl Header {
    /// Start the harness clock. Call once at the top of `main`.
    pub fn begin(bench: &'static str, quick: bool) -> Self {
        Self { bench, quick, start: std::time::Instant::now() }
    }

    /// Peak resident set size of this process, in KiB (Linux `VmHWM`; 0 where
    /// `/proc` is unavailable).
    pub fn peak_rss_kb() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// The engine the rows below the header ran on: the cluster default, which
    /// no harness overrides for a row it reports.
    pub fn engine_name() -> &'static str {
        match simnet::Engine::default() {
            simnet::Engine::Thread => "thread",
            simnet::Engine::Event => "event",
        }
    }

    /// The standard JSON field block, one `"key": value,` line per field,
    /// indented two spaces — splice at the top of a `BENCH_*.json` object.
    /// Wall time and RSS are read now, so call this when measurement is done.
    pub fn json_fields(&self) -> String {
        let caps = sparse::simd::caps();
        let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let mut out = String::new();
        out.push_str(&format!("  \"bench\": \"{}\",\n", self.bench));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
        out.push_str(&format!("  \"simd_isa\": \"{}\",\n", caps.isa));
        out.push_str(&format!("  \"simd_lanes\": {},\n", caps.lanes.width()));
        out.push_str(&format!("  \"engine\": \"{}\",\n", Self::engine_name()));
        out.push_str(&format!("  \"wall_secs\": {:.3},\n", self.start.elapsed().as_secs_f64()));
        out.push_str(&format!("  \"peak_rss_kb\": {},\n", Self::peak_rss_kb()));
        out.push_str(&format!("  \"obs\": {},\n", obs::global().snapshot().to_json()));
        out
    }

    /// One-line text header for the figure/table harnesses that print tables
    /// instead of JSON.
    pub fn print_text(&self) {
        let caps = sparse::simd::caps();
        println!(
            "[{}] engine={} simd={}x{} cores={} quick={}",
            self.bench,
            Self::engine_name(),
            caps.isa,
            caps.lanes.width(),
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            self.quick,
        );
    }
}

pub mod obsdump;

use dnn::Model;
use train::{run_data_parallel, RunResult};

/// Weak-scaling panel shared by Figs. 8, 10 and 12: for each rank count, run every
/// scheme for a few iterations and print the per-iteration time breakdown.
/// Returns `(P, scheme, mean time/iter)` tuples for further analysis.
pub fn weak_scaling_panel<M, FM, FB>(
    title: &str,
    ps: &[usize],
    schemes: &[Scheme],
    base: &TrainConfig,
    warmup: usize,
    make_model: FM,
    make_batch: FB,
) -> Vec<(usize, Scheme, f64)>
where
    M: Model,
    M::Batch: Sync,
    FM: Fn() -> M + Send + Sync,
    FB: Fn(u64, usize, usize) -> M::Batch + Send + Sync,
{
    println!("{title}");
    let mut out = Vec::new();
    for &p in ps {
        println!("\nP = {p} ranks (global batch = {} × local batch):", p);
        for &scheme in schemes {
            let mut cfg = *base;
            cfg.scheme = scheme;
            let res = run_data_parallel(p, &cfg, &make_model, &make_batch, &[]);
            let (c, s, m) = res.mean_breakdown(warmup);
            print_breakdown_row(scheme, c, s, m);
            if let Some(line) = obs_summary(&res.metrics) {
                println!("             {line}");
            }
            out.push((p, scheme, c + s + m));
        }
    }
    out
}

/// The paper-scale cluster axis: P ∈ {256 … 4096}. Quick mode keeps the
/// endpoints plus one midpoint so the sweep stays inside the pre-PR gate's
/// budget; `OKBENCH_FULL=1` fills in the full power-of-two ladder.
pub fn paper_axis() -> Vec<usize> {
    if full_scale() {
        vec![256, 512, 1024, 2048, 4096]
    } else {
        vec![256, 1024, 4096]
    }
}

/// Paper-scale weak-scaling axis shared by Figs. 8, 10 and 12 (`--paper-axis`):
/// sweep the figure's model over [`paper_axis`]. The scheme set is the scalable
/// trio {Dense, gTopk, Ok-Topk} — the allgather-based baselines' host cost is
/// Θ(P²·k) and stops being simulable long before 4096, which is itself the
/// paper's point. At the top P the Ok-Topk cell is re-run under one chaos
/// configuration (straggler + degraded links + jitter) to show the sweep is
/// not clean-path-only. Returns `(P, scheme, chaos?, modeled time/iter)`.
pub fn paper_axis_panel<M, FM, FB>(
    title: &str,
    base: &TrainConfig,
    make_model: FM,
    make_batch: FB,
) -> Vec<(usize, Scheme, bool, f64)>
where
    M: Model,
    M::Batch: Sync,
    FM: Fn() -> M + Send + Sync,
    FB: Fn(u64, usize, usize) -> M::Batch + Send + Sync,
{
    use train::run_data_parallel_chaos;

    let ps = paper_axis();
    let schemes = [Scheme::Dense, Scheme::GTopk, Scheme::OkTopk];
    // Two iterations, one warmup: the panel measures the per-iteration steady
    // state of a deterministic simulation, not a statistical average, and at
    // P = 4096 every extra iteration is 4096 rank-steps of real compute.
    let iters = 2;
    let warmup = 1;
    println!("{title}");
    println!("paper axis {ps:?} on the event engine ({iters} iters, {warmup} warmup):");
    let mut out = Vec::new();
    for &p in &ps {
        println!("\nP = {p} ranks:");
        for &scheme in &schemes {
            let mut cfg = *base;
            cfg.scheme = scheme;
            cfg.iters = iters;
            cfg.stack_bytes = Some(1 << 20);
            let wall = std::time::Instant::now();
            let res = run_data_parallel_chaos(p, &cfg, None, &make_model, &make_batch, &[]);
            let (c, s, m) = res.mean_breakdown(warmup);
            print_breakdown_row(scheme, c, s, m);
            println!(
                "             host: {:.1}s wall{}",
                wall.elapsed().as_secs_f64(),
                sched_summary(&res.metrics).map(|l| format!(", {l}")).unwrap_or_default()
            );
            out.push((p, scheme, false, c + s + m));
        }
    }
    // One chaos configuration at the top P: the scheduler must hold its
    // schedule (and the run must complete) when timing is perturbed.
    let p_top = *ps.last().expect("non-empty axis");
    let plan = simnet::ChaosPlan::new(9)
        .straggler(1, 1.5)
        .degrade_all_links(1.2, 1.3, 0.0, 5e-4)
        .jitter(1e-6);
    let mut cfg = *base;
    cfg.scheme = Scheme::OkTopk;
    cfg.iters = iters;
    cfg.stack_bytes = Some(1 << 20);
    let wall = std::time::Instant::now();
    let res = run_data_parallel_chaos(p_top, &cfg, Some(plan), &make_model, &make_batch, &[]);
    let (c, s, m) = res.mean_breakdown(warmup);
    println!(
        "\nP = {p_top} ranks, Ok-Topk under chaos (straggler 1.5x + links 1.2-1.3x + jitter):"
    );
    print_breakdown_row(Scheme::OkTopk, c, s, m);
    println!("             host: {:.1}s wall", wall.elapsed().as_secs_f64());
    let clean = out
        .iter()
        .find(|(p, sc, _, _)| *p == p_top && *sc == Scheme::OkTopk)
        .map(|(_, _, _, t)| *t)
        .expect("clean Ok-Topk cell ran");
    println!("             chaos/clean time ratio: {:.2}x (must be >= 1)", (c + s + m) / clean);
    out.push((p_top, Scheme::OkTopk, true, c + s + m));
    out
}

/// Compact one-line scheduler-counter summary (parks per rank, handoff rate),
/// or `None` when the scheduler counters are absent (thread engine / obs off).
pub fn sched_summary(metrics: &obs::MetricsSnapshot) -> Option<String> {
    use obs::MetricValue;
    let counter = |name: &str| match metrics.get(name) {
        Some(MetricValue::Counter(v)) => Some(*v),
        _ => None,
    };
    let parks = counter("engine.parks")?;
    let grants = counter("engine.token_grants").unwrap_or(0);
    let direct =
        counter("engine.handoff_hit").unwrap_or(0) + counter("engine.handoff_miss").unwrap_or(0);
    let rate = if grants > 0 { direct as f64 / grants as f64 } else { 0.0 };
    Some(format!("sched: {parks} parks, handoff rate {:.0}%", rate * 100.0))
}

/// Compact one-line observability summary of a run's metrics snapshot, or
/// `None` when the snapshot is empty (observability off).
pub fn obs_summary(metrics: &obs::MetricsSnapshot) -> Option<String> {
    use obs::MetricValue;
    if metrics.is_empty() {
        return None;
    }
    let tx_mib = match metrics.get("sim.tx_bytes") {
        Some(MetricValue::PerRankU64(v)) => v.iter().sum::<u64>() as f64 / (1 << 20) as f64,
        _ => 0.0,
    };
    let (wait_max, wait_sum) = match metrics.get("sim.recv_wait_vsec") {
        Some(MetricValue::PerRankF64(v)) => {
            (v.iter().cloned().fold(0.0f64, f64::max), v.iter().sum::<f64>())
        }
        _ => (0.0, 0.0),
    };
    let msgs = match metrics.get("sim.msg_elems") {
        Some(MetricValue::Histogram { count, .. }) => *count,
        _ => 0,
    };
    Some(format!(
        "obs: {msgs} msgs, {tx_mib:.2} MiB sent, recv-wait max {wait_max:.4}s / total {wait_sum:.4}s"
    ))
}

/// Convergence panel shared by Figs. 9, 11 and 13: run each scheme to completion
/// with periodic held-out evaluation and print metric-vs-modeled-time curves.
#[allow(clippy::too_many_arguments)] // experiment harness: explicit is clearer
pub fn convergence_panel<M, FM, FB>(
    title: &str,
    metric_name: &str,
    p: usize,
    schemes: &[Scheme],
    base: &TrainConfig,
    make_model: FM,
    make_batch: FB,
    eval_batches: &[M::Batch],
    // true → report accuracy; false → report error rate; None → report loss
    metric: Option<bool>,
) -> Vec<(Scheme, RunResult)>
where
    M: Model,
    M::Batch: Sync,
    FM: Fn() -> M + Send + Sync,
    FB: Fn(u64, usize, usize) -> M::Batch + Send + Sync,
{
    println!("{title}  (P = {p})");
    let mut results = Vec::new();
    for &scheme in schemes {
        let mut cfg = *base;
        cfg.scheme = scheme;
        let res = run_data_parallel(p, &cfg, &make_model, &make_batch, eval_batches);
        println!("\n  {} — {metric_name} vs modeled time:", scheme.name());
        for e in &res.evals {
            let v = match metric {
                Some(true) => e.accuracy,
                Some(false) => 1.0 - e.accuracy,
                None => e.loss,
            };
            println!("    t={:>6}  time={:>9.2}s  {metric_name}={v:.4}", e.t, e.time);
        }
        if let Some(last) = res.evals.last() {
            let v = match metric {
                Some(true) => last.accuracy,
                Some(false) => 1.0 - last.accuracy,
                None => last.loss,
            };
            println!("    final: {metric_name} = {v:.4} at modeled time {:.2}s", last.time);
        }
        results.push((scheme, res));
    }
    results
}
