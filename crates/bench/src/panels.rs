//! The paper's per-model panels as two tables: Figs. 8, 10 and 12 are rows
//! of [`BREAKDOWN`] (weak scaling, per-iteration time breakdown) and Figs. 9,
//! 11 and 13 are rows of [`CONVERGENCE`] (held-out metric vs modeled time).
//! A row holds what differs between the figures: model and data, optimizer,
//! density, P list, iterations, τ and headline text.

use dnn::data::SyntheticImages;
use train::{OptimizerKind, RunResult, Scheme, TrainConfig};

use crate::models::Data;
use crate::{full_scale, iters, Figure, SchedStats};

const ADAM_BERT: OptimizerKind = OptimizerKind::Adam { lr: 2e-4, weight_decay: 0.01 };

/// One weak-scaling panel. Expected shape: allgather-based schemes
/// (TopkA/Gaussiank) degrade with P while Ok-Topk's communication stays flat;
/// TopkA/TopkDSA lose their communication advantage to selection cost;
/// DenseOvlp < Dense.
pub struct BreakdownRow {
    pub name: &'static str,
    pub title: &'static str,
    pub data: fn() -> Data,
    pub density: f64,
    /// Iterations (quick, full); the last quarter is measured.
    pub iters: (usize, usize),
    pub local_batch: usize,
    pub optimizer: OptimizerKind,
    pub ps: &'static [usize],
    /// The paper's Ok-Topk speedup range at the largest P.
    pub paper_speedup: &'static str,
    /// The paper's weak-scaling efficiency, where the row reports one.
    pub paper_efficiency: Option<&'static str>,
    /// Title of the `--paper-axis` sweep.
    pub axis_title: &'static str,
}

pub const BREAKDOWN: [BreakdownRow; 3] = [
    BreakdownRow {
        name: "fig8",
        title: "Figure 8 — weak scaling of VGG stand-in on Cifar-10 stand-in (density = 2%)",
        data: Data::vgg,
        density: 0.02,
        iters: (80, 200),
        local_batch: 2,
        optimizer: OptimizerKind::Sgd { lr: 0.05 },
        ps: &[16, 32],
        paper_speedup: "1.51x-8.83x",
        paper_efficiency: None,
        axis_title: "Figure 8 (paper axis) — VGG stand-in weak scaling to P = 4096 (density = 2%)",
    },
    BreakdownRow {
        name: "fig10",
        title: "Figure 10 — weak scaling of LSTM stand-in on AN4 stand-in (density = 2%)",
        data: Data::lstm,
        density: 0.02,
        iters: (80, 200),
        local_batch: 2,
        optimizer: OptimizerKind::Sgd { lr: 0.2 },
        ps: &[32, 64],
        paper_speedup: "1.34x-7.71x",
        paper_efficiency: None,
        axis_title:
            "Figure 10 (paper axis) — LSTM stand-in weak scaling to P = 4096 (density = 2%)",
    },
    BreakdownRow {
        name: "fig12",
        title: "Figure 12 — weak scaling of BERT stand-in pre-training (density = 1%)",
        data: Data::bert,
        density: 0.01,
        iters: (112, 240),
        local_batch: 1,
        optimizer: ADAM_BERT,
        ps: &[32, 64, 128, 256],
        paper_speedup: "3.29x-12.95x at 256",
        paper_efficiency: Some("76.3% at 256"),
        axis_title:
            "Figure 12 (paper axis) — BERT stand-in weak scaling to P = 4096 (density = 1%)",
    },
];

impl BreakdownRow {
    fn config(&self) -> TrainConfig {
        let mut cfg = TrainConfig::new(Scheme::Dense, self.density);
        cfg.iters = iters(self.iters.0, self.iters.1);
        cfg.local_batch = self.local_batch;
        cfg.optimizer = self.optimizer;
        let tau = if full_scale() { 32 } else { 16 };
        (cfg.tau, cfg.tau_prime) = (tau, tau);
        cfg
    }

    /// The label every `P` block opens with.
    fn p_header(fig: &mut Figure, p: usize) {
        fig.row(format!("\nP = {p} ranks (global batch = {p} × local batch):"));
    }

    /// Train `scheme` on `p` ranks; print its breakdown row and obs summary
    /// and return its mean modeled time per iteration.
    fn scheme_row(&self, fig: &mut Figure, p: usize, scheme: Scheme) -> f64 {
        let mut cfg = self.config();
        cfg.scheme = scheme;
        let res = (self.data)().train(p, &cfg, None, 0);
        let (c, s, m) = res.mean_breakdown(cfg.iters * 3 / 4);
        breakdown_line(fig, scheme, c, s, m);
        if let Some(line) = obs_summary(&res.metrics) {
            fig.row(format!("             {line}"));
        }
        c + s + m
    }

    /// The golden cell: the first scheme at the first P, header included.
    pub fn cell(&self, fig: &mut Figure) {
        Self::p_header(fig, self.ps[0]);
        self.scheme_row(fig, self.ps[0], Scheme::all()[0]);
    }
}

/// Run one breakdown panel: every scheme at every P, then the Ok-Topk
/// speedups at the largest P (and its weak-scaling efficiency).
pub fn breakdown(fig: &mut Figure, row: &BreakdownRow) {
    fig.row(row.title);
    let mut times = Vec::new();
    for &p in row.ps {
        BreakdownRow::p_header(fig, p);
        for scheme in Scheme::all() {
            times.push((p, scheme, row.scheme_row(fig, p, scheme)));
        }
    }
    let okt_at = |p: usize| {
        let okt = times.iter().find(|(q, s, _)| *q == p && *s == Scheme::OkTopk);
        okt.expect("Ok-Topk ran").2
    };
    let p_max = *row.ps.last().expect("non-empty P list");
    let paper = row.paper_speedup;
    fig.row(format!("\nOk-Topk speedup over each scheme at P = {p_max} (paper: {paper}):"));
    for (_, s, t) in times.iter().filter(|(p, s, _)| *p == p_max && *s != Scheme::OkTopk) {
        fig.row(format!("  vs {:<10} {:>6.2}x", s.name(), t / okt_at(p_max)));
    }
    if let Some(paper) = row.paper_efficiency {
        // Constant local work, so efficiency = t(P₀)/t(P).
        let p0 = row.ps[0];
        fig.row(format!(
            "\nOk-Topk weak-scaling parallel efficiency (baseline P = {p0}; paper: {paper}):"
        ));
        for &p in row.ps {
            fig.row(format!("  P = {p:<4} efficiency = {:>5.1}%", 100.0 * okt_at(p0) / okt_at(p)));
        }
    }
}

/// A breakdown row in fixed-width columns (seconds per iteration).
fn breakdown_line(fig: &mut Figure, scheme: Scheme, compute: f64, sparsify: f64, comm: f64) {
    fig.row(format!(
        "  {:<10} sparsification {:>9.4}s  communication {:>9.4}s  compute+IO {:>9.4}s  total {:>9.4}s",
        scheme.name(),
        sparsify,
        comm,
        compute,
        compute + sparsify + comm
    ));
}

/// One-line observability summary of a run (modeled: message count, volume,
/// receive-wait virtual seconds), or `None` with observability off.
fn obs_summary(metrics: &obs::MetricsSnapshot) -> Option<String> {
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

/// The paper-scale axis P ∈ {256 … 4096}: the endpoints and one midpoint in
/// quick mode, the full power-of-two ladder with `OKBENCH_FULL=1`.
fn paper_axis_ps() -> Vec<usize> {
    if full_scale() {
        vec![256, 512, 1024, 2048, 4096]
    } else {
        vec![256, 1024, 4096]
    }
}

/// `--paper-axis`: sweep a breakdown row's model over P ∈ {256 … 4096} with
/// the scalable trio {Dense, gTopk, Ok-Topk} (the allgather baselines' host
/// cost is Θ(P²·k), which is itself the paper's point), then rerun the top
/// Ok-Topk cell under one chaos plan, which may only add modeled time.
pub fn paper_axis(fig: &mut Figure, row: &BreakdownRow) {
    // Two iterations, one warmup: a deterministic steady state, and at
    // P = 4096 every extra iteration is 4096 rank-steps of real compute.
    let (iters, warmup, ps) = (2, 1, paper_axis_ps());
    fig.row(row.axis_title);
    fig.row(format!("paper axis {ps:?} on the event engine ({iters} iters, {warmup} warmup):"));
    let mut cfg = row.config();
    (cfg.iters, cfg.stack_bytes) = (iters, Some(1 << 20));
    let mut cell = |fig: &mut Figure, p, scheme, chaos| {
        cfg.scheme = scheme;
        let wall = std::time::Instant::now();
        let res = (row.data)().train(p, &cfg, chaos, 0);
        let (c, s, m) = res.mean_breakdown(warmup);
        breakdown_line(fig, scheme, c, s, m);
        let stats = SchedStats::of(&res.metrics);
        fig.host(format!(
            "             host: {:.1}s wall, sched: {} parks, handoff rate {:.0}%",
            wall.elapsed().as_secs_f64(),
            stats.parks,
            stats.handoff_rate() * 100.0
        ));
        c + s + m
    };
    let mut clean = 0.0;
    for &p in &ps {
        fig.row(format!("\nP = {p} ranks:"));
        for scheme in [Scheme::Dense, Scheme::GTopk, Scheme::OkTopk] {
            clean = cell(fig, p, scheme, None);
        }
    }
    let p_top = *ps.last().expect("non-empty axis");
    fig.row(format!(
        "\nP = {p_top} ranks, Ok-Topk under chaos (straggler 1.5x + links 1.2-1.3x + jitter):"
    ));
    let plan = simnet::ChaosPlan::new(9)
        .straggler(1, 1.5)
        .degrade_all_links(1.2, 1.3, 0.0, 5e-4)
        .jitter(1e-6);
    let ratio = cell(fig, p_top, Scheme::OkTopk, Some(plan)) / clean;
    fig.row(format!("             chaos/clean time ratio: {ratio:.2}x (must be >= 1)"));
    fig.check(ratio >= 1.0, || format!("{}: chaos sped the P = {p_top} cell up", row.name));
}

/// What a convergence panel reports of its held-out evaluations.
#[derive(Clone, Copy)]
pub enum Metric {
    Accuracy,
    ErrorRate,
    Loss,
}

impl Metric {
    fn name(self) -> &'static str {
        match self {
            Metric::Accuracy => "top1-acc",
            Metric::ErrorRate => "WER",
            Metric::Loss => "mlm-loss",
        }
    }

    fn of(self, e: &train::EvalPoint) -> f64 {
        match self {
            Metric::Accuracy => e.accuracy,
            Metric::ErrorRate => 1.0 - e.accuracy,
            Metric::Loss => e.loss,
        }
    }
}

/// One convergence panel. Expected shape: Ok-Topk reaches a metric close to
/// the dense schemes' in the least modeled time.
pub struct ConvergenceRow {
    pub name: &'static str,
    pub title: &'static str,
    pub data: fn() -> Data,
    /// Samples in each of the four held-out batches.
    pub eval_batch: usize,
    pub metric: Metric,
    pub density: f64,
    /// Iterations (quick, full).
    pub iters: (usize, usize),
    pub local_batch: usize,
    pub optimizer: OptimizerKind,
    /// The learning rate decays over iterations / this.
    pub decay_div: usize,
    pub tau: usize,
    /// Evaluations per run.
    pub evals: usize,
    pub ps: &'static [usize],
    pub schemes: fn() -> Vec<Scheme>,
    pub summary: fn(&mut Figure, &ConvergenceRow, usize, &[(Scheme, RunResult)]),
}

pub const CONVERGENCE: [ConvergenceRow; 3] = [
    ConvergenceRow {
        name: "fig9",
        title: "Figure 9 — top-1 test accuracy vs time, VGG stand-in, density 2%",
        // Noise 1.6 gives a non-trivial Bayes floor, so accuracy rises to
        // ~0.9 as in the paper instead of saturating at 1.0 at once.
        data: || Data::Images(SyntheticImages::with_shape(2, 10, 3, 16, 1.6)),
        eval_batch: 32,
        metric: Metric::Accuracy,
        density: 0.02,
        iters: (300, 800),
        local_batch: 4,
        optimizer: OptimizerKind::Sgd { lr: 0.08 },
        decay_div: 2,
        tau: 16,
        evals: 6,
        ps: &[16, 32],
        schemes: || Scheme::all().to_vec(),
        summary: per_p_summary,
    },
    ConvergenceRow {
        name: "fig11",
        title: "Figure 11 — WER proxy vs time, LSTM stand-in, density 2%",
        data: Data::lstm,
        eval_batch: 24,
        metric: Metric::ErrorRate,
        density: 0.02,
        iters: (400, 1000),
        local_batch: 2,
        optimizer: OptimizerKind::Sgd { lr: 0.6 },
        decay_div: 2,
        tau: 16,
        evals: 6,
        ps: &[32, 64],
        schemes: || Scheme::all().to_vec(),
        summary: per_p_summary,
    },
    ConvergenceRow {
        name: "fig13",
        title: "Figure 13 — BERT stand-in pre-training loss vs modeled time, density 1%",
        data: Data::bert,
        eval_batch: 16,
        metric: Metric::Loss,
        density: 0.01,
        iters: (1200, 4000),
        local_batch: 2,
        optimizer: OptimizerKind::Adam { lr: 1e-3, weight_decay: 0.01 },
        decay_div: 1,
        tau: 32,
        evals: 8,
        ps: &[32],
        // The paper's trio: the lossless baseline, the fastest baseline, Ok-Topk.
        schemes: || vec![Scheme::DenseOvlp, Scheme::GaussianK, Scheme::OkTopk],
        summary: trio_summary,
    },
];

impl ConvergenceRow {
    fn config(&self) -> TrainConfig {
        let mut cfg = TrainConfig::new(Scheme::Dense, self.density);
        cfg.iters = iters(self.iters.0, self.iters.1);
        cfg.local_batch = self.local_batch;
        cfg.optimizer = self.optimizer;
        cfg.lr_decay_iters = cfg.iters / self.decay_div;
        (cfg.tau, cfg.tau_prime) = (self.tau, self.tau);
        cfg.eval_every = (cfg.iters / self.evals).max(1);
        cfg
    }

    /// Train `scheme` on `p` ranks under `cfg`, printing its header and one
    /// line per evaluation.
    fn curve(&self, fig: &mut Figure, p: usize, scheme: Scheme, cfg: &TrainConfig) -> RunResult {
        let mut cfg = *cfg;
        cfg.scheme = scheme;
        let res = (self.data)().train(p, &cfg, None, self.eval_batch);
        let metric = self.metric.name();
        fig.row(format!("\n  {} — {metric} vs modeled time:", scheme.name()));
        for e in &res.evals {
            let v = self.metric.of(e);
            fig.row(format!("    t={:>6}  time={:>9.2}s  {metric}={v:.4}", e.t, e.time));
        }
        res
    }

    /// The golden cell: the first scheme at the first P up to its first
    /// evaluation (nothing before it depends on the run's length).
    pub fn cell(&self, fig: &mut Figure) {
        let mut cfg = self.config();
        cfg.iters = cfg.eval_every;
        fig.row(format!("{}  (P = {})", self.title, self.ps[0]));
        self.curve(fig, self.ps[0], (self.schemes)()[0], &cfg);
    }
}

/// Run one convergence panel: every scheme to completion at every P.
pub fn convergence(fig: &mut Figure, row: &ConvergenceRow) {
    let cfg = row.config();
    for &p in row.ps {
        fig.row(format!("{}  (P = {p})", row.title));
        let mut results = Vec::new();
        for scheme in (row.schemes)() {
            let res = row.curve(fig, p, scheme, &cfg);
            if let Some(last) = res.evals.last() {
                let (metric, v) = (row.metric.name(), row.metric.of(last));
                fig.row(format!("    final: {metric} = {v:.4} at modeled time {:.2}s", last.time));
            }
            results.push((scheme, res));
        }
        (row.summary)(fig, row, p, &results);
    }
}

/// Final metric and modeled training time of every scheme at `p`.
fn per_p_summary(fig: &mut Figure, row: &ConvergenceRow, p: usize, runs: &[(Scheme, RunResult)]) {
    let (what, short) = match row.metric {
        Metric::Accuracy => ("accuracy", "acc"),
        _ => ("WER proxy", "WER"),
    };
    fig.row(format!("\nSummary at P = {p}: final {what} and modeled training time"));
    for (scheme, res) in runs {
        if let Some(last) = res.evals.last() {
            let v = row.metric.of(last);
            fig.row(format!("  {:<10} {short} {v:.4}  time {:>8.2}s", scheme.name(), last.time));
        }
    }
    fig.row("");
}

/// Final loss and modeled time of the paper's trio, and Ok-Topk's total-time
/// speedup over the other two.
fn trio_summary(fig: &mut Figure, row: &ConvergenceRow, _: usize, runs: &[(Scheme, RunResult)]) {
    fig.row("\nSummary: final loss and total modeled training time");
    for (scheme, res) in runs {
        if let Some(last) = res.evals.last() {
            let (name, v) = (scheme.name(), row.metric.of(last));
            fig.row(format!("  {name:<10} loss {v:.4}  modeled time {:>9.2}s", last.time));
        }
    }
    let t =
        |s| runs.iter().find(|(x, _)| *x == s).and_then(|(_, r)| r.evals.last()).map(|e| e.time);
    if let (Some(o), Some(d), Some(g)) =
        (t(Scheme::OkTopk), t(Scheme::DenseOvlp), t(Scheme::GaussianK))
    {
        fig.row(format!("\n  total-time speedup of Ok-Topk: {:.2}x vs DenseOvlp (paper: >3x), {:.2}x vs Gaussiank (paper: 1.30x)", d / o, g / o));
    }
}
