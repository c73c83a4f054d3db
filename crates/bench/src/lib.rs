//! # okbench — reproduction harnesses for every table and figure
//!
//! One binary per experiment (`cargo run --release -p okbench --bin figNN`),
//! printing the same rows/series the paper reports — and the two beyond-paper
//! sweeps, `chaos` and `hier` — through one writer, [`Figure`]. The two
//! host-clock benches (`hotpath`, `scale`) write JSON through one writer,
//! [`Header::write_json`].
//!
//! All harnesses run a *quick* configuration by default (minutes on a laptop
//! core); set `OKBENCH_FULL=1` for configurations closer to the paper's scale.
//! `results/<name>.txt` holds each figure's quick-mode output, and the golden
//! test (`tests/golden.rs`) checks its modeled rows against the code and that
//! none of its printed checks failed.

pub mod figures;
pub mod models;
pub mod obsdump;
pub mod panels;

use std::time::Instant;

use simnet::{Cluster, Comm, SimReport};
use train::{CostProfile, Reducer, Scheme, Update};

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

/// What runs a figure into a writer.
pub type Run = fn(&mut Figure);

/// Every figure and table, by binary name. Each binary's `main` is
/// [`main`] with its own name.
pub const FIGURES: [(&str, Run); 15] = [
    ("table1", figures::table1),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig8", |fig| panels::breakdown(fig, &panels::BREAKDOWN[0])),
    ("fig9", |fig| panels::convergence(fig, &panels::CONVERGENCE[0])),
    ("fig10", |fig| panels::breakdown(fig, &panels::BREAKDOWN[1])),
    ("fig11", |fig| panels::convergence(fig, &panels::CONVERGENCE[1])),
    ("fig12", |fig| panels::breakdown(fig, &panels::BREAKDOWN[2])),
    ("fig13", |fig| panels::convergence(fig, &panels::CONVERGENCE[2])),
    ("ablations", figures::ablations),
    ("trace_demo", figures::trace_demo),
    ("chaos", figures::chaos),
    ("hier", figures::hier),
];

/// Run the figure called `name` to stdout. The breakdown panels (fig8, fig10,
/// fig12) take `--paper-axis`, which sweeps P ∈ {256 … 4096} instead.
pub fn main(name: &'static str) {
    let mut fig = Figure::begin(name);
    let row = panels::BREAKDOWN.iter().find(|r| r.name == name);
    match row {
        Some(row) if std::env::args().any(|a| a == "--paper-axis") => {
            panels::paper_axis(&mut fig, row)
        }
        _ => FIGURES.iter().find(|(n, _)| *n == name).expect("a known figure").1(&mut fig),
    }
    if let Some(msg) = fig.failure() {
        eprintln!("FAIL: {msg}");
        std::process::exit(1);
    }
}

/// The one writer every figure and table prints through: a header line of
/// host facts, then rows. A row is *modeled* (a deterministic function of the
/// code: volumes, modeled seconds, losses, counts) or *host* (wall time,
/// scheduler parks). The golden test compares the modeled rows only;
/// [`is_host_line`] is how it tells them apart in a results file.
pub struct Figure {
    echo: bool,
    text: String,
    /// A printed check that failed; the binary exits non-zero.
    failure: Option<String>,
}

/// Whether a printed line is a host row: the `[name] …` header or a
/// `host: …` row. Every other line is modeled.
pub fn is_host_line(line: &str) -> bool {
    line.starts_with('[') || line.trim_start().starts_with("host:")
}

impl Figure {
    /// A writer that prints to stdout, starting with the header line.
    pub fn begin(name: &'static str) -> Self {
        Self::new(name, true)
    }

    /// A writer that only keeps what it is given (the golden test).
    pub fn capture(name: &'static str) -> Self {
        Self::new(name, false)
    }

    fn new(name: &'static str, echo: bool) -> Self {
        let mut fig = Self { echo, text: String::new(), failure: None };
        fig.host(format!("[{name}] {}", Header::begin(name, !full_scale()).facts()));
        fig
    }

    /// A modeled row (may span lines).
    pub fn row(&mut self, line: impl AsRef<str>) {
        for l in line.as_ref().split('\n') {
            assert!(!is_host_line(l), "modeled row {l:?} reads as a host row");
            self.push(l);
        }
    }

    /// A host row; it must satisfy [`is_host_line`].
    pub fn host(&mut self, line: String) {
        assert!(is_host_line(&line), "host row {line:?} reads as modeled");
        self.push(&line);
    }

    fn push(&mut self, line: &str) {
        if self.echo {
            println!("{line}");
        }
        self.text.push_str(line);
        self.text.push('\n');
    }

    /// `label: v1 v2 v3 …` in fixed-width columns.
    pub fn series(&mut self, label: &str, values: &[f64]) {
        let cols: String = values.iter().map(|v| format!(" {v:>10.4}")).collect();
        self.row(format!("  {label:<24}{cols}"));
    }

    /// Record a printed check; a failed one makes the binary exit non-zero.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failure.is_none() {
            self.failure = Some(what());
        }
    }

    /// Everything printed, host rows included.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The first printed check that failed, if any.
    pub fn failure(&self) -> Option<&str> {
        self.failure.as_deref()
    }
}

/// Host facts shared by every figure header and every bench JSON: cores,
/// SIMD capability, wall time and peak RSS. One implementation so the files
/// stay mechanically comparable across PRs and hosts.
pub struct Header {
    bench: &'static str,
    quick: bool,
    start: Instant,
}

impl Header {
    /// Start the harness clock. Call once at the top of `main`.
    pub fn begin(bench: &'static str, quick: bool) -> Self {
        Self { bench, quick, start: Instant::now() }
    }

    fn cores() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// `simd=…x… cores=… quick=…`, the figure header's facts.
    fn facts(&self) -> String {
        let caps = sparse::simd::caps();
        let (isa, lanes) = (caps.isa, caps.lanes.width());
        format!("simd={isa}x{lanes} cores={} quick={}", Self::cores(), self.quick)
    }

    /// Write `{header fields, params, "results": [rows]}` to `path`. Wall
    /// time and RSS are read now, so call this when measurement is done.
    pub fn write_json(&self, path: &str, params: Json, rows: &[Json]) {
        let caps = sparse::simd::caps();
        let header = Json::default()
            .text("bench", self.bench)
            .field("quick", self.quick)
            .field("host_cores", Self::cores())
            .text("simd_isa", caps.isa)
            .field("simd_lanes", caps.lanes.width())
            .field("wall_secs", format!("{:.3}", self.start.elapsed().as_secs_f64()))
            .field("peak_rss_kb", proc_status_kb("VmHWM:"));
        let mut out = String::from("{\n");
        for (k, v) in header.0.iter().chain(&params.0) {
            out.push_str(&format!("  \"{k}\": {v},\n"));
        }
        let rows: Vec<String> = rows.iter().map(|r| format!("    {}", r.inline())).collect();
        out.push_str(&format!("  \"results\": [\n{}\n  ]\n}}\n", rows.join(",\n")));
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(path, out).expect("write bench json");
        eprintln!("wrote {path}");
    }
}

/// One JSON object, fields in insertion order, values already rendered.
#[derive(Default)]
pub struct Json(Vec<(String, String)>);

impl Json {
    /// A field whose value is rendered by `Display` (numbers, bools, nested
    /// JSON).
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    /// A string field.
    pub fn text(self, key: &str, value: &str) -> Self {
        self.field(key, format!("\"{value}\""))
    }

    /// The object on one line.
    pub fn inline(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The host-clock benches' (`hotpath`, `scale`) command line: `[--quick]
/// [--gate] [--out PATH]`, the output defaulting to `target/<bench>.json`.
pub struct Args {
    pub quick: bool,
    pub gate: bool,
    pub out: String,
    pub header: Header,
}

impl Args {
    pub fn parse(bench: &'static str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let has = |flag: &str| args.iter().any(|a| a == flag);
        let (quick, gate) = (has("--quick"), has("--gate"));
        let out = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1));
        let out = out.cloned().unwrap_or_else(|| format!("target/{bench}.json"));
        Self { quick, gate, out, header: Header::begin(bench, quick || gate) }
    }
}

/// This process's `VmHWM` (peak) or `VmRSS` (current) in KiB; 0 where
/// `/proc` is unavailable.
pub fn proc_status_kb(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find(|l| l.starts_with(key));
    line.and_then(|l| l.split_whitespace().nth(1)).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// The gradient the host benches reduce: a smooth wave plus one spike per
/// 211 entries, different on every rank and iteration.
pub fn grad(n: usize, rank: usize, iter: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = (i * (rank + 2) + iter * 131) as f32;
            let spike = if i % 211 == (rank * 13 + iter) % 211 { 3.0 } else { 0.0 };
            (x * 0.01).sin() * 0.25 + spike
        })
        .collect()
}

/// FNV-1a over 64-bit words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf29ce484222325, |h, w| (h ^ w).wrapping_mul(0x100000001b3))
}

/// The chaos, hier and scale cell: `iters` data-parallel steps of `scheme` on `p`
/// ranks, each a modeled forward/backward pass then one reduce of [`grad`],
/// on the cluster `setup` makes from the flat paper-calibrated one. Each
/// rank's result is a checksum of its updates' bits.
pub fn reduce_steps(
    (scheme, p, n, density, iters): (Scheme, usize, usize, f64, usize),
    rpn: usize,
    setup: impl FnOnce(Cluster) -> Cluster,
) -> SimReport<u64> {
    let profile = CostProfile::paper_calibrated().scaled_for_model(n);
    let fwd = profile.fwd_bwd(n);
    setup(Cluster::new(p, profile.network())).run(move |comm: &mut Comm| {
        let mut reducer = Reducer::new(scheme, n, density, profile, 8, 8).with_ranks_per_node(rpn);
        let mut sums = Vec::with_capacity(iters);
        for it in 0..iters {
            comm.compute(fwd);
            let (update, _) = reducer.reduce(comm, &grad(n, comm.rank(), it), 0.1);
            sums.push(match update {
                Update::Dense(v) => fnv(v.iter().map(|x| x.to_bits() as u64)),
                Update::Sparse(coo) => {
                    let idx = coo.indexes().iter().map(|&i| i as u64);
                    fnv(idx.chain(coo.values().iter().map(|x| x.to_bits() as u64)))
                }
            });
        }
        fnv(sums)
    })
}

/// Scheduler counters of one run (all zero with obs off).
#[derive(Clone, Copy, Default)]
pub struct SchedStats {
    pub parks: u64,
    pub handoff_hit: u64,
    pub handoff_miss: u64,
    pub park_elided: u64,
    token_grants: u64,
}

impl SchedStats {
    pub fn of(metrics: &obs::MetricsSnapshot) -> Self {
        let counter = |name: &str| match metrics.get(name) {
            Some(obs::MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        Self {
            parks: counter("engine.parks"),
            handoff_hit: counter("engine.handoff_hit"),
            handoff_miss: counter("engine.handoff_miss"),
            park_elided: counter("engine.park_elided"),
            token_grants: counter("engine.token_grants"),
        }
    }

    /// Share of token grants handed straight to a worker — the granting one
    /// (hit: it ran the grant itself) or an idle one it woke (miss).
    pub fn handoff_rate(&self) -> f64 {
        let direct = (self.handoff_hit + self.handoff_miss) as f64;
        if self.token_grants == 0 {
            0.0
        } else {
            direct / self.token_grants as f64
        }
    }
}

/// End a gated bench: print each failure, then with `strict` (`--gate`) exit
/// 1 if there is any and print `gate: OK (<ok>)` if there is none; without
/// it, failures are warnings.
pub fn gate_exit(strict: bool, failures: &[String], ok: &str) {
    for f in failures {
        eprintln!("{} — {f}", if strict { "gate: FAIL" } else { "WARN" });
    }
    if strict && !failures.is_empty() {
        std::process::exit(1);
    }
    if strict {
        eprintln!("gate: OK ({ok})");
    }
}
