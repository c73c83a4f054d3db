//! Result line, provenance and the small readers over `obs::MetricsSnapshot`.

use obs::{MetricValue, MetricsSnapshot};

/// The eleven knobs of the program. The benchmark removes them from its own
/// environment before anything reads them, so every run measures product
/// defaults and the recorded provenance is true of the numbers beside it.
pub const KNOBS: [&str; 11] = [
    "SIMNET_ENGINE",
    "SIMNET_SCHED",
    "SIMNET_WORKERS",
    "SIMNET_TOPO",
    "SIMNET_POOL_BUDGET_BYTES",
    "SIMNET_RECV_DEADLOCK_SECS",
    "SIMNET_WATCHDOG_POLL_MS",
    "OKTOPK_THREADS",
    "OKTOPK_SIMD",
    "OKTOPK_OBS",
    "OKBENCH_FULL",
];

/// Median of the samples (upper middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The `q`-quantile by nearest rank.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples to rank");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() as f64 * q) as usize).min(v.len() - 1)]
}

pub fn ns_to_f64(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64).collect()
}

/// A counter or gauge total (0 when absent, as with the registry off).
pub fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    match m.get(name) {
        Some(MetricValue::Counter(v) | MetricValue::Gauge(v)) => *v,
        _ => 0,
    }
}

/// Sample count of a histogram.
pub fn hist_count(m: &MetricsSnapshot, name: &str) -> u64 {
    match m.get(name) {
        Some(MetricValue::Histogram { count, .. }) => *count,
        _ => 0,
    }
}

pub fn per_rank_u64(m: &MetricsSnapshot, name: &str) -> Vec<u64> {
    match m.get(name) {
        Some(MetricValue::PerRankU64(v)) => v.clone(),
        _ => Vec::new(),
    }
}

pub fn per_rank_f64(m: &MetricsSnapshot, name: &str) -> Vec<f64> {
    match m.get(name) {
        Some(MetricValue::PerRankF64(v)) => v.clone(),
        _ => Vec::new(),
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Outcome of the output checks: one check is one attempted operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Record one check; a failed one is explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Record `attempted` checks of one kind, `failed` of which failed.
    pub fn tally(&mut self, attempted: usize, failed: usize, what: &str) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        if failed > 0 {
            eprintln!("CHECK FAILED: {failed} of {attempted}: {what}");
        }
    }
}

/// The contract's result line: one JSON object, every digit as measured.
pub fn result_line(checks: Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

/// Resolved settings of this run, one `key=value` per field.
pub fn provenance(workload: &str, seed: u64, seconds: f64, shape: &str) -> String {
    let caps = sparse::simd::caps();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "workload={workload} seed={seed} seconds={seconds} {shape} engine=event sched=fast \
         workers={} stack_bytes={} okpar_threads={} simd={}x{} nproc={nproc} obs=on commit={}",
        crate::runner::workers(),
        crate::runner::STACK_BYTES,
        okpar::configured_threads(),
        caps.isa,
        caps.lanes.width(),
        git_commit(),
    )
}

/// The checked-out commit, read from `.git` when there is one (the driver's
/// checkout is not a repository).
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match id.trim() {
        "" => "none".to_string(),
        id => id.chars().take(12).collect(),
    }
}
