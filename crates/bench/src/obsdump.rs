//! Profile a small Ok-Topk training job: run with tracing and spans on, then
//! emit a Chrome/Perfetto `trace_events` JSON and a text metrics summary. The
//! logic lives in the library so the schema test can run it without shelling
//! out to the binary.

use simnet::export_chrome;
use train::{run_data_parallel, OptimizerKind, RunResult, Scheme, TrainConfig};

/// Everything one profiling run produces.
pub struct Dump {
    /// The Chrome `trace_events` document (load at `ui.perfetto.dev`).
    pub trace_json: String,
    /// Human-readable metrics table.
    pub summary: String,
    /// The raw run, for further inspection.
    pub result: RunResult,
}

/// Run a small Ok-Topk training job (P ranks, a few iterations) with full
/// profiling and return the exported artifacts.
pub fn run(p: usize, iters: usize) -> Dump {
    use dnn::data::SyntheticImages;
    use dnn::models::VggLite;

    let mut cfg = TrainConfig::new(Scheme::OkTopk, 0.05);
    cfg.iters = iters;
    cfg.local_batch = 2;
    cfg.tau = 4;
    cfg.tau_prime = 2;
    cfg.optimizer = OptimizerKind::Sgd { lr: 0.05 };
    cfg.profile = true;

    let data = SyntheticImages::with_shape(1, 4, 3, 8, 0.5);
    let local_batch = cfg.local_batch;
    let result = run_data_parallel(
        p,
        &cfg,
        || VggLite::with_width(7, 4, 8, 16, 4, 8),
        move |it, r, w| data.train_batch(it, r, w, local_batch),
        &[],
    );

    let trace_json = export_chrome(&result.traces, &result.spans, &[]);
    let mut summary = String::new();
    summary.push_str(&format!(
        "obsdump: Ok-Topk P={p} iters={iters} engine={} makespan={:.4}s\n\n",
        crate::Header::engine_name(),
        result.makespan
    ));
    summary.push_str(&result.metrics.render_table());
    Dump { trace_json, summary, result }
}
