//! The benchmark's own span recorder: spans are opened around the calls into
//! each layer, kept in memory, and written out as a Chrome trace when the run
//! ends. Nothing inside the program is instrumented.

use obs::chrome::{Arg, TraceBuilder};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// Virtual (modeled) seconds from `Net::now()`; equal for host-only spans.
    pub v_start: f64,
    pub v_end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The step the span belongs to: the identifier its spans share.
    pub step: u64,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    /// The layer a span is charged to: the part of its name before the dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans on one thread. A disabled recorder does nothing, so
/// the untraced and the traced pass run the same code.
pub struct Recorder {
    origin: Instant,
    on: bool,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, on: bool) -> Self {
        Self { origin, on, open: Vec::new(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span at virtual time `v`.
    pub fn enter(&mut self, name: &'static str, step: u64, v: f64) {
        if !self.on {
            return;
        }
        let t = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            host_start_ns: t,
            host_end_ns: t,
            v_start: v,
            v_end: v,
            parent: self.open.iter().rev().nth(1).copied(),
            step,
        });
    }

    /// Close the innermost open span at virtual time `v`.
    pub fn exit(&mut self, v: f64) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("span exit without a matching enter");
        self.spans[i].host_end_ns = self.now_ns();
        self.spans[i].v_end = v;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed span at the end of the run");
        self.spans
    }
}

/// Host self time per layer: each span's duration minus the part of it its
/// child spans cover, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.host_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.layer()).or_insert(0) += s.host_ns().saturating_sub(covered);
    }
    out
}

/// Render the spans as a Chrome `traceEvents` document: one track on the host
/// clock and one on the modeled clock.
pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let mut tb = TraceBuilder::new();
    tb.process_name(0, &format!("{workload} (rank 0)"));
    tb.thread_name(0, 0, "host clock");
    tb.thread_name(0, 1, "modeled clock");
    for (i, s) in spans.iter().enumerate() {
        let args = [
            ("span", Arg::U64(i as u64)),
            ("parent", Arg::Str(s.parent.map_or("none".to_string(), |p| p.to_string()))),
            ("step", Arg::U64(s.step)),
            ("virtual_s", Arg::F64(s.v_end - s.v_start)),
        ];
        tb.complete(0, 0, s.name, s.host_start_ns as f64 / 1e3, s.host_ns() as f64 / 1e3, &args);
        tb.complete(0, 1, s.name, s.v_start * 1e6, (s.v_end - s.v_start) * 1e6, &args);
    }
    tb.finish()
}
