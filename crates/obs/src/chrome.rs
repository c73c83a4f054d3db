//! Chrome/Perfetto `trace_events` JSON writer.
//!
//! Emits the subset of the [Trace Event Format] the simulation exporters use:
//! complete events (`ph: "X"`) and the metadata events that name processes
//! and threads. Load the output at `ui.perfetto.dev` or `chrome://tracing`.
//!
//! The simnet exporter uses one *pid per rank* with one thread, the rank's
//! activity trace, each slice named by its ledger phase. Timestamps are
//! microseconds — virtual seconds are scaled by 10⁶.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::quote;

/// A typed argument value attached to an event's `args` object.
#[derive(Clone, Debug)]
pub enum Arg {
    /// A string argument.
    Str(String),
    /// An integer argument.
    U64(u64),
    /// A floating-point argument (non-finite renders as `null`).
    F64(f64),
}

impl Arg {
    fn render(&self) -> String {
        match self {
            Arg::Str(s) => quote(s),
            Arg::U64(v) => v.to_string(),
            Arg::F64(v) if v.is_finite() => format!("{v}"),
            Arg::F64(_) => "null".to_string(),
        }
    }
}

fn render_args(args: &[(&str, Arg)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", quote(k), v.render()));
    }
    out.push('}');
    out
}

/// Incremental builder for one `trace_events` document.
#[derive(Default)]
pub struct TraceBuilder {
    events: Vec<String>,
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name process `pid` (metadata event `process_name`).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":{}}}}}",
            quote(name)
        ));
    }

    /// Order process `pid` in the viewer (metadata event `process_sort_index`).
    pub fn process_sort_index(&mut self, pid: u64, index: i64) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_sort_index\",\
             \"args\":{{\"sort_index\":{index}}}}}"
        ));
    }

    /// Name thread `tid` of process `pid` (metadata event `thread_name`).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":{}}}}}",
            quote(name)
        ));
    }

    /// A complete event (`ph: "X"`): `name` on `pid`/`tid` from `ts_us` for
    /// `dur_us` microseconds, with optional `args`.
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, Arg)],
    ) {
        // Sanitize: trace viewers reject NaN; clamp negative durations to 0.
        let ts = if ts_us.is_finite() { ts_us.max(0.0) } else { 0.0 };
        let dur = if dur_us.is_finite() { dur_us.max(0.0) } else { 0.0 };
        self.events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":{},\"ts\":{ts},\"dur\":{dur},\
             \"args\":{}}}",
            quote(name),
            render_args(args)
        ));
    }

    /// Finish the document: `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
    pub fn finish(self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            out.push_str(if i + 1 < self.events.len() { ",\n" } else { "\n" });
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{validate, Json};

    #[test]
    fn emitted_trace_parses_and_has_the_schema() {
        let mut tb = TraceBuilder::new();
        tb.process_name(0, "rank 0");
        tb.thread_name(0, 0, "timeline");
        tb.complete(0, 0, "send → 1", 0.0, 12.5, &[("elems", Arg::U64(128))]);
        tb.complete(0, 0, "pause", 5.0, 1.0, &[("window", Arg::Str("0.5..1".into()))]);
        let doc = tb.finish();
        let v = validate(&doc).expect("trace must be valid JSON");
        let events = v.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        assert_eq!(events.len(), 4);
        for e in events {
            let ph = e.get("ph").and_then(Json::as_str).expect("ph");
            assert!(matches!(ph, "X" | "M"), "unexpected phase {ph}");
            assert!(e.get("pid").and_then(Json::as_f64).is_some());
            assert!(e.get("name").and_then(Json::as_str).is_some());
            if ph == "X" {
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert!(e.get("dur").and_then(Json::as_f64).is_some());
            }
        }
    }

    #[test]
    fn non_finite_and_negative_times_are_sanitized() {
        let mut tb = TraceBuilder::new();
        tb.complete(0, 0, "x", f64::NAN, -4.0, &[]);
        let doc = tb.finish();
        let v = validate(&doc).expect("sanitized trace parses");
        let e = &v.get("traceEvents").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(e.get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(e.get("dur").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn empty_trace_is_still_a_valid_document() {
        let doc = TraceBuilder::new().finish();
        let v = validate(&doc).expect("empty trace parses");
        assert_eq!(v.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    }
}
