//! Structured spans: nested, labeled intervals carrying virtual start/end
//! times plus the wall-clock cost of the simulating host.
//!
//! Spans subsume the flat `TraceEvent` stream: where a trace event records
//! *what the modeled rank was doing*, a span records *which algorithm phase it
//! was inside* — and, because it also measures host wall time, it separates
//! modeled cost from simulator overhead (the profiling hook the P = 2048
//! run-token hand-off investigation needs).

use std::borrow::Cow;
use std::time::Instant;

/// One closed span on one rank's timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Phase label (static or dynamically built).
    pub name: Cow<'static, str>,
    /// Modeled start time, seconds. Deterministic ([`crate::Class::Virtual`]).
    pub vstart: f64,
    /// Modeled end time, seconds. Deterministic.
    pub vend: f64,
    /// Nesting depth at entry (0 = outermost).
    pub depth: usize,
    /// Wall-clock nanoseconds the simulating host spent inside the span.
    /// Host-class: never compared across runs.
    pub wall_ns: u64,
}

/// A per-rank stack of open spans. Not thread-safe by design — each rank owns
/// its stack, mirroring the single-writer rule that keeps virtual metrics
/// deterministic.
#[derive(Default)]
pub struct SpanStack {
    open: Vec<(Cow<'static, str>, f64, usize, Instant)>,
    done: Vec<SpanEvent>,
}

impl SpanStack {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a span named `name` at virtual time `vnow`.
    pub fn enter(&mut self, name: impl Into<Cow<'static, str>>, vnow: f64) {
        let depth = self.open.len();
        self.open.push((name.into(), vnow, depth, Instant::now()));
    }

    /// Close the innermost open span at virtual time `vnow`.
    ///
    /// # Panics
    /// Panics if no span is open — enter/exit must nest.
    pub fn exit(&mut self, vnow: f64) {
        let (name, vstart, depth, wall_start) =
            self.open.pop().expect("span exit without a matching enter");
        self.done.push(SpanEvent {
            name,
            vstart,
            vend: vnow.max(vstart),
            depth,
            wall_ns: wall_start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        });
    }

    /// Number of currently open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Take all closed spans, in close order. Open spans stay open.
    pub fn drain(&mut self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_depth() {
        let mut s = SpanStack::new();
        s.enter("outer", 0.0);
        s.enter("inner", 1.0);
        assert_eq!(s.depth(), 2);
        s.exit(2.0);
        s.exit(3.0);
        let spans = s.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!((spans[0].vstart, spans[0].vend, spans[0].depth), (1.0, 2.0, 1));
        assert_eq!(spans[1].name, "outer");
        assert_eq!((spans[1].vstart, spans[1].vend, spans[1].depth), (0.0, 3.0, 0));
        assert!(s.drain().is_empty());
    }

    #[test]
    fn dynamic_names_are_accepted() {
        let mut s = SpanStack::new();
        let bucket = 3;
        s.enter(format!("bucket-{bucket}"), 0.0);
        s.exit(1.0);
        assert_eq!(s.drain()[0].name, "bucket-3");
    }

    #[test]
    fn vend_clamps_to_vstart() {
        let mut s = SpanStack::new();
        s.enter("x", 5.0);
        s.exit(4.0); // caller moved time backwards; clamp, don't invert
        assert_eq!(s.drain()[0].vend, 5.0);
    }

    #[test]
    #[should_panic(expected = "without a matching enter")]
    fn unbalanced_exit_panics() {
        SpanStack::new().exit(0.0);
    }
}
