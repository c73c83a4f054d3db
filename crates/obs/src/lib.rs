#![warn(missing_docs)]

//! # obs — deterministic, virtual-time-aware observability
//!
//! A shared instrumentation layer for every crate in the workspace: a metrics
//! registry (counters, gauges, log-bucketed histograms, per-rank slots) and
//! exporters (a Chrome/Perfetto `trace_events` JSON writer, which
//! `simnet::export_chrome` feeds with the per-rank activity traces, and a text
//! summary table).
//!
//! ## Determinism policy
//!
//! Every metric carries a [`Class`]:
//!
//! - [`Class::Virtual`] — the value is a function of modeled quantities only
//!   (virtual clocks, message sizes, chaos draws). Virtual metrics must be
//!   **bit-identical** across simnet's worker counts (W = 1 against W = P)
//!   and across repeated runs; the schedule-invariance suites assert this
//!   via
//!   [`MetricsSnapshot::parity_view`]. Recording paths achieve it with
//!   commutative integer updates (atomic adds, atomic maxima) and
//!   single-writer per-rank slots — never with anything that observes
//!   scheduling order.
//! - [`Class::Host`] — the value describes the *simulating host* (pool
//!   reservation races, scheduler token traffic and queue depths). Host
//!   metrics are explicitly exempt from parity.
//!
//! ## Off switch
//!
//! A [`Registry`] is on or off for its whole life, fixed at construction; per-run
//! consumers choose (e.g. `simnet::Cluster::with_obs`, default on) and the
//! process-global registry is always on. A disabled handle costs one
//! predictable branch per record and a disabled registry's snapshot is empty;
//! the hotpath bench gates the off/on step-time ratio at ≥ 0.95, i.e. the
//! enabled overhead at ≤ 5%.

pub mod chrome;
pub mod json;
mod metrics;

pub use metrics::{
    Class, Counter, Gauge, HistTally, Histogram, MetricValue, MetricsSnapshot, RankF64, RankU64,
    Registry,
};

use std::sync::OnceLock;

/// A process-global registry that nothing records into. It exists only
/// because `benchmark/src/layers.rs` (frozen outside this crate) reads
/// `okpar.jobs` from its snapshot, which is 0; it goes when a benchmark PR
/// drops that read.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| Registry::with_ranks(0, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }
}
