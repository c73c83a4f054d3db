#![warn(missing_docs)]

//! # obs — deterministic, virtual-time-aware observability
//!
//! A shared instrumentation layer for every crate in the workspace: a metrics
//! registry (counters, gauges, log-bucketed histograms, per-rank slots), nested
//! structured spans, and exporters (Chrome/Perfetto `trace_events` JSON, a
//! compact metrics JSON snapshot, a text summary table).
//!
//! ## Determinism policy
//!
//! Every metric carries a [`Class`]:
//!
//! - [`Class::Virtual`] — the value is a function of modeled quantities only
//!   (virtual clocks, message sizes, chaos draws). Virtual metrics must be
//!   **bit-identical** across simnet's two engines (event and the thread
//!   oracle), across event-engine worker counts and across repeated
//!   runs; the engine-parity suite asserts this via
//!   [`MetricsSnapshot::parity_view`]. Recording paths achieve it with
//!   commutative integer updates (atomic adds, atomic maxima) and
//!   single-writer per-rank slots — never with anything that observes
//!   scheduling order.
//! - [`Class::Host`] — the value describes the *simulating host* (wall-clock
//!   durations, pool reservation races, scheduler token traffic, worker-pool
//!   activity). Host metrics are explicitly exempt from parity.
//!
//! ## Kill switch
//!
//! `OKTOPK_OBS=off` (or `0`/`false`) disables all recording; [`set_enabled`]
//! overrides the environment programmatically, and per-run consumers (e.g.
//! `simnet::Cluster::with_obs`) can force the choice for one run regardless of
//! the global state. A disabled handle costs one predictable branch per
//! record; the hotpath bench gates the enabled-vs-disabled overhead at ≤ 2%.

pub mod chrome;
pub mod json;
mod metrics;
mod span;

pub use metrics::{
    Class, Counter, FCounter, Gauge, Histogram, MetricValue, MetricsSnapshot, RankF64, RankU64,
    Registry,
};
pub use span::{SpanEvent, SpanStack};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Programmatic override of the `OKTOPK_OBS` kill switch:
/// 0 = none (defer to the environment), 1 = forced on, 2 = forced off.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn env_default() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| match std::env::var("OKTOPK_OBS") {
        Ok(raw) => !matches!(raw.trim().to_ascii_lowercase().as_str(), "off" | "0" | "false"),
        Err(_) => true,
    })
}

/// Whether observability is globally enabled: the [`set_enabled`] override if
/// one is set, else the `OKTOPK_OBS` environment variable (default: on).
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_default(),
    }
}

/// Force observability on or off for the whole process, overriding
/// `OKTOPK_OBS`. Prefer per-run overrides (e.g. `Cluster::with_obs`) in tests
/// that run concurrently — this override is process-global.
pub fn set_enabled(on: bool) {
    OVERRIDE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Drop the [`set_enabled`] override and defer to the environment again.
pub fn clear_enabled_override() {
    OVERRIDE.store(0, Ordering::Relaxed);
}

/// The process-global registry: per-run registries fold their totals in at
/// run end so one snapshot can summarize the whole process (see
/// [`Registry::absorb`]). Every global metric
/// is [`Class::Host`] by convention — process-lifetime totals depend on how
/// many runs happened, not on modeled time.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new_dynamic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_default_is_on_and_override_wins() {
        // The test environment may or may not set OKTOPK_OBS; only assert the
        // override mechanics, then restore.
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        clear_enabled_override();
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }
}
