//! The metrics registry: named counters, gauges, histograms and per-rank slots
//! with an atomic fast path and a cheap kill switch.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`], [`RankF64`], [`RankU64`])
//! are `Clone` and cheap to record through: one branch on the enabled flag,
//! then one atomic (or single-writer plain) update. The registry's lock is
//! taken only at handle creation and snapshot time, never on the record path.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log2 histogram buckets: bucket `b` holds values in
/// `[2^(b-1), 2^b)`, bucket 0 holds zero, bucket 64 holds the top of the u64
/// range.
const HIST_BUCKETS: usize = 65;

/// Determinism class of a metric — see the crate docs for the policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A function of modeled quantities only; bit-identical at every worker
    /// count.
    Virtual,
    /// Describes the simulating host; exempt from schedule parity.
    Host,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Virtual => "virtual",
            Class::Host => "host",
        }
    }
}

/// A monotonically increasing integer counter (atomic adds — commutative, so
/// totals are deterministic regardless of thread interleaving).
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    on: bool,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.on {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A floating-point accumulator (CAS-add). Sums of f64 are only deterministic
/// when the addends arrive in a deterministic order, so `FCounter` is almost
/// always [`Class::Host`]; per-rank virtual-time sums belong in [`RankF64`].
#[derive(Clone)]
pub struct FCounter {
    bits: Arc<AtomicU64>,
    on: bool,
}

impl FCounter {
    /// Add `v`.
    pub fn add(&self, v: f64) {
        if !self.on {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A high-watermark gauge (atomic max — commutative, deterministic).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
    on: bool,
}

impl Gauge {
    /// Raise the gauge to at least `v`.
    #[inline]
    pub fn set_max(&self, v: u64) {
        if self.on {
            self.cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistInner {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

/// A log2-bucketed histogram of u64 samples: bucket 0 holds zeros, bucket `b`
/// holds `[2^(b-1), 2^b)`. Bucket counts and the sample sum are atomic adds,
/// so the aggregate is deterministic.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
    on: bool,
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.on {
            return;
        }
        let bucket = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
        self.inner.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.inner.total.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.total.load(Ordering::Relaxed)
    }
}

/// Per-rank f64 slots with a **single-writer contract**: only rank `r` (its
/// thread) may write slot `r`, so plain load-add-store is race-free and the
/// per-rank sums are exactly the sums a serial execution would produce —
/// which is what makes virtual-time accumulators bit-identical at every
/// worker count.
#[derive(Clone)]
pub struct RankF64 {
    slots: Arc<Vec<AtomicU64>>,
    on: bool,
}

impl RankF64 {
    /// Add `v` to rank `rank`'s slot (single writer per slot).
    #[inline]
    pub fn add(&self, rank: usize, v: f64) {
        if self.on {
            let slot = &self.slots[rank];
            let cur = f64::from_bits(slot.load(Ordering::Relaxed));
            slot.store((cur + v).to_bits(), Ordering::Relaxed);
        }
    }

    /// Raise rank `rank`'s slot to at least `v` (single writer per slot).
    #[inline]
    pub fn set_max(&self, rank: usize, v: f64) {
        if self.on {
            let slot = &self.slots[rank];
            let cur = f64::from_bits(slot.load(Ordering::Relaxed));
            if v > cur {
                slot.store(v.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// Current value of rank `rank`'s slot.
    pub fn get(&self, rank: usize) -> f64 {
        f64::from_bits(self.slots[rank].load(Ordering::Relaxed))
    }
}

/// Per-rank u64 slots (atomic adds; safe even if the single-writer contract is
/// relaxed, e.g. a per-link byte matrix written by every sender row-wise).
#[derive(Clone)]
pub struct RankU64 {
    slots: Arc<Vec<AtomicU64>>,
    on: bool,
}

impl RankU64 {
    /// Add `n` to slot `idx`.
    #[inline]
    pub fn add(&self, idx: usize, n: u64) {
        if self.on {
            self.slots[idx].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of slot `idx`.
    pub fn get(&self, idx: usize) -> u64 {
        self.slots[idx].load(Ordering::Relaxed)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are zero slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

enum Slot {
    Counter(Arc<AtomicU64>),
    FCounter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Hist(Arc<HistInner>),
    RankF64(Arc<Vec<AtomicU64>>),
    RankU64(Arc<Vec<AtomicU64>>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::FCounter(_) => "fcounter",
            Slot::Gauge(_) => "gauge",
            Slot::Hist(_) => "histogram",
            Slot::RankF64(_) => "rank_f64",
            Slot::RankU64(_) => "rank_u64",
        }
    }
}

/// One named metrics namespace, created with a rank count and an enabled flag
/// fixed for its lifetime.
pub struct Registry {
    enabled: bool,
    ranks: usize,
    inner: Mutex<HashMap<String, (Class, Slot)>>,
}

impl Registry {
    /// A registry for a run of `ranks` ranks with recording fixed on or off.
    pub fn with_ranks(ranks: usize, enabled: bool) -> Self {
        Self { enabled, ranks, inner: Mutex::new(HashMap::new()) }
    }

    /// Whether handles from this registry record.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of ranks this registry's per-rank metrics cover.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    fn slot(
        &self,
        name: &str,
        class: Class,
        mk: impl FnOnce() -> Slot,
        want: &'static str,
    ) -> Slot {
        let mut inner = self.inner.lock();
        let (stored_class, slot) = inner.entry(name.to_string()).or_insert_with(|| (class, mk()));
        assert_eq!(
            slot.kind(),
            want,
            "metric {name:?} already registered as a {}, requested as a {want}",
            slot.kind()
        );
        assert_eq!(*stored_class, class, "metric {name:?} re-registered under a different class");
        match slot {
            Slot::Counter(c) => Slot::Counter(Arc::clone(c)),
            Slot::FCounter(c) => Slot::FCounter(Arc::clone(c)),
            Slot::Gauge(c) => Slot::Gauge(Arc::clone(c)),
            Slot::Hist(h) => Slot::Hist(Arc::clone(h)),
            Slot::RankF64(s) => Slot::RankF64(Arc::clone(s)),
            Slot::RankU64(s) => Slot::RankU64(Arc::clone(s)),
        }
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str, class: Class) -> Counter {
        match self.slot(name, class, || Slot::Counter(Arc::new(AtomicU64::new(0))), "counter") {
            Slot::Counter(cell) => Counter { cell, on: self.enabled },
            _ => unreachable!(),
        }
    }

    /// Get or create the floating-point accumulator `name`.
    pub fn fcounter(&self, name: &str, class: Class) -> FCounter {
        match self.slot(name, class, || Slot::FCounter(Arc::new(AtomicU64::new(0))), "fcounter") {
            Slot::FCounter(bits) => FCounter { bits, on: self.enabled },
            _ => unreachable!(),
        }
    }

    /// Get or create the high-watermark gauge `name`.
    pub fn gauge(&self, name: &str, class: Class) -> Gauge {
        match self.slot(name, class, || Slot::Gauge(Arc::new(AtomicU64::new(0))), "gauge") {
            Slot::Gauge(cell) => Gauge { cell, on: self.enabled },
            _ => unreachable!(),
        }
    }

    /// Get or create the log2-bucketed histogram `name`.
    pub fn histogram(&self, name: &str, class: Class) -> Histogram {
        let mk = || {
            Slot::Hist(Arc::new(HistInner {
                counts: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                total: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }))
        };
        match self.slot(name, class, mk, "histogram") {
            Slot::Hist(inner) => Histogram { inner, on: self.enabled },
            _ => unreachable!(),
        }
    }

    /// Get or create per-rank f64 slots named `name` (one per rank).
    pub fn rank_f64(&self, name: &str, class: Class) -> RankF64 {
        assert!(self.ranks > 0, "per-rank metric {name:?} on a rankless registry");
        let ranks = self.ranks;
        let mk = || Slot::RankF64(Arc::new((0..ranks).map(|_| AtomicU64::new(0)).collect()));
        match self.slot(name, class, mk, "rank_f64") {
            Slot::RankF64(slots) => RankF64 { slots, on: self.enabled },
            _ => unreachable!(),
        }
    }

    /// Get or create u64 slots named `name` with an explicit slot count (pass
    /// the rank count for per-rank metrics, `P·P` for a per-link matrix).
    pub fn slots_u64(&self, name: &str, class: Class, len: usize) -> RankU64 {
        let mk = || Slot::RankU64(Arc::new((0..len).map(|_| AtomicU64::new(0)).collect()));
        match self.slot(name, class, mk, "rank_u64") {
            Slot::RankU64(slots) => {
                assert_eq!(slots.len(), len, "metric {name:?} re-registered with a new length");
                RankU64 { slots, on: self.enabled }
            }
            _ => unreachable!(),
        }
    }

    /// A point-in-time copy of every metric, sorted by name; empty when the
    /// registry is disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        if !self.enabled {
            return MetricsSnapshot::default();
        }
        let inner = self.inner.lock();
        let mut entries: Vec<SnapEntry> = inner
            .iter()
            .map(|(name, (class, slot))| {
                let value = match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Slot::FCounter(c) => {
                        MetricValue::FCounter(f64::from_bits(c.load(Ordering::Relaxed)))
                    }
                    Slot::Gauge(c) => MetricValue::Gauge(c.load(Ordering::Relaxed)),
                    Slot::Hist(h) => MetricValue::Histogram {
                        count: h.total.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        buckets: h
                            .counts
                            .iter()
                            .enumerate()
                            .filter_map(|(b, c)| {
                                let c = c.load(Ordering::Relaxed);
                                (c > 0).then_some((b as u32, c))
                            })
                            .collect(),
                    },
                    Slot::RankF64(s) => MetricValue::PerRankF64(
                        s.iter().map(|b| f64::from_bits(b.load(Ordering::Relaxed))).collect(),
                    ),
                    Slot::RankU64(s) => MetricValue::PerRankU64(
                        s.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                    ),
                };
                SnapEntry { name: name.clone(), class: *class, value }
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { entries }
    }

    /// Fold a finished run's snapshot into this registry (the process-global
    /// one): counters and histograms add, gauges take the max, per-rank arrays
    /// collapse into `<name>.sum` totals. Everything lands as [`Class::Host`]
    /// — process-lifetime totals depend on how many runs happened, not on
    /// modeled time.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        for e in &snap.entries {
            match &e.value {
                MetricValue::Counter(v) => self.counter(&e.name, Class::Host).add(*v),
                MetricValue::FCounter(v) => self.fcounter(&e.name, Class::Host).add(*v),
                MetricValue::Gauge(v) => self.gauge(&e.name, Class::Host).set_max(*v),
                MetricValue::Histogram { count, sum, .. } => {
                    self.counter(&format!("{}.count", e.name), Class::Host).add(*count);
                    self.counter(&format!("{}.sum", e.name), Class::Host).add(*sum);
                }
                MetricValue::PerRankF64(v) => {
                    self.fcounter(&format!("{}.sum", e.name), Class::Host)
                        .add(v.iter().copied().sum());
                }
                MetricValue::PerRankU64(v) => {
                    self.counter(&format!("{}.sum", e.name), Class::Host)
                        .add(v.iter().copied().sum());
                }
            }
        }
    }
}

/// The value of one metric at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Integer counter total.
    Counter(u64),
    /// Floating-point accumulator total.
    FCounter(f64),
    /// High-watermark gauge value.
    Gauge(u64),
    /// Histogram aggregate: sample count, sample sum, and the non-empty
    /// `(bucket, count)` pairs.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of all samples.
        sum: u64,
        /// Non-empty `(log2 bucket, count)` pairs, bucket-ascending.
        buckets: Vec<(u32, u64)>,
    },
    /// Per-rank f64 slots, indexed by rank.
    PerRankF64(Vec<f64>),
    /// Per-slot u64 values (per-rank, or row-major per-link).
    PerRankU64(Vec<u64>),
}

#[derive(Clone, Debug, PartialEq)]
struct SnapEntry {
    name: String,
    class: Class,
    value: MetricValue,
}

/// An immutable, sorted snapshot of a [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<SnapEntry>,
}

/// Render an f64 as a JSON value (non-finite values become `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Rust's shortest-roundtrip Display is already valid JSON for finite
        // values (no trailing dot, no leading plus).
        s
    } else {
        "null".to_string()
    }
}

impl MetricsSnapshot {
    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|e| e.name == name).map(|e| &e.value)
    }

    /// Metric names in sorted order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The [`Class::Virtual`] subset, canonicalized to bit patterns: f64 slots
    /// as raw bits, everything else as its integer value. Two runs whose
    /// virtual metrics are bit-identical produce equal parity views; this is
    /// what the schedule-invariance suites compare.
    pub fn parity_view(&self) -> Vec<(String, Vec<u64>)> {
        self.entries
            .iter()
            .filter(|e| e.class == Class::Virtual)
            .map(|e| {
                let bits = match &e.value {
                    MetricValue::Counter(v) | MetricValue::Gauge(v) => vec![*v],
                    MetricValue::FCounter(v) => vec![v.to_bits()],
                    MetricValue::Histogram { count, sum, buckets } => {
                        let mut v = vec![*count, *sum];
                        for (b, c) in buckets {
                            v.push(*b as u64);
                            v.push(*c);
                        }
                        v
                    }
                    MetricValue::PerRankF64(vals) => vals.iter().map(|v| v.to_bits()).collect(),
                    MetricValue::PerRankU64(vals) => vals.clone(),
                };
                (e.name.clone(), bits)
            })
            .collect()
    }

    /// Compact single-line JSON object: `{"name": {"class": …, …}, …}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"class\":\"{}\",",
                crate::json::quote(&e.name),
                e.class.name()
            ));
            match &e.value {
                MetricValue::Counter(v) => out.push_str(&format!("\"counter\":{v}")),
                MetricValue::FCounter(v) => out.push_str(&format!("\"fcounter\":{}", json_f64(*v))),
                MetricValue::Gauge(v) => out.push_str(&format!("\"gauge\":{v}")),
                MetricValue::Histogram { count, sum, buckets } => {
                    out.push_str(&format!("\"count\":{count},\"sum\":{sum},\"buckets\":["));
                    for (j, (b, c)) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{b},{c}]"));
                    }
                    out.push(']');
                }
                MetricValue::PerRankF64(vals) => {
                    out.push_str("\"per_rank\":[");
                    for (j, v) in vals.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&json_f64(*v));
                    }
                    out.push(']');
                }
                MetricValue::PerRankU64(vals) => {
                    out.push_str("\"per_slot\":[");
                    for (j, v) in vals.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&v.to_string());
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// A human-readable summary table, one metric per line. Per-rank arrays
    /// summarize as `sum / max(rank)`; histograms as `count / sum`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0).max(6);
        out.push_str(&format!("{:width$}  {:7}  value\n", "metric", "class"));
        for e in &self.entries {
            let rendered = match &e.value {
                MetricValue::Counter(v) => format!("{v}"),
                MetricValue::FCounter(v) => format!("{v:.6e}"),
                MetricValue::Gauge(v) => format!("max {v}"),
                MetricValue::Histogram { count, sum, .. } => {
                    let mean = if *count > 0 { *sum as f64 / *count as f64 } else { 0.0 };
                    format!("n={count} sum={sum} mean={mean:.1}")
                }
                MetricValue::PerRankF64(vals) => {
                    let sum: f64 = vals.iter().sum();
                    let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let argmax = vals.iter().position(|&v| v == max).unwrap_or(0);
                    format!("sum={sum:.6e} max={max:.6e} @rank{argmax}")
                }
                MetricValue::PerRankU64(vals) => {
                    let sum: u64 = vals.iter().sum();
                    let max = vals.iter().copied().max().unwrap_or(0);
                    let argmax = vals.iter().position(|&v| v == max).unwrap_or(0);
                    format!("sum={sum} max={max} @slot{argmax}")
                }
            };
            out.push_str(&format!("{:width$}  {:7}  {rendered}\n", e.name, e.class.name()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record_when_enabled() {
        let reg = Registry::with_ranks(2, true);
        let c = reg.counter("sends", Class::Virtual);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("depth", Class::Host);
        g.set_max(3);
        g.set_max(1);
        assert_eq!(g.get(), 3);
        let f = reg.fcounter("wall", Class::Host);
        f.add(0.5);
        f.add(0.25);
        assert_eq!(f.get(), 0.75);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::with_ranks(2, false);
        let c = reg.counter("sends", Class::Virtual);
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = reg.histogram("elems", Class::Virtual);
        h.record(7);
        assert_eq!(h.count(), 0);
        let r = reg.rank_f64("wait", Class::Virtual);
        r.add(1, 2.0);
        assert_eq!(r.get(1), 0.0);
        assert!(reg.snapshot().parity_view().iter().all(|(_, bits)| bits.iter().all(|&b| b == 0)));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let reg = Registry::with_ranks(1, true);
        let h = reg.histogram("elems", Class::Virtual);
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1024); // bucket 11
        let snap = reg.snapshot();
        match snap.get("elems") {
            Some(MetricValue::Histogram { count, sum, buckets }) => {
                assert_eq!(*count, 5);
                assert_eq!(*sum, 1030);
                assert_eq!(buckets, &vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
            }
            other => panic!("unexpected value {other:?}"),
        }
    }

    #[test]
    fn rank_slots_hold_per_rank_values() {
        let reg = Registry::with_ranks(3, true);
        let r = reg.rank_f64("wait", Class::Virtual);
        r.add(0, 1.5);
        r.add(2, 0.5);
        r.add(2, 0.25);
        assert_eq!(r.get(0), 1.5);
        assert_eq!(r.get(1), 0.0);
        assert_eq!(r.get(2), 0.75);
        let u = reg.slots_u64("bytes", Class::Virtual, 3);
        u.add(1, 40);
        assert_eq!(u.get(1), 40);
    }

    #[test]
    fn parity_view_is_virtual_only_and_bit_exact() {
        let reg = Registry::with_ranks(2, true);
        reg.counter("v.sends", Class::Virtual).add(3);
        reg.rank_f64("v.wait", Class::Virtual).add(1, 0.1);
        reg.counter("h.wall", Class::Host).add(99);
        let view = reg.snapshot().parity_view();
        let names: Vec<&str> = view.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["v.sends", "v.wait"]);
        assert_eq!(view[0].1, vec![3]);
        assert_eq!(view[1].1, vec![0.0f64.to_bits(), 0.1f64.to_bits()]);
    }

    #[test]
    fn snapshot_json_is_valid() {
        let reg = Registry::with_ranks(2, true);
        reg.counter("sends", Class::Virtual).add(3);
        reg.histogram("elems", Class::Virtual).record(100);
        reg.rank_f64("wait", Class::Virtual).add(0, 1.25);
        reg.gauge("depth", Class::Host).set_max(4);
        reg.fcounter("wall", Class::Host).add(2.5);
        let json = reg.snapshot().to_json();
        crate::json::validate(&json).expect("snapshot JSON must parse");
    }

    #[test]
    fn absorb_folds_totals_into_host_class() {
        let run = Registry::with_ranks(2, true);
        run.counter("sim.sends", Class::Virtual).add(5);
        run.rank_f64("sim.wait", Class::Virtual).add(0, 1.0);
        run.rank_f64("sim.wait", Class::Virtual).add(1, 2.0);
        let global = Registry::with_ranks(0, true);
        global.absorb(&run.snapshot());
        global.absorb(&run.snapshot());
        let snap = global.snapshot();
        assert_eq!(snap.get("sim.sends"), Some(&MetricValue::Counter(10)));
        assert_eq!(snap.get("sim.wait.sum"), Some(&MetricValue::FCounter(6.0)));
        assert!(snap.parity_view().is_empty(), "absorbed metrics are all Host");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = Registry::with_ranks(1, true);
        reg.counter("x", Class::Virtual);
        reg.gauge("x", Class::Virtual);
    }

    #[test]
    fn render_table_mentions_every_metric() {
        let reg = Registry::with_ranks(2, true);
        reg.counter("a.sends", Class::Virtual).add(3);
        reg.rank_f64("b.wait", Class::Virtual).add(1, 2.0);
        let table = reg.snapshot().render_table();
        assert!(table.contains("a.sends"));
        assert!(table.contains("b.wait"));
        assert!(table.contains("@rank1"));
    }
}
