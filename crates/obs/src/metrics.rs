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
        self.inner.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.total.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Add the samples `tally` holds to this histogram and empty it.
    pub fn publish(&self, tally: &mut HistTally) {
        if self.on && tally.total > 0 {
            for (cell, n) in self.inner.counts.iter().zip(&tally.counts) {
                if *n > 0 {
                    cell.fetch_add(*n, Ordering::Relaxed);
                }
            }
            self.inner.total.fetch_add(tally.total, Ordering::Relaxed);
            self.inner.sum.fetch_add(tally.sum, Ordering::Relaxed);
        }
        *tally = HistTally::default();
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.total.load(Ordering::Relaxed)
    }
}

fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// A single writer's unpublished samples of a [`Histogram`]: plain adds, no
/// shared cache line, folded in by [`Histogram::publish`].
#[derive(Debug)]
pub struct HistTally {
    counts: [u64; HIST_BUCKETS],
    total: u64,
    sum: u64,
}

impl Default for HistTally {
    fn default() -> Self {
        Self { counts: [0; HIST_BUCKETS], total: 0, sum: 0 }
    }
}

impl HistTally {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v;
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

    /// Store `v` in rank `rank`'s slot (single writer per slot): a writer
    /// that keeps its own running sum publishes it with the very bits
    /// per-sample [`add`](Self::add)s would have left.
    #[inline]
    pub fn set(&self, rank: usize, v: f64) {
        if self.on {
            self.slots[rank].store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value of rank `rank`'s slot.
    pub fn get(&self, rank: usize) -> f64 {
        f64::from_bits(self.slots[rank].load(Ordering::Relaxed))
    }
}

/// Per-rank u64 slots (atomic adds, so totals are deterministic whoever
/// writes a slot).
#[derive(Clone)]
pub struct RankU64 {
    slots: Arc<Vec<AtomicU64>>,
    on: bool,
}

impl RankU64 {
    /// Add `n` to rank `rank`'s slot.
    #[inline]
    pub fn add(&self, rank: usize, n: u64) {
        if self.on {
            self.slots[rank].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of rank `rank`'s slot.
    pub fn get(&self, rank: usize) -> u64 {
        self.slots[rank].load(Ordering::Relaxed)
    }
}

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Hist(Arc<HistInner>),
    RankF64(Arc<Vec<AtomicU64>>),
    RankU64(Arc<Vec<AtomicU64>>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
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

    /// Get or create per-rank u64 slots named `name` (one per rank).
    pub fn rank_u64(&self, name: &str, class: Class) -> RankU64 {
        assert!(self.ranks > 0, "per-rank metric {name:?} on a rankless registry");
        let ranks = self.ranks;
        let mk = || Slot::RankU64(Arc::new((0..ranks).map(|_| AtomicU64::new(0)).collect()));
        match self.slot(name, class, mk, "rank_u64") {
            Slot::RankU64(slots) => RankU64 { slots, on: self.enabled },
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
}

/// The value of one metric at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Integer counter total.
    Counter(u64),
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
    /// Per-rank u64 slots, indexed by rank.
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

    /// A human-readable summary table, one metric per line. Per-rank arrays
    /// summarize as `sum / max(rank)`; histograms as `count / sum`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0).max(6);
        out.push_str(&format!("{:width$}  {:7}  value\n", "metric", "class"));
        for e in &self.entries {
            let rendered = match &e.value {
                MetricValue::Counter(v) => format!("{v}"),
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
                    format!("sum={sum} max={max} @rank{argmax}")
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
    fn a_published_tally_equals_recording_each_sample() {
        let samples = [0u64, 1, 3, 3, 1024, 7, 0];
        let reg = Registry::with_ranks(1, true);
        let direct = reg.histogram("direct", Class::Virtual);
        let (published, mut tally) =
            (reg.histogram("tallied", Class::Virtual), HistTally::default());
        for &v in &samples[..4] {
            direct.record(v);
            tally.record(v);
        }
        published.publish(&mut tally);
        for &v in &samples[4..] {
            direct.record(v);
            tally.record(v);
        }
        published.publish(&mut tally);
        published.publish(&mut tally); // an empty tally adds nothing
        let snap = reg.snapshot();
        assert_eq!(snap.get("direct"), snap.get("tallied"));
        assert_eq!(published.count(), samples.len() as u64);
    }

    #[test]
    fn a_stored_running_sum_has_the_bits_of_the_adds() {
        let reg = Registry::with_ranks(1, true);
        let (added, stored) =
            (reg.rank_f64("added", Class::Virtual), reg.rank_f64("stored", Class::Virtual));
        let mut sum = 0.0;
        for v in [0.1, 0.2, 0.3, 1e-17, 0.7] {
            added.add(0, v);
            sum += v;
            stored.set(0, sum);
        }
        assert_eq!(added.get(0).to_bits(), stored.get(0).to_bits());
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
        let u = reg.rank_u64("bytes", Class::Virtual);
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
