//! Per-rank communicator: typed point-to-point messaging over a modeled network.
//!
//! `Comm` charges every message and compute block on the rank's virtual clock
//! and hands delivery, blocking and the barrier rendezvous to the shared
//! [`EventCore`]: a blocking point parks the rank continuation, and a
//! deadlock is detected exactly. Clocks read only per-rank program order and
//! matched message order, so they do not depend on which rank ran when.

use crate::chaos::ChaosView;
use crate::cost::{CostModel, WireSize};
use crate::engine::EventCore;
use crate::envelope::{Envelope, Payload};
use crate::ledger::{Ledger, PhaseId, PhaseVolume};
use crate::request::SendHandle;
use crate::topo::Topology;
use crate::trace::{TraceEvent, TraceKind};
use obs::SpanStack;
use std::borrow::Cow;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Message tag, used to match sends with receives (like an MPI tag).
pub type Tag = u64;

/// Default global byte budget for idle pooled buffers across all ranks of one
/// run (64 MiB). At P=2048 an uncapped per-rank pool would retain
/// O(P · MAX_POOL · bucket) bytes of idle free-list memory; the budget bounds
/// the total while leaving small-P runs effectively uncapped.
pub(crate) const POOL_BUDGET_DEFAULT_BYTES: usize = 64 << 20;

/// Most recycled buffers a rank keeps. Sized to cover a full bucket of the
/// bucketed collectives (send a bucket, then drain a bucket): the drain
/// recycles up to a bucket's worth of storage that the next bucket's sends
/// take back out, so buckets up to this deep stay allocation-free in steady
/// state. The pool is a cap, not a preallocation — it only ever holds
/// buffers a `recv` actually returned. The global [`PoolBudget`] additionally
/// caps the *bytes* retained across all ranks.
const MAX_POOL: usize = 32;

/// Global byte budget for *idle* pooled buffers, shared by all ranks of one
/// run. A `recycle_f32` only retains its buffer if it can reserve the buffer's
/// capacity from the budget; a `take_f32` that reuses a pooled buffer releases
/// the reservation. The budget therefore bounds the total bytes sitting idle
/// in free-lists — memory actively in flight is never charged.
///
/// Whether a particular recycle wins the reservation can depend on cross-rank
/// interleaving, but that only decides *allocation reuse*: taken buffers are
/// always cleared, so modeled clocks, data and ledgers are unaffected and
/// every worker count agrees regardless.
pub(crate) struct PoolBudget {
    remaining: AtomicI64,
}

impl PoolBudget {
    pub(crate) fn new(bytes: usize) -> Self {
        Self { remaining: AtomicI64::new(bytes.min(i64::MAX as usize) as i64) }
    }

    fn try_reserve(&self, bytes: usize) -> bool {
        let bytes = bytes.min(i64::MAX as usize) as i64;
        let prev = self.remaining.fetch_sub(bytes, Ordering::Relaxed);
        if prev < bytes {
            self.remaining.fetch_add(bytes, Ordering::Relaxed);
            false
        } else {
            true
        }
    }

    fn release(&self, bytes: usize) {
        self.remaining.fetch_add(bytes.min(i64::MAX as usize) as i64, Ordering::Relaxed);
    }

    /// Bytes still reservable (for tests/diagnostics).
    #[cfg(test)]
    pub(crate) fn remaining_bytes(&self) -> i64 {
        self.remaining.load(Ordering::Relaxed)
    }
}

/// Pre-resolved metric handles shared by every rank of one run. All handles
/// are cheap clones of registry-owned atomics; `enabled` mirrors the
/// registry's flag so recording paths can skip even the argument computation
/// when observability is off; the per-message ones are fed from [`Tally`]s.
#[derive(Clone)]
pub(crate) struct SimMetrics {
    pub(crate) enabled: bool,
    /// Virtual seconds each rank's clock advanced waiting in `recv`.
    recv_wait: obs::RankF64,
    /// Bytes injected (sent) per rank.
    tx_bytes: obs::RankU64,
    /// Bytes drained (received) per rank.
    rx_bytes: obs::RankU64,
    /// Message body sizes, in elements.
    msg_elems: obs::Histogram,
    /// Chaos perturbations actually applied, by kind.
    chaos_straggler: obs::Counter,
    chaos_jitter: obs::Counter,
    chaos_degrade: obs::Counter,
    chaos_pause: obs::Counter,
    /// Per-rank bytes sent over intra-node links (topology-classified).
    intra_bytes: obs::RankU64,
    /// Per-rank bytes sent over inter-node links. With no topology installed
    /// every link is inter-node fabric by convention, so this equals
    /// `sim.tx_bytes` on a flat network.
    inter_bytes: obs::RankU64,
    /// Buffer-pool behavior (Host class: reservation outcomes may depend on
    /// cross-rank interleaving through the shared [`PoolBudget`]).
    pool_hit: obs::Counter,
    pool_miss: obs::Counter,
    pool_idle_max: obs::Gauge,
    /// The run's registry, for layers above simnet (collectives, trainer) to
    /// register their own instruments via [`Comm::obs`].
    registry: Arc<obs::Registry>,
}

impl SimMetrics {
    pub(crate) fn new(reg: &Arc<obs::Registry>) -> Self {
        use obs::Class::{Host, Virtual};
        Self {
            enabled: reg.enabled(),
            recv_wait: reg.rank_f64("sim.recv_wait_vsec", Virtual),
            tx_bytes: reg.rank_u64("sim.tx_bytes", Virtual),
            rx_bytes: reg.rank_u64("sim.rx_bytes", Virtual),
            msg_elems: reg.histogram("sim.msg_elems", Virtual),
            chaos_straggler: reg.counter("chaos.straggler", Virtual),
            chaos_jitter: reg.counter("chaos.jitter", Virtual),
            chaos_degrade: reg.counter("chaos.degrade", Virtual),
            chaos_pause: reg.counter("chaos.pause", Virtual),
            intra_bytes: reg.rank_u64("net.intra_bytes", Virtual),
            inter_bytes: reg.rank_u64("net.inter_bytes", Virtual),
            pool_hit: reg.counter("pool.hit", Host),
            pool_miss: reg.counter("pool.miss", Host),
            pool_idle_max: reg.gauge("pool.idle_bytes_max", Host),
            registry: Arc::clone(reg),
        }
    }
}

/// A rank's unpublished per-message metrics: plain fields of its own `Comm`,
/// so no send or receive writes a cache line another rank writes.
/// [`Comm::publish`] adds them into the registry at every barrier, before
/// the rendezvous, and when the rank exits.
#[derive(Default)]
struct Tally {
    tx_bytes: u64,
    rx_bytes: u64,
    intra_bytes: u64,
    inter_bytes: u64,
    msg_elems: obs::HistTally,
    chaos_straggler: u64,
    chaos_jitter: u64,
    chaos_degrade: u64,
    chaos_pause: u64,
    /// Running sum, never reset: publishing it by store leaves the bits
    /// per-message adds into the slot would have.
    recv_wait: f64,
}

/// Latency charged for a dissemination barrier: `α·⌈log2 P⌉`.
fn barrier_latency(cost: &CostModel, size: usize) -> f64 {
    if size <= 1 {
        return 0.0;
    }
    cost.alpha * (usize::BITS - (size - 1).leading_zeros()) as f64
}

/// A rank's handle on the simulated cluster.
///
/// Created by [`crate::Cluster::run`]; one `Comm` lives on each rank's fiber. All
/// methods that move data also advance the rank's virtual clock according to the
/// [`CostModel`] (see the crate-level docs for the port-serialization semantics).
pub struct Comm {
    rank: usize,
    size: usize,
    cost: CostModel,
    /// Virtual clock: modeled seconds since the start of the run.
    now: f64,
    /// Time at which this rank's NIC injection port becomes free.
    inj_free: f64,
    /// Time at which this rank's NIC reception port becomes free.
    rcv_free: f64,
    /// Interned id of the current phase label (see [`Ledger::intern`]).
    phase_id: PhaseId,
    /// When set, messaging carries data but costs nothing and is not logged —
    /// used by instrumentation (e.g. ξ measurement) that must not perturb the
    /// modeled timings or traffic accounting of the algorithm under study.
    free_mode: bool,
    /// Optional per-rank execution trace (see [`crate::trace`]).
    trace: Option<Vec<TraceEvent>>,
    /// Optional per-rank structured spans (see [`obs::SpanStack`]).
    spans: Option<SpanStack>,
    /// Per-run metric handles (no-ops when observability is disabled).
    metrics: SimMetrics,
    tally: Tally,
    /// The phase-name interner; this rank's volumes are `cells`, indexed by
    /// [`PhaseId`].
    ledger: Arc<Ledger>,
    cells: Vec<PhaseVolume>,
    core: Arc<EventCore>,
    /// Free-list of recycled `f32` message buffers. Steady-state collectives
    /// cycle the same few chunks: a rank sends a buffer, receives one of the
    /// same size from a peer, and recycles it for the next send. Pooling turns
    /// that cycle allocation-free after warmup.
    pool: Vec<Vec<f32>>,
    pool_budget: Arc<PoolBudget>,
    /// This rank's view of the installed chaos plan, if any. `None` keeps every
    /// charging path bit-identical to the clean model.
    chaos: Option<ChaosView>,
    /// The cluster topology, if any (see [`crate::Cluster::with_topology`]).
    /// Its tier parameters supersede the flat cost model at every charging
    /// point.
    topo: Option<Arc<Topology>>,
}

impl Comm {
    #[allow(clippy::too_many_arguments)] // crate-internal constructor, one call site
    pub(crate) fn new(
        rank: usize,
        size: usize,
        cost: CostModel,
        ledger: Arc<Ledger>,
        core: Arc<EventCore>,
        pool_budget: Arc<PoolBudget>,
        chaos: Option<ChaosView>,
        metrics: SimMetrics,
        topo: Option<Arc<Topology>>,
    ) -> Self {
        let phase_id = ledger.intern("default");
        Self {
            rank,
            size,
            cost,
            now: 0.0,
            inj_free: 0.0,
            rcv_free: 0.0,
            phase_id,
            free_mode: false,
            trace: None,
            spans: None,
            metrics,
            tally: Tally::default(),
            ledger,
            cells: vec![PhaseVolume::default(); phase_id as usize + 1],
            core,
            pool: Vec::new(),
            pool_budget,
            chaos,
            topo,
        }
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cost model in effect.
    pub fn cost(&self) -> CostModel {
        self.cost
    }

    /// The cluster topology, if [`crate::Cluster::with_topology`] installed
    /// one. Hierarchical collectives consult this to group ranks by node.
    pub fn topology(&self) -> Option<&Topology> {
        self.topo.as_deref()
    }

    /// Effective clean `(α, β)` for the `self.rank → dst` link: the topology's
    /// tier parameters when one is installed (oversubscription folded in),
    /// else the flat cost model.
    fn link_params(&self, dst: usize) -> (f64, f64) {
        match &self.topo {
            Some(t) => t.tier_params(self.rank, dst),
            None => (self.cost.alpha, self.cost.beta),
        }
    }

    /// Current virtual time of this rank, in modeled seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Virtual time including pending NIC injection work — the time at which this
    /// rank's participation in the current operation is truly finished.
    pub fn local_finish_time(&self) -> f64 {
        self.now.max(self.inj_free)
    }

    /// Label subsequent traffic in the ledger (e.g. `"split_reduce"`).
    /// Accepts both `&'static str` literals and dynamically built labels
    /// (`String` / `Cow`); names are interned, so dynamic labels cost one
    /// allocation per distinct name per run, not per message.
    pub fn set_phase(&mut self, phase: impl Into<Cow<'static, str>>) {
        self.phase_id = self.ledger.intern(&phase.into());
        if self.cells.len() <= self.phase_id as usize {
            self.cells.resize(self.phase_id as usize + 1, PhaseVolume::default());
        }
    }

    /// Start recording this rank's activity (sends, receives, compute, barriers)
    /// on its virtual timeline; collect with [`take_trace`](Self::take_trace).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Take the recorded trace (empty if tracing was never enabled) and stop
    /// recording.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// Start recording structured spans on this rank (see [`obs::SpanStack`]):
    /// nested labeled intervals carrying virtual start/end times plus the
    /// wall-clock cost of the simulating host. Collect with
    /// [`take_spans`](Self::take_spans).
    pub fn enable_spans(&mut self) {
        self.spans = Some(SpanStack::new());
    }

    /// Open a span named `name` at the current virtual time. A no-op unless
    /// [`enable_spans`](Self::enable_spans) was called.
    pub fn span_enter(&mut self, name: impl Into<Cow<'static, str>>) {
        let now = self.now;
        if let Some(s) = self.spans.as_mut() {
            s.enter(name, now);
        }
    }

    /// Close the innermost open span at the current virtual time. A no-op
    /// unless spans are enabled.
    ///
    /// # Panics
    /// Panics if spans are enabled and no span is open.
    pub fn span_exit(&mut self) {
        let now = self.now;
        if let Some(s) = self.spans.as_mut() {
            s.exit(now);
        }
    }

    /// Take all closed spans recorded so far (empty if spans were never
    /// enabled). Recording continues; open spans stay open.
    pub fn take_spans(&mut self) -> Vec<obs::SpanEvent> {
        self.spans.as_mut().map(SpanStack::drain).unwrap_or_default()
    }

    /// The run's metrics registry. Layers above simnet (collectives, the
    /// trainer) register their own instruments here; everything lands in the
    /// same [`crate::SimReport::metrics`] snapshot, subject to the same
    /// kill switch and the same [`obs::Class::Virtual`] parity guarantee.
    pub fn obs(&self) -> &obs::Registry {
        &self.metrics.registry
    }

    fn record(&mut self, start: f64, end: f64, kind: TraceKind) {
        self.record_tagged(start, end, kind, false);
    }

    fn record_tagged(&mut self, start: f64, end: f64, kind: TraceKind, perturbed: bool) {
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEvent::tagged(start, end, kind, perturbed));
        }
    }

    /// If this rank's virtual clock sits inside an injected pause, jump it to
    /// the resume time, freeze the NIC ports along with it and trace the
    /// frozen interval. A no-op without a chaos plan (or outside every pause
    /// window).
    fn apply_pause(&mut self) {
        let Some(view) = &self.chaos else { return };
        let resumed = view.unpause(self.now);
        if resumed > self.now {
            let start = self.now;
            self.now = resumed;
            self.inj_free = self.inj_free.max(resumed);
            self.rcv_free = self.rcv_free.max(resumed);
            self.tally.chaos_pause += 1;
            self.record_tagged(start, resumed, TraceKind::Pause, true);
        }
    }

    /// Enter/leave free mode: messages still deliver their data, but cost zero
    /// modeled time and are not recorded in the ledger. All ranks involved in an
    /// exchange must agree on the mode.
    pub fn set_free_mode(&mut self, on: bool) {
        self.free_mode = on;
    }

    /// Advance the virtual clock by `seconds` of local computation. Under a
    /// chaos plan the block is stretched by any active straggler factor
    /// (integrated piecewise across window edges) and skips pause intervals.
    pub fn compute(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative compute time");
        self.apply_pause();
        let start = self.now;
        let clean_end = start + seconds;
        let end = match &self.chaos {
            Some(view) => view.advance_compute(start, seconds),
            None => clean_end,
        };
        self.now = end;
        if end != clean_end {
            self.tally.chaos_straggler += 1;
        }
        self.record_tagged(start, end, TraceKind::Compute, end != clean_end);
    }

    /// Take a cleared `f32` buffer with capacity ≥ `cap` from this rank's pool,
    /// allocating only if the free-list is empty or its top buffer is too small. Pair with
    /// [`recycle_f32`](Self::recycle_f32) to make steady-state messaging
    /// allocation-free. Reusing a pooled buffer returns its bytes to the
    /// cluster-wide idle-pool budget.
    pub fn take_f32(&mut self, cap: usize) -> Vec<f32> {
        let Some(mut buf) = self.pool.pop() else {
            self.metrics.pool_miss.inc();
            return Vec::with_capacity(cap);
        };
        // The pool pops its most recent buffer whatever its size; one `reserve`
        // has to grow is reallocated, so it counts as a miss — `pool.hit`
        // means reuse. The buffer's bytes leave the idle-pool budget either way.
        if buf.capacity() >= cap {
            self.metrics.pool_hit.inc();
        } else {
            self.metrics.pool_miss.inc();
        }
        self.pool_budget.release(buf.capacity() * 4);
        buf.clear();
        buf.reserve(cap);
        buf
    }

    /// Return a no-longer-needed `f32` buffer (e.g. one a `recv` produced) to
    /// this rank's free-list. Keeps at most a handful per rank, and only while
    /// the cluster-wide idle-pool byte budget has room; otherwise the buffer is
    /// simply dropped (P=2048 runs must not retain O(P · bucket) idle bytes).
    pub fn recycle_f32(&mut self, buf: Vec<f32>) {
        if self.pool.len() < MAX_POOL
            && buf.capacity() > 0
            && self.pool_budget.try_reserve(buf.capacity() * 4)
        {
            self.pool.push(buf);
            self.note_idle_bytes();
        }
    }

    /// Track the high-water mark of this rank's idle pooled bytes (an
    /// occupancy signal for the cluster-wide [`PoolBudget`]).
    fn note_idle_bytes(&mut self) {
        if self.metrics.enabled {
            let bytes = self.pooled_bytes() as u64;
            self.metrics.pool_idle_max.set_max(bytes);
        }
    }

    /// Bytes currently held idle in this rank's buffer free-list.
    pub fn pooled_bytes(&self) -> usize {
        self.pool.iter().map(|b| b.capacity() * 4).sum()
    }

    /// Charge the injection port for a message of `elems` elements to `dst` and
    /// return `(head_arrival, effective_beta, perturbed)`. Under a chaos plan
    /// the link's α/β pick up any active degradation multipliers and the head
    /// gains the message's deterministic jitter draw, all evaluated at
    /// injection start; the effective β travels in the envelope so the receiver
    /// charges the same per-element time.
    fn stamp_send(&mut self, dst: usize, elems: u64) -> (f64, f64, bool) {
        assert!(dst < self.size, "send to rank {dst} out of range (size {})", self.size);
        assert_ne!(dst, self.rank, "self-sends are not modeled; keep local data local");
        if self.free_mode {
            // Instrumentation traffic: deliver immediately, charge and log
            // nothing — chaos does not apply (and consumes no jitter draws).
            // The clean β still travels along in case the receiver is not in
            // free mode (modes are supposed to agree, but don't silently
            // change the cost if they don't).
            (f64::NEG_INFINITY, self.link_params(dst).1, false)
        } else {
            self.apply_pause();
            let (alpha, beta) = self.link_params(dst);
            let inj_start = self.now.max(self.inj_free);
            let (alpha_eff, beta_eff, perturbed) = match self.chaos.as_mut() {
                Some(view) => {
                    let p = view.send_perturb(dst, inj_start);
                    // Classify the applied perturbation by kind for the
                    // chaos.* counters: latency jitter vs link degradation
                    // (a draw can carry both; count each once).
                    self.tally.chaos_jitter += u64::from(p.extra_latency > 0.0);
                    self.tally.chaos_degrade +=
                        u64::from(p.alpha_mult != 1.0 || p.beta_mult != 1.0);
                    (alpha * p.alpha_mult + p.extra_latency, beta * p.beta_mult, p.is_perturbed())
                }
                None => (alpha, beta, false),
            };
            self.inj_free = inj_start + beta_eff * elems as f64;
            let cell = &mut self.cells[self.phase_id as usize];
            cell.messages += 1;
            cell.elements += elems;
            if self.metrics.enabled {
                let t = &mut self.tally;
                t.tx_bytes += elems * 4;
                t.msg_elems.record(elems);
                // A flat network counts everything as inter-node fabric.
                if self.topo.as_ref().is_some_and(|t| t.is_intra(self.rank, dst)) {
                    t.intra_bytes += elems * 4;
                } else {
                    t.inter_bytes += elems * 4;
                }
            }
            let inj_end = self.inj_free;
            self.record_tagged(inj_start, inj_end, TraceKind::Send { dst, elems }, perturbed);
            (inj_start + alpha_eff, beta_eff, perturbed)
        }
    }

    fn post(
        &mut self,
        dst: usize,
        tag: Tag,
        stamp: (f64, f64, bool),
        elems: u64,
        payload: Payload,
    ) {
        let (head_arrival, beta, perturbed) = stamp;
        let env = Envelope { src: self.rank, tag, head_arrival, elems, beta, perturbed, payload };
        self.core.post(dst, env);
    }

    /// Non-blocking typed send to `dst`.
    ///
    /// Charges the injection port for `β·L` and stamps the head arrival time
    /// `α` after injection start; the sender's own clock does not advance
    /// (DMA-style injection), but [`local_finish_time`](Self::local_finish_time)
    /// and [`barrier`](Self::barrier) account for the port occupancy.
    pub fn send<T: WireSize + Send + 'static>(&mut self, dst: usize, tag: Tag, value: T) {
        let elems = value.wire_elems();
        let stamp = self.stamp_send(dst, elems);
        self.post(dst, tag, stamp, elems, Payload::from_value(value));
    }

    /// [`send`](Self::send) returning a handle that records when the message
    /// has fully left the injection port (see [`crate::request`]). Kept for
    /// the frozen benchmark's message probe; collectives call `send`.
    pub fn isend<T: WireSize + Send + 'static>(
        &mut self,
        dst: usize,
        tag: Tag,
        value: T,
    ) -> SendHandle {
        self.send(dst, tag, value);
        SendHandle::new(if self.free_mode { self.now } else { self.inj_free })
    }

    /// Send a reference-counted payload: fan-out senders (broadcast relays,
    /// allgather rings) clone the `Arc`, not the buffer, so one allocation
    /// serves every destination. Wire cost is charged per message as usual.
    /// The receiver must use [`recv_shared`](Self::recv_shared).
    pub fn send_shared<T: WireSize + Send + Sync + 'static>(
        &mut self,
        dst: usize,
        tag: Tag,
        value: Arc<T>,
    ) {
        let elems = value.wire_elems();
        let stamp = self.stamp_send(dst, elems);
        self.post(dst, tag, stamp, elems, Payload::Shared(value));
    }

    /// Complete the reception of a drained envelope: serialize on the reception
    /// port, advance the clock, and trace the drain interval. The per-element
    /// time comes from the envelope — the sender evaluated any chaos link
    /// degradation at injection start, so both endpoints charge the same β
    /// (bit-identical to the clean link's β when no plan is installed).
    fn complete_reception(&mut self, env: &Envelope) {
        if self.free_mode {
            return;
        }
        self.apply_pause();
        let rcv_start = env.head_arrival.max(self.rcv_free);
        let done = rcv_start + env.beta * env.elems as f64;
        self.rcv_free = done;
        if self.metrics.enabled {
            // Virtual seconds this rank's clock jumps forward waiting for the
            // body to drain — the per-rank recv-wait metric.
            self.tally.recv_wait += (done - self.now).max(0.0);
            self.tally.rx_bytes += env.elems * 4;
        }
        self.now = self.now.max(done);
        // Clamp the traced pair consistently: a negative head_arrival at t≈0
        // (free-mode sender, zero-α model) must not produce start > end. The
        // same clamp covers perturbed pairs — both glyphs of a Recv stay
        // inside [0, done].
        let start = rcv_start.max(0.0).min(done);
        let (src, elems) = (env.src, env.elems);
        self.record_tagged(start, done.max(start), TraceKind::Recv { src, elems }, env.perturbed);
    }

    fn unwrap_payload<T: Send + 'static>(&self, env: Envelope, src: usize, tag: Tag) -> T {
        env.payload.into_value::<T>().unwrap_or_else(|found| {
            panic!(
                "rank {}: type mismatch receiving from {src} tag {tag} (expected {}, found {found})",
                self.rank,
                std::any::type_name::<T>()
            )
        })
    }

    /// Blocking typed receive of the next message from `src` with `tag`.
    ///
    /// Completes, in virtual time, when the message body has streamed through this
    /// rank's reception port: `max(head_arrival, port_free) + β·L`.
    pub fn recv<T: Send + 'static>(&mut self, src: usize, tag: Tag) -> T {
        let env = self.core.next_envelope(self.rank, src, tag, self.now);
        self.complete_reception(&env);
        self.unwrap_payload(env, src, tag)
    }

    /// Blocking receive of a payload sent with [`send_shared`](Self::send_shared).
    /// Timing semantics are identical to [`recv`](Self::recv).
    pub fn recv_shared<T: Send + Sync + 'static>(&mut self, src: usize, tag: Tag) -> Arc<T> {
        let env = self.core.next_envelope(self.rank, src, tag, self.now);
        self.complete_reception(&env);
        env.payload.into_shared::<T>().unwrap_or_else(|found| {
            panic!(
                "rank {}: type mismatch receiving shared from {src} tag {tag} \
                 (expected Arc<{}>, found {found})",
                self.rank,
                std::any::type_name::<T>()
            )
        })
    }

    /// Combined send-then-receive, the idiom of ring and recursive-doubling steps.
    pub fn sendrecv<S, R>(
        &mut self,
        dst: usize,
        send_tag: Tag,
        value: S,
        src: usize,
        recv_tag: Tag,
    ) -> R
    where
        S: WireSize + Send + 'static,
        R: Send + 'static,
    {
        self.send(dst, send_tag, value);
        self.recv(src, recv_tag)
    }

    /// Envelopes delivered to this rank and not yet received: early
    /// arrivals wait in the inbox until a receive matches them.
    pub fn pending_envelopes(&self) -> usize {
        self.core.pending(self.rank)
    }

    /// Add this rank's [`Tally`] into the registry and empty it (the
    /// recv-wait sum is stored, not added).
    fn publish(&mut self) {
        if !self.metrics.enabled {
            return;
        }
        let (m, t, rank) = (&self.metrics, &mut self.tally, self.rank);
        m.tx_bytes.add(rank, std::mem::take(&mut t.tx_bytes));
        m.rx_bytes.add(rank, std::mem::take(&mut t.rx_bytes));
        m.intra_bytes.add(rank, std::mem::take(&mut t.intra_bytes));
        m.inter_bytes.add(rank, std::mem::take(&mut t.inter_bytes));
        m.recv_wait.set(rank, t.recv_wait);
        m.msg_elems.publish(&mut t.msg_elems);
        m.chaos_straggler.add(std::mem::take(&mut t.chaos_straggler));
        m.chaos_jitter.add(std::mem::take(&mut t.chaos_jitter));
        m.chaos_degrade.add(std::mem::take(&mut t.chaos_degrade));
        m.chaos_pause.add(std::mem::take(&mut t.chaos_pause));
    }

    /// The rank's closure returned: publish its tallies and hand back its
    /// finish time and ledger cells.
    pub(crate) fn exit(mut self) -> (f64, Vec<PhaseVolume>) {
        self.publish();
        (self.local_finish_time(), self.cells)
    }

    /// Synchronize all ranks; clocks advance to the cluster-wide maximum (including
    /// pending injection work) plus a dissemination-barrier latency of `α·⌈log2 P⌉`.
    /// Publishes this rank's per-message metrics first, so a registry snapshot
    /// taken right after a barrier sees every rank's traffic up to it.
    pub fn barrier(&mut self) {
        self.apply_pause();
        self.publish();
        let t_in = self.local_finish_time();
        let t_max = self.core.barrier_wait(self.rank, t_in, self.now);
        self.now = t_max + barrier_latency(&self.cost, self.size);
        self.rcv_free = self.rcv_free.max(self.now);
        self.inj_free = self.inj_free.max(self.now);
        let end = self.now;
        self.record(t_in, end, TraceKind::Barrier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_latency_is_log2() {
        let c = CostModel { alpha: 1.0, beta: 0.0 };
        assert_eq!(barrier_latency(&c, 1), 0.0);
        assert_eq!(barrier_latency(&c, 2), 1.0);
        assert_eq!(barrier_latency(&c, 3), 2.0);
        assert_eq!(barrier_latency(&c, 4), 2.0);
        assert_eq!(barrier_latency(&c, 5), 3.0);
        assert_eq!(barrier_latency(&c, 8), 3.0);
        assert_eq!(barrier_latency(&c, 9), 4.0);
    }

    #[test]
    fn pool_budget_reserve_release_roundtrip() {
        let b = PoolBudget::new(100);
        assert!(b.try_reserve(60));
        assert!(!b.try_reserve(60), "over-budget reservation must fail");
        assert!(b.try_reserve(40));
        assert_eq!(b.remaining_bytes(), 0);
        b.release(60);
        assert!(b.try_reserve(60));
    }

    #[test]
    fn zero_pool_budget_rejects_everything() {
        let b = PoolBudget::new(0);
        assert!(!b.try_reserve(1));
        assert!(b.try_reserve(0), "zero-byte reservation is vacuously fine");
    }
}
