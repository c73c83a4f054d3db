//! The execution engine of [`crate::Cluster`]: a discrete-event core.
//!
//! ## Why run tokens
//!
//! Giving every rank its own runnable OS thread and letting the kernel
//! schedule them is correct — clock arithmetic only reads per-rank program
//! order and matched message order — but the *cost* of that interleaving
//! grows with P: at 1024+ ranks the host scheduler thrashes between hundreds
//! of runnable threads, blocked receives burn wakeups, and sweeps that the
//! paper runs at 256 nodes become intractable in one process.
//!
//! The engine ([`EventCore`]) keeps one thread per rank — the thread *is* the
//! rank's continuation, so the blocking [`crate::Comm`] API is preserved
//! verbatim — but hands out **run tokens** from a virtual-time scheduler
//! instead of letting the OS pick. At most `workers` ranks are
//! runnable at any instant; every blocking point (recv with an empty inbox,
//! barrier arrival) parks the rank inside the core and releases its token, and
//! message delivery / barrier release marks ranks ready again. The ready queue
//! is ordered by `(virtual clock, rank id)` — lowest clock first, rank id as
//! the tie-break — so execution tracks the modeled timeline, which keeps
//! cross-rank backlogs small and makes progress order reproducible.
//!
//! Because every token count runs the same per-rank programs over the same
//! matched message streams, W = 1 (one rank at a time, a deterministic grant
//! order) and W ≥ P (every rank its own runnable OS thread, the kernel's
//! interleaving) produce **bit-identical** clocks, gradients and ledgers; the
//! schedule-invariance suites hold every W to W = 1's answer. EXPERIMENTS.md
//! § "One engine" tabulates which scheduler bugs those suites, and the tests
//! beside them, catch.
//!
//! ## The scheduler
//!
//! In the P ≥ 1024 regime host wall time tracks `engine.parks`: a blocking
//! point that pays a global-lock transaction, a condvar signal (futex syscall)
//! and a futex sleep costs ~15–35 µs, and a message that serializes on the
//! scheduler lock costs every rank. The scheduler avoids those constant
//! factors three ways:
//!
//! 1. **Direct handoff** — when a running rank blocks, it picks the next rank
//!    and transfers its run token *in the same lock hold* that parked it,
//!    preferring the *producer* it is waiting on (following the recv wait-for
//!    chain up to [`WAITCHAIN_MAX`] hops to the first ready ancestor) over the
//!    lowest-clock heap head: demand-driven order keeps the dataflow chain on
//!    a warm cache, and one producer's sends satisfy many consumers at once.
//!    The wakeup itself is a lock-free `Thread::unpark` issued after the lock
//!    is released — its sticky permit cannot lose a race, unparking a thread
//!    that is mid-spin is a plain atomic store with no syscall
//!    (`engine.handoff_hit`), and only a genuinely parked target costs a futex
//!    wake (`engine.handoff_miss`). Neither side of the handoff reacquires
//!    the scheduler lock, so granter and wakee never contend for it.
//! 2. **Cohort wakeups** — a barrier release makes all P ranks ready at once;
//!    instead of P heap transactions it appends the whole release set, sorted
//!    by `(clock, rank)`, to a FIFO *cohort* drained by subsequent grants in
//!    O(1) (one notify pass; W > 1 workers drain the cohort concurrently).
//!    Heap refills likewise pop the entire equal-timestamp run in one lock
//!    acquisition (`engine.cohort_size` histograms both).
//! 3. **Adaptive spin-then-park** — a parking continuation spins briefly on
//!    its token word before the `park()` fallback, gated by *two* EWMAs: the
//!    inter-park gap (events must be dense) and the recent spin hit rate
//!    (spins must actually be landing — re-probed every 64th park so a phase
//!    change can re-arm it). In relay-shaped phases the yield loop replaces
//!    both futex syscalls and the handoff runs at memory speed; in all-rank
//!    wave phases the controller disarms itself and parks immediately.
//!    `engine.spin_hit` vs `engine.spin_park` count the outcomes.
//!
//! The critical section itself is small: message delivery and wait registration
//! live behind **per-rank inbox locks**. Only the owning rank pops its inbox and
//! registers what it waits for, and only one matching sender can claim a
//! registered wait (single-writer invariants), so a non-matching send — the
//! common case in bucketed collectives — never touches the scheduler lock at
//! all. A send that lands in the window between wait registration and the
//! park marks `wake_pending` under the scheduler lock and the receiver
//! *continues inline*, keeping its token (`engine.park_elided`); the claim /
//! `wake_pending` handshake is ordered by the scheduler lock, so the wakeup
//! cannot be lost.
//!
//! ## Exact deadlock detection
//!
//! The core knows the whole cluster state: if no rank holds a run token,
//! the ready queue (heap and cohort FIFO) is empty and unfinished ranks remain,
//! the simulation cannot ever progress. The core then records a fault report
//! that names every blocked rank and walks the recv wait-for graph to print the
//! cycle, and all parked ranks unwind quietly (see [`Cascade`]).

use crate::comm::Tag;
use crate::envelope::Envelope;
use parking_lot::{Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Cap on the optional scheduler event log: a runaway sweep must not hoard
/// unbounded memory just because scheduler tracing was left on.
const SCHED_LOG_MAX: usize = 1 << 20;

/// Spin gate, part 1: a parked continuation may spin only while the EWMA of
/// recent inter-park gaps is below this (nanoseconds). Dense-event phases
/// (P ≥ 1024 sweeps park every few µs) qualify; sparse phases go straight to
/// `park()`.
const SPIN_GAP_NS: u64 = 200_000;

/// Busy iterations (`spin_loop` hint) before the spin phase starts yielding
/// the core — the cheap window that catches a token granted by another worker
/// already running on a different CPU.
const SPIN_CHEAP: u32 = 64;

/// `yield_now` iterations after the busy window. On a single-core host this
/// is the whole game: a recently-parked rank stays *runnable* instead of
/// futex-sleeping, so when the token holder blocks, the kernel switches
/// straight to it — no futex wake, no futex wait, one cheap switch.
const SPIN_YIELDS: u32 = 8;

/// Spin gate, part 2 — fixed-point one for the spin hit-rate EWMA. Whether a
/// spin can succeed depends on the communication *shape*: in chain/ping-pong
/// phases the next token lands within a few events of the park (spins hit);
/// in all-rank wave phases it arrives ~P events later (spins always miss and
/// every yield is churn). The shape is observable as the recent hit rate.
const SPIN_OK_ONE: u32 = 1 << 16;

/// Spin only while the hit-rate EWMA clears 7/8. The bar is this high because
/// the costs are asymmetric: a hit saves a couple of µs of futex round-trip,
/// but a miss burns the whole yield budget in context-switch churn against
/// the thread doing real work — an order of magnitude more. Only phases where
/// spins almost always land are worth spinning in.
const SPIN_OK_MIN: u32 = SPIN_OK_ONE / 8 * 7;

/// 1-in-64 parks probe the spin path even when the controller says no, so a
/// workload phase change (wave → chain) can re-enable it, at a bounded
/// average overhead per park in the disabled regime.
const SPIN_PROBE_MASK: u64 = 63;

/// Maximum wait-for hops the targeted-handoff walk follows from a parking
/// receiver towards a runnable producer before giving up on the chain.
const WAITCHAIN_MAX: usize = 16;

/// One scheduler decision of the event engine, recorded (only) when
/// [`crate::Cluster::with_sched_trace`] is on — the profiling signal for the
/// P ≥ 1024 run-token hand-off investigation. Exported to its own track by
/// [`crate::trace::export_chrome`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedEvent {
    /// The rank's virtual clock at the decision.
    pub vclock: f64,
    /// The rank the decision concerns.
    pub rank: usize,
    /// What the scheduler did.
    pub kind: SchedKind,
}

/// The kind of a [`SchedEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedKind {
    /// A run token was granted to the rank.
    Grant,
    /// A run token was transferred to the rank by a blocking rank in the same
    /// lock hold (direct handoff).
    Handoff,
    /// The rank was about to park in a receive when the matching message
    /// landed; it kept its token and continued inline.
    Elide,
    /// The rank parked in a blocking receive (token released).
    RecvPark,
    /// The rank parked at the cluster barrier (token released).
    BarrierPark,
    /// The rank's closure returned.
    Finish,
}

/// Scheduler metric handles (Host class: token traffic and queue depths are
/// properties of the simulating host's execution, not of modeled time).
#[derive(Clone)]
pub(crate) struct EngineMetrics {
    token_grants: obs::Counter,
    parks: obs::Counter,
    /// Parks split per cause, so wall-time wins are attributable.
    parks_recv: obs::Counter,
    parks_barrier: obs::Counter,
    ready_depth_max: obs::Gauge,
    /// Direct handoffs whose futex wake was elided (target was mid-spin).
    handoff_hit: obs::Counter,
    /// Direct handoffs that had to wake a parked target.
    handoff_miss: obs::Counter,
    /// Parks elided entirely: the matching message landed between wait
    /// registration and the park, so the rank kept its token.
    park_elided: obs::Counter,
    /// Tokens consumed during the spin phase (no futex sleep).
    spin_hit: obs::Counter,
    /// Tokens consumed via the `park()` fallback.
    spin_park: obs::Counter,
    /// Sizes of ready cohorts (equal-timestamp heap runs, barrier releases).
    cohort_size: obs::Histogram,
}

impl EngineMetrics {
    pub(crate) fn new(reg: &obs::Registry) -> Self {
        use obs::Class::Host;
        Self {
            token_grants: reg.counter("engine.token_grants", Host),
            parks: reg.counter("engine.parks", Host),
            parks_recv: reg.counter("engine.parks_recv", Host),
            parks_barrier: reg.counter("engine.parks_barrier", Host),
            ready_depth_max: reg.gauge("engine.ready_depth_max", Host),
            handoff_hit: reg.counter("engine.handoff_hit", Host),
            handoff_miss: reg.counter("engine.handoff_miss", Host),
            park_elided: reg.counter("engine.park_elided", Host),
            spin_hit: reg.counter("engine.spin_hit", Host),
            spin_park: reg.counter("engine.spin_park", Host),
            cohort_size: reg.histogram("engine.cohort_size", Host),
        }
    }
}

/// The execution engine. There is exactly one; the type and
/// [`crate::Cluster::with_engine`] exist only because `benchmark/src/runner.rs`
/// (frozen outside this crate) names them, and go when a benchmark PR drops
/// those calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Discrete-event core: one thread per rank as a parked continuation, a
    /// bounded set of run tokens granted in virtual-time order, and exact
    /// (watchdog-free) deadlock detection.
    #[default]
    Event,
}

/// The event engine's dispatch path. There is exactly one; the type and
/// [`crate::Cluster::with_sched`] exist only because `benchmark/src/runner.rs:45`
/// (frozen outside this crate) names them, and go when a benchmark PR drops
/// that call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedMode {
    /// Direct run-token handoff, cohort wakeups, adaptive spin-then-park and
    /// per-rank inbox locks (see the module docs).
    Fast,
}

/// Panic payload for ranks aborted *because some other rank failed* (panic or
/// detected deadlock). Unwinding with `resume_unwind` and this marker skips
/// the panic hook, so a 1000-rank cascade prints nothing; the cluster joiner
/// recognizes the marker and reports the original fault instead.
pub(crate) struct Cascade;

/// Quietly unwind the current rank as a casualty of another rank's fault.
pub(crate) fn cascade() -> ! {
    std::panic::resume_unwind(Box::new(Cascade))
}

/// Ready-queue key: virtual clock first (total order via `total_cmp`), rank id
/// as the deterministic tie-break. Wrapped in `Reverse` inside the heap so the
/// *lowest* virtual time is granted first.
#[derive(Clone, Copy, Debug)]
struct ReadyKey {
    clock: f64,
    rank: usize,
}

impl PartialEq for ReadyKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for ReadyKey {}
impl PartialOrd for ReadyKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.clock.total_cmp(&other.clock).then(self.rank.cmp(&other.rank))
    }
}

/// What a rank continuation is doing, from the scheduler's point of view.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Status {
    /// In the ready queue (heap or cohort FIFO), waiting for a run token.
    Ready,
    /// Holds a run token; its thread is executing user code.
    Running,
    /// Parked in a blocking receive for `(src, tag)` with an empty inbox.
    RecvWait { src: usize, tag: Tag },
    /// Parked at the cluster barrier.
    BarrierWait,
    /// Returned from its closure (or was torn down by a fault).
    Done,
}

struct RankSlot {
    status: Status,
    /// Virtual clock at the last park — the ready-queue priority when woken.
    clock: f64,
}

/// Per-rank delivery state, behind its *own* lock so the scheduler
/// lock never serializes message payload movement. Single-writer invariants:
/// only the owning rank pops `q` and registers `waiting`; only the one sender
/// whose `(src, tag)` matches a registered wait can claim it (and a rank
/// registers one wait at a time), so claim/requeue races cannot duplicate or
/// lose a wakeup.
struct RankInbox {
    /// Messages delivered to this rank, in arrival order.
    q: VecDeque<Envelope>,
    /// The `(src, tag)` the owning rank is about to park for; a matching
    /// sender claims the wake by clearing it.
    waiting: Option<(usize, Tag)>,
    /// The owning rank finished — a send here can never be received.
    done: bool,
}

/// Per-rank wake word. `token` is the run token itself (set by the
/// granter under the scheduler lock, consumed by the wakee without any lock);
/// `handle` is the rank's OS thread, woken by `Thread::unpark` — its sticky
/// permit makes lost wakeups impossible with no lock on the sleep side, and
/// unparking a thread that is not parked is a plain atomic store, no syscall.
/// `sleeping` only feeds the handoff hit/miss statistics.
struct WakeSlot {
    token: AtomicU32,
    sleeping: AtomicBool,
    handle: OnceLock<std::thread::Thread>,
}

struct CoreState {
    ranks: Vec<RankSlot>,
    ready: BinaryHeap<Reverse<ReadyKey>>,
    /// Ranks ready at the current virtual-time frontier, granted FIFO in
    /// `(clock, rank)` order without further heap transactions.
    cohort: VecDeque<usize>,
    /// Set (under this lock) by a matching sender that caught the
    /// receiver *between* wait registration and the park; the receiver
    /// consumes it in its park transaction and continues inline instead.
    wake_pending: Vec<bool>,
    /// Ranks currently holding a run token.
    running: usize,
    /// Ranks whose closure returned.
    finished: usize,
    /// Barrier arrivals this episode (no generation counter needed: an episode
    /// cannot restart until every rank it released has resumed past the point
    /// where its [`EventCore::release_bits`] snapshot was read — all `size`
    /// ranks must re-arrive first, and a released-but-unresumed rank cannot
    /// arrive).
    bar_arrived: usize,
    bar_max: f64,
    /// First fault (rank panic or detected deadlock); once set, every rank
    /// that touches the core unwinds with [`Cascade`].
    fault: Option<String>,
    /// Scheduler decisions, recorded only when tracing is on (bounded by
    /// [`SCHED_LOG_MAX`]).
    sched: Vec<SchedEvent>,
}

impl CoreState {
    fn log_sched(&mut self, on: bool, vclock: f64, rank: usize, kind: SchedKind) {
        if on && self.sched.len() < SCHED_LOG_MAX {
            self.sched.push(SchedEvent { vclock, rank, kind });
        }
    }
}

/// Shared state of the discrete-event engine for one [`crate::Cluster::run`].
pub(crate) struct EventCore {
    size: usize,
    workers: usize,
    /// Scheduler metric handles; `None` when the run has no registry wired.
    metrics: Option<EngineMetrics>,
    /// Whether scheduler decisions are logged for trace export.
    sched_trace: bool,
    state: Mutex<CoreState>,
    /// Per-rank delivery state (messages + wait registration).
    inboxes: Vec<Mutex<RankInbox>>,
    /// Per-rank run-token words.
    wake: Vec<WakeSlot>,
    /// Per-rank grant buffers: the ranks a scheduler transaction handed tokens
    /// to, signalled by [`Self::flush_grants`] once the scheduler lock is
    /// released. Slot `r` is locked only by rank `r`'s own thread, for the
    /// length of one transaction, so the lock is never contended; the buffer
    /// is reused across transactions so a park or post that passes a token on
    /// does not allocate in steady state.
    grants: Vec<Mutex<Vec<usize>>>,
    /// Barrier release snapshots as `f64` bits — written by the releasing rank
    /// before it grants tokens, read by each released rank after it acquires
    /// its token, so no lock is needed on the read side.
    release_bits: Vec<AtomicU64>,
    /// Mirrors `CoreState::fault.is_some()` so lock-free spinners notice a
    /// teardown without touching the scheduler lock.
    fault_flag: AtomicBool,
    /// Origin for the inter-park gap EWMA timestamps.
    t0: Instant,
    /// Nanoseconds (since `t0`) of the most recent park, any rank.
    last_park_ns: AtomicU64,
    /// EWMA (α = 1/8) of inter-park gaps in nanoseconds; gates the spin phase.
    gap_ewma_ns: AtomicU64,
    /// EWMA (α = 1/8, fixed-point [`SPIN_OK_ONE`]) of spin outcomes; the
    /// hit-rate half of the spin gate.
    spin_ok: AtomicU32,
    /// Park sequence number, for the 1-in-[`SPIN_PROBE_MASK`]+1 spin probes.
    park_seq: AtomicU64,
}

impl EventCore {
    pub(crate) fn new(
        size: usize,
        workers: usize,
        metrics: Option<EngineMetrics>,
        sched_trace: bool,
    ) -> Self {
        assert!(size >= 1 && workers >= 1);
        let ranks = (0..size).map(|_| RankSlot { status: Status::Ready, clock: 0.0 }).collect();
        let ready = (0..size).map(|rank| Reverse(ReadyKey { clock: 0.0, rank })).collect();
        Self {
            size,
            workers,
            metrics,
            sched_trace,
            state: Mutex::new(CoreState {
                ranks,
                ready,
                cohort: VecDeque::new(),
                wake_pending: vec![false; size],
                running: 0,
                finished: 0,
                bar_arrived: 0,
                bar_max: f64::NEG_INFINITY,
                fault: None,
                sched: Vec::new(),
            }),
            inboxes: (0..size)
                .map(|_| Mutex::new(RankInbox { q: VecDeque::new(), waiting: None, done: false }))
                .collect(),
            wake: (0..size)
                .map(|_| WakeSlot {
                    token: AtomicU32::new(0),
                    sleeping: AtomicBool::new(false),
                    handle: OnceLock::new(),
                })
                .collect(),
            // One transaction grants at most `workers` ranks (and never more
            // than exist); the Vec still grows if that bound is ever wrong.
            grants: (0..size)
                .map(|_| Mutex::new(Vec::with_capacity(workers.min(size) + 1)))
                .collect(),
            release_bits: (0..size).map(|_| AtomicU64::new(0)).collect(),
            fault_flag: AtomicBool::new(false),
            t0: Instant::now(),
            last_park_ns: AtomicU64::new(0),
            gap_ewma_ns: AtomicU64::new(SPIN_GAP_NS),
            spin_ok: AtomicU32::new(SPIN_OK_MIN),
            park_seq: AtomicU64::new(0),
        }
    }

    /// Next ready rank in `(clock, rank)` order — O(1) from the
    /// cohort FIFO, refilled by popping the heap's whole equal-timestamp run
    /// in one transaction. Entries whose rank is no longer `Ready` are stale
    /// leftovers from a targeted handoff (which grants out of band without
    /// digging them out of the heap) and are skipped lazily here.
    fn pop_next_ready(&self, st: &mut CoreState) -> Option<ReadyKey> {
        loop {
            if let Some(rank) = st.cohort.pop_front() {
                if st.ranks[rank].status == Status::Ready {
                    return Some(ReadyKey { clock: st.ranks[rank].clock, rank });
                }
                continue;
            }
            let Reverse(head) = st.ready.pop()?;
            let mut n = 1u64;
            while let Some(&Reverse(k)) = st.ready.peek() {
                if k.clock.total_cmp(&head.clock).is_eq() {
                    st.ready.pop();
                    st.cohort.push_back(k.rank);
                    n += 1;
                } else {
                    break;
                }
            }
            if st.ranks[head.rank].status != Status::Ready {
                continue;
            }
            if let Some(m) = &self.metrics {
                m.cohort_size.record(n);
            }
            return Some(head);
        }
    }

    /// Grant tokens while slots are free. Sets each target's token word under
    /// the lock but defers the (possibly elided) wake to
    /// [`Self::flush_grants`], which the caller runs after unlocking. `direct`
    /// marks grants performed inside a blocking rank's own park transaction —
    /// the direct-handoff path.
    fn schedule(&self, st: &mut CoreState, direct: bool, granted: &mut Vec<usize>) {
        // Amortized stale purge: targeted grants leave dead heap entries
        // behind; rebuild once they dominate so memory stays O(size).
        if st.ready.len() > 8 * self.size + 64 {
            st.ready.retain(|&Reverse(k)| st.ranks[k.rank].status == Status::Ready);
        }
        if let Some(m) = &self.metrics {
            m.ready_depth_max.set_max((st.ready.len() + st.cohort.len()) as u64);
        }
        while st.running < self.workers {
            let Some(key) = self.pop_next_ready(st) else { break };
            let kind = if direct { SchedKind::Handoff } else { SchedKind::Grant };
            self.grant_rank(st, key.rank, kind, granted);
        }
    }

    /// Set `rank` (must be `Ready`) running and queue its wakeup. Any heap or
    /// cohort entry still naming it goes stale and is skipped at pop time.
    fn grant_rank(
        &self,
        st: &mut CoreState,
        rank: usize,
        kind: SchedKind,
        granted: &mut Vec<usize>,
    ) {
        debug_assert_eq!(st.ranks[rank].status, Status::Ready);
        st.ranks[rank].status = Status::Running;
        st.running += 1;
        if let Some(m) = &self.metrics {
            m.token_grants.inc();
        }
        let clock = st.ranks[rank].clock;
        st.log_sched(self.sched_trace, clock, rank, kind);
        self.wake[rank].token.store(1, Ordering::SeqCst);
        granted.push(rank);
    }

    /// Signal granted ranks *after* the scheduler lock is released: a wakee
    /// mid-spin (or not yet asleep) consumes its token without any syscall,
    /// and the unpark is a plain permit store (handoff hit); only a parked
    /// thread costs a futex wake (handoff miss). Never loses a wakeup: the
    /// token word was set under the lock, the wakee re-checks it before every
    /// `park()`, and an `unpark` that races ahead just leaves a sticky permit
    /// the next `park()` consumes immediately. Consumes the caller's grant
    /// buffer guard: flushing ends the transaction and leaves the buffer empty
    /// for the next one.
    fn flush_grants(&self, direct: bool, mut granted: MutexGuard<'_, Vec<usize>>) {
        for rank in granted.drain(..) {
            let slot = &self.wake[rank];
            if direct {
                if let Some(m) = &self.metrics {
                    if slot.sleeping.load(Ordering::SeqCst) {
                        m.handoff_miss.inc();
                    } else {
                        m.handoff_hit.inc();
                    }
                }
            }
            // None only before the rank's thread reached `start`; it then
            // finds its token already set before ever parking.
            if let Some(t) = slot.handle.get() {
                t.unpark();
            }
        }
    }

    /// Record a park for the inter-park gap EWMA (the spin gate).
    fn note_park_gap(&self) {
        let now = self.t0.elapsed().as_nanos() as u64;
        let last = self.last_park_ns.swap(now, Ordering::Relaxed);
        let gap = now.saturating_sub(last);
        let e = self.gap_ewma_ns.load(Ordering::Relaxed);
        self.gap_ewma_ns.store(e - e / 8 + gap / 8, Ordering::Relaxed);
    }

    /// Record a spin outcome in the hit-rate EWMA (the spin gate).
    /// Asymmetric on purpose: a couple of probe hits re-arm spinning quickly
    /// when a phase turns spin-friendly, while a single miss near the (high)
    /// threshold is enough to disarm it — misses are what cost.
    fn note_spin(&self, hit: bool) {
        let e = self.spin_ok.load(Ordering::Relaxed);
        let e = if hit { e + (SPIN_OK_ONE - e) / 2 } else { e - e / 4 };
        self.spin_ok.store(e, Ordering::Relaxed);
    }

    /// Wait for this rank's run token. Spins lock-free while the adaptive gate
    /// allows — events must be dense (inter-park gap EWMA) *and* recent spins
    /// must actually be hitting (hit-rate EWMA, re-probed every 64th park) —
    /// then falls back to `thread::park`. Cascades if a fault lands first.
    fn wait_token(&self, rank: usize) {
        let slot = &self.wake[rank];
        let dense = self.gap_ewma_ns.load(Ordering::Relaxed) < SPIN_GAP_NS;
        let spin = dense && {
            let seq = self.park_seq.fetch_add(1, Ordering::Relaxed);
            self.spin_ok.load(Ordering::Relaxed) >= SPIN_OK_MIN || seq & SPIN_PROBE_MASK == 0
        };
        if spin {
            let mut i = 0u32;
            while i < SPIN_CHEAP + SPIN_YIELDS && !self.fault_flag.load(Ordering::Relaxed) {
                if slot.token.load(Ordering::SeqCst) == 1 {
                    slot.token.store(0, Ordering::SeqCst);
                    self.note_spin(true);
                    if let Some(m) = &self.metrics {
                        m.spin_hit.inc();
                    }
                    return;
                }
                if i < SPIN_CHEAP {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                i += 1;
            }
            self.note_spin(false);
        }
        // Lock-free sleep: no scheduler-lock reacquisition on either side of
        // the handoff, so granter and wakee never contend for it — the
        // unpark permit alone carries the wakeup.
        if let Some(m) = &self.metrics {
            m.spin_park.inc();
        }
        slot.sleeping.store(true, Ordering::SeqCst);
        loop {
            if self.fault_flag.load(Ordering::SeqCst) {
                slot.sleeping.store(false, Ordering::SeqCst);
                cascade();
            }
            if slot.token.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::park();
        }
        slot.sleeping.store(false, Ordering::SeqCst);
        slot.token.store(0, Ordering::SeqCst);
    }

    /// Drain the scheduler event log (empty unless tracing was on).
    pub(crate) fn take_sched(&self) -> Vec<SchedEvent> {
        std::mem::take(&mut self.state.lock().sched)
    }

    /// If nothing can ever run again, record the deadlock fault and wake every
    /// continuation so the run tears down immediately (no watchdog involved).
    /// Every caller runs [`Self::schedule`] first, which with no token out
    /// stops only once [`Self::pop_next_ready`] has drained the queue, stale
    /// entries included — so a stale entry cannot mask a deadlock here.
    fn check_deadlock(&self, st: &mut CoreState) {
        if st.fault.is_some() || st.running > 0 || st.finished >= self.size {
            return;
        }
        if !st.ready.is_empty() || !st.cohort.is_empty() {
            return;
        }
        st.fault = Some(deadlock_report(st, self.size));
        self.fault_flag.store(true, Ordering::SeqCst);
        self.wake_everyone();
    }

    /// Teardown broadcast: wake every parked continuation so it sees the fault.
    fn wake_everyone(&self) {
        for slot in &self.wake {
            if let Some(t) = slot.handle.get() {
                t.unpark();
            }
        }
    }

    /// Called once by each rank thread before running user code: waits for the
    /// initial run-token grant (all ranks start Ready at clock 0).
    pub(crate) fn start(&self, rank: usize) {
        let _ = self.wake[rank].handle.set(std::thread::current());
        let mut granted = self.grants[rank].lock();
        {
            let mut st = self.state.lock();
            self.schedule(&mut st, false, &mut granted);
        }
        self.flush_grants(false, granted);
        self.wait_token(rank);
    }

    /// Pop the next envelope delivered to `rank` (arrival order), parking the
    /// continuation — token released, status `RecvWait(src, tag)` — whenever
    /// the inbox is empty. The caller matches/stashes envelopes in that order,
    /// which per `(src, tag)` is the send order, so the matched message order
    /// (and with it every clock) is the same at every worker count.
    pub(crate) fn next_envelope(&self, rank: usize, src: usize, tag: Tag, clock: f64) -> Envelope {
        if self.fault_flag.load(Ordering::Relaxed) {
            cascade();
        }
        loop {
            // Inbox scan under the rank's own lock: the hot pop never touches
            // the scheduler. An empty inbox registers the wait *here* so a
            // racing matching sender can claim it without the scheduler lock.
            {
                let mut ib = self.inboxes[rank].lock();
                if let Some(env) = ib.q.pop_front() {
                    return env;
                }
                ib.waiting = Some((src, tag));
            }
            let mut granted = self.grants[rank].lock();
            {
                let mut st = self.state.lock();
                if st.fault.is_some() {
                    cascade();
                }
                if st.wake_pending[rank] {
                    // The matching message landed between wait registration
                    // and this park transaction (the sender claimed the wait
                    // and found us still Running). Keep the token, continue
                    // inline; the envelope is already in the inbox.
                    st.wake_pending[rank] = false;
                    if let Some(m) = &self.metrics {
                        m.park_elided.inc();
                    }
                    st.log_sched(self.sched_trace, clock, rank, SchedKind::Elide);
                    continue;
                }
                st.ranks[rank].status = Status::RecvWait { src, tag };
                st.ranks[rank].clock = clock;
                st.running -= 1;
                if let Some(m) = &self.metrics {
                    m.parks.inc();
                    m.parks_recv.inc();
                }
                st.log_sched(self.sched_trace, clock, rank, SchedKind::RecvPark);
                self.note_park_gap();
                // Targeted handoff: walk the wait-for chain from the rank we
                // are waiting *on* and run the first ready producer along it —
                // demand-driven order beats lowest-clock order for rotation
                // all-to-all phases, where one producer's sends satisfy many
                // consumers at once. Bounded walk; a cycle (real deadlock)
                // just falls through to the regular scheduler + detector.
                if st.running < self.workers {
                    let mut cur = src;
                    for _ in 0..WAITCHAIN_MAX {
                        match st.ranks[cur].status {
                            Status::Ready => {
                                self.grant_rank(&mut st, cur, SchedKind::Handoff, &mut granted);
                                break;
                            }
                            Status::RecvWait { src: s, .. } if s != cur => cur = s,
                            _ => break,
                        }
                    }
                }
                self.schedule(&mut st, true, &mut granted);
                self.check_deadlock(&mut st);
            }
            self.flush_grants(true, granted);
            self.wait_token(rank);
        }
    }

    /// Deliver an envelope to `dst`. Wakes the destination only when it is
    /// parked waiting for exactly this `(src, tag)` — a non-matching arrival
    /// queues silently, sparing a futile wake/stash/re-block round-trip, and
    /// never takes the scheduler lock at all.
    pub(crate) fn post(&self, dst: usize, env: Envelope) {
        if self.fault_flag.load(Ordering::Relaxed) {
            cascade();
        }
        let sender = env.src;
        let claimed = {
            let mut ib = self.inboxes[dst].lock();
            if ib.done {
                panic!(
                    "rank {} sent to rank {dst} (tag {}), which already finished — \
                     message can never be received",
                    env.src, env.tag
                );
            }
            let claim = ib.waiting == Some((env.src, env.tag));
            if claim {
                ib.waiting = None;
            }
            ib.q.push_back(env);
            claim
        };
        if !claimed {
            return;
        }
        let mut granted = self.grants[sender].lock();
        {
            let mut st = self.state.lock();
            if st.fault.is_some() {
                cascade();
            }
            match st.ranks[dst].status {
                Status::RecvWait { .. } => {
                    let clock = st.ranks[dst].clock;
                    st.ranks[dst].status = Status::Ready;
                    st.ready.push(Reverse(ReadyKey { clock, rank: dst }));
                    self.schedule(&mut st, false, &mut granted);
                }
                // Claimed the wait but the receiver has not parked yet: flag
                // it so its park transaction continues inline instead. The
                // scheduler lock orders the two, so the wakeup cannot be lost.
                _ => {
                    debug_assert_eq!(st.ranks[dst].status, Status::Running);
                    st.wake_pending[dst] = true;
                }
            }
        }
        self.flush_grants(false, granted);
    }

    /// Barrier rendezvous: fold `value` into the episode maximum; the last
    /// arriver releases everyone with the result snapshot, earlier arrivers
    /// park (`BarrierWait`) and read the snapshot once rescheduled.
    pub(crate) fn barrier_wait(&self, rank: usize, value: f64, clock: f64) -> f64 {
        let mut granted = self.grants[rank].lock();
        let mut st = self.state.lock();
        if st.fault.is_some() {
            cascade();
        }
        st.bar_max = st.bar_max.max(value);
        st.bar_arrived += 1;
        if st.bar_arrived == self.size {
            let result = st.bar_max;
            st.bar_arrived = 0;
            st.bar_max = f64::NEG_INFINITY;
            // Cohort wakeup: every other rank is parked at this barrier (the
            // episode argument — all `size` arrived, we hold the only token),
            // so no live ready entry can exist and the whole release set can
            // skip the heap: sort once by (clock, rank), append to the FIFO.
            // Anything still queued is a stale targeted-handoff leftover;
            // clear it here so stale entries never outlive a barrier episode.
            debug_assert!(st.cohort.iter().all(|&r| st.ranks[r].status != Status::Ready));
            debug_assert!(st
                .ready
                .iter()
                .all(|&Reverse(k)| st.ranks[k.rank].status != Status::Ready));
            st.ready.clear();
            st.cohort.clear();
            let mut release: Vec<(f64, usize)> = (0..self.size)
                .filter(|&r| st.ranks[r].status == Status::BarrierWait)
                .map(|r| (st.ranks[r].clock, r))
                .collect();
            release.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            if let Some(m) = &self.metrics {
                if !release.is_empty() {
                    m.cohort_size.record(release.len() as u64);
                }
            }
            for &(_, r) in &release {
                st.ranks[r].status = Status::Ready;
                self.release_bits[r].store(result.to_bits(), Ordering::Relaxed);
                st.cohort.push_back(r);
            }
            self.schedule(&mut st, false, &mut granted);
            drop(st);
            self.flush_grants(false, granted);
            result
        } else {
            st.ranks[rank].status = Status::BarrierWait;
            st.ranks[rank].clock = clock;
            st.running -= 1;
            if let Some(m) = &self.metrics {
                m.parks.inc();
                m.parks_barrier.inc();
            }
            st.log_sched(self.sched_trace, clock, rank, SchedKind::BarrierPark);
            self.note_park_gap();
            self.schedule(&mut st, true, &mut granted);
            self.check_deadlock(&mut st);
            drop(st);
            self.flush_grants(true, granted);
            self.wait_token(rank);
            f64::from_bits(self.release_bits[rank].load(Ordering::Relaxed))
        }
    }

    /// Rank's closure returned: release its token and let the next rank run.
    /// Remaining blocked ranks (e.g. a recv from this now-finished rank) are
    /// caught by the deadlock check right here.
    pub(crate) fn finish(&self, rank: usize) {
        self.inboxes[rank].lock().done = true;
        let mut granted = self.grants[rank].lock();
        {
            let mut st = self.state.lock();
            st.ranks[rank].status = Status::Done;
            st.running -= 1;
            st.finished += 1;
            let clock = st.ranks[rank].clock;
            st.log_sched(self.sched_trace, clock, rank, SchedKind::Finish);
            self.schedule(&mut st, false, &mut granted);
            self.check_deadlock(&mut st);
        }
        self.flush_grants(false, granted);
    }

    /// Rank's closure panicked: record the fault (unless one is already set —
    /// then this unwind is itself a cascade and the counters were already
    /// settled) and wake every continuation so the cluster tears down.
    pub(crate) fn rank_panicked(&self, rank: usize) {
        let mut st = self.state.lock();
        if st.fault.is_none() {
            st.fault = Some(format!("rank {rank} panicked; aborting the run"));
            st.ranks[rank].status = Status::Done;
            st.running -= 1;
        }
        self.fault_flag.store(true, Ordering::SeqCst);
        self.wake_everyone();
    }

    /// The fault report, if the run was torn down (deadlock or rank panic).
    pub(crate) fn fault_message(&self) -> Option<String> {
        self.state.lock().fault.clone()
    }
}

/// Human-readable exact-deadlock report: every blocked rank with what it waits
/// for, plus the recv wait-for cycle (or chain) starting from the lowest
/// blocked rank.
fn deadlock_report(st: &CoreState, size: usize) -> String {
    const MAX_LISTED: usize = 16;
    let blocked: Vec<usize> = (0..size)
        .filter(|&r| matches!(st.ranks[r].status, Status::RecvWait { .. } | Status::BarrierWait))
        .collect();
    let mut msg = format!(
        "simnet deadlock (exact): no rank can ever run again — {} blocked, {} finished, {size} total\n",
        blocked.len(),
        st.finished
    );
    for &r in blocked.iter().take(MAX_LISTED) {
        match st.ranks[r].status {
            Status::RecvWait { src, tag } => {
                msg.push_str(&format!(
                    "  rank {r}: blocked in recv(src={src}, tag={tag}) at t={:.6e}\n",
                    st.ranks[r].clock
                ));
            }
            Status::BarrierWait => {
                msg.push_str(&format!(
                    "  rank {r}: blocked in barrier ({}/{size} arrived) at t={:.6e}\n",
                    st.bar_arrived, st.ranks[r].clock
                ));
            }
            _ => {}
        }
    }
    if blocked.len() > MAX_LISTED {
        msg.push_str(&format!("  ... and {} more blocked ranks\n", blocked.len() - MAX_LISTED));
    }
    // Walk the recv wait-for graph from the lowest recv-blocked rank.
    if let Some(&start) =
        blocked.iter().find(|&&r| matches!(st.ranks[r].status, Status::RecvWait { .. }))
    {
        let mut chain = vec![start];
        let mut cur = start;
        loop {
            let Status::RecvWait { src, .. } = st.ranks[cur].status else {
                msg.push_str(&format!(
                    "  wait chain: {} — rank {cur} is blocked in {}\n",
                    fmt_chain(&chain),
                    match st.ranks[cur].status {
                        Status::BarrierWait => "the barrier".to_string(),
                        other => format!("{other:?}"),
                    }
                ));
                break;
            };
            if let Some(pos) = chain.iter().position(|&r| r == src) {
                let mut cycle = chain[pos..].to_vec();
                cycle.push(src);
                msg.push_str(&format!("  recv cycle: {}\n", fmt_chain(&cycle)));
                break;
            }
            if st.ranks[src].status == Status::Done {
                chain.push(src);
                msg.push_str(&format!(
                    "  wait chain: {} — rank {src} already finished and will never send\n",
                    fmt_chain(&chain)
                ));
                break;
            }
            chain.push(src);
            cur = src;
        }
    }
    msg.push_str("(deadline-free detection: the event engine needs no watchdog)");
    msg
}

fn fmt_chain(chain: &[usize]) -> String {
    chain.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_key_orders_by_clock_then_rank() {
        let a = ReadyKey { clock: 1.0, rank: 5 };
        let b = ReadyKey { clock: 2.0, rank: 0 };
        let c = ReadyKey { clock: 1.0, rank: 6 };
        assert!(a < b);
        assert!(a < c);
        // total_cmp gives a total order even for exotic floats.
        let nz = ReadyKey { clock: -0.0, rank: 0 };
        let pz = ReadyKey { clock: 0.0, rank: 0 };
        assert!(nz < pz);
    }

    #[test]
    fn heap_pops_lowest_clock_first() {
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(ReadyKey { clock: 3.0, rank: 0 }));
        heap.push(Reverse(ReadyKey { clock: 1.0, rank: 2 }));
        heap.push(Reverse(ReadyKey { clock: 1.0, rank: 1 }));
        let order: Vec<usize> =
            std::iter::from_fn(|| heap.pop().map(|Reverse(k)| k.rank)).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn cohort_refill_pops_equal_timestamp_run() {
        let core = EventCore::new(4, 1, None, false);
        let mut st = core.state.lock();
        st.ready.clear();
        st.ready.push(Reverse(ReadyKey { clock: 1.0, rank: 3 }));
        st.ready.push(Reverse(ReadyKey { clock: 1.0, rank: 1 }));
        st.ready.push(Reverse(ReadyKey { clock: 2.0, rank: 0 }));
        for r in 0..4 {
            st.ranks[r].clock = if r == 0 { 2.0 } else { 1.0 };
        }
        // First pop pulls the whole t=1.0 run: head 1, cohort holds 3.
        let head = core.pop_next_ready(&mut st).unwrap();
        assert_eq!((head.rank, head.clock), (1, 1.0));
        assert_eq!(st.cohort, [3]);
        assert_eq!(st.ready.len(), 1);
        // Cohort drains FIFO before the heap is touched again.
        assert_eq!(core.pop_next_ready(&mut st).unwrap().rank, 3);
        assert_eq!(core.pop_next_ready(&mut st).unwrap().rank, 0);
        assert!(core.pop_next_ready(&mut st).is_none());
    }
}
