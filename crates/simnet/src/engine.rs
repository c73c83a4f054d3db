//! The execution engine of [`crate::Cluster`]: a discrete-event core.
//!
//! ## Why run tokens
//!
//! Giving every rank its own runnable OS thread and letting the kernel
//! schedule them is correct — clock arithmetic only reads per-rank program
//! order and matched message order — but the *cost* of that interleaving
//! grows with P: at 1024+ ranks the host scheduler thrashes between hundreds
//! of runnable threads, every blocked receive is a futex sleep plus a futex
//! wake, and sweeps that the paper runs at 256 nodes become intractable in
//! one process.
//!
//! So a rank is not a thread but a fiber (`fiber.rs`): its own stack and a
//! saved register set. A blocking [`crate::Comm`] call suspends the fiber in
//! the middle of its call stack, which keeps that API verbatim. The engine
//! ([`EventCore`]) hands out **run tokens** from a virtual-time scheduler, and
//! `W` worker OS threads resume the fibers that hold one. At most `W` ranks
//! hold a token at any instant; every blocking point (recv with an empty
//! inbox, barrier arrival) parks the rank inside the core, releases its token
//! and switches back to its worker — a register swap, no syscall — and
//! message delivery / barrier release marks ranks ready again. The ready queue
//! is ordered by `(virtual clock, rank id)` — lowest clock first, rank id as
//! the tie-break — so execution tracks the modeled timeline, which keeps
//! cross-rank backlogs small and makes progress order reproducible.
//!
//! Because every token count runs the same per-rank programs over the same
//! matched message streams, W = 1 (one worker, one rank at a time, a
//! deterministic grant order) and W ≥ P (a worker per rank, the kernel's
//! interleaving) produce **bit-identical** clocks, gradients and ledgers; the
//! schedule-invariance suites hold every W to W = 1's answer. EXPERIMENTS.md
//! § "One engine" tabulates which scheduler bugs those suites, and the tests
//! beside them, catch.
//!
//! ## The scheduler
//!
//! In the P ≥ 1024 regime host wall time tracks `engine.parks`: every park is
//! a scheduler-lock transaction and a switch, and a message that serializes on
//! the scheduler lock costs every rank. The scheduler keeps those constant
//! factors down two ways:
//!
//! 1. **Direct handoff** — when a running rank blocks, it picks the next rank
//!    and transfers its run token *in the same lock hold* that parked it,
//!    preferring the *producer* it is waiting on (following the recv wait-for
//!    chain up to [`WAITCHAIN_MAX`] hops to the first ready ancestor) over the
//!    lowest-clock heap head: demand-driven order keeps the dataflow chain on
//!    a warm cache, and one producer's sends satisfy many consumers at once.
//!    The first rank a blocking (or finishing) rank grants runs next on the
//!    granter's own worker, straight after the switch out
//!    (`engine.handoff_hit`). Every other grant — and every grant by a rank
//!    that keeps running: a send, a barrier release — goes to the run queue
//!    and wakes an idle worker if one is asleep (`engine.handoff_miss`).
//!    Neither side reacquires the scheduler lock to hand a token over.
//! 2. **Cohort wakeups** — a barrier release makes all P ranks ready at once;
//!    instead of P heap transactions it appends the whole release set, sorted
//!    by `(clock, rank)`, to a FIFO *cohort* drained by subsequent grants in
//!    O(1) (W > 1 workers drain the cohort concurrently). Heap refills
//!    likewise pop the entire equal-timestamp run in one lock acquisition.
//!
//! ## The message path is single-writer
//!
//! A message writes only memory its sender or its receiver owns. Ledger cells
//! and per-message metrics are plain fields of the rank's own `Comm`,
//! published at barriers and at exit. Delivery and wait registration live
//! behind the receiver's own inbox lock: only the owning rank takes envelopes
//! out — the first matching `(src, tag)`, wherever it sits — and registers
//! what it waits for; only the one sender matching a registered wait can
//! claim it. So a non-matching send — the common case in bucketed
//! collectives — never touches the scheduler lock. A send that lands between
//! wait registration and the park marks `wake_pending` under the scheduler
//! lock and the receiver *continues inline*, keeping its token
//! (`engine.park_elided`); that lock orders claim and park, so the wakeup
//! cannot be lost.
//!
//! ## Exact deadlock detection
//!
//! The core knows the whole cluster state: if no rank holds a run token,
//! the ready queue (heap and cohort FIFO) is empty and unfinished ranks remain,
//! the simulation cannot ever progress. The core then records a fault report
//! that names every blocked rank and walks the recv wait-for graph to print the
//! cycle. Teardown — after a deadlock or a rank panic — hands every parked or
//! never-started fiber to the workers, so each resumes, unwinds quietly (see
//! [`Cascade`]), runs its destructors and frees its stack.

use crate::comm::Tag;
use crate::envelope::Envelope;
use crate::fiber::{self, Fiber};
use parking_lot::{Mutex, MutexGuard};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// What the run queue carries, once per worker, when every fiber has exited.
const STOP: usize = usize::MAX;

/// Maximum wait-for hops the targeted-handoff walk follows from a parking
/// receiver towards a runnable producer before giving up on the chain.
const WAITCHAIN_MAX: usize = 16;

/// Scheduler metric handles (Host class: token traffic and queue depths are
/// properties of the simulating host's execution, not of modeled time).
#[derive(Clone)]
pub(crate) struct EngineMetrics {
    token_grants: obs::Counter,
    parks: obs::Counter,
    ready_depth_max: obs::Gauge,
    /// Grants the granting worker runs itself, straight after its fiber
    /// switches out.
    handoff_hit: obs::Counter,
    /// Grants that woke an idle worker.
    handoff_miss: obs::Counter,
    /// Parks elided entirely: the matching message landed between wait
    /// registration and the park, so the rank kept its token.
    park_elided: obs::Counter,
}

impl EngineMetrics {
    pub(crate) fn new(reg: &obs::Registry) -> Self {
        use obs::Class::Host;
        Self {
            token_grants: reg.counter("engine.token_grants", Host),
            parks: reg.counter("engine.parks", Host),
            ready_depth_max: reg.gauge("engine.ready_depth_max", Host),
            handoff_hit: reg.counter("engine.handoff_hit", Host),
            handoff_miss: reg.counter("engine.handoff_miss", Host),
            park_elided: reg.counter("engine.park_elided", Host),
        }
    }
}

/// The execution engine. There is exactly one; the type and
/// [`crate::Cluster::with_engine`] exist only because `benchmark/src/runner.rs`
/// (frozen outside this crate) names them, and go when a benchmark PR drops
/// those calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Discrete-event core: one fiber per rank, a bounded set of run tokens
    /// granted in virtual-time order, and exact (watchdog-free) deadlock
    /// detection.
    #[default]
    Event,
}

/// The event engine's dispatch path. There is exactly one; the type and
/// [`crate::Cluster::with_sched`] exist only because `benchmark/src/runner.rs:45`
/// (frozen outside this crate) names them, and go when a benchmark PR drops
/// that call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedMode {
    /// Direct run-token handoff, cohort wakeups and per-rank inbox locks (see
    /// the module docs).
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
    /// Holds a run token: its fiber runs on a worker or waits in the run
    /// queue for one.
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
/// only the owning rank takes from `q` and registers `waiting`; only the one sender
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

thread_local! {
    /// The rank whose fiber this worker thread is running.
    static RUNNING: Cell<Option<usize>> = const { Cell::new(None) };
    /// The rank the running fiber granted on its way out, for this worker to
    /// run next.
    static HANDOFF: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The rank whose code is running on this thread: `Some` inside a rank's
/// [`crate::Cluster::run`] closure, `None` anywhere else. Ranks migrate
/// between worker threads at every blocking call, so a thread-local is per
/// worker, not per rank; per-rank accounting keyed on the running code (a
/// counting allocator, say) keys on this instead.
#[inline(never)]
pub fn current_rank() -> Option<usize> {
    RUNNING.with(Cell::get)
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
}

/// Shared state of the discrete-event engine for one [`crate::Cluster::run`].
pub(crate) struct EventCore {
    size: usize,
    workers: usize,
    /// Scheduler metric handles; `None` when the run has no registry wired.
    metrics: Option<EngineMetrics>,
    state: Mutex<CoreState>,
    /// Per-rank delivery state (messages + wait registration).
    inboxes: Vec<Mutex<RankInbox>>,
    /// The run queue: granted fibers no worker has picked up yet. Idle
    /// workers queue on the receiver's lock, the one holding it asleep in
    /// `recv`; `idle` counts them.
    runq_tx: SyncSender<usize>,
    runq_rx: Mutex<Receiver<usize>>,
    idle: AtomicUsize,
    /// Fibers whose body has returned; the last one stops the workers.
    exited: AtomicUsize,
    /// Per-rank grant buffers: the ranks a scheduler transaction handed tokens
    /// to, queued by [`Self::flush_grants`] once the scheduler lock is
    /// released. Slot `r` is locked only by rank `r`'s own fiber, for the
    /// length of one transaction, so the lock is never contended; the buffer
    /// is reused across transactions so a park or post that passes a token on
    /// does not allocate in steady state.
    grants: Vec<Mutex<Vec<usize>>>,
    /// Barrier release snapshots as `f64` bits — written by the releasing rank
    /// before it grants tokens, read by each released rank after it acquires
    /// its token, so no lock is needed on the read side.
    release_bits: Vec<AtomicU64>,
    /// Mirrors `CoreState::fault.is_some()` so a resumed fiber notices a
    /// teardown without touching the scheduler lock.
    fault_flag: AtomicBool,
}

impl EventCore {
    pub(crate) fn new(size: usize, workers: usize, metrics: Option<EngineMetrics>) -> Self {
        assert!(size >= 1 && workers >= 1);
        let ranks = (0..size).map(|_| RankSlot { status: Status::Ready, clock: 0.0 }).collect();
        let ready = (0..size).map(|rank| Reverse(ReadyKey { clock: 0.0, rank })).collect();
        // Sends never block: a rank is queued at most once at a time, and the
        // stops go out once the queue has drained.
        let (runq_tx, runq_rx) = sync_channel(size + workers.min(size));
        Self {
            size,
            workers,
            metrics,
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
            }),
            inboxes: (0..size)
                .map(|_| Mutex::new(RankInbox { q: VecDeque::new(), waiting: None, done: false }))
                .collect(),
            runq_tx,
            runq_rx: Mutex::new(runq_rx),
            idle: AtomicUsize::new(0),
            exited: AtomicUsize::new(0),
            // One transaction grants at most `workers` ranks (and never more
            // than exist); the Vec still grows if that bound is ever wrong.
            grants: (0..size)
                .map(|_| Mutex::new(Vec::with_capacity(workers.min(size) + 1)))
                .collect(),
            release_bits: (0..size).map(|_| AtomicU64::new(0)).collect(),
            fault_flag: AtomicBool::new(false),
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
            while let Some(&Reverse(k)) = st.ready.peek() {
                if k.clock.total_cmp(&head.clock).is_eq() {
                    st.ready.pop();
                    st.cohort.push_back(k.rank);
                } else {
                    break;
                }
            }
            if st.ranks[head.rank].status == Status::Ready {
                return Some(head);
            }
        }
    }

    /// Grant tokens while slots are free. Collects the targets in `granted`
    /// for [`Self::flush_grants`], which the caller runs after unlocking.
    fn schedule(&self, st: &mut CoreState, granted: &mut Vec<usize>) {
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
            self.grant_rank(st, key.rank, granted);
        }
    }

    /// Set `rank` (must be `Ready`) running and collect it. Any heap or
    /// cohort entry still naming it goes stale and is skipped at pop time.
    fn grant_rank(&self, st: &mut CoreState, rank: usize, granted: &mut Vec<usize>) {
        debug_assert_eq!(st.ranks[rank].status, Status::Ready);
        st.ranks[rank].status = Status::Running;
        st.running += 1;
        if let Some(m) = &self.metrics {
            m.token_grants.inc();
        }
        granted.push(rank);
    }

    /// Hand granted ranks to workers *after* the scheduler lock is released.
    /// With `keep_first` — the caller's fiber is about to switch out or exit —
    /// the first one runs next on this worker (handoff hit). Each other one
    /// goes to the run queue, waking an idle worker if one is asleep (handoff
    /// miss); a busy worker drains the queue when its fiber switches out.
    /// Consumes the caller's grant buffer guard: flushing ends the
    /// transaction, and no lock may be held across the switch that follows.
    /// Never inlined: it runs on a fiber, which must not reuse a
    /// thread-local's address across a switch.
    #[inline(never)]
    fn flush_grants(&self, keep_first: bool, mut granted: MutexGuard<'_, Vec<usize>>) {
        let mut ranks = granted.drain(..);
        if keep_first {
            if let Some(rank) = ranks.next() {
                HANDOFF.with(|h| h.set(Some(rank)));
                if let Some(m) = &self.metrics {
                    m.handoff_hit.inc();
                }
            }
        }
        for rank in ranks {
            self.enqueue(rank);
        }
    }

    /// Queue `rank` for the next free worker.
    fn enqueue(&self, rank: usize) {
        if self.idle.load(Ordering::Relaxed) > 0 {
            if let Some(m) = &self.metrics {
                m.handoff_miss.inc();
            }
        }
        self.runq_tx.try_send(rank).expect("the run queue holds every rank at once");
    }

    /// Switch back to this fiber's worker until a worker resumes it with the
    /// run token. Cascades if the run was torn down meanwhile.
    fn wait_token(&self) {
        fiber::suspend();
        self.check_fault();
    }

    /// Unwind quietly if the run has been torn down: a fiber's first act and
    /// every blocking entry point check this.
    pub(crate) fn check_fault(&self) {
        if self.fault_flag.load(Ordering::SeqCst) {
            cascade();
        }
    }

    /// Worker threads to run [`Self::work`] on: one per run token, but a
    /// worker beyond the P-th would never hold one.
    pub(crate) fn worker_threads(&self) -> usize {
        self.workers.min(self.size)
    }

    /// Grant the first run tokens: every rank starts Ready at clock 0, and
    /// the workers pick the grants up from the run queue.
    pub(crate) fn kickoff(&self) {
        // No fiber has run yet, so rank 0's grant buffer is free.
        let mut granted = self.grants[0].lock();
        {
            let mut st = self.state.lock();
            self.schedule(&mut st, &mut granted);
        }
        self.flush_grants(false, granted);
    }

    /// A worker thread's loop: resume granted fibers — the one the last fiber
    /// handed over first, else the run queue's head, sleeping while it is
    /// empty — until every fiber has exited.
    pub(crate) fn work(&self, fibers: &[Fiber<'_>]) {
        let mut next = self.next_runnable();
        while let Some(rank) = next {
            RUNNING.with(|r| r.set(Some(rank)));
            let exited = fibers[rank].resume();
            RUNNING.with(|r| r.set(None));
            if exited && self.exited.fetch_add(1, Ordering::SeqCst) + 1 == self.size {
                for _ in 0..self.worker_threads() {
                    self.runq_tx.try_send(STOP).expect("the run queue has drained");
                }
            }
            next = HANDOFF.with(Cell::take).or_else(|| self.next_runnable());
        }
    }

    /// The run queue's next rank, sleeping until there is one; `None` once
    /// every fiber has exited.
    fn next_runnable(&self) -> Option<usize> {
        self.idle.fetch_add(1, Ordering::Relaxed);
        let rank = self.runq_rx.lock().recv().expect("the core outlives its workers");
        self.idle.fetch_sub(1, Ordering::Relaxed);
        (rank != STOP).then_some(rank)
    }

    /// If nothing can ever run again, record the deadlock fault and tear the
    /// run down immediately (no watchdog involved).
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
        self.tear_down(st);
    }

    /// Teardown after a fault: hand every parked or never-started fiber to the
    /// workers, so it resumes, sees the fault and unwinds (Running fibers see
    /// it at their next blocking call, or finish).
    fn tear_down(&self, st: &mut CoreState) {
        self.fault_flag.store(true, Ordering::SeqCst);
        for (rank, slot) in st.ranks.iter_mut().enumerate() {
            if matches!(slot.status, Status::Ready | Status::RecvWait { .. } | Status::BarrierWait)
            {
                slot.status = Status::Running;
                self.enqueue(rank);
            }
        }
    }

    /// Take the first envelope from `src` with `tag` out of `rank`'s inbox,
    /// parking the continuation — token released, status `RecvWait(src, tag)`
    /// — while none has arrived. Envelopes queue in arrival order, which per
    /// `(src, tag)` is the send order, so the matched message order (and with
    /// it every clock) is the same at every worker count. Non-matching
    /// envelopes stay where they are for a later receive.
    pub(crate) fn next_envelope(&self, rank: usize, src: usize, tag: Tag, clock: f64) -> Envelope {
        self.check_fault();
        loop {
            // Inbox scan under the rank's own lock: the hot match never
            // touches the scheduler. No match registers the wait *here* so a
            // racing matching sender can claim it without the scheduler lock.
            {
                let mut ib = self.inboxes[rank].lock();
                if let Some(at) = ib.q.iter().position(|e| e.src == src && e.tag == tag) {
                    return ib.q.remove(at).expect("a found position is in range");
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
                    continue;
                }
                st.ranks[rank].status = Status::RecvWait { src, tag };
                st.ranks[rank].clock = clock;
                st.running -= 1;
                if let Some(m) = &self.metrics {
                    m.parks.inc();
                }
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
                                self.grant_rank(&mut st, cur, &mut granted);
                                break;
                            }
                            Status::RecvWait { src: s, .. } if s != cur => cur = s,
                            _ => break,
                        }
                    }
                }
                self.schedule(&mut st, &mut granted);
                self.check_deadlock(&mut st);
            }
            self.flush_grants(true, granted);
            self.wait_token();
        }
    }

    /// Deliver an envelope to `dst`. Wakes the destination only when it is
    /// parked waiting for exactly this `(src, tag)` — a non-matching arrival
    /// queues silently, sparing a futile wake/stash/re-block round-trip, and
    /// never takes the scheduler lock at all.
    pub(crate) fn post(&self, dst: usize, env: Envelope) {
        self.check_fault();
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
                    self.schedule(&mut st, &mut granted);
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

    /// Envelopes delivered to `rank` that no receive has taken yet.
    pub(crate) fn pending(&self, rank: usize) -> usize {
        self.inboxes[rank].lock().q.len()
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
            for &(_, r) in &release {
                st.ranks[r].status = Status::Ready;
                self.release_bits[r].store(result.to_bits(), Ordering::Relaxed);
                st.cohort.push_back(r);
            }
            self.schedule(&mut st, &mut granted);
            drop(st);
            self.flush_grants(false, granted);
            result
        } else {
            st.ranks[rank].status = Status::BarrierWait;
            st.ranks[rank].clock = clock;
            st.running -= 1;
            if let Some(m) = &self.metrics {
                m.parks.inc();
            }
            self.schedule(&mut st, &mut granted);
            self.check_deadlock(&mut st);
            drop(st);
            self.flush_grants(true, granted);
            self.wait_token();
            f64::from_bits(self.release_bits[rank].load(Ordering::Relaxed))
        }
    }

    /// Rank's closure returned: release its token and let the next rank run
    /// (on this worker, once the fiber has exited).
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
            self.schedule(&mut st, &mut granted);
            self.check_deadlock(&mut st);
        }
        self.flush_grants(true, granted);
    }

    /// Rank's closure panicked: record the fault and tear the cluster down —
    /// unless a fault is already set, in which case this unwind is itself a
    /// cascade and teardown has already run.
    pub(crate) fn rank_panicked(&self, rank: usize) {
        let mut st = self.state.lock();
        if st.fault.is_none() {
            st.fault = Some(format!("rank {rank} panicked; aborting the run"));
            st.ranks[rank].status = Status::Done;
            st.running -= 1;
            self.tear_down(&mut st);
        }
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
        let core = EventCore::new(4, 1, None);
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
