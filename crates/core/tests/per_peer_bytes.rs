//! What one rank allocates per *peer* in an Ok-Topk step.
//!
//! P ranks share one address space here, so a per-rank scratch structure whose
//! length is P costs the process O(P²) — the term that bounded how large a P
//! fits in memory. This audit pins it where it can be counted: a counting
//! `#[global_allocator]` armed on rank 0 only — keyed by
//! [`simnet::current_rank`], as in `collectives/tests/zero_alloc_ring.rs` —
//! sums the bytes *requested* during
//! one [`OkTopk`] step at P = 64 and at P = 256 with n and k fixed, and the
//! slope between the two is the per-peer cost. Two steps are measured: one
//! that reuses the thresholds and boundaries, and one that recomputes both
//! (t = τ + 1 with τ = τ′: the boundary consensus, the τ′ threshold gather).
//!
//! The count covers the algorithm layers (`core`, `collectives`, `sparse`),
//! not the transport under them: the step runs on [`Uncounted`], a [`Net`] that
//! forwards to the rank's `Comm` with the counter disarmed, because what
//! `simnet` allocates per message (a box per non-inline payload, a queue per
//! envelope stashed out of order — ≈ 260 B per peer here, the same on both
//! builds) depends on arrival order and is the ROADMAP's per-message item, not
//! a length-P structure.
//!
//! What is left per peer in a reuse step, ≈ 12 bytes: the 16-byte receive
//! handle of split-and-reduce's bucket rounds, less region work that shrinks
//! as P grows. A gather no longer leaves every rank an 8-byte handle per
//! origin: what the step reads of its two gathers (the sizes' prefix sums and
//! maximum, the concatenated `u_t`) is assembled once per process, and only
//! the assembler walks the gathered tree into a rank-ordered list. A
//! recomputing step adds the rank's own P + 1-word `f64` consensus
//! contribution (8 B per peer, until its block's first merge); the consensus
//! relays one handle per doubling round where it sent a copy of the vector,
//! and the boundaries and the τ′ threshold are computed once per process.
//!
//! Whichever rank gets out of a gather first assembles, and which one that is
//! depends on the schedule, so a reading varies by a few bytes per peer from
//! run to run and the budgets include one assembler's lists: measured with
//! every rank assembling (a scratch build), rank 0 reads 35.8 and 34.4 — plus
//! 4 B per peer for the boundary vector if it also makes the consensus's last
//! merge.
//!
//! Readings (bytes requested on rank 0 in one step):
//!
//! | build                                                   | step      | P = 64 | P = 256 | slope B/peer |
//! |---------------------------------------------------------|-----------|-------:|--------:|-------------:|
//! | P shards, order vectors, `Keyed` deep clones            | reuse     | 29 160 |  84 600 |        288.8 |
//! | shared-piece gather + slice-on-demand                   | reuse     | 13 064 |  23 376 |         53.7 |
//! | + one block handle relayed per doubling round           | reuse     | 12 616 |  20 016 |         38.5 |
//! |                                                         | recompute | 78 024 |  99 252 |        110.6 |
//! | + results assembled once per process, merged consensus  | reuse     |  9 992 |  12 264 |         11.8 |
//! |                                                         | recompute | 11 504 |  15 000 |  17.0 – 18.2 |
//!
//! The recompute row's range is five runs. This file must stay a single-test
//! binary so no sibling test's rank shares the armed rank id.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use oktopk::{OkTopk, OkTopkConfig};
use simnet::{Cluster, Comm, CostModel, Net, WireSize};

struct CountingAlloc;

/// The largest P measured.
const MAX_P: usize = 256;

static ARMED: [AtomicBool; MAX_P] = [const { AtomicBool::new(false) }; MAX_P];
static BYTES: [AtomicUsize; MAX_P] = [const { AtomicUsize::new(0) }; MAX_P];

fn charge(bytes: usize) {
    let Some(rank) = simnet::current_rank() else { return };
    if ARMED[rank].load(Relaxed) {
        BYTES[rank].fetch_add(bytes, Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The rank's `Comm` with the allocation counter disarmed inside every call.
struct Uncounted<'a>(&'a mut Comm);

impl Uncounted<'_> {
    fn uncounted<R>(&mut self, f: impl FnOnce(&mut Comm) -> R) -> R {
        let armed = &ARMED[self.0.rank()];
        let was = armed.swap(false, Relaxed);
        let out = f(self.0);
        armed.store(was, Relaxed);
        out
    }
}

impl Net for Uncounted<'_> {
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn size(&self) -> usize {
        self.0.size()
    }
    fn send<T: WireSize + Send + 'static>(&mut self, dst: usize, tag: u64, value: T) {
        self.uncounted(|c| c.send(dst, tag, value))
    }
    fn recv<T: Send + 'static>(&mut self, src: usize, tag: u64) -> T {
        self.uncounted(|c| c.recv(src, tag))
    }
    fn compute(&mut self, seconds: f64) {
        self.0.compute(seconds)
    }
    fn now(&self) -> f64 {
        self.0.now()
    }
    fn set_phase(&mut self, phase: impl Into<Cow<'static, str>>) {
        self.uncounted(|c| c.set_phase(phase))
    }
    fn set_free_mode(&mut self, on: bool) {
        self.0.set_free_mode(on)
    }
    fn barrier(&mut self) {
        self.uncounted(|c| c.barrier())
    }
    fn send_shared<T: WireSize + Send + Sync + 'static>(
        &mut self,
        dst: usize,
        tag: u64,
        value: Arc<T>,
    ) {
        self.uncounted(|c| c.send_shared(dst, tag, value))
    }
    fn recv_shared<T: Send + Sync + 'static>(&mut self, src: usize, tag: u64) -> Arc<T> {
        self.uncounted(|c| c.recv_shared(src, tag))
    }
}

const N: usize = 4096;
const K: usize = 204;
const WARMUP: usize = 4;

/// Smooth background plus per-rank spikes (the `okbench scale` gradient): the
/// same vector every step, so the reused thresholds and boundaries stay valid
/// and every step allocates alike.
fn acc(rank: usize) -> Vec<f32> {
    (0..N)
        .map(|i| {
            let x = (i * (rank + 2)) as f32;
            let spike = if i % 211 == (rank * 13) % 211 { 3.0 } else { 0.0 };
            (x * 0.01).sin() * 0.25 + spike
        })
        .collect()
}

/// Which step is measured: one that reuses the thresholds and boundaries, or
/// one that recomputes both (t = τ + 1 with τ = τ′).
#[derive(Clone, Copy, Debug)]
enum Step {
    Reuse,
    RepartitionReeval,
}

/// Bytes rank 0 requests from the allocator during step `WARMUP + 1`.
fn step_bytes(p: usize, step: Step) -> usize {
    let period = match step {
        Step::Reuse => 1 << 20,
        Step::RepartitionReeval => WARMUP,
    };
    let report = Cluster::new(p, CostModel::aries()).with_stack_bytes(1 << 20).run(|comm| {
        let comm = &mut Uncounted(comm);
        let rank = comm.rank();
        ARMED[rank].store(false, Relaxed);
        BYTES[rank].store(0, Relaxed);
        let acc = acc(rank);
        let mut okt = OkTopk::new(OkTopkConfig::new(N, K).with_periods(period, period));
        for t in 1..=WARMUP {
            okt.allreduce(comm, &acc, t);
        }
        let t = WARMUP + 1;
        let recomputes = okt.is_reeval_iteration(t) && okt.is_repartition_iteration(t);
        let reuses = !okt.is_reeval_iteration(t) && !okt.is_repartition_iteration(t);
        assert!(if let Step::Reuse = step { reuses } else { recomputes });
        if rank == 0 {
            ARMED[rank].store(true, Relaxed);
        }
        let out = okt.allreduce(comm, &acc, t);
        ARMED[rank].store(false, Relaxed);
        (BYTES[rank].load(Relaxed), out.global_nnz)
    });
    let (bytes, global_nnz) = report.results[0];
    assert!(global_nnz > 0, "measured step reduced nothing");
    bytes
}

#[test]
fn steady_state_step_has_no_per_peer_scratch() {
    /// Reads 11.8, at most ≈ 36 on an assembler (table above). A gather that
    /// relays its whole block of handles each round reads 53.7 and fails it.
    const MAX_REUSE_BYTES_PER_PEER: f64 = 46.0;
    /// Reads 17–18, at most ≈ 38 on an assembler. A consensus that sends each
    /// rank's own copy of the vector every round, with a `values` vector and an
    /// exact threshold per rank, reads 110.6 and fails it.
    const MAX_RECOMPUTE_BYTES_PER_PEER: f64 = 64.0;

    for (step, budget) in [
        (Step::Reuse, MAX_REUSE_BYTES_PER_PEER),
        (Step::RepartitionReeval, MAX_RECOMPUTE_BYTES_PER_PEER),
    ] {
        let (small, large) = (step_bytes(64, step), step_bytes(256, step));
        let slope = (large as f64 - small as f64) / 192.0;
        eprintln!("{step:?}: bytes requested on rank 0: P=64 {small}, P=256 {large}, slope {slope:.1} B/peer");
        assert!(
            slope <= budget,
            "a {step:?} step allocates {slope:.1} bytes per peer on rank 0 \
             (P=64: {small} B, P=256: {large} B); the budget is {budget} — \
             some per-rank structure has grown a length-P dimension"
        );
    }
}
