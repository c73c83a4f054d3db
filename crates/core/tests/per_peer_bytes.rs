//! What one rank allocates per *peer* in a steady-state Ok-Topk step.
//!
//! P ranks share one address space here, so a per-rank scratch structure whose
//! length is P costs the process O(P²) — the term that bounded how large a P
//! fits in memory. This audit pins it where it can be counted: a counting
//! `#[global_allocator]` armed on rank 0's thread only (as in
//! `collectives/tests/zero_alloc_ring.rs`) sums the bytes *requested* during
//! one threshold-reuse [`OkTopk`] step at P = 64 and at P = 256 with n and k
//! fixed, and the slope between the two is the per-peer cost.
//!
//! The count covers the algorithm layers (`core`, `collectives`, `sparse`),
//! not the transport under them: the step runs on [`Uncounted`], a [`Net`] that
//! forwards to the rank's `Comm` with the counter disarmed, because what
//! `simnet` allocates per message (a box per non-inline payload, a queue per
//! envelope stashed out of order — ≈ 260 B per peer here, the same on both
//! builds) depends on arrival order and is the ROADMAP's per-message item, not
//! a length-P structure.
//!
//! What is left per peer, 32 bytes: an 8-byte `Arc` handle per gathered piece
//! in the P-long result of each of the step's two allgathers, and the 16-byte
//! receive handle of split-and-reduce's bucket rounds. The blocks a rank sends
//! over the doubling rounds no longer cost 8 bytes per peer: a round relays one
//! handle to a tree node, and a rank makes log P of those. Everything O(k) —
//! shard copies, merges, the concatenated result — is the same at both sizes
//! and cancels.
//!
//! Readings (bytes requested on rank 0 in one step):
//!
//! | build                                                 | P = 64 | P = 256 | slope B/peer |
//! |-------------------------------------------------------|-------:|--------:|-------------:|
//! | parent (P shards, order vectors, `Keyed` deep clones) | 29 160 |  84 600 |        288.8 |
//! | shared-piece gather + slice-on-demand                 | 13 064 |  23 376 |         53.7 |
//! | + one block handle relayed per doubling round         | 12 616 |  20 016 |         38.5 |
//!
//! The readings repeat exactly from run to run. This file must stay a
//! single-test binary so no sibling test shares the armed thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;

use oktopk::{OkTopk, OkTopkConfig};
use simnet::{Cluster, Comm, CostModel, Net, WireSize};

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn charge(bytes: usize) {
    ARMED.with(|armed| {
        if armed.get() {
            BYTES.with(|b| b.set(b.get() + bytes));
        }
    });
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

fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = ARMED.with(|a| a.replace(false));
    let out = f();
    ARMED.with(|a| a.set(was));
    out
}

impl Net for Uncounted<'_> {
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn size(&self) -> usize {
        self.0.size()
    }
    fn send<T: WireSize + Send + 'static>(&mut self, dst: usize, tag: u64, value: T) {
        uncounted(|| self.0.send(dst, tag, value))
    }
    fn recv<T: Send + 'static>(&mut self, src: usize, tag: u64) -> T {
        uncounted(|| self.0.recv(src, tag))
    }
    fn compute(&mut self, seconds: f64) {
        self.0.compute(seconds)
    }
    fn now(&self) -> f64 {
        self.0.now()
    }
    fn advance_to(&mut self, t: f64) {
        self.0.advance_to(t)
    }
    fn set_phase(&mut self, phase: impl Into<Cow<'static, str>>) {
        uncounted(|| self.0.set_phase(phase))
    }
    fn set_free_mode(&mut self, on: bool) {
        self.0.set_free_mode(on)
    }
    fn barrier(&mut self) {
        uncounted(|| self.0.barrier())
    }
    fn send_shared<T: WireSize + Send + Sync + 'static>(
        &mut self,
        dst: usize,
        tag: u64,
        value: Arc<T>,
    ) {
        uncounted(|| self.0.send_shared(dst, tag, value))
    }
    fn recv_shared<T: Send + Sync + 'static>(&mut self, src: usize, tag: u64) -> Arc<T> {
        uncounted(|| self.0.recv_shared(src, tag))
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

/// Bytes rank 0 requests from the allocator during one steady-state step.
fn step_bytes(p: usize) -> usize {
    let report = Cluster::new(p, CostModel::aries()).with_stack_bytes(1 << 20).run(|comm| {
        let comm = &mut Uncounted(comm);
        ARMED.with(|a| a.set(false));
        BYTES.with(|b| b.set(0));
        let acc = acc(comm.rank());
        let mut okt = OkTopk::new(OkTopkConfig::new(N, K).with_periods(1 << 20, 1 << 20));
        for t in 1..=WARMUP {
            okt.allreduce(comm, &acc, t);
        }
        assert!(!okt.is_reeval_iteration(WARMUP + 1) && !okt.is_repartition_iteration(WARMUP + 1));
        if comm.rank() == 0 {
            ARMED.with(|a| a.set(true));
        }
        let out = okt.allreduce(comm, &acc, WARMUP + 1);
        ARMED.with(|a| a.set(false));
        (BYTES.with(|b| b.get()), out.global_nnz)
    });
    let (bytes, global_nnz) = report.results[0];
    assert!(global_nnz > 0, "measured step reduced nothing");
    bytes
}

#[test]
fn steady_state_step_has_no_per_peer_scratch() {
    /// Reads 38.5 (table above). A gather that relays its whole block of
    /// handles each round reads 53.7 and fails it.
    const MAX_BYTES_PER_PEER: f64 = 46.0;

    let (small, large) = (step_bytes(64), step_bytes(256));
    let slope = (large as f64 - small as f64) / 192.0;
    eprintln!("bytes requested on rank 0: P=64 {small}, P=256 {large}, slope {slope:.1} B/peer");
    assert!(
        slope <= MAX_BYTES_PER_PEER,
        "a steady-state step allocates {slope:.1} bytes per peer on rank 0 \
         (P=64: {small} B, P=256: {large} B); the budget is {MAX_BYTES_PER_PEER} — \
         some per-rank structure has grown a length-P dimension"
    );
}
