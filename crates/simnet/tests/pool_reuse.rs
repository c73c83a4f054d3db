//! Tracking-allocator audit for each rank's one spare message buffer.
//!
//! A counting `#[global_allocator]` wraps the system allocator; a thread-local
//! flag arms the counter so only allocations made by the arming thread are
//! charged. A rank body arms it around the calls it audits, on the worker
//! thread that runs the rank, so the audit measures exactly the
//! `take_f32`/`recycle_f32` path.
//!
//! Three claims, one per phase:
//! 1. the steady-state take/recycle cycle is allocation-free (one buffer
//!    revolves through the rank's spare);
//! 2. a buffer that rank 1 recycles never serves rank 0's take — the spare
//!    is the rank's, not the run's;
//! 3. a rank holds at most one idle buffer: a rank that recycles three
//!    chunks a round and then takes three reuses one and allocates the other
//!    two, every round.
//!
//! This file must stay a single-test binary: a sibling test on another thread
//! would not be charged, but keeping the binary minimal keeps the audit
//! airtight.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use obs::MetricValue;
use simnet::{Cluster, CostModel};

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ARMED.with(|armed| {
            if armed.get() {
                ALLOCS.with(|c| c.set(c.get() + 1));
            }
        });
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ARMED.with(|armed| {
            if armed.get() {
                ALLOCS.with(|c| c.set(c.get() + 1));
            }
        });
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const CAP: usize = 4096;
const ITERS: usize = 50;

/// Arm the counter, run `f`, disarm, and return how many allocations `f` made
/// on this thread. `f` must not block: a blocked rank's worker runs others.
fn counted<R>(f: impl FnOnce() -> R) -> (usize, R) {
    ARMED.with(|a| a.set(false));
    ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(|c| c.get()), r)
}

#[test]
fn each_rank_keeps_one_spare_and_steady_state_is_allocation_free() {
    // Phase 1: after one warm-up revolution the take/recycle cycle never
    // touches the allocator, and every take is the one warm buffer.
    let report = Cluster::new(1, CostModel::free()).run(|comm| {
        let warm = comm.take_f32(CAP);
        let warm_ptr = warm.as_ptr() as usize;
        comm.recycle_f32(warm);
        let (allocs, same) = counted(|| {
            (0..ITERS).all(|i| {
                let mut buf = comm.take_f32(CAP);
                buf.push(i as f32); // within capacity — must not realloc
                let same = buf.as_ptr() as usize == warm_ptr;
                comm.recycle_f32(buf);
                same
            })
        });
        (allocs, same)
    });
    assert_eq!(report.results[0], (0, true), "steady-state take/recycle must reuse the spare");

    // Phase 2, one worker: rank 0 sends a chunk, rank 1 recycles it and
    // answers, and rank 0's next same-size take is a fresh allocation. The
    // closing barrier keeps rank 1 and its spare alive until then, so the
    // allocator cannot hand the address back by way of a freed buffer.
    let report = Cluster::new(2, CostModel::free()).with_workers(1).run(|comm| {
        let out = if comm.rank() == 0 {
            let mut buf = comm.take_f32(CAP);
            buf.resize(CAP, 1.0);
            let sent = buf.as_ptr() as usize;
            comm.send(1, 0, buf);
            let _: Vec<u32> = comm.recv(1, 1);
            let (allocs, again) = counted(|| comm.take_f32(CAP));
            let fresh = again.as_ptr() as usize != sent && again.capacity() == CAP;
            comm.recycle_f32(again);
            (allocs, fresh)
        } else {
            let got: Vec<f32> = comm.recv(0, 0);
            comm.recycle_f32(got);
            comm.send(0, 1, vec![0u32]);
            (0, true)
        };
        comm.barrier();
        out
    });
    assert_eq!(
        report.results[0],
        (1, true),
        "rank 0's take must allocate, not reuse the chunk rank 1 recycled"
    );

    // Phase 3: each rank sends three chunks a round to the other and
    // recycles the three it receives. It keeps only one of them, so from the
    // second round on its first take hits and the other two allocate; a rank
    // that kept all three (or shared its peer's) would never miss again.
    const ROUNDS: usize = 6;
    let report = Cluster::new(2, CostModel::free()).with_obs(true).run(|comm| {
        let peer = 1 - comm.rank();
        for _ in 0..ROUNDS {
            for _ in 0..3 {
                let buf = comm.take_f32(CAP);
                comm.send(peer, 0, buf);
            }
            for _ in 0..3 {
                let got: Vec<f32> = comm.recv(peer, 0);
                comm.recycle_f32(got);
            }
            comm.barrier();
        }
    });
    let counter = |name| match report.metrics.get(name) {
        Some(&MetricValue::Counter(v)) => v as usize,
        other => panic!("{name}: {other:?}"),
    };
    assert_eq!(counter("pool.hit"), 2 * (ROUNDS - 1), "one spare per rank, reused each round");
    assert_eq!(counter("pool.miss"), 6 + 4 * (ROUNDS - 1), "a second idle buffer would hit");
}
