//! Tracking-allocator audit for the run's one shared message-buffer pool.
//!
//! A counting `#[global_allocator]` wraps the system allocator; a thread-local
//! flag arms the counter so only allocations made by the arming thread are
//! charged. A rank body arms it around the pool calls it audits, on the worker
//! thread that runs the rank, so the audit measures exactly the
//! `take_f32`/`recycle_f32` path.
//!
//! Three claims, one per phase:
//! 1. the steady-state take/recycle cycle is allocation-free (one buffer
//!    revolves through the free list);
//! 2. a chunk its receiver recycles is the allocation the sender's next
//!    same-size take returns — the pool is the run's, not a rank's;
//! 3. with no budget, the idle high-water never exceeds the most bytes taken
//!    and not yet recycled at one time, even when ranks send unequal counts
//!    (a pool per rank allocates on the rank that sends more, every round,
//!    while its receiver's pool fills).
//!
//! This file must stay a single-test binary: a sibling test on another thread
//! would not be charged, but keeping the binary minimal keeps the audit
//! airtight.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

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

/// Bytes taken and not yet recycled across the run, and their most at once.
static OUT: AtomicUsize = AtomicUsize::new(0);
static OUT_PEAK: AtomicUsize = AtomicUsize::new(0);

#[test]
fn one_pool_serves_every_rank_and_steady_state_is_allocation_free() {
    // Phase 1: after one warm-up revolution the take/recycle cycle never
    // touches the allocator, and exactly the one warm buffer sits idle.
    let report = Cluster::new(1, CostModel::free()).run(|comm| {
        let warm = comm.take_f32(CAP);
        comm.recycle_f32(warm); // grows the free list while unarmed
        let (allocs, _) = counted(|| {
            for i in 0..ITERS {
                let mut buf = comm.take_f32(CAP);
                buf.push(i as f32); // within capacity — must not realloc
                comm.recycle_f32(buf);
            }
        });
        (allocs, comm.pooled_bytes())
    });
    let (allocs, pooled) = report.results[0];
    assert_eq!(allocs, 0, "steady-state take/recycle made {allocs} heap allocations");
    assert_eq!(pooled, CAP * 4, "exactly one warm buffer should sit idle");

    // Phase 2, one worker: rank 0 sends a chunk, rank 1 recycles it and
    // answers, and rank 0's next same-size take is that very allocation. The
    // closing barrier keeps rank 1 alive until then, so the address cannot
    // come back by way of a freed pool.
    let report = Cluster::new(2, CostModel::free()).with_workers(1).run(|comm| {
        let out = if comm.rank() == 0 {
            let mut buf = comm.take_f32(CAP);
            buf.resize(CAP, 1.0);
            let sent = buf.as_ptr() as usize;
            comm.send(1, 0, buf);
            let _: Vec<u32> = comm.recv(1, 1);
            let (allocs, again) = counted(|| comm.take_f32(CAP));
            let reused = again.as_ptr() as usize == sent && again.is_empty();
            comm.recycle_f32(again);
            (allocs, reused)
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
        (0, true),
        "the chunk rank 1 recycled must be rank 0's next take, with no allocation"
    );

    // Phase 3, one worker, so a take and the tally beside it are one step:
    // rank 0 sends three chunks a round to rank 1, which sends one back.
    // Every take and recycle moves `OUT`; the pool's idle high-water is what
    // was out at once, and after the first round nothing misses.
    const ROUNDS: usize = 6;
    let report = Cluster::new(2, CostModel::free()).with_workers(1).with_obs(true).run(|comm| {
        let (peer, sends, gets) = if comm.rank() == 0 { (1, 3, 1) } else { (0, 1, 3) };
        for _ in 0..ROUNDS {
            for _ in 0..sends {
                let buf = comm.take_f32(CAP);
                let out = OUT.fetch_add(buf.capacity() * 4, Relaxed) + buf.capacity() * 4;
                OUT_PEAK.fetch_max(out, Relaxed);
                comm.send(peer, 0, buf);
            }
            for _ in 0..gets {
                let got: Vec<f32> = comm.recv(peer, 0);
                OUT.fetch_sub(got.capacity() * 4, Relaxed);
                comm.recycle_f32(got);
            }
            comm.barrier();
        }
    });
    let counter = |name| match report.metrics.get(name) {
        Some(&MetricValue::Counter(v) | &MetricValue::Gauge(v)) => v as usize,
        other => panic!("{name}: {other:?}"),
    };
    let peak = OUT_PEAK.load(Relaxed);
    assert_eq!(OUT.load(Relaxed), 0, "every chunk taken was recycled");
    assert!(peak > 0);
    let idle_max = counter("pool.idle_bytes_max");
    assert!(idle_max <= peak, "idle high-water {idle_max} B over the {peak} B out at once");
    assert_eq!(idle_max, peak, "every buffer the run allocated is idle at the end");
    assert_eq!(counter("pool.miss") * CAP * 4, peak, "only the first round allocates");
    assert_eq!(counter("pool.hit") + counter("pool.miss"), 4 * ROUNDS);
}
