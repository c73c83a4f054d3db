//! Steady-state allocation audit for the shared-result dense allreduce.
//!
//! A counting `#[global_allocator]` wraps the system allocator; a per-rank
//! flag arms the counter, keyed by [`simnet::current_rank`] — ranks migrate
//! between worker threads, so a thread-local would be shared by every rank a
//! worker runs — and the armed ranks' allocations are summed. After a warm-up
//! that gives every rank its spare buffer (and lets the channel blocks and
//! ledger cells come into existence), one full ring-allreduce step on P = 3 ranks
//! must perform exactly these heap allocations, and no others:
//!
//! - **reduce-scatter half: one per rank**, the rank's reduced region as an
//!   exact n/P word vector. The first hop is lent, not copied: each rank
//!   takes one chunk, its spare, and sums its left neighbour's loan into it;
//!   later hops forward that buffer as an inline `Payload::F32` (no
//!   per-message boxing), and the last one it receives becomes its spare. A
//!   rank takes one ⌈n/P⌉ chunk an allreduce and recycles one, so the first
//!   allreduce leaves each rank a spare that fits and no later take misses.
//!   The count is what it was when the sender took the chunk and copied its
//!   own region into it.
//! - **gather half: two per rank, neither of them an f32 buffer** — the `Arc`
//!   around the rank's piece and the P-slot list of piece handles. Only
//!   handles travel.
//! - **the assembler, three more**: the P-slot list of piece references it
//!   assembles from, the n-word result and the `Arc` around it. Whichever rank
//!   finishes its gather first assembles, so which rank pays is up to the
//!   schedule; that exactly one of the P does — one result-sized allocation —
//!   is not.
//!
//! So the process makes 3 · 3 + 3 = 12 allocations, and one n-sized
//! allocation per step where the in-place allreduce kept P.
//!
//! The geometry is deliberate: P = 3 forces the ring path (non-power-of-two),
//! each rank sends `2(P−1) = 4` messages per iteration into a single
//! neighbour channel, and the measured iteration starts at message 21 — well
//! inside the channel's first 31-message block, so no block allocation can
//! land on the armed iteration. This file must stay a single-test binary so
//! no sibling test's rank shares an armed rank id.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

use collectives::allreduce_shared;
use simnet::{Cluster, CostModel};

struct CountingAlloc;

const P: usize = 3; // non-power-of-two → ring algorithm
const N: usize = 96; // divisible by P: equal chunks

static ARMED: [AtomicBool; P] = [const { AtomicBool::new(false) }; P];
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static RESULT_SIZED: AtomicUsize = AtomicUsize::new(0);

fn charge(bytes: usize) {
    let Some(rank) = simnet::current_rank() else { return };
    if ARMED[rank].load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        if bytes >= 4 * N {
            RESULT_SIZED.fetch_add(1, Relaxed);
        }
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

#[test]
fn steady_state_ring_allreduce_allocates_its_piece_and_one_result() {
    const WARMUP: usize = 5;

    let report = Cluster::new(P, CostModel::aries()).run(|comm| {
        let rank = comm.rank();
        let data: Vec<f32> = (0..N).map(|i| (rank * N + i) as f32 * 1e-3 + 1.0).collect();

        // Warm-up: gives each rank its f32 spare, creates the ledger cell and the
        // channel's first block, and parks and resumes the rank at least once.
        for _ in 0..WARMUP {
            allreduce_shared(comm, &data, 0.0, |_| {});
        }

        // Armed phase: one more identical iteration, every rank counting its
        // own allocations into the process's total.
        ARMED[rank].store(true, Relaxed);
        let sum = allreduce_shared(comm, &data, 0.0, |_| {});
        ARMED[rank].store(false, Relaxed);

        // Sanity: the measured iteration did real work.
        let checksum: f32 = sum.iter().sum();
        sum.len() == N && checksum.is_finite() && checksum > 0.0
    });

    for (rank, &sane) in report.results.iter().enumerate() {
        assert!(sane, "rank {rank}: measured iteration produced a degenerate result");
    }
    let result_sized = RESULT_SIZED.load(Relaxed);
    assert_eq!(result_sized, 1, "the result is assembled once per process, not once per rank");
    assert_eq!(
        ALLOCS.load(Relaxed),
        3 * P + 3,
        "per rank its piece, the piece's Arc and a handle list; on the assembler a list of \
         references, the result and its Arc"
    );
}
