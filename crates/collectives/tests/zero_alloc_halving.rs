//! Steady-state allocation audit for the power-of-two dense allreduce, the
//! twin of `zero_alloc_ring.rs` (which covers the ring path, P = 3).
//!
//! A counting `#[global_allocator]` wraps the system allocator, armed per rank
//! and keyed by [`simnet::current_rank`], and sums what the armed ranks
//! allocate. After a few warm-up steps, one full Rabenseifner step on P = 4
//! ranks is counted, process-wide, at the default worker count: the
//! scheduler's ready queue is sized once at its purge threshold, so a rank
//! that wakes another never grows it in the armed step.
//!
//! The process makes exactly **23** allocations, 4 · 5 + 3, at any length.
//! Two are checked, n = 4096 (1024 elements a region) and n = 1024:
//!
//! - reduce-scatter half: **one per rank**, the piece, an exact-size copy of
//!   its region. A rank takes one n/2 buffer, sums its half of the gradient
//!   with the partner's loan into it, then lends the half of it that it gives
//!   away and adds the partner's loan into the half it keeps, in place; no
//!   step takes another buffer. The buffer it recycles is the one it took, so
//!   it becomes the rank's spare and the armed step never misses.
//! - gather half: **four per rank**, none an f32 buffer: the `Arc` around the
//!   rank's piece, the leaf block and one joined block per doubling round
//!   (log₂ P).
//!
//! The assembler makes three more: the P-slot list of piece references, the
//! n-word result and the `Arc` around it. Whichever rank finishes its gather
//! first assembles; that exactly one does — one result-sized allocation — is
//! checked.
//!
//! Each rank sends two messages per iteration on each of its two partner
//! channels, so the measured iteration stays inside every channel's first
//! block. This file must stay a single-test binary so no sibling test's rank
//! shares an armed rank id.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

use collectives::allreduce_shared;
use simnet::{Cluster, CostModel};

struct CountingAlloc;

const P: usize = 4; // power of two → Rabenseifner

static ARMED: [AtomicBool; P] = [const { AtomicBool::new(false) }; P];
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static REGION_SIZED: AtomicUsize = AtomicUsize::new(0);
static RESULT_SIZED: AtomicUsize = AtomicUsize::new(0);
/// Bytes of one region and of the whole result at the current length.
static REGION_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
static RESULT_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);

fn charge(bytes: usize) {
    let Some(rank) = simnet::current_rank() else { return };
    if ARMED[rank].load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        if bytes >= REGION_BYTES.load(Relaxed) {
            REGION_SIZED.fetch_add(1, Relaxed);
        }
        if bytes >= RESULT_BYTES.load(Relaxed) {
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

/// One armed step at length `n`: `(allocations, region-sized, result-sized)`
/// summed over the ranks.
fn armed_step(n: usize) -> (usize, usize, usize) {
    const WARMUP: usize = 5;
    REGION_BYTES.store(4 * (n / P), Relaxed);
    RESULT_BYTES.store(4 * n, Relaxed);
    for count in [&ALLOCS, &REGION_SIZED, &RESULT_SIZED] {
        count.store(0, Relaxed);
    }
    Cluster::new(P, CostModel::aries()).run(|comm| {
        let rank = comm.rank();
        let data: Vec<f32> = (0..n).map(|i| (rank * n + i) as f32 * 1e-3 + 1.0).collect();

        // Warm-up: gives each rank its f32 spare, creates the ledger cell and the
        // channels' first blocks, and parks and resumes the rank.
        for _ in 0..WARMUP {
            allreduce_shared(comm, &data, 0.0, |_| {});
        }

        ARMED[rank].store(true, Relaxed);
        let sum = allreduce_shared(comm, &data, 0.0, |_| {});
        ARMED[rank].store(false, Relaxed);

        // Sanity: the measured iteration did real work.
        let checksum: f32 = sum.iter().sum();
        assert!(sum.len() == n && checksum.is_finite() && checksum > 0.0, "degenerate result");
    });
    (ALLOCS.load(Relaxed), REGION_SIZED.load(Relaxed), RESULT_SIZED.load(Relaxed))
}

#[test]
fn steady_state_halving_allreduce_allocates_its_piece_one_list_and_one_result() {
    // (n, allocations in the process, of which region-sized)
    for n in [4096, 1024] {
        let (allocs, region, result) = armed_step(n);
        assert_eq!(result, 1, "n={n}: the result is assembled once per process");
        assert_eq!(
            allocs, 23,
            "n={n}: the reduce-scatter's pieces, the gather's handles, and the assembler's \
             list of references, result and Arc"
        );
        assert_eq!(region, 5, "n={n}: f32 buffers of a region or more: four pieces, one result");
    }
}
