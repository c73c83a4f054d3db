//! Steady-state allocation audit for the power-of-two dense allreduce, the
//! twin of `zero_alloc_ring.rs` (which covers the ring path, P = 3).
//!
//! A counting `#[global_allocator]` wraps the system allocator, armed per rank
//! and keyed by [`simnet::current_rank`], and sums what the armed ranks
//! allocate. The buffer pool is the run's, not a rank's, so which rank's take
//! misses depends on the grant order; how many do does not. After a warm-up
//! that fills the pool, one full Rabenseifner step on P = 4 ranks is counted,
//! process-wide, in two geometries, at the default worker count: the
//! scheduler's ready queue is sized once at its purge threshold, so a rank
//! that wakes another never grows it in the armed step.
//!
//! **Leaves** (n = 4·[`LEAF_FLOOR`]: a leaf per region, so the first step's
//! half is two leaves). The process makes exactly **27** allocations:
//!
//! - reduce-scatter half: **two per rank**. The first step lends the partner
//!   its half of the gradient (a loan needs no allocation) and sums the
//!   rank's own half with the partner's loan into two pooled leaves: the list
//!   that holds them. The second step hands one leaf over inline
//!   (`Payload::F32`) and recycles the one it kept. So each rank gives the
//!   pool back one leaf fewer than it took, and four of the step's eight
//!   takes miss: those four region-sized buffers are the leaves that end as
//!   the ranks' pieces. Every take of a step comes before any recycle of it
//!   (a rank's second step waits for its partner's loan to be read, so for
//!   the reader's takes), and every recycle of the step before comes before
//!   either, so it is always four.
//! - gather half: **four per rank**, none an f32 buffer: the `Arc` around the
//!   rank's piece, the leaf block and one joined block per doubling round
//!   (log₂ P).
//!
//! **One leaf** (n = [`LEAF_FLOOR`], so both halves are under the floor):
//! the segment splits by copying, as before leaves, and the pool gets back
//! every buffer it gave. The process makes exactly **23**: per rank the
//! piece, an exact-size copy of its region, and the same four in the gather
//! half. Here a rank takes an n/2 buffer to sum the partner's loan into and an
//! n/4 one to copy its partner's quarter out of, and recycles both by its
//! end, and whether all four n/4 takes are out at once is up to the grant
//! order, so the warm-up steps alone may leave the pool short of the peak it
//! grows to; the warm-up therefore ends with every rank holding one buffer of
//! each size a step takes at the same time, across a barrier.
//!
//! The assembler makes three more in either geometry: the P-slot list of
//! piece references, the n-word result and the `Arc` around it. Whichever rank
//! finishes its gather first assembles; that exactly one does — one
//! result-sized allocation — is checked.
//!
//! The totals are 4 · 6 + 3 and 4 · 5 + 3. Before the first step lent its
//! half, it sent copied leaves as a boxed list, one more allocation per rank
//! in the leaves geometry (31); the one-leaf count did not move.
//!
//! Each rank sends two messages per iteration on each of its two partner
//! channels, so the measured iteration stays inside every channel's first
//! block. This file must stay a single-test binary so no sibling test's rank
//! shares an armed rank id.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

use collectives::{allreduce_shared, LEAF_FLOOR};
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

        // Warm-up: fills the f32 buffer pool, creates the ledger cell and the
        // channels' first blocks, and parks and resumes the rank. Then every
        // rank holds one buffer of each size a step takes (n/2 and n/4 under
        // the floor, one region above it) across a barrier, so the pool holds
        // each size's peak whatever order the warm-up steps ran in.
        for _ in 0..WARMUP {
            allreduce_shared(comm, &data, 0.0, |_| {});
        }
        let sizes = if n == LEAF_FLOOR { vec![n / 2, n / 4] } else { vec![n / P] };
        let held: Vec<Vec<f32>> = sizes.into_iter().map(|len| comm.take_f32(len)).collect();
        comm.barrier();
        held.into_iter().for_each(|buf| comm.recycle_f32(buf));
        comm.barrier();

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
    for (n, total, region_sized) in [(4 * LEAF_FLOOR, 27, 5), (LEAF_FLOOR, 23, 5)] {
        let (allocs, region, result) = armed_step(n);
        assert_eq!(result, 1, "n={n}: the result is assembled once per process");
        assert_eq!(
            allocs, total,
            "n={n}: the reduce-scatter's pieces, lists and misses, the gather's handles, and \
             the assembler's list of references, result and Arc"
        );
        assert_eq!(region, region_sized, "n={n}: f32 buffers of a region or more");
    }
}
