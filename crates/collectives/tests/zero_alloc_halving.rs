//! Steady-state allocation audit for the power-of-two dense allreduce, the
//! twin of `zero_alloc_ring.rs` (which covers the ring path, P = 3).
//!
//! A counting `#[global_allocator]` wraps the system allocator, armed per rank
//! and keyed by [`simnet::current_rank`]. After a warm-up that fills the
//! per-rank buffer pools, one full Rabenseifner step on P = 4 ranks is
//! counted, in two geometries, at the default worker count: the scheduler's
//! ready queue is sized once at its purge threshold, so a rank that wakes
//! another never grows it in the armed step.
//!
//! **Leaves** (n = 4·[`LEAF_FLOOR`]: a leaf per region, so the first step's
//! half is two leaves). A rank makes exactly **seven** allocations:
//!
//! - reduce-scatter half: **three**. The first step copies the partner's two
//!   leaves out of the gradient into pooled buffers and sends them as one
//!   list: the list, and the `Box` a non-inline payload travels in. The second
//!   step hands one leaf over inline (`Payload::F32`) and recycles the one it
//!   kept. So the pool gets back one leaf fewer than it gave, and one take
//!   misses: that region-sized buffer is the third, the leaf that ends as some
//!   rank's piece.
//! - gather half: **four**, none an f32 buffer: the `Arc` around the rank's
//!   piece, the leaf block and one joined block per doubling round (log₂ P).
//!
//! **One leaf** (n = [`LEAF_FLOOR`], so both halves are under the floor):
//! the segment splits by copying, as before leaves, and the pool gets back
//! every buffer it gave. A rank makes exactly **five**: the piece, an
//! exact-size copy of its region, and the same four in the gather half.
//!
//! The assembler makes three more in either geometry: the P-slot list of
//! piece references, the n-word result and the `Arc` around it. Whichever rank
//! finishes its gather first assembles; that exactly one does is checked.
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
static ALLOCS: [AtomicUsize; P] = [const { AtomicUsize::new(0) }; P];
static REGION_SIZED: [AtomicUsize; P] = [const { AtomicUsize::new(0) }; P];
static RESULT_SIZED: [AtomicUsize; P] = [const { AtomicUsize::new(0) }; P];
/// Bytes of one region and of the whole result at the current length.
static REGION_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
static RESULT_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);

fn charge(bytes: usize) {
    let Some(rank) = simnet::current_rank() else { return };
    if ARMED[rank].load(Relaxed) {
        ALLOCS[rank].fetch_add(1, Relaxed);
        if bytes >= REGION_BYTES.load(Relaxed) {
            REGION_SIZED[rank].fetch_add(1, Relaxed);
        }
        if bytes >= RESULT_BYTES.load(Relaxed) {
            RESULT_SIZED[rank].fetch_add(1, Relaxed);
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
/// for each rank.
fn armed_step(n: usize) -> Vec<(usize, usize, usize)> {
    const WARMUP: usize = 5;
    REGION_BYTES.store(4 * (n / P), Relaxed);
    RESULT_BYTES.store(4 * n, Relaxed);
    for rank in 0..P {
        ALLOCS[rank].store(0, Relaxed);
        REGION_SIZED[rank].store(0, Relaxed);
        RESULT_SIZED[rank].store(0, Relaxed);
    }
    let report = Cluster::new(P, CostModel::aries()).run(|comm| {
        let rank = comm.rank();
        let data: Vec<f32> = (0..n).map(|i| (rank * n + i) as f32 * 1e-3 + 1.0).collect();

        // Warm-up: fills the f32 buffer pool, creates the ledger cell and the
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
        let count = |c: &[AtomicUsize; P]| c[rank].load(Relaxed);
        (count(&ALLOCS), count(&REGION_SIZED), count(&RESULT_SIZED))
    });
    report.results
}

#[test]
fn steady_state_halving_allreduce_allocates_its_piece_one_list_and_one_result() {
    // (n, allocations per rank, of which region-sized buffers)
    for (n, per_rank, buffers) in [(4 * LEAF_FLOOR, 7, 1), (LEAF_FLOOR, 5, 1)] {
        let mut assemblers = 0;
        for (rank, &(allocs, region_sized, result_sized)) in armed_step(n).iter().enumerate() {
            let what = format!("n={n} rank {rank}");
            assert!(result_sized <= 1, "{what}: {result_sized} result-sized allocations");
            assert_eq!(
                allocs,
                per_rank + 3 * result_sized,
                "{what}: the reduce-scatter's piece and lists, the gather's handles, and on the \
                 assembler a list of references, the result and its Arc"
            );
            assert_eq!(region_sized, buffers + result_sized, "{what}: f32 buffers");
            assemblers += result_sized;
        }
        assert_eq!(assemblers, 1, "n={n}: the result is assembled once per process");
    }
}
