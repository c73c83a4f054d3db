//! Steady-state allocation audit for the scratch-based selection hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; a thread-local
//! flag arms the counter so only allocations made *by this test's thread* are
//! charged (the libtest harness thread may allocate concurrently). After a
//! warm-up that grows every pooled buffer to its steady-state capacity, one
//! full selection iteration — exact threshold (radix select on the
//! process-wide histogram pool), threshold select, fused accumulate+select,
//! COO merge, re-filter, recycle — must perform **zero** heap allocations.
//!
//! This file must stay a single-test binary: a sibling test running in another
//! thread while the counter is armed would not be charged, but one running on
//! the same thread pool could skew timings; keeping the binary minimal keeps
//! the audit airtight.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sparse::scratch::{
    accumulate_select_scratch, filter_abs_ge_scratch, select_ge_scratch, SelectScratch,
};
use sparse::select::exact_threshold;
use sparse::CooGradient;

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

/// One steady-state selection iteration as the Ok-Topk hot loop performs it:
/// estimate the exact threshold, select ≥-threshold entries, run the fused
/// accumulate+select a reuse step runs instead, merge a peer's contribution
/// without allocating, re-filter against the threshold, and return all storage
/// to the pool — including an empty shard's, as split-and-reduce recycles
/// every shard it receives and most are empty at large P.
fn hot_iteration(
    dense: &[f32],
    residual: &mut [f32],
    peer: &CooGradient,
    k: usize,
    scratch: &mut SelectScratch,
    spare_idx: &mut Vec<u32>,
    spare_val: &mut Vec<f32>,
) -> usize {
    let th = exact_threshold(dense, k);
    let mut selected = select_ge_scratch(dense, th, scratch);
    // ε = 0 before, so ε + 1·dense = dense after: the same selection again.
    residual.fill(0.0);
    let fused = accumulate_select_scratch(residual, dense, 1.0, th, scratch);
    assert_eq!(fused, selected);
    scratch.recycle(fused);
    selected.merge_sum_swap(peer, spare_idx, spare_val);
    let kept = filter_abs_ge_scratch(&selected, th, scratch);
    let nnz = kept.nnz();
    scratch.recycle(selected);
    scratch.recycle(kept);
    scratch.recycle(CooGradient::new());
    nnz
}

#[test]
fn steady_state_selection_path_is_allocation_free() {
    let n = 4096usize;
    let k = 256usize;
    // All-nonzero dense input so warm-up exercises the worst-case capacities.
    let dense: Vec<f32> = (0..n)
        .map(|i| {
            let v = ((i as f32 * 0.731).sin() * 2.0) + 0.01;
            if v == 0.0 {
                0.01
            } else {
                v
            }
        })
        .collect();
    let peer_idx: Vec<u32> = (0..n as u32).step_by(3).collect();
    let peer_val: Vec<f32> = peer_idx.iter().map(|&i| (i as f32 * 0.13).cos()).collect();
    let peer = CooGradient::from_sorted(peer_idx, peer_val);

    let mut residual = vec![0.0f32; n];
    let mut scratch = SelectScratch::new();
    let (mut spare_idx, mut spare_val) = scratch.take_pair();

    // Touch the thread-locals while unarmed (first TLS access must not be
    // charged) and warm every pooled buffer to steady-state capacity,
    // including the full-capacity select (threshold 0 keeps every nonzero).
    ARMED.with(|a| a.set(false));
    ALLOCS.with(|c| c.set(0));
    let full = select_ge_scratch(&dense, 0.0, &mut scratch);
    scratch.recycle(full);
    let mut warm_nnz = 0;
    for _ in 0..3 {
        warm_nnz = hot_iteration(
            &dense,
            &mut residual,
            &peer,
            k,
            &mut scratch,
            &mut spare_idx,
            &mut spare_val,
        );
    }

    // Armed phase: the same iteration, repeated, must not allocate at all.
    ARMED.with(|a| a.set(true));
    let mut armed_nnz = 0;
    for _ in 0..5 {
        armed_nnz = hot_iteration(
            &dense,
            &mut residual,
            &peer,
            k,
            &mut scratch,
            &mut spare_idx,
            &mut spare_val,
        );
    }
    ARMED.with(|a| a.set(false));

    let allocs = ALLOCS.with(|c| c.get());
    assert_eq!(allocs, 0, "steady-state selection iteration performed {allocs} heap allocations");
    // Sanity: the armed iterations did real work identical to the warm ones.
    assert_eq!(armed_nnz, warm_nnz);
    assert!(armed_nnz > 0);
}
