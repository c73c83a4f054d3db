//! The radix select's histograms are per worker, not per rank.
//!
//! An exact threshold counts into 32 KiB of histograms, and Ok-Topk needs one
//! on a re-evaluation step only, once every τ′ steps. The P ranks of a run
//! share one process, so a histogram kept by every rank is P × 32 KiB — at
//! P = 1024 more than the residuals. `sparse::select` keeps them in one
//! process-wide pool instead, and a select never parks while it holds one, so
//! the event engine's W run tokens bound how many ever exist.
//!
//! A counting `#[global_allocator]` counts every allocation of exactly
//! 32 KiB while flat `OkTopkSgd` runs at P = 16 on two workers through two
//! re-evaluation steps (each one a local and a global exact threshold on every
//! rank). With a histogram per rank's `SelectScratch` it read 16.
//!
//! This file must stay a single-test binary: the pool and the counter are
//! process-wide, and a sibling test's selects would share both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use oktopk::{OkTopkConfig, OkTopkSgd};
use simnet::{Cluster, CostModel};

/// Bytes of one radix-select histogram block (`sparse::select`).
const HIST_BYTES: usize = 32 << 10;

static HIST_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    // `alloc_zeroed` and the first reservation of an empty `Vec` land here;
    // a growing `Vec` that passes 32 KiB reallocates and is not counted.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == HIST_BYTES {
            HIST_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn radix_histograms_are_per_worker_not_per_rank() {
    const P: usize = 16;
    const WORKERS: usize = 2;
    // No other buffer of the run is 32 KiB: n · 4 B is not, and k keeps every
    // gathered vector far below it.
    let (n, k) = (3000, 60);

    let report = Cluster::new(P, CostModel::aries()).with_workers(WORKERS).run(|comm| {
        let mut sgd = OkTopkSgd::new(OkTopkConfig::new(n, k).with_periods(4, 2));
        let mut reevals = 0;
        for t in 1..=3 {
            let grad: Vec<f32> =
                (0..n).map(|i| ((i * (comm.rank() + 3) + 7 * t) as f32 * 0.013).sin()).collect();
            reevals += usize::from(sgd.allreduce_state().is_reeval_iteration(t));
            let step = sgd.step(comm, &grad, 0.1);
            assert!(step.meta.global_nnz > 0, "step {t} reduced nothing");
        }
        reevals
    });

    assert!(report.results.iter().all(|&r| r == 2), "every rank re-evaluates at t = 1 and 3");
    let allocs = HIST_ALLOCS.load(Ordering::Relaxed);
    assert!(allocs >= 1, "no histogram was allocated: the counter does not see the select");
    assert!(
        allocs <= WORKERS,
        "{allocs} histograms of {HIST_BYTES} B for {P} ranks on {WORKERS} workers: \
         a histogram is being kept (or allocated) per rank"
    );
}
