//! Out-of-order receives allocate nothing: a receive takes its envelope out
//! of the rank's inbox where it lies, so an early arrival costs the receiver
//! no stash of its own.
//!
//! A counting `#[global_allocator]` charges each allocation to the rank whose
//! code made it, keyed by [`simnet::current_rank`] (ranks migrate between
//! worker threads, so a thread-local would be shared by every rank a worker
//! runs), as in `collectives/tests/zero_alloc_ring.rs`. The sender's payloads
//! and its pushes onto the receiver's inbox are the sender's. This file must
//! stay a single-test binary so no sibling test's rank shares the armed id.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

use simnet::{Cluster, CostModel};

struct CountingAlloc;

const RECEIVER: usize = 1;
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn charge() {
    if ARMED.load(Relaxed) && simnet::current_rank() == Some(RECEIVER) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn receiving_in_reverse_tag_order_allocates_nothing() {
    const K: u64 = 32;
    const WARMUP: usize = 3;
    let report = Cluster::new(2, CostModel::aries()).with_workers(2).run(|comm| {
        for round in 0..=WARMUP {
            if comm.rank() == RECEIVER {
                if round == WARMUP {
                    ARMED.store(true, Relaxed);
                }
                // The last-sent tag first: every other message of the round
                // arrives ahead of the one the receive waits for.
                for tag in (0..K).rev() {
                    let v: Vec<f32> = comm.recv(0, tag);
                    assert_eq!(v, [(round as u64 * K + tag) as f32]);
                }
                ARMED.store(false, Relaxed);
            } else {
                for tag in 0..K {
                    comm.send(RECEIVER, tag, vec![(round as u64 * K + tag) as f32]);
                }
            }
        }
        comm.pending_envelopes()
    });
    assert_eq!(report.results, [0, 0]);
    assert_eq!(ALLOCS.load(Relaxed), 0, "the receiver allocated while matching out of order");
}
