//! Who may allocate a gradient-sized buffer in a steady-state step: nobody,
//! except the one rank per step that assembles a dense scheme's result.
//!
//! A counting `#[global_allocator]` (the `collectives/tests/zero_alloc_ring.rs`
//! pattern, but process-wide: every rank counts) charges each
//! allocation of at least 4n bytes made while the window is armed. After two
//! warm-up steps — the sparse baselines' ε, Ok-Topk's ε and a node leader's
//! `node_sum` exist by then — three more steps of every sparse scheme must
//! make none, on any rank: error feedback accumulates in place, non-leaders of
//! Hier-Ok-Topk read their gradient straight into the intra-node reduce, and
//! the leader's node sum is reused. (TopkDSA's switch to dense is per region,
//! at most n/2.)
//!
//! Dense, DenseOvlp and Hier-Dense make exactly one per *step*, not one per
//! rank per step: the allreduce reads the gradient where it lies, accumulates
//! in pooled chunks of at most n/2, and whichever rank (Hier-Dense: whichever
//! node leader) finishes its gather first concatenates the reduced regions
//! into the one `Update::Dense` every rank then holds a handle to. A
//! Hier-Dense non-leader gets that handle by broadcast and allocates nothing
//! n-sized at all.
//!
//! Over a Hier-Ok-Topk reducer's whole life — `Reducer::new` through three
//! steps, counted per rank — a rank that is not a node leader makes no
//! such allocation at all (it never builds an `OkTopkSgd`), and a leader makes
//! exactly 2: its ε and its `node_sum`.
//!
//! Each rank's share is keyed by [`simnet::current_rank`], not by thread:
//! ranks migrate between worker threads at every blocking call.
//!
//! This file must stay a single-test binary: the counter is process-wide, so
//! a sibling test running on another thread would be charged to the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use simnet::{Cluster, CostModel};
use train::{CostProfile, Reducer, Scheme};

const P: usize = 8;
const RPN: usize = 4;
const N: usize = 1 << 15;
const WARMUP: usize = 2;
const STEPS: usize = 3;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static GRADIENT_SIZED: AtomicUsize = AtomicUsize::new(0);

/// The share of `GRADIENT_SIZED` each rank was charged.
static MINE: [AtomicUsize; P] = [const { AtomicUsize::new(0) }; P];

fn charge(bytes: usize) {
    if bytes >= 4 * N && ARMED.load(Ordering::Relaxed) {
        GRADIENT_SIZED.fetch_add(1, Ordering::Relaxed);
        if let Some(rank) = simnet::current_rank() {
            MINE[rank].fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc_zeroed(layout)
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

/// Heavy-tailed deterministic gradient: a fixed function of (rank, step, index).
fn grad(rank: usize, step: usize) -> Vec<f32> {
    (0..N)
        .map(|i| {
            let h = ((rank * 7919 + step * 104729 + i) as u64).wrapping_mul(0x9e3779b97f4a7c15);
            let u = (h >> 40) as f32 / (1 << 24) as f32 - 0.5;
            u * u * u
        })
        .collect()
}

/// Gradient-sized allocations, process-wide, over `STEPS` steady-state steps.
fn gradient_sized_allocs(scheme: Scheme) -> usize {
    GRADIENT_SIZED.store(0, Ordering::SeqCst);
    Cluster::new(P, CostModel::aries()).run(move |comm| {
        // tau = tau' = 2: the window holds re-evaluation and reuse steps alike.
        let mut r = Reducer::new(scheme, N, 0.01, CostProfile::paper_calibrated(), 2, 2)
            .with_ranks_per_node(RPN);
        let grads: Vec<Vec<f32>> = (0..WARMUP + STEPS).map(|t| grad(comm.rank(), t)).collect();
        for (t, g) in grads.iter().enumerate() {
            if t == WARMUP {
                // Every rank is past its warm-up before the window opens.
                comm.barrier();
                ARMED.store(true, Ordering::SeqCst);
                comm.barrier();
            }
            r.reduce(comm, g, 0.1);
        }
        comm.barrier();
        ARMED.store(false, Ordering::SeqCst);
    });
    GRADIENT_SIZED.load(Ordering::SeqCst)
}

/// Gradient-sized allocations of each rank over a Hier-Ok-Topk reducer's whole
/// life: construction and its first `STEPS` steps.
fn whole_life_allocs_per_rank() -> Vec<usize> {
    let report = Cluster::new(P, CostModel::aries()).run(move |comm| {
        let grads: Vec<Vec<f32>> = (0..STEPS).map(|t| grad(comm.rank(), t)).collect();
        comm.barrier();
        ARMED.store(true, Ordering::SeqCst);
        comm.barrier();
        let before = MINE[comm.rank()].load(Ordering::SeqCst);
        let mut r =
            Reducer::new(Scheme::HierOkTopk, N, 0.01, CostProfile::paper_calibrated(), 2, 2)
                .with_ranks_per_node(RPN);
        for g in &grads {
            r.reduce(comm, g, 0.1);
        }
        let mine = MINE[comm.rank()].load(Ordering::SeqCst) - before;
        comm.barrier();
        ARMED.store(false, Ordering::SeqCst);
        mine
    });
    report.results
}

#[test]
fn steady_state_steps_allocate_no_gradient_sized_buffer() {
    let (sparse, dense): (Vec<Scheme>, Vec<Scheme>) =
        Scheme::all().into_iter().partition(Scheme::is_sparse);
    for scheme in sparse {
        let got = gradient_sized_allocs(scheme);
        assert_eq!(got, 0, "{}: {got} allocations of >= 4n bytes in {STEPS} steps", scheme.name());
    }
    // The counter does count: a dense step's one shared result.
    for scheme in dense {
        assert_eq!(gradient_sized_allocs(scheme), STEPS, "{}", scheme.name());
    }
    // Hier-Ok-Topk's n-sized state is leader-only from construction on.
    for (rank, got) in whole_life_allocs_per_rank().into_iter().enumerate() {
        let want = if rank % RPN == 0 { 2 } else { 0 };
        assert_eq!(got, want, "rank {rank}: allocations of >= 4n bytes over a reducer's life");
    }
}
