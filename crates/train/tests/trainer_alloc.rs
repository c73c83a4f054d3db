//! Who allocates a parameter-sized buffer in data-parallel training: the P
//! replicas share one parameter vector and one optimizer, so a steady-state
//! step makes one new parameter vector for the whole process, not one per
//! rank.
//!
//! A counting `#[global_allocator]` (the `step_alloc.rs` pattern) charges each
//! allocation of at least 4n bytes — n the model's parameter count — to the
//! rank that made it, keyed by [`simnet::current_rank`] (ranks migrate between
//! worker threads), or to no rank when it is made outside the cluster.
//!
//! - In the steady-state window (every step after `WARMUP`), the process makes
//!   exactly one per step: the next parameter vector, made by whichever rank
//!   applies the step first. A dense scheme adds its one assembled update per
//!   step (`step_alloc.rs`).
//! - Over the whole run, each rank makes its gradients, its ε (sparse schemes)
//!   and the factory's transient parameters, plus the steps it applied; no
//!   rank allocates an optimizer state. Outside the ranks the run makes the
//!   probe model's parameters and gradients and, under Adam, its two moments.
//!
//! This file must stay a single-test binary: the counter is process-wide, so
//! a sibling test running on another thread would be charged to the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dnn::data::SyntheticSequences;
use dnn::models::LstmNet;
use dnn::Model;
use train::{run_data_parallel, OptimizerKind, Scheme, TrainConfig};

const P: usize = 4;
const WARMUP: usize = 2;
const STEPS: usize = 3;

struct CountingAlloc;

/// Smallest allocation charged: 4n bytes, set before the run.
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Set by the first rank to ask for the first batch after the warm-up.
static WINDOW: AtomicBool = AtomicBool::new(false);
static IN_WINDOW: AtomicUsize = AtomicUsize::new(0);
static NO_RANK: AtomicUsize = AtomicUsize::new(0);
static MINE: [AtomicUsize; P] = [const { AtomicUsize::new(0) }; P];

fn charge(bytes: usize) {
    if bytes < THRESHOLD.load(Ordering::Relaxed) {
        return;
    }
    if WINDOW.load(Ordering::Relaxed) {
        IN_WINDOW.fetch_add(1, Ordering::Relaxed);
    }
    match simnet::current_rank() {
        Some(rank) => MINE[rank].fetch_add(1, Ordering::Relaxed),
        None => NO_RANK.fetch_add(1, Ordering::Relaxed),
    };
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

fn model() -> LstmNet {
    LstmNet::with_width(5, 256, 16, 16)
}

struct Counts {
    in_window: usize,
    no_rank: usize,
    per_rank: Vec<usize>,
}

/// Parameter-sized allocations of one `WARMUP + STEPS`-step run.
fn count(scheme: Scheme, optimizer: OptimizerKind) -> Counts {
    let data = SyntheticSequences::with_shape(3, 256, 8, 4.0);
    let mut cfg = TrainConfig::new(scheme, 0.05);
    cfg.iters = WARMUP + STEPS;
    cfg.optimizer = optimizer;
    cfg.tau = 2;
    cfg.tau_prime = 2;
    THRESHOLD.store(4 * model().num_params(), Ordering::SeqCst);
    run_data_parallel(
        P,
        &cfg,
        model,
        |iter, rank, world| {
            if iter == WARMUP as u64 {
                WINDOW.store(true, Ordering::SeqCst);
            }
            data.train_batch(iter, rank, world, 2)
        },
        &[],
    );
    THRESHOLD.store(usize::MAX, Ordering::SeqCst);
    WINDOW.store(false, Ordering::SeqCst);
    Counts {
        in_window: IN_WINDOW.swap(0, Ordering::SeqCst),
        no_rank: NO_RANK.swap(0, Ordering::SeqCst),
        per_rank: MINE.iter().map(|m| m.swap(0, Ordering::SeqCst)).collect(),
    }
}

#[test]
fn replicas_share_one_parameter_vector_and_one_optimizer() {
    let rows = [
        // (scheme, optimizer, moments outside the ranks, ε per rank, assembled updates per step)
        (Scheme::OkTopk, OptimizerKind::Adam { lr: 1e-3, weight_decay: 0.01 }, 2, 1, 0),
        (Scheme::Dense, OptimizerKind::Sgd { lr: 0.1 }, 0, 0, 1),
    ];
    for (scheme, optimizer, moments, eps, assembled) in rows {
        let name = scheme.name();
        let got = count(scheme, optimizer);
        let per_step = 1 + assembled;
        assert_eq!(got.in_window, STEPS * per_step, "{name}: allocations in {STEPS} steady steps");
        // The probe model's parameters and gradients, and the optimizer.
        assert_eq!(got.no_rank, 2 + moments, "{name}: allocations outside the ranks");
        // Gradients, transient factory parameters and ε on every rank; the
        // steps' new vectors on whichever rank applied them.
        let base = 2 + eps;
        for (rank, &mine) in got.per_rank.iter().enumerate() {
            assert!(mine >= base, "{name}: rank {rank} made {mine} < {base}");
        }
        let steps = got.per_rank.iter().map(|&mine| mine - base).sum::<usize>();
        assert_eq!(steps, (WARMUP + STEPS) * per_step, "{name}: {:?}", got.per_rank);
    }
}
