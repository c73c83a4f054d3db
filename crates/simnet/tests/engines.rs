//! Schedule-invariance tests: results, clocks, ledgers and virtual-class
//! metrics must be bit-identical at every run-token count, plus regressions of
//! the engine itself (exact deadlock reports, recv-after-finish, lost
//! wakeups, rank panics) and of the rank fibers it runs (teardown, stack
//! size, guard page).

use simnet::{ChaosPlan, Cluster, CostModel, LedgerSnapshot, PhaseVolume};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Canonical, comparable form of a ledger snapshot.
fn ledger_canon(snap: &LedgerSnapshot, size: usize) -> Vec<((usize, String), PhaseVolume)> {
    let mut cells = Vec::new();
    for phase in snap.phases() {
        for rank in 0..size {
            let cell = snap.cell(rank, phase);
            if cell != PhaseVolume::default() {
                cells.push(((rank, phase.to_string()), cell));
            }
        }
    }
    cells
}

/// Run `f` fully serialized (W = 1: one rank at a time, in a deterministic
/// grant order) and at W ∈ {2, 3, 8}, and assert results, clocks, ledgers and
/// virtual-class metrics agree bit for bit. The run-token budget caps
/// concurrency, never semantics; with P ≤ 8, W = 8 gives every rank its own
/// worker thread, scheduled by the kernel.
fn assert_parity<T, F>(mut mk: impl FnMut() -> Cluster, f: F)
where
    T: Clone + PartialEq + std::fmt::Debug + Send,
    F: Fn(&mut simnet::Comm) -> T + Send + Sync + Copy,
{
    let size = mk().size();
    assert!(size <= 8, "W = 8 must cover every rank");
    // Force observability on: parity must also cover every Virtual-class
    // metric (recv-wait, tx/rx bytes, chaos counters, …), bit for bit.
    let serial = mk().with_obs(true).with_workers(1).run(f);
    assert!(!serial.metrics.parity_view().is_empty(), "obs was forced on; metrics must exist");
    for workers in [2usize, 3, 8] {
        let other = mk().with_obs(true).with_workers(workers).run(f);
        assert_eq!(serial.results, other.results, "W={workers}: results diverged from W=1");
        assert_eq!(serial.times, other.times, "W={workers}: clocks diverged from W=1");
        assert_eq!(
            ledger_canon(&serial.ledger, size),
            ledger_canon(&other.ledger, size),
            "W={workers}: traffic ledgers diverged from W=1"
        );
        assert_eq!(
            serial.metrics.parity_view(),
            other.metrics.parity_view(),
            "W={workers}: virtual-class metrics diverged from W=1"
        );
    }
}

/// A messaging-heavy workload: rotated all-to-all with compute and barriers.
fn busy_workload(comm: &mut simnet::Comm) -> (u64, f64) {
    let me = comm.rank();
    let p = comm.size();
    let mut acc = 0u64;
    for round in 0..3usize {
        comm.compute(1e-4 * (me + 1) as f64);
        for step in 1..p {
            let dst = (me + step) % p;
            let payload: Vec<f32> =
                (0..16 + step).map(|i| (me * 131 + round * 17 + i) as f32).collect();
            comm.send(dst, round as u64, payload);
        }
        for step in 1..p {
            let src = (me + p - step) % p;
            let got: Vec<f32> = comm.recv(src, round as u64);
            for v in got {
                acc = acc.wrapping_mul(1099511628211).wrapping_add(v.to_bits() as u64);
            }
        }
        comm.barrier();
    }
    (acc, comm.now())
}

#[test]
fn worker_counts_agree_on_messaging_compute_and_barriers() {
    assert_parity(|| Cluster::new(8, CostModel::aries()), busy_workload);
}

#[test]
fn worker_counts_agree_under_a_chaos_plan() {
    // Stragglers, link windows, jitter and pauses all charge virtually, at
    // points fixed by program order, so no schedule can move them.
    let plan = || {
        ChaosPlan::new(2024)
            .straggler(1, 2.0)
            .straggler_window(3, 1.5, 0.0, 0.5)
            .degrade_all_links(1.2, 1.5, 0.0, 0.2)
            .jitter(5e-5)
            .pause(2, 0.01, 0.05)
    };
    assert_parity(|| Cluster::new(6, CostModel::aries()).with_chaos(plan()), busy_workload);
}

#[test]
fn worker_counts_agree_on_reverse_order_recv() {
    // Rank 0 streams three tagged messages; rank 1 receives them in reverse
    // order, so the first two wait in the inbox until matched. Port charging
    // follows the receive order, which every schedule must reproduce exactly.
    let workload = |comm: &mut simnet::Comm| {
        if comm.rank() == 0 {
            for tag in 0..3u64 {
                comm.send(1, tag, vec![tag as f32; 256 * (tag as usize + 1)]);
            }
            comm.now()
        } else {
            comm.compute(1e-3);
            let c: Vec<f32> = comm.recv(0, 2);
            let b: Vec<f32> = comm.recv(0, 1);
            let a: Vec<f32> = comm.recv(0, 0);
            assert_eq!((a.len(), b.len(), c.len()), (256, 512, 768));
            comm.now()
        }
    };
    assert_parity(|| Cluster::new(2, CostModel::aries()), workload);
}

#[test]
fn event_engine_rank_panics_propagate_with_original_payload() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Cluster::new(4, CostModel::free()).run(|comm| {
            if comm.rank() == 2 {
                panic!("injected event-engine failure");
            }
            let _: Vec<f32> = comm.recv(2, 0); // blocks forever; must cascade
        })
    }));
    let msg = expect_panic(result, "a rank panic must fail the run");
    assert!(msg.contains("injected event-engine failure"), "wrong payload surfaced: {msg}");
}

#[test]
fn event_engine_scales_to_many_ranks_with_small_stacks() {
    // A quick sanity run: 256 ranks, 1 MiB stacks, a ring exchange plus a
    // barrier.
    let p = 256;
    let report = Cluster::new(p, CostModel::aries()).with_stack_bytes(1 << 20).run(|comm| {
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send(right, 0, vec![comm.rank() as f32; 32]);
        let got: Vec<f32> = comm.recv(left, 0);
        comm.barrier();
        got[0] as usize
    });
    let want: Vec<usize> = (0..p).map(|r| (r + p - 1) % p).collect();
    assert_eq!(report.results, want);
    assert_eq!(report.ledger.total_elements(), (p * 32) as u64);
}

#[test]
fn fast_path_reports_recv_cycles_exactly() {
    // A 3-cycle of receives with no sends: the engine proves it from the
    // empty ready queue and names the cycle, without a timeout. The dead heap
    // entries targeted handoffs leave behind must not mask it.
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        Cluster::new(3, CostModel::free()).run(|comm| {
            let next = (comm.rank() + 1) % comm.size();
            let _: Vec<f32> = comm.recv(next, 7);
        })
    }));
    let msg = expect_panic(result, "a recv cycle must fail the run");
    assert!(msg.contains("simnet deadlock (exact)"), "unexpected report: {msg}");
    assert!(msg.contains("recv cycle:"), "report must name the cycle: {msg}");
    assert!(msg.contains("needs no watchdog"), "report must note exact detection: {msg}");
    // Exact detection needs no timeouts; generous bound for slow CI only.
    assert!(start.elapsed() < Duration::from_secs(30));
}

#[test]
fn fast_path_reports_recv_after_finish() {
    // Rank 1 returns without sending; rank 0 then blocks on it. The report
    // must say the peer already finished (a chain, not a cycle).
    let result = catch_unwind(AssertUnwindSafe(|| {
        Cluster::new(2, CostModel::free()).run(|comm| {
            if comm.rank() == 0 {
                let _: Vec<f32> = comm.recv(1, 0);
            }
        })
    }));
    let msg = expect_panic(result, "recv from a finished rank must fail the run");
    assert!(msg.contains("simnet deadlock (exact)"), "unexpected report: {msg}");
    assert!(msg.contains("already finished and will never send"), "unexpected report: {msg}");
}

#[test]
fn fast_path_rejects_send_to_finished_rank() {
    // W=1 pins the interleaving: rank 0 parks on the recv, rank 1 sends and
    // finishes (its inbox is flagged done), then rank 0 resumes and sends
    // into the void.
    let result = catch_unwind(AssertUnwindSafe(|| {
        Cluster::new(2, CostModel::free()).with_workers(1).run(|comm| {
            if comm.rank() == 0 {
                let _: Vec<f32> = comm.recv(1, 0);
                comm.send(1, 1, vec![1.0f32]);
            } else {
                comm.send(0, 0, vec![0.0f32]);
            }
        })
    }));
    let msg = expect_panic(result, "send to a finished rank must fail the run");
    assert!(msg.contains("already finished"), "unexpected message: {msg}");
}

#[test]
fn fast_path_survives_the_inline_continue_window() {
    // Lost-wakeup stress for the claim / `wake_pending` handshake: W=2 keeps
    // both ranks genuinely concurrent, zero compute makes sends land as often
    // as possible in the window between the receiver's wait registration and
    // its park. Any lost wakeup deadlocks (and the exact detector reports it);
    // any double wake corrupts the token protocol. Thousands of rounds of
    // bidirectional traffic must come out exact.
    let iters = 5000usize;
    let report =
        Cluster::new(2, CostModel::free()).with_obs(true).with_workers(2).run(move |comm| {
            let me = comm.rank();
            let other = 1 - me;
            let mut acc = 0u64;
            for it in 0..iters {
                comm.send(other, it as u64, vec![(me * iters + it) as f32]);
                let got: Vec<f32> = comm.recv(other, it as u64);
                acc = acc.wrapping_mul(31).wrapping_add(got[0] as u64);
            }
            acc
        });
    let expect = |src: usize| {
        (0..iters).fold(0u64, |a, it| a.wrapping_mul(31).wrapping_add((src * iters + it) as u64))
    };
    assert_eq!(report.results, vec![expect(1), expect(0)]);
}

#[test]
fn a_rank_panic_unwinds_every_other_fiber() {
    // Every rank but the culprit holds a drop guard and is parked in a recv
    // from the culprit (or has just been released from the barrier) when the
    // culprit panics. Teardown must resume each of those fibers so it unwinds
    // and drops its guard; a teardown that leaves them suspended never
    // finishes the run.
    static DROPPED: AtomicUsize = AtomicUsize::new(0);
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            DROPPED.fetch_add(1, Ordering::SeqCst);
        }
    }
    const P: usize = 64;
    const CULPRIT: usize = 37;
    for workers in [1usize, 2] {
        DROPPED.store(0, Ordering::SeqCst);
        let run = std::thread::spawn(move || {
            catch_unwind(AssertUnwindSafe(|| {
                Cluster::new(P, CostModel::free()).with_workers(workers).run(|comm| {
                    let _guard = if comm.rank() == CULPRIT { None } else { Some(Guard) };
                    comm.barrier();
                    if comm.rank() == CULPRIT {
                        panic!("rank {CULPRIT} fails on purpose");
                    }
                    let _: Vec<f32> = comm.recv(CULPRIT, 0);
                })
            }))
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while !run.is_finished() {
            assert!(Instant::now() < deadline, "W={workers}: teardown left fibers suspended");
            std::thread::sleep(Duration::from_millis(10));
        }
        let msg =
            expect_panic(run.join().expect("runner thread"), "a rank panic must fail the run");
        assert!(msg.contains("fails on purpose"), "W={workers}: wrong payload surfaced: {msg}");
        assert_eq!(DROPPED.load(Ordering::SeqCst), P - 1, "W={workers}: guards dropped");
    }
}

/// Recurse in 512-byte frames until `target` bytes of stack below `base` are
/// in use; returns the bytes used.
#[inline(never)]
fn use_stack(base: usize, target: usize) -> usize {
    let frame = [0u8; 512];
    let here = std::hint::black_box(&frame) as *const [u8; 512] as usize;
    let used = base - here;
    if used >= target {
        return used;
    }
    // Not a tail call: the frame stays live across the recursion.
    use_stack(base, target).max(std::hint::black_box(frame)[7] as usize)
}

/// The address of a local of the caller's frame, as a stack depth origin.
#[inline(never)]
fn stack_base() -> usize {
    let marker = 0u8;
    std::hint::black_box(&marker) as *const u8 as usize
}

#[test]
fn a_rank_can_use_three_quarters_of_a_64_kib_stack() {
    let target = 48 << 10;
    let report = Cluster::new(4, CostModel::free()).with_stack_bytes(64 << 10).run(move |comm| {
        comm.barrier();
        let used = use_stack(stack_base(), target);
        comm.barrier();
        used
    });
    assert!(report.results.iter().all(|&used| used >= target), "{:?}", report.results);
}

#[test]
fn overrunning_a_fiber_stack_dies_by_sigsegv() {
    use std::os::unix::process::ExitStatusExt;
    let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args(["--ignored", "--exact", "fiber_stack_overrun_child", "--nocapture"])
        .output()
        .expect("re-exec the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("returned from the overrun"),
        "a rank wrote past its stack without faulting: {stdout}"
    );
    assert_eq!(
        out.status.signal(),
        Some(11),
        "the overrun must die by SIGSEGV on the guard page; child {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The child of `overrunning_a_fiber_stack_dies_by_sigsegv`: rank 0 recurses
/// 16 KiB past the end of its 64 KiB stack while ranks 1 and 2, whose stacks
/// were mapped next to it, wait. Crashes by design, so it runs only when
/// invoked alone (`--exact`).
#[test]
#[ignore = "crashes the process by design; run by overrunning_a_fiber_stack_dies_by_sigsegv"]
fn fiber_stack_overrun_child() {
    if !std::env::args().any(|a| a == "--exact") {
        return;
    }
    Cluster::new(3, CostModel::free()).with_stack_bytes(64 << 10).with_workers(1).run(|comm| {
        if comm.rank() == 0 {
            let used = use_stack(stack_base(), 80 << 10);
            println!("returned from the overrun after {used} bytes");
            comm.send(1, 0, vec![0.0f32]);
            comm.send(2, 0, vec![0.0f32]);
        } else {
            let _: Vec<f32> = comm.recv(0, 0);
        }
    });
}

/// Every released rank resumes at the barrier's clock, so a release is one
/// tie and goes in rank order, whatever clocks the ranks arrived with. At
/// W = 1 the ranks reach the barrier in rank order, the last one releases it
/// and runs on, and the rest resume after it. Here they arrive with clocks
/// falling by rank, which a release sorted by arrival clock would reverse.
#[test]
fn a_barrier_releases_in_rank_order_whatever_the_arrival_clocks() {
    let p = 5;
    let next = AtomicUsize::new(0);
    let report = Cluster::new(p, CostModel::free()).with_workers(1).run(|comm| {
        comm.compute((p - comm.rank()) as f64);
        comm.barrier();
        next.fetch_add(1, Ordering::SeqCst)
    });
    let mut resumed = vec![0; p];
    for (rank, &slot) in report.results.iter().enumerate() {
        resumed[slot] = rank;
    }
    assert_eq!(resumed, [4, 0, 1, 2, 3]);
}

/// Unwrap a `catch_unwind` result that must be a panic, as a string message.
fn expect_panic<T>(result: Result<T, Box<dyn std::any::Any + Send>>, why: &str) -> String {
    match result {
        Ok(_) => panic!("{why}"),
        Err(payload) => {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                panic!("panic payload was not a string");
            }
        }
    }
}
