//! Schedule-invariance test: every allreduce scheme, run fully serialized
//! (W = 1 run token: one rank at a time, in a deterministic grant order) and
//! with a worker thread per rank (W = P), must produce
//! bit-identical updates, virtual-clock trajectories and traffic ledgers —
//! clean and under chaos. Clocks depend only on per-rank program order and
//! matched message order, so no grant order the scheduler or the kernel picks
//! may move a bit (DESIGN.md §10).

use proptest::prelude::*;
use simnet::{ChaosPlan, Cluster, Comm, CostModel};
use train::{CostProfile, Reducer, Scheme, Update};

const P: usize = 8;
const N: usize = 512;
const ITERS: usize = 3;

/// Deterministic per-rank gradient: smooth with a few spikes so sparse schemes
/// have meaningful top-k structure.
fn grad(n: usize, rank: usize, iter: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = (i * (rank + 2) + iter * 31) as f32;
            let spike = if i % 97 == rank * 7 { 4.0 } else { 0.0 };
            (x * 0.01).sin() * 0.3 + spike
        })
        .collect()
}

fn plan(p: usize) -> ChaosPlan {
    ChaosPlan::new(2024)
        .straggler(1 % p, 2.0)
        .straggler_window(3 % p, 1.5, 0.0, 0.5)
        .degrade_all_links(1.2, 1.5, 0.0, 0.2)
        .jitter(5e-5)
        .pause(2 % p, 0.01, 0.05)
}

/// One rank's observable outcome: the update's exact bits plus the virtual
/// clock after every iteration.
#[derive(PartialEq, Debug)]
struct RankTrajectory {
    update_bits: Vec<u32>,
    times: Vec<f64>,
}

/// Everything a schedule can influence if it breaks determinism.
#[derive(PartialEq, Debug)]
struct RunOutcome {
    trajectories: Vec<RankTrajectory>,
    final_times: Vec<f64>,
    ledger_elements: u64,
    ledger_messages: u64,
}

fn run_scheme(
    scheme: Scheme,
    workers: usize,
    p: usize,
    n: usize,
    iters: usize,
    chaos: Option<ChaosPlan>,
) -> RunOutcome {
    let mut cluster = Cluster::new(p, CostModel::aries()).with_workers(workers);
    if let Some(plan) = chaos {
        cluster = cluster.with_chaos(plan);
    }
    let report = cluster.run(|comm: &mut Comm| {
        let mut reducer = Reducer::new(scheme, n, 0.05, CostProfile::paper_calibrated(), 8, 8);
        let mut update_bits = Vec::new();
        let mut times = Vec::new();
        for it in 0..iters {
            let g = grad(n, comm.rank(), it);
            let (update, _) = reducer.reduce(comm, &g, 0.1);
            match update {
                Update::Dense(v) => update_bits.extend(v.iter().map(|x| x.to_bits())),
                Update::Sparse(coo) => {
                    update_bits.extend(coo.indexes().iter().copied());
                    update_bits.extend(coo.values().iter().map(|x| x.to_bits()));
                }
            }
            times.push(comm.now());
        }
        RankTrajectory { update_bits, times }
    });
    RunOutcome {
        trajectories: report.results,
        final_times: report.times,
        ledger_elements: report.ledger.total_elements(),
        ledger_messages: report.ledger.total_messages(),
    }
}

#[test]
fn every_scheme_is_bit_identical_across_engines_clean() {
    for scheme in Scheme::all() {
        let serial = run_scheme(scheme, 1, P, N, ITERS, None);
        let parallel = run_scheme(scheme, P, P, N, ITERS, None);
        assert_eq!(serial, parallel, "{} diverged across worker counts (clean)", scheme.name());
    }
}

#[test]
fn every_scheme_is_bit_identical_across_engines_under_chaos() {
    for scheme in Scheme::all() {
        let serial = run_scheme(scheme, 1, P, N, ITERS, Some(plan(P)));
        let parallel = run_scheme(scheme, P, P, N, ITERS, Some(plan(P)));
        assert_eq!(serial, parallel, "{} diverged across worker counts (chaos)", scheme.name());
        // The plan genuinely perturbed the run; parity on an unperturbed run
        // would prove nothing about the chaos charging paths.
        assert!(
            (parallel.trajectories[1].times[0] - parallel.trajectories[0].times[0]).abs() > 0.0,
            "{}: straggler left no trace in the trajectory",
            scheme.name()
        );
    }
}

#[test]
fn ok_topk_parity_holds_at_p64() {
    // One larger spot-check: 64 ranks, each with its own worker thread, is past
    // where scheduling interleavings get genuinely wild.
    let serial = run_scheme(Scheme::OkTopk, 1, 64, 256, 2, None);
    let parallel = run_scheme(Scheme::OkTopk, 64, 64, 256, 2, None);
    assert_eq!(serial, parallel, "Ok-Topk diverged across worker counts at P=64");
}

/// Build a randomized chaos plan from a seed; every knob the charging paths
/// consult gets exercised across the case set.
fn random_plan(seed: u64, p: usize) -> ChaosPlan {
    let mut plan = ChaosPlan::new(seed);
    if seed.is_multiple_of(2) {
        plan = plan.straggler(seed as usize % p, 1.0 + (seed % 5) as f64 * 0.4);
    }
    if seed.is_multiple_of(3) {
        plan = plan.degrade_all_links(1.0 + (seed % 4) as f64 * 0.2, 1.3, 0.0, 0.3);
    }
    if !seed.is_multiple_of(5) {
        plan = plan.jitter(1e-5 * ((seed % 7) + 1) as f64);
    }
    plan.pause((seed as usize / 2) % p, 0.005, 0.02)
}

/// The schemes a flat cluster tells apart: a two-tier one is its flat twin.
fn flat_schemes() -> Vec<Scheme> {
    Scheme::all().into_iter().filter(|s| !s.is_two_tier()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random flat scheme × random P ≤ 16 × random worker count × random
    /// chaos plan: every schedule must still agree bit-for-bit with the
    /// serialized one. Small N and 2 iterations keep each case cheap; the
    /// case count still covers every scheme family over a run.
    #[test]
    fn engines_agree_on_random_scheme_p_and_chaos(
        scheme_idx in 0usize..flat_schemes().len(),
        p in 2usize..=16,
        workers in 2usize..=16,
        seed in 0u64..1_000_000,
        chaotic in 0usize..2,
    ) {
        let scheme = flat_schemes()[scheme_idx];
        let chaos = if chaotic == 1 { Some(random_plan(seed, p)) } else { None };
        let serial = run_scheme(scheme, 1, p, 256, 2, chaos.clone());
        let drawn = run_scheme(scheme, workers, p, 256, 2, chaos);
        prop_assert_eq!(serial, drawn);
    }
}
