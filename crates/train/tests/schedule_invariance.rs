//! Schedule invariance at the scheme level: for a given seed, every scheme's
//! updates, the virtual clock after every step, the per-(rank, phase) traffic
//! ledger and the Virtual-class metrics are bit-identical whatever the
//! schedule — fully serialized (W = 1 run token: one rank at a time, in a
//! deterministic grant order) or a worker per rank (W = P, the kernel's
//! interleaving) — clean and under chaos. Clocks depend only on per-rank
//! program order and matched message order (DESIGN.md §10). Host-class
//! metrics (pool behaviour, token traffic) are exempt by design, and turning
//! observability off changes nothing but the (then empty) metrics.
//!
//! Every case compares three runs of one seed: W = 1 and W = P with obs on,
//! and W = P again with obs off. The last pair is a same-seed replay at one
//! worker count, so a run-to-run difference (hash order, an address or the
//! wall clock leaking into a result) fails here as well.
//! `crates/simnet/tests/engines.rs` holds the same contract below the schemes.

use proptest::prelude::*;
use simnet::{ChaosPlan, Cluster, PhaseVolume, SimReport, Topology};
use train::{CostProfile, Reducer, Scheme, Update};

/// Deterministic per-rank gradient: smooth with a few spikes so the sparse
/// schemes have real top-k structure.
fn grad(n: usize, rank: usize, iter: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = (i * (rank + 2) + iter * 31) as f32;
            let spike = if i % 97 == rank * 7 { 4.0 } else { 0.0 };
            (x * 0.01).sin() * 0.3 + spike
        })
        .collect()
}

/// A plan that touches every chaos charging path: rank 1 computes at half
/// speed, a windowed straggler, degraded links, jitter and a pause.
fn plan(seed: u64, p: usize) -> ChaosPlan {
    ChaosPlan::new(seed)
        .straggler(1 % p, 2.0)
        .straggler_window(3 % p, 1.5, 0.0, 0.5)
        .degrade_all_links(1.2, 1.5, 0.0, 1e-3)
        .jitter(2e-6)
        .pause(2 % p, 1e-4, 5e-4)
}

/// One run's setup; [`Case::run`] varies only the worker count and obs.
struct Case {
    scheme: Scheme,
    p: usize,
    n: usize,
    iters: usize,
    /// Ranks per node of a two-tier topology; `None` is a flat network.
    rpn: Option<usize>,
    chaos: Option<ChaosPlan>,
}

/// Everything a schedule could move if it broke determinism.
#[derive(PartialEq, Debug)]
struct Outcome {
    /// Per rank: the updates' bits, and the clock after every step.
    updates: Vec<Vec<u32>>,
    clocks: Vec<Vec<f64>>,
    final_times: Vec<f64>,
    /// Per-(phase, rank) traffic, in a canonical order.
    ledger: Vec<((String, usize), PhaseVolume)>,
    /// The Virtual-metric bit view.
    metrics: Vec<(String, Vec<u64>)>,
}

impl Case {
    fn flat(scheme: Scheme, p: usize, chaos: Option<ChaosPlan>) -> Self {
        Case { scheme, p, n: 512, iters: 3, rpn: None, chaos }
    }

    fn run(&self, workers: usize, obs: bool) -> Outcome {
        let cost = CostProfile::paper_calibrated();
        let mut cluster = Cluster::new(self.p, cost.network()).with_workers(workers).with_obs(obs);
        if let Some(rpn) = self.rpn {
            let topo = Topology::two_tier(rpn, (1e-6, 1e-9), (25e-6, 4e-9));
            cluster = cluster.with_topology(topo.with_oversubscription(8.0));
        }
        if let Some(plan) = &self.chaos {
            cluster = cluster.with_chaos(plan.clone());
        }
        let report = cluster.run(|comm| {
            let mut reducer = Reducer::new(self.scheme, self.n, 0.05, cost, 2, 2)
                .with_ranks_per_node(self.rpn.unwrap_or(1));
            let (mut bits, mut clocks) = (Vec::new(), Vec::new());
            for it in 0..self.iters {
                let g = grad(self.n, comm.rank(), it);
                match reducer.reduce(comm, &g, 0.1).0 {
                    Update::Dense(v) => bits.extend(v.iter().map(|x| x.to_bits())),
                    Update::Sparse(coo) => {
                        bits.extend(coo.indexes());
                        bits.extend(coo.values().iter().map(|x| x.to_bits()));
                    }
                }
                clocks.push(comm.now());
            }
            (bits, clocks)
        });
        Outcome::of(report)
    }

    fn label(&self) -> String {
        let chaos = if self.chaos.is_some() { "chaos" } else { "clean" };
        format!("{} P={} rpn={:?} {chaos}", self.scheme.name(), self.p, self.rpn)
    }

    /// W = 1 against W = P, then obs off at W = P; returns the W = P run.
    fn assert_invariant(&self) -> Outcome {
        let label = self.label();
        let serial = self.run(1, true);
        let parallel = self.run(self.p, true);
        assert_eq!(serial, parallel, "{label}: diverged across worker counts");
        assert!(
            parallel.metrics.iter().any(|(name, _)| name == "sim.recv_wait_vsec"),
            "{label}: recv-wait metric missing with obs on"
        );
        let off = self.run(self.p, false);
        assert!(off.metrics.is_empty(), "{label}: obs off still recorded {:?}", off.metrics);
        assert_eq!(
            Outcome { metrics: parallel.metrics.clone(), ..off },
            parallel,
            "{label}: obs off"
        );
        parallel
    }
}

impl Outcome {
    fn of(report: SimReport<(Vec<u32>, Vec<f64>)>) -> Self {
        let size = report.results.len();
        let snap = &report.ledger;
        let ledger = snap
            .phases()
            .into_iter()
            .flat_map(|ph| (0..size).map(move |r| ((ph.to_string(), r), snap.cell(r, ph))))
            .collect();
        let (updates, clocks) = report.results.into_iter().unzip();
        Outcome {
            updates,
            clocks,
            final_times: report.times,
            ledger,
            metrics: report.metrics.parity_view(),
        }
    }
}

#[test]
fn every_scheme_is_schedule_invariant_clean() {
    for scheme in Scheme::all() {
        Case::flat(scheme, 8, None).assert_invariant();
    }
}

#[test]
fn every_scheme_is_schedule_invariant_under_chaos() {
    for scheme in Scheme::all() {
        let run = Case::flat(scheme, 8, Some(plan(2024, 8))).assert_invariant();
        // The plan really perturbed the run; parity on an unperturbed run
        // would prove nothing about the chaos charging paths.
        assert_ne!(
            run.clocks[1][0],
            run.clocks[0][0],
            "{}: the straggler left no trace",
            scheme.name()
        );
    }
}

/// The two-tier rows on a genuine two-tier topology (4 ranks a node, 8×
/// oversubscribed), so the intra-reduce → leader-exchange → broadcast
/// pipeline runs rather than its flat degenerate case.
#[test]
fn two_tier_schemes_are_schedule_invariant_on_two_tier_topology() {
    for scheme in Scheme::all().into_iter().filter(Scheme::is_two_tier) {
        for chaos in [None, Some(plan(23, 8))] {
            Case { rpn: Some(4), ..Case::flat(scheme, 8, chaos) }.assert_invariant();
        }
    }
}

/// 64 ranks, each with its own worker thread, is past where interleavings
/// get wild.
#[test]
fn ok_topk_is_schedule_invariant_at_p64() {
    Case { n: 256, iters: 2, ..Case::flat(Scheme::OkTopk, 64, None) }.assert_invariant();
}

/// Timing perturbations change when, never what: a different jitter seed
/// moves some clock but no update bit.
#[test]
fn different_jitter_seeds_diverge_in_time_but_not_in_math() {
    let run =
        |seed| Case::flat(Scheme::OkTopk, 4, Some(ChaosPlan::new(seed).jitter(1e-4))).run(2, false);
    let (a, b) = (run(1), run(2));
    assert_eq!(a.updates, b.updates, "the math must not depend on the jitter seed");
    assert_ne!(a.clocks, b.clocks, "a different jitter seed should shift some clock");
}

/// A randomized plan: across the case set every knob the charging paths
/// consult gets exercised.
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

    /// Random flat scheme × P ≤ 16 (powers of two or not) × worker count ×
    /// chaos plan: every schedule agrees bit for bit with the serialized one.
    #[test]
    fn random_flat_scheme_p_workers_and_chaos_are_schedule_invariant(
        scheme_idx in 0usize..flat_schemes().len(),
        p in 2usize..=16,
        workers in 2usize..=16,
        seed in 0u64..1_000_000,
        chaotic in 0usize..2,
    ) {
        let chaos = (chaotic == 1).then(|| random_plan(seed, p));
        let case = Case { n: 256, iters: 2, ..Case::flat(flat_schemes()[scheme_idx], p, chaos) };
        prop_assert_eq!(case.run(1, true), case.run(workers, true));
    }
}
