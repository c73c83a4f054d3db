//! Schedule-invariant observability at the scheme level: for every
//! gradient-exchange scheme (the paper's seven and the hierarchical
//! variants), the Virtual-class metrics recorded
//! during a run (recv-wait, tx/rx bytes, message histograms, chaos counters,
//! …) must be bit-identical between a run serialized on one worker (W = 1)
//! and one where every rank has its own worker thread (W = P) — clean and
//! under a chaos plan. Host-class metrics (pool behavior, scheduler token
//! traffic, wall time) are exempt by design. Turning observability off must
//! change nothing but the (then empty) metrics. The trainer's own `train.*`
//! instruments are held to the same in `trainer.rs`'s unit tests.

use simnet::{ChaosPlan, Cluster, PhaseVolume, SimReport};
use train::{CostProfile, Reducer, Scheme, Update};

/// Deterministic pseudo-gradient: a fixed function of (rank, iter, index).
fn grad(rank: usize, t: usize, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = (rank * 7919 + t * 104729 + i) as u64;
            let h = x.wrapping_mul(0x9e3779b97f4a7c15);
            ((h >> 40) as f32 / (1 << 24) as f32) - 0.5
        })
        .collect()
}

/// What one run is compared on.
struct Run {
    clocks: Vec<f64>,
    /// The Virtual-metric bit view.
    metrics: Vec<(String, Vec<u64>)>,
    results: Vec<f64>,
    /// Per-(phase, rank) traffic, in a canonical order.
    ledger: Vec<((String, usize), PhaseVolume)>,
}

impl Run {
    fn of(report: SimReport<f64>) -> Self {
        let size = report.results.len();
        let snap = &report.ledger;
        let ledger = snap
            .phases()
            .into_iter()
            .flat_map(|ph| (0..size).map(move |r| ((ph.to_string(), r), snap.cell(r, ph))))
            .collect();
        Run {
            clocks: report.times,
            metrics: report.metrics.parity_view(),
            results: report.results,
            ledger,
        }
    }
}

/// Ranks of [`run_once`].
const P: usize = 4;

/// Run three reduce steps of `scheme` on [`P`] ranks with `workers` run
/// tokens, with observability `obs`.
fn run_once(scheme: Scheme, workers: usize, chaos: bool, obs: bool) -> Run {
    let p = P;
    let n = 512;
    let cost = CostProfile::paper_calibrated();
    let mut cluster = Cluster::new(p, cost.network()).with_obs(obs).with_workers(workers);
    if chaos {
        let plan = ChaosPlan::new(11)
            .straggler(1, 1.6)
            .degrade_all_links(1.3, 1.4, 0.0, 1e-3)
            .jitter(2e-6)
            .pause(2, 1e-4, 5e-4);
        cluster = cluster.with_chaos(plan);
    }
    let report = cluster.run(move |comm| {
        let mut reducer = Reducer::new(scheme, n, 0.05, cost, 2, 2);
        let mut checksum = 0.0f64;
        for t in 0..3 {
            let g = grad(comm.rank(), t, n);
            let (update, _) = reducer.reduce_with_overlap(comm, &g, 0.1, 0.0);
            checksum += match &update {
                Update::Dense(v) => v.iter().map(|&x| x as f64).sum::<f64>(),
                Update::Sparse(u) => u.values().iter().map(|&x| x as f64).sum::<f64>(),
            };
        }
        checksum
    });
    Run::of(report)
}

/// A run with observability off must match the `on` run in
/// results, clocks and ledger, and record no metrics at all.
fn assert_obs_off_changes_nothing(on: &Run, off: &Run, label: &str) {
    assert_eq!(on.results, off.results, "{label}: obs off changed the results");
    assert_eq!(on.clocks, off.clocks, "{label}: obs off changed the clocks");
    assert_eq!(on.ledger, off.ledger, "{label}: obs off changed the ledger");
    assert!(off.metrics.is_empty(), "{label}: obs off still recorded {:?}", off.metrics);
}

fn assert_scheme_parity(scheme: Scheme, chaos: bool) {
    let serial = run_once(scheme, 1, chaos, true);
    let parallel = run_once(scheme, P, chaos, true);
    let label = scheme.name();
    assert_eq!(serial.results, parallel.results, "{label}: reduce results diverged across W");
    assert_eq!(serial.clocks, parallel.clocks, "{label}: virtual clocks diverged across W");
    assert_eq!(serial.ledger, parallel.ledger, "{label}: ledgers diverged across W");
    assert_eq!(
        serial.metrics, parallel.metrics,
        "{label}: virtual-class metrics diverged across W"
    );
    assert!(
        serial.metrics.iter().any(|(name, _)| name == "sim.recv_wait_vsec"),
        "{label}: recv-wait metric missing with obs forced on"
    );
    assert_obs_off_changes_nothing(&parallel, &run_once(scheme, P, chaos, false), label);
}

#[test]
fn all_schemes_have_metric_parity_clean() {
    for scheme in Scheme::all() {
        assert_scheme_parity(scheme, false);
    }
}

#[test]
fn all_schemes_have_metric_parity_under_chaos() {
    for scheme in Scheme::all() {
        assert_scheme_parity(scheme, true);
    }
}

/// The hierarchical schemes at P=4 with no topology degenerate to their flat
/// counterparts, so the suites above only exercise the degenerate paths. Run
/// them again on a genuine two-tier topology (8 ranks, 4 per node, 8×
/// oversubscription) so the intra-reduce → leader-exchange → broadcast
/// pipeline itself is held to the same schedule-invariance guarantee, clean
/// and under chaos.
fn run_hier(scheme: Scheme, workers: usize, chaos: bool, obs: bool) -> Run {
    let p = 8;
    let n = 512;
    let rpn = 4;
    let cost = CostProfile::paper_calibrated();
    let topo =
        simnet::Topology::two_tier(rpn, (1e-6, 1e-9), (25e-6, 4e-9)).with_oversubscription(8.0);
    let mut cluster =
        Cluster::new(p, cost.network()).with_obs(obs).with_workers(workers).with_topology(topo);
    if chaos {
        let plan = ChaosPlan::new(23)
            .straggler(3, 1.5)
            .degrade_all_links(1.2, 1.5, 0.0, 1e-3)
            .jitter(2e-6)
            .pause(5, 1e-4, 5e-4);
        cluster = cluster.with_chaos(plan);
    }
    let report = cluster.run(move |comm| {
        let mut reducer = Reducer::new(scheme, n, 0.05, cost, 2, 2).with_ranks_per_node(rpn);
        let mut checksum = 0.0f64;
        for t in 0..3 {
            let g = grad(comm.rank(), t, n);
            let (update, _) = reducer.reduce_with_overlap(comm, &g, 0.1, 0.0);
            checksum += match &update {
                Update::Dense(v) => v.iter().map(|&x| x as f64).sum::<f64>(),
                Update::Sparse(u) => u.values().iter().map(|&x| x as f64).sum::<f64>(),
            };
        }
        checksum
    });
    Run::of(report)
}

#[test]
fn hier_schemes_have_engine_parity_on_two_tier_topology() {
    for scheme in Scheme::all().into_iter().filter(Scheme::is_two_tier) {
        for chaos in [false, true] {
            let serial = run_hier(scheme, 1, chaos, true);
            let parallel = run_hier(scheme, 8, chaos, true);
            let label = scheme.name();
            assert_eq!(serial.results, parallel.results, "{label} chaos={chaos}: results diverged");
            assert_eq!(serial.clocks, parallel.clocks, "{label} chaos={chaos}: clocks diverged");
            assert_eq!(serial.ledger, parallel.ledger, "{label} chaos={chaos}: ledgers diverged");
            assert_eq!(serial.metrics, parallel.metrics, "{label} chaos={chaos}: metrics diverged");
            if chaos {
                let off = run_hier(scheme, 8, chaos, false);
                assert_obs_off_changes_nothing(&parallel, &off, label);
            }
        }
    }
}
