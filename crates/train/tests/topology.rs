//! Two-tier topologies at the scheme and trainer level.
//!
//! A topology is its priced tiers, installed by `Cluster::with_topology` (or
//! `TrainConfig::topology`). Two properties hold it to that:
//!
//! - tiers equal to the cluster's flat cost model are timing-neutral: every
//!   flat scheme reduces to the same results, clocks and ledger cells as with
//!   no topology at all (`β · 1.0` is exact), on full and partial last nodes;
//! - the trainer's hierarchical schemes run two-tier end to end: the
//!   communicator's ranks-per-node reaches the `Reducer`, and a run replays
//!   bit-identically.

use dnn::data::SyntheticImages;
use dnn::models::VggLite;
use simnet::{Cluster, PhaseVolume, SimReport, Topology};
use train::{run_data_parallel, CostProfile, Reducer, Scheme, TrainConfig, Update};

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

/// Per-(phase, rank) traffic of a run, in a canonical order.
fn ledger_cells<T>(report: &SimReport<T>) -> Vec<((String, usize), PhaseVolume)> {
    let snap = &report.ledger;
    snap.phases()
        .into_iter()
        .flat_map(|ph| {
            (0..report.times.len()).map(move |r| ((ph.to_string(), r), snap.cell(r, ph)))
        })
        .collect()
}

fn clock_bits<T>(report: &SimReport<T>) -> Vec<u64> {
    report.times.iter().map(|t| t.to_bits()).collect()
}

/// Three reduce steps of `scheme` on `p` ranks, optionally on `topo`; each
/// rank returns the bits of its updates' checksum.
fn reduce_steps(scheme: Scheme, p: usize, topo: Option<Topology>) -> SimReport<u64> {
    let n = 512;
    let cost = CostProfile::paper_calibrated();
    let mut cluster = Cluster::new(p, cost.network());
    if let Some(topo) = topo {
        cluster = cluster.with_topology(topo);
    }
    // DenseOvlp spends a budget inside the exchange, small enough that no
    // step's drain hides behind its share.
    let overlap = if scheme.overlaps_backward() { 1e-6 } else { 0.0 };
    cluster.run(move |comm| {
        let mut reducer = Reducer::new(scheme, n, 0.05, cost, 2, 2);
        let mut checksum = 0.0f64;
        for t in 0..3 {
            let g = grad(comm.rank(), t, n);
            let (update, _) = reducer.reduce_with_overlap(comm, &g, 0.1, overlap);
            checksum += match &update {
                Update::Dense(v) => v.iter().map(|&x| x as f64).sum::<f64>(),
                Update::Sparse(u) => u.values().iter().map(|&x| x as f64).sum::<f64>(),
            };
        }
        checksum.to_bits()
    })
}

#[test]
fn tiers_equal_to_the_flat_model_are_timing_neutral_for_every_flat_scheme() {
    let cost = CostProfile::paper_calibrated().network();
    let link = (cost.alpha, cost.beta);
    for p in [4, 6] {
        // rpn = 4 at P = 6 leaves a partial last node.
        for rpn in [2, 4] {
            let topo = Topology::two_tier(rpn, link, link);
            for scheme in Scheme::all().into_iter().filter(|s| !s.is_two_tier()) {
                let label = format!("{} P={p} rpn={rpn}", scheme.name());
                let flat = reduce_steps(scheme, p, None);
                let tiered = reduce_steps(scheme, p, Some(topo));
                assert_eq!(flat.results, tiered.results, "{label}: results");
                assert_eq!(clock_bits(&flat), clock_bits(&tiered), "{label}: clocks");
                assert_eq!(ledger_cells(&flat), ledger_cells(&tiered), "{label}: ledger");
            }
        }
    }
}

/// Bytes each rank sent over links of one tier (`net.intra_bytes` /
/// `net.inter_bytes`).
fn tier_bytes(metrics: &obs::MetricsSnapshot, name: &str) -> Vec<u64> {
    match metrics.get(name) {
        Some(obs::MetricValue::PerRankU64(v)) => v.clone(),
        other => panic!("missing {name}: {other:?}"),
    }
}

#[test]
fn hier_schemes_train_two_tier_deterministically() {
    let rpn = 4;
    let topo = Topology::two_tier(rpn, (1e-6, 1e-9), (25e-6, 4e-9));
    let data = SyntheticImages::with_shape(1, 4, 3, 8, 0.5);
    for scheme in Scheme::all().into_iter().filter(Scheme::is_two_tier) {
        // P = 6 leaves a partial last node of two ranks.
        for p in [8, 6] {
            let label = format!("{} P={p}", scheme.name());
            let mut cfg = TrainConfig::new(scheme, 0.05);
            cfg.iters = 3;
            cfg.local_batch = 2;
            cfg.tau = 2;
            cfg.tau_prime = 2;
            cfg.topology = Some(topo);
            let run = || {
                let d = data.clone();
                run_data_parallel(
                    p,
                    &cfg,
                    || VggLite::with_width(7, 4, 8, 16, 4, 8),
                    move |it, r, w| d.train_batch(it, r, w, 2),
                    &[],
                )
            };
            let (a, b) = (run(), run());
            assert_eq!(format!("{:?}", a.records), format!("{:?}", b.records), "{label}: records");
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{label}: makespan");

            // The trainer took rpn = 4 from the communicator: traffic stays on
            // the nodes except at the leaders, which alone cross between them.
            let intra = tier_bytes(&a.metrics, "net.intra_bytes");
            let inter = tier_bytes(&a.metrics, "net.inter_bytes");
            assert!(intra.iter().sum::<u64>() > 0, "{label}: no intra-node traffic");
            assert_eq!(inter.len(), p);
            for (r, &bytes) in inter.iter().enumerate() {
                if topo.is_leader(r) {
                    assert!(bytes > 0, "{label}: leader {r} sent nothing between nodes");
                } else {
                    assert_eq!(bytes, 0, "{label}: non-leader {r} left its node");
                }
            }
        }
    }
}
