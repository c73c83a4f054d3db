//! The activity trace and the ledger tell one story: every traced `Send`
//! carries the phase the ledger charged it to, so per (rank, phase) the
//! count and element sum of traced sends equal the ledger's `PhaseVolume`.
//! Checked for every scheme on flat clusters of 4 and 6 ranks, and for the
//! two-tier schemes on a 4-rank-per-node topology with a partial last node.

use simnet::{Cluster, Comm, SimReport, Topology, TraceEvent, TraceKind};
use std::collections::BTreeMap;
use train::{CostProfile, Reducer, Scheme};

type Cells = BTreeMap<(usize, String), (u64, u64)>;

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

/// Four traced reduce steps shaped like the trainer's: compute under its own
/// phase, the exchange, then a free-mode exchange that neither log records.
fn traced_steps(scheme: Scheme, p: usize, topo: Option<Topology>) -> SimReport<Vec<TraceEvent>> {
    let n = 512;
    let cost = CostProfile::paper_calibrated();
    let mut cluster = Cluster::new(p, cost.network());
    if let Some(topo) = topo {
        cluster = cluster.with_topology(topo);
    }
    let overlap = if scheme.overlaps_backward() { 1e-6 } else { 0.0 };
    cluster.run(move |comm: &mut Comm| {
        comm.enable_trace();
        let mut reducer = Reducer::new(scheme, n, 0.05, cost, 2, 2)
            .with_ranks_per_node(collectives::ranks_per_node(comm));
        for t in 0..4 {
            comm.set_phase("fwd_bwd");
            comm.compute(1e-6);
            reducer.reduce_with_overlap(comm, &grad(comm.rank(), t, n), 0.1, overlap);
            comm.set_free_mode(true);
            collectives::allreduce_sum_f64(comm, vec![t as f64]);
            comm.set_free_mode(false);
        }
        comm.take_trace()
    })
}

fn traced_cells(traces: &[Vec<TraceEvent>]) -> Cells {
    let mut cells = Cells::new();
    for (rank, events) in traces.iter().enumerate() {
        for e in events {
            if let TraceKind::Send { elems, .. } = e.kind {
                let cell = cells.entry((rank, e.phase.to_string())).or_default();
                cell.0 += 1;
                cell.1 += elems;
            }
        }
    }
    cells
}

fn ledger_cells<T>(report: &SimReport<T>) -> Cells {
    let mut cells = Cells::new();
    for phase in report.ledger.phases() {
        for rank in 0..report.times.len() {
            let v = report.ledger.cell(rank, phase);
            if v.messages > 0 {
                cells.insert((rank, phase.to_string()), (v.messages, v.elements));
            }
        }
    }
    cells
}

fn check(scheme: Scheme, p: usize, topo: Option<Topology>) {
    let label = format!("{} P={p} two-tier={}", scheme.name(), topo.is_some());
    let report = traced_steps(scheme, p, topo);
    let ledger = ledger_cells(&report);
    assert!(!ledger.is_empty(), "{label}: no traffic");
    assert_eq!(traced_cells(&report.results), ledger, "{label}: trace and ledger disagree");
    // The selection cost is traced under its own phase, which sends nothing.
    if scheme.is_sparse() {
        let sparsify = |e: &TraceEvent| e.kind == TraceKind::Compute && &*e.phase == "sparsify";
        assert!(report.results.iter().flatten().any(sparsify), "{label}: no sparsify compute");
    }
}

#[test]
fn traced_sends_match_the_ledger_on_flat_clusters() {
    for p in [4, 6] {
        for scheme in Scheme::all() {
            check(scheme, p, None);
        }
    }
}

#[test]
fn traced_sends_match_the_ledger_on_a_partial_two_tier_cluster() {
    let topo = Topology::two_tier(4, (1e-6, 1e-9), (25e-6, 4e-9));
    for scheme in Scheme::all().into_iter().filter(Scheme::is_two_tier) {
        check(scheme, 6, Some(topo));
    }
}
