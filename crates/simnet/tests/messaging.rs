//! Behavioral tests for the pooled-envelope message path: out-of-order
//! delivery, FIFO matching per `(src, tag)`, overlap by program order, shared
//! payloads, and when the per-message metrics reach the registry.

use obs::MetricValue;
use simnet::{ChaosPlan, Cluster, Comm, CostModel, Topology};

/// α=1, β=0.1 — round numbers so modeled times can be asserted exactly.
fn unit_cost() -> CostModel {
    CostModel { alpha: 1.0, beta: 0.1 }
}

#[test]
fn out_of_order_tags_and_sources_demultiplex() {
    let report = Cluster::new(3, CostModel::free()).run(|comm| {
        match comm.rank() {
            0 => {
                for tag in [1u64, 2, 3] {
                    comm.send(2, tag, vec![tag as f32]);
                }
                vec![]
            }
            1 => {
                for tag in [4u64, 5] {
                    comm.send(2, tag, vec![10.0 + tag as f32]);
                }
                vec![]
            }
            _ => {
                // Receive interleaved across sources and in reverse tag order;
                // every early arrival waits in the inbox until matched.
                let mut got = Vec::new();
                for (src, tag) in [(1usize, 5u64), (0, 3), (1, 4), (0, 2), (0, 1)] {
                    let v: Vec<f32> = comm.recv(src, tag);
                    got.push(v[0]);
                }
                assert_eq!(comm.pending_envelopes(), 0, "every arrival was taken");
                got
            }
        }
    });
    assert_eq!(report.results[2], vec![15.0, 3.0, 14.0, 2.0, 1.0]);
}

#[test]
fn each_source_and_tag_is_received_fifo_among_interleaved_envelopes() {
    const ROUNDS: u32 = 8;
    const TAGS: [u64; 3] = [1, 2, 3];
    let report = Cluster::new(3, CostModel::free()).run(|comm| {
        match comm.rank() {
            // Two senders interleave three tags each, round by round.
            src @ (0 | 1) => {
                for round in 0..ROUNDS {
                    for tag in TAGS {
                        comm.send(2, tag, vec![100 * src as u32 + 10 * round + tag as u32]);
                    }
                }
                0
            }
            _ => {
                // Drain one (src, tag) stream at a time, the last-sent tag
                // first, so the other streams queue up interleaved in front
                // of and behind it.
                for src in [1usize, 0] {
                    for tag in [3u64, 1, 2] {
                        for round in 0..ROUNDS {
                            let v: Vec<u32> = comm.recv(src, tag);
                            assert_eq!(v[0], 100 * src as u32 + 10 * round + tag as u32);
                        }
                        if (src, tag) == (1, 3) {
                            // Rank 1's last send has arrived, so all of its
                            // other envelopes are queued.
                            assert!(comm.pending_envelopes() >= 2 * ROUNDS as usize);
                        }
                    }
                }
                comm.pending_envelopes()
            }
        }
    });
    assert_eq!(report.results[2], 0);
}

#[test]
fn sendrecv_is_self_consistent_at_p2() {
    let report = Cluster::new(2, unit_cost()).run(|comm| {
        let me = comm.rank();
        let peer = 1 - me;
        let got: Vec<f32> = comm.sendrecv(peer, 7, vec![me as f32; 10], peer, 7);
        (got[0], comm.now())
    });
    let (v0, t0) = report.results[0];
    let (v1, t1) = report.results[1];
    assert_eq!(v0, 1.0);
    assert_eq!(v1, 0.0);
    // Symmetric exchange: both ranks finish at the same modeled time,
    // head arrival (α=1) + body drain (10·β=1).
    assert_eq!(t0, t1);
    assert_eq!(t0, 2.0);
}

#[test]
fn compute_before_recv_overlaps_the_drain() {
    let compute = 5.0;
    // Receive first, then compute.
    let recv_first = Cluster::new(2, unit_cost()).run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, vec![1.0f32; 100]);
        } else {
            let _: Vec<f32> = comm.recv(0, 1);
            comm.compute(compute);
        }
        comm.now()
    });
    // Compute first: the message drains through the reception port meanwhile.
    let compute_first = Cluster::new(2, unit_cost()).run(|comm| {
        if comm.rank() == 0 {
            let h = comm.isend(1, 1, vec![1.0f32; 100]);
            assert_eq!(h.complete_at(), 10.0); // β·L = 0.1·100
            h.wait();
        } else {
            comm.compute(compute);
            let got: Vec<f32> = comm.recv(0, 1);
            assert_eq!(got.len(), 100);
        }
        comm.now()
    });
    // The drain completes at max(α, 0) + β·L = 11. Receive first: 11 + 5 = 16;
    // compute first: max(5, 11) = 11.
    assert_eq!(recv_first.results[1], 16.0);
    assert_eq!(compute_first.results[1], 11.0);
}

#[test]
fn shared_payloads_fan_out_and_charge_wire_cost() {
    let p = 4;
    let report = Cluster::new(p, unit_cost()).run(move |comm| {
        if comm.rank() == 0 {
            let buf = std::sync::Arc::new(vec![0.5f32; 50]);
            for dst in 1..p {
                comm.send_shared(dst, 2, buf.clone());
            }
            (0.0, comm.local_finish_time())
        } else {
            let got = comm.recv_shared::<Vec<f32>>(0, 2);
            (got[0], comm.now())
        }
    });
    // Root's injection port serializes 3 bodies of 5.0 each.
    assert_eq!(report.results[0].1, 15.0);
    for r in 1..p {
        assert_eq!(report.results[r].0, 0.5);
        assert!(report.results[r].1 > 0.0, "shared sends must still cost wire time");
    }
}

#[test]
fn pooled_buffers_are_recycled() {
    let report = Cluster::new(1, CostModel::free()).run(|comm| {
        let buf = comm.take_f32(128);
        let ptr = buf.as_ptr() as usize;
        comm.recycle_f32(buf);
        let again = comm.take_f32(64);
        assert!(again.is_empty() && again.capacity() >= 64);
        let reused = again.as_ptr() as usize == ptr;
        comm.recycle_f32(again);
        reused
    });
    assert!(report.results[0], "take after recycle must reuse the same allocation");
}

#[test]
fn a_pooled_buffer_that_has_to_grow_counts_as_a_miss() {
    // The pool pops its most recent buffer whatever its size. Reusing it for a
    // smaller request is a hit; growing it for a larger one reallocates, so
    // `pool.hit` must not count it — and the budget gets its bytes back in
    // both cases.
    let report = Cluster::new(1, CostModel::free()).with_obs(true).run(|comm| {
        let small = comm.take_f32(64); // empty pool: miss
        comm.recycle_f32(small);
        let same = comm.take_f32(32); // fits: hit
        let idle_after_hit = comm.pooled_bytes();
        comm.recycle_f32(same);
        let grown = comm.take_f32(4096); // popped, too small: miss
        let idle_after_grow = comm.pooled_bytes();
        assert!(grown.is_empty() && grown.capacity() >= 4096);
        comm.recycle_f32(grown);
        (idle_after_hit, idle_after_grow)
    });
    assert_eq!(report.results[0], (0, 0), "a popped buffer leaves the idle pool either way");
    assert_eq!(report.metrics.get("pool.hit"), Some(&obs::MetricValue::Counter(1)));
    assert_eq!(report.metrics.get("pool.miss"), Some(&obs::MetricValue::Counter(2)));
}

/// The per-rank values of a `PerRankU64` metric.
fn per_rank(metrics: &obs::MetricsSnapshot, name: &str) -> Vec<u64> {
    match metrics.get(name) {
        Some(MetricValue::PerRankU64(v)) => v.clone(),
        other => panic!("{name}: {other:?}"),
    }
}

fn hist_count(metrics: &obs::MetricsSnapshot, name: &str) -> u64 {
    match metrics.get(name) {
        Some(MetricValue::Histogram { count, .. }) => *count,
        other => panic!("{name}: {other:?}"),
    }
}

/// Elements rank `src` sends to `dst` before the barrier.
fn before_elems(src: usize, dst: usize) -> usize {
    src + 2 * dst + 1
}

/// An all-to-all of uneven messages, a barrier after which rank 0 snapshots
/// the registry, then more traffic that no barrier follows. Rank 0 sends its
/// after-barrier messages only once its snapshot is taken, and every other
/// rank sends only after receiving one, so nothing sent after the barrier
/// can be in the snapshot whatever the interleaving.
fn publish_run(comm: &mut Comm) -> Option<obs::MetricsSnapshot> {
    let (rank, p) = (comm.rank(), comm.size());
    comm.set_phase("before");
    for dst in (0..p).filter(|&d| d != rank) {
        comm.send(dst, 1, vec![0.0f32; before_elems(rank, dst)]);
    }
    for src in (0..p).filter(|&s| s != rank) {
        let _: Vec<f32> = comm.recv(src, 1);
    }
    comm.barrier();
    let snap = (rank == 0).then(|| comm.obs().snapshot());
    comm.set_phase("after");
    if rank == 0 {
        for dst in 1..p {
            comm.send(dst, 2, vec![0.0f32; dst]);
        }
        for src in 1..p {
            let _: Vec<f32> = comm.recv(src, 3);
        }
    } else {
        let _: Vec<f32> = comm.recv(0, 2);
        comm.send(0, 3, vec![0.0f32; 3 * rank]);
    }
    snap
}

#[test]
fn per_message_metrics_are_published_at_barriers_and_at_exit() {
    const P: usize = 8;
    const RPN: usize = 4;
    let cost = CostModel::aries();
    let link = (cost.alpha, cost.beta);
    for tiered in [false, true] {
        let cluster = |workers: usize| {
            let c = Cluster::new(P, cost).with_workers(workers);
            if tiered {
                c.with_topology(Topology::two_tier(RPN, link, link))
            } else {
                c
            }
        };
        let report = cluster(1).run(publish_run);
        let (ledger, at_barrier) = (&report.ledger, report.results[0].as_ref().unwrap());
        let (tx, intra, inter) = (
            per_rank(at_barrier, "sim.tx_bytes"),
            per_rank(at_barrier, "net.intra_bytes"),
            per_rank(at_barrier, "net.inter_bytes"),
        );
        for rank in 0..P {
            let sent = ledger.cell(rank, "before");
            assert_eq!(tx[rank], 4 * sent.elements, "tiered={tiered} rank {rank}: sim.tx_bytes");
            let same_node = (0..P)
                .filter(|&d| d != rank && tiered && d / RPN == rank / RPN)
                .map(|d| 4 * before_elems(rank, d) as u64)
                .sum::<u64>();
            assert_eq!(intra[rank], same_node, "tiered={tiered} rank {rank}: net.intra_bytes");
            assert_eq!(intra[rank] + inter[rank], tx[rank], "tiered={tiered} rank {rank}");
        }
        let before_msgs: u64 = (0..P).map(|r| ledger.cell(r, "before").messages).sum();
        assert_eq!(hist_count(at_barrier, "sim.msg_elems"), before_msgs, "tiered={tiered}");

        // What followed the last barrier was published when each rank exited.
        let tx = per_rank(&report.metrics, "sim.tx_bytes");
        for (rank, &bytes) in tx.iter().enumerate() {
            assert_eq!(bytes, 4 * ledger.rank_elements(rank), "tiered={tiered} rank {rank}");
            assert!(ledger.cell(rank, "after").elements > 0);
        }
        let rx = per_rank(&report.metrics, "sim.rx_bytes");
        assert_eq!(rx.iter().sum::<u64>(), 4 * ledger.total_elements(), "tiered={tiered}");
        assert_eq!(hist_count(&report.metrics, "sim.msg_elems"), ledger.total_messages());

        // A rank keeps its own running recv-wait sum; storing it leaves the
        // same bits at every worker count.
        let wait_bits = |r: &simnet::SimReport<_>| match r.metrics.get("sim.recv_wait_vsec") {
            Some(MetricValue::PerRankF64(v)) => v.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            other => panic!("sim.recv_wait_vsec: {other:?}"),
        };
        let serial = wait_bits(&report);
        assert!(serial.iter().any(|&b| f64::from_bits(b) > 0.0), "some rank waited");
        assert_eq!(serial, wait_bits(&cluster(P).run(publish_run)), "tiered={tiered}: W = P");
    }
}

/// Every metric a run records, as DESIGN.md §11 lists them with their
/// readers. A run on a two-tier topology under every kind of chaos registers
/// no more than these, so a new metric fails here until it is added on
/// purpose, reader and all.
#[test]
fn a_run_records_exactly_the_documented_metrics() {
    const P: usize = 8;
    let plan = ChaosPlan::new(7)
        .straggler(1, 2.0)
        .degrade_all_links(2.0, 3.0, 0.0, f64::MAX)
        .jitter(0.5)
        .pause(2, 0.5, 1.0);
    let report = Cluster::new(P, unit_cost())
        .with_topology(Topology::two_tier(4, (0.1, 0.01), (1.0, 0.1)))
        .with_chaos(plan)
        .run(|comm| {
            let (right, left) = ((comm.rank() + 1) % P, (comm.rank() + P - 1) % P);
            for _ in 0..2 {
                comm.compute(1.0);
                let mut buf = comm.take_f32(16);
                buf.resize(16, comm.rank() as f32);
                comm.send(right, 0, buf);
                let got: Vec<f32> = comm.recv(left, 0);
                comm.recycle_f32(got);
                comm.barrier();
            }
        });
    assert_eq!(
        report.metrics.names(),
        [
            "chaos.degrade",
            "chaos.jitter",
            "chaos.pause",
            "chaos.straggler",
            "engine.handoff_hit",
            "engine.handoff_miss",
            "engine.park_elided",
            "engine.parks",
            "engine.ready_depth_max",
            "engine.token_grants",
            "net.inter_bytes",
            "net.intra_bytes",
            "pool.hit",
            "pool.idle_bytes_max",
            "pool.miss",
            "sim.msg_elems",
            "sim.recv_wait_vsec",
            "sim.rx_bytes",
            "sim.tx_bytes",
        ]
    );
}
