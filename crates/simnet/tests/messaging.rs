//! Behavioral tests for the pooled-envelope message path: out-of-order
//! delivery, mailbox hygiene, overlap by program order, and shared payloads.

use simnet::{Cluster, CostModel};

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
                // every early arrival passes through the mailbox.
                let mut got = Vec::new();
                for (src, tag) in [(1usize, 5u64), (0, 3), (1, 4), (0, 2), (0, 1)] {
                    let v: Vec<f32> = comm.recv(src, tag);
                    got.push(v[0]);
                }
                assert_eq!(
                    comm.pending_mailbox_entries(),
                    0,
                    "drained mailbox queues must be removed"
                );
                got
            }
        }
    });
    assert_eq!(report.results[2], vec![15.0, 3.0, 14.0, 2.0, 1.0]);
}

#[test]
fn mailbox_does_not_leak_drained_queues() {
    // Regression: `take_matching` used to leave an empty VecDeque in the map for
    // every (src, tag) pair ever stashed, growing without bound across steps.
    let report = Cluster::new(2, CostModel::free()).run(|comm| {
        if comm.rank() == 0 {
            for step in 0..64u64 {
                comm.send(1, step, vec![step as u32]);
            }
            0
        } else {
            // Pull a later tag first so every earlier message is stashed, then
            // drain them all.
            let _last: Vec<u32> = comm.recv(0, 63);
            assert_eq!(comm.pending_mailbox_entries(), 63);
            for step in 0..63u64 {
                let v: Vec<u32> = comm.recv(0, step);
                assert_eq!(v[0], step as u32);
            }
            comm.pending_mailbox_entries()
        }
    });
    assert_eq!(report.results[1], 0);
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
