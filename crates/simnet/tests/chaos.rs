//! Integration tests for chaos plans flowing through the simnet charging paths.

use simnet::{ChaosPlan, Cluster, CostModel, TraceKind};

fn unit_cost() -> CostModel {
    CostModel { alpha: 1.0, beta: 0.1 }
}

#[test]
fn straggler_stretches_only_the_named_rank() {
    let run = |plan: Option<ChaosPlan>| {
        let mut cluster = Cluster::new(3, CostModel::free());
        if let Some(p) = plan {
            cluster = cluster.with_chaos(p);
        }
        cluster.run(|comm| {
            comm.compute(2.0);
            comm.now()
        })
    };
    let clean = run(None);
    let perturbed = run(Some(ChaosPlan::new(0).straggler(1, 3.0)));
    assert_eq!(clean.results, vec![2.0, 2.0, 2.0]);
    assert_eq!(perturbed.results, vec![2.0, 6.0, 2.0]);
}

#[test]
fn windowed_straggler_integrates_across_the_edge() {
    // 3x inside [0.5, 1.0): a 1.0 s block run from t=0 finishes at 4/3
    // (0.5 s clean, 0.5 s of window covering 1/6 of work, 1/3 clean after).
    let report = Cluster::new(1, CostModel::free())
        .with_chaos(ChaosPlan::new(0).straggler_window(0, 3.0, 0.5, 1.0))
        .run(|comm| {
            comm.compute(1.0);
            comm.now()
        });
    assert!((report.results[0] - 4.0 / 3.0).abs() < 1e-12, "{}", report.results[0]);
}

#[test]
fn pause_freezes_clock_and_nic_ports() {
    // Rank 0 pauses over [1.0, 1.5): compute starting at t=1.0 resumes at 1.5.
    let report = Cluster::new(1, CostModel::free())
        .with_chaos(ChaosPlan::new(0).pause(0, 1.0, 0.5))
        .run(|comm| {
            comm.enable_trace();
            comm.compute(1.0); // lands exactly on the pause start
            comm.compute(0.25); // gated: jumps to 1.5, then runs clean
            let trace = comm.take_trace();
            (comm.now(), trace)
        });
    let (now, trace) = &report.results[0];
    assert!((now - 1.75).abs() < 1e-12, "resumed at 1.5 then +0.25, got {now}");
    let pause =
        trace.iter().find(|e| e.kind == TraceKind::Pause).expect("pause interval must be traced");
    assert!(pause.perturbed);
    assert!((pause.start - 1.0).abs() < 1e-12 && (pause.end - 1.5).abs() < 1e-12);
}

#[test]
fn degraded_link_slows_both_endpoints_consistently() {
    // Link 0→1 gets 2x α and 5x β over the whole exchange. 10 elements:
    // clean recv completes at α + β·10 = 1 + 1 = 2; degraded at 2 + 5 = 7.
    let run = |degrade: bool| {
        let mut cluster = Cluster::new(2, unit_cost());
        if degrade {
            cluster = cluster.with_chaos(ChaosPlan::new(0).degrade_link(0, 1, 2.0, 5.0, 0.0, 1e9));
        }
        cluster.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0.0f32; 10]);
                comm.local_finish_time()
            } else {
                let _: Vec<f32> = comm.recv(0, 0);
                comm.now()
            }
        })
    };
    let clean = run(false);
    assert!((clean.results[1] - 2.0).abs() < 1e-12, "{}", clean.results[1]);
    let slow = run(true);
    // Sender's injection port holds 5x longer too.
    assert!((slow.results[0] - 5.0).abs() < 1e-12, "{}", slow.results[0]);
    assert!((slow.results[1] - 7.0).abs() < 1e-12, "{}", slow.results[1]);
}

#[test]
fn jitter_delays_are_deterministic_and_seed_sensitive() {
    let run = |seed: u64| {
        Cluster::new(2, unit_cost()).with_chaos(ChaosPlan::new(seed).jitter(0.5)).run(|comm| {
            if comm.rank() == 0 {
                for i in 0..4 {
                    comm.send(1, i, vec![0.0f32; 5]);
                }
                0.0
            } else {
                for i in 0..4 {
                    let _: Vec<f32> = comm.recv(0, i);
                }
                comm.now()
            }
        })
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.results, b.results, "same seed must replay bit-identically");
    let c = run(8);
    assert_ne!(a.results[1], c.results[1], "different seed must draw different jitter");
    // Jitter only ever adds latency.
    let clean = Cluster::new(2, unit_cost()).run(|comm| {
        if comm.rank() == 0 {
            for i in 0..4 {
                comm.send(1, i, vec![0.0f32; 5]);
            }
            0.0
        } else {
            for i in 0..4 {
                let _: Vec<f32> = comm.recv(0, i);
            }
            comm.now()
        }
    });
    assert!(a.results[1] >= clean.results[1]);
}

#[test]
fn real_deadlocks_still_panic_under_a_chaos_plan() {
    // A pause moves clocks, never the wait-for graph: a recv nobody sends is
    // still reported exactly after the sender crossed its pause and finished.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Cluster::new(2, CostModel::free()).with_chaos(ChaosPlan::new(0).pause(0, 0.0, 0.2)).run(
            |comm| {
                if comm.rank() == 0 {
                    comm.compute(0.1); // gated by the pause: resumes at 0.2
                } else {
                    let _: Vec<f32> = comm.recv(0, 0); // never sent
                }
            },
        )
    }));
    let Err(payload) = result else { panic!("missing send must still panic") };
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("simnet deadlock (exact)"), "unexpected report: {msg}");
    assert!(msg.contains("already finished and will never send"), "unexpected report: {msg}");
}

#[test]
fn empty_plan_changes_nothing() {
    let workload = |comm: &mut simnet::Comm| {
        comm.compute(0.5);
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send(right, 0, vec![comm.rank() as f32; 64]);
        let v: Vec<f32> = comm.recv(left, 0);
        comm.barrier();
        (v[0], comm.now())
    };
    let clean = Cluster::new(4, unit_cost()).run(|c| workload(c));
    let chaotic = Cluster::new(4, unit_cost()).with_chaos(ChaosPlan::new(99)).run(|c| workload(c));
    assert_eq!(clean.results, chaotic.results, "empty plan must be bit-identical");
    assert_eq!(clean.times, chaotic.times);
}

#[test]
fn perturbed_events_are_tagged_and_clean_ones_are_not() {
    let report =
        Cluster::new(2, unit_cost()).with_chaos(ChaosPlan::new(0).straggler(0, 2.0)).run(|comm| {
            comm.enable_trace();
            comm.compute(1.0);
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0.0f32; 8]);
            } else {
                let _: Vec<f32> = comm.recv(0, 0);
            }
            comm.take_trace()
        });
    // Rank 0's compute is stretched, hence tagged.
    let compute0 =
        report.results[0].iter().find(|e| e.kind == TraceKind::Compute).expect("compute traced");
    assert!(compute0.perturbed);
    assert!((compute0.end - 2.0).abs() < 1e-12);
    // Rank 1's compute and recv are untouched (no link rule, no jitter).
    for e in &report.results[1] {
        assert!(!e.perturbed, "clean rank must carry no perturbed tags: {e:?}");
    }
}

#[test]
fn chaos_runs_are_deterministic_end_to_end() {
    let plan = || {
        ChaosPlan::new(1234)
            .straggler_window(1, 2.5, 0.0, 5.0)
            .degrade_all_links(1.5, 2.0, 0.1, 0.6)
            .jitter(1e-3)
            .pause(2, 0.2, 0.3)
    };
    let run = || {
        Cluster::new(4, unit_cost()).with_chaos(plan()).run(|comm| {
            for dst in 0..comm.size() {
                if dst != comm.rank() {
                    comm.send(dst, 3, vec![comm.rank() as f32; comm.rank() * 8 + 4]);
                }
            }
            let mut sum = 0.0f32;
            for src in 0..comm.size() {
                if src != comm.rank() {
                    let v: Vec<f32> = comm.recv(src, 3);
                    sum += v.iter().sum::<f32>();
                }
            }
            comm.barrier();
            (sum, comm.now())
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results);
    assert_eq!(a.times, b.times);
}
