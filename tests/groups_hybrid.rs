//! Integration tests for process groups: concurrent per-group collectives and a
//! genuine (small) hybrid data+pipeline-shaped exchange, all on real data.

use collectives::{allreduce_inplace, topk_allgather_allreduce};
use oktopk::{OkTopk, OkTopkConfig};
use rand::prelude::*;
use simnet::{Cluster, CostModel, GroupComm};
use sparse::select::topk_exact;
use sparse::CooGradient;

/// Two disjoint data-parallel groups run Ok-Topk allreduce *concurrently*; each
/// group's result equals its own serial reference and never mixes with the other's.
#[test]
fn concurrent_group_oktopk_allreduces() {
    let p = 8;
    let n = 256;
    let k = 32;
    let mut rng = StdRng::seed_from_u64(3);
    let accs: Vec<Vec<f32>> =
        (0..p).map(|_| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();

    // Serial reference per group with the same selection semantics (τ′ = 1).
    let reference = |members: &[usize]| -> CooGradient {
        let mut sum = CooGradient::new();
        for &r in members {
            let th = sparse::select::exact_threshold(&accs[r], k);
            sum.merge_sum_into(&sparse::select::select_ge(&accs[r], th));
        }
        let th = sparse::select::exact_threshold(sum.values(), k);
        sum.filter_abs_ge(th)
    };
    let expect_a = reference(&[0, 1, 2, 3]);
    let expect_b = reference(&[4, 5, 6, 7]);

    let report = Cluster::new(p, CostModel::aries()).run(|comm| {
        let me = simnet::Comm::rank(comm);
        let (members, gid) =
            if me < 4 { (vec![0, 1, 2, 3], 1u16) } else { (vec![4, 5, 6, 7], 2u16) };
        let mut group = GroupComm::new(comm, members, gid);
        let mut okt = OkTopk::new(OkTopkConfig::new(n, k).with_periods(1, 1));
        okt.allreduce(&mut group, &accs[me], 1).update
    });
    for r in 0..4 {
        assert_eq!(report.results[r].indexes(), expect_a.indexes(), "group A rank {r}");
    }
    for r in 4..8 {
        assert_eq!(report.results[r].indexes(), expect_b.indexes(), "group B rank {r}");
    }
    assert_ne!(expect_a, expect_b);
}

/// A 2-stage × 2-replica hybrid exchange: stages pass "activations" point-to-point
/// on the global communicator while each stage's replicas allreduce their own
/// gradient shard in a group — the paper's §6 hybrid-parallelism pattern, for real.
#[test]
fn hybrid_grid_activations_and_group_gradients() {
    let p = 4; // grid: stage = rank / 2, replica = rank % 2
    let n_stage = 64;
    let report = Cluster::new(p, CostModel::aries()).run(|comm| {
        let me = simnet::Comm::rank(comm);
        let stage = me / 2;
        let replica = me % 2;

        // "Forward": stage 0 sends a per-replica activation to stage 1.
        const TAG_ACT: u64 = 0x700;
        let activation: Vec<f32> = if stage == 0 {
            let act = vec![me as f32 + 0.5; 8];
            simnet::Comm::send(comm, 2 + replica, TAG_ACT, act.clone());
            act
        } else {
            simnet::Comm::recv(comm, replica, TAG_ACT)
        };

        // "Backward": every rank produces a gradient for its stage's parameters.
        let grad: Vec<f32> =
            (0..n_stage).map(|i| (me as f32 + 1.0) * ((i % 5) as f32 - 2.0)).collect();

        // Per-stage data-parallel group allreduce (dense here, for exactness).
        let members = vec![stage * 2, stage * 2 + 1];
        let mut group = GroupComm::new(comm, members, stage as u16 + 1);
        let mut sum = grad.clone();
        allreduce_inplace(&mut group, &mut sum);
        (activation, sum)
    });

    // Stage-1 ranks received stage-0's activations.
    assert_eq!(report.results[2].0, vec![0.5f32; 8]);
    assert_eq!(report.results[3].0, vec![1.5f32; 8]);
    // Each stage's gradient sum is over its own replicas only:
    // stage 0: ranks 0+1 → factor 1+2 = 3; stage 1: ranks 2+3 → factor 3+4 = 7.
    for i in 0..n_stage {
        let base = ((i % 5) as f32) - 2.0;
        assert_eq!(report.results[0].1[i], 3.0 * base);
        assert_eq!(report.results[1].1[i], 3.0 * base);
        assert_eq!(report.results[2].1[i], 7.0 * base);
        assert_eq!(report.results[3].1[i], 7.0 * base);
    }
}

/// Sparse baselines also run inside groups (generic over Net), with per-group
/// results matching per-group serial references.
#[test]
fn sparse_baselines_inside_groups() {
    let p = 6; // two groups of 3
    let n = 200;
    let k = 20;
    let mut rng = StdRng::seed_from_u64(11);
    let locals: Vec<CooGradient> = (0..p)
        .map(|_| {
            let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            topk_exact(&dense, k)
        })
        .collect();
    let reference = |members: &[usize]| -> CooGradient {
        let group_locals: Vec<CooGradient> = members.iter().map(|&r| locals[r].clone()).collect();
        CooGradient::merge_sum_many(&group_locals)
    };
    let expect_a = reference(&[0, 1, 2]);
    let expect_b = reference(&[3, 4, 5]);

    let report = Cluster::new(p, CostModel::aries()).run(|comm| {
        let me = simnet::Comm::rank(comm);
        let (members, gid) = if me < 3 { (vec![0, 1, 2], 1u16) } else { (vec![3, 4, 5], 2u16) };
        let mut group = GroupComm::new(comm, members, gid);
        topk_allgather_allreduce(&mut group, locals[me].clone())
    });
    for r in 0..3 {
        assert_eq!(*report.results[r], expect_a, "group A rank {r}");
    }
    for r in 3..6 {
        assert_eq!(*report.results[r], expect_b, "group B rank {r}");
    }
}
