//! Property tests for the O(k) sparse allreduce and Ok-Topk SGD.

use oktopk::{oktopk::intersect_sorted, OkTopk, OkTopkConfig, OkTopkSgd};
use proptest::prelude::*;
use simnet::{Cluster, CostModel};
use sparse::select::{exact_threshold, select_ge};
use sparse::CooGradient;

fn accs_strategy() -> impl Strategy<Value = (usize, usize, Vec<Vec<f32>>)> {
    (2usize..7, 16usize..150).prop_flat_map(|(p, n)| {
        (
            Just(p),
            Just(n),
            proptest::collection::vec(
                proptest::collection::vec((-1000i32..1000).prop_map(|x| x as f32 / 512.0), n..=n),
                p..=p,
            ),
        )
    })
}

/// Serial reference for Topk(Σ Topk(·)) with threshold-scan selection semantics.
fn reference(accs: &[Vec<f32>], k: usize) -> CooGradient {
    let mut sum = CooGradient::new();
    for acc in accs {
        let th = exact_threshold(acc, k);
        sum.merge_sum_into(&select_ge(acc, th));
    }
    let th = exact_threshold(sum.values(), k);
    sum.filter_abs_ge(th)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With fresh thresholds every iteration, Ok-Topk allreduce equals the serial
    /// Topk(Σ Topk(·)) semantics on any input, any P, including the ablated variants.
    #[test]
    fn matches_semantics_for_all_ablations(
        (p, n, accs) in accs_strategy(),
        k_frac in 0.05f64..0.5,
        balanced in any::<bool>(),
        rotation in any::<bool>(),
        data_balancing in any::<bool>(),
        bucket in 1usize..5,
    ) {
        let k = ((n as f64 * k_frac) as usize).max(1);
        let expect = reference(&accs, k);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut okt = OkTopk::new(
                OkTopkConfig::new(n, k)
                    .with_periods(1, 1)
                    .with_balanced_partition(balanced)
                    .with_rotation(rotation)
                    .with_data_balancing(data_balancing)
                    .with_bucket_size(bucket),
            );
            okt.allreduce(comm, &accs[comm.rank()], 1)
        });
        for out in &report.results {
            prop_assert_eq!(out.update.indexes(), expect.indexes());
            for (x, y) in out.update.values().iter().zip(expect.values()) {
                prop_assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
            }
        }
    }

    /// All ranks always agree on the update, whatever the periods.
    #[test]
    fn ranks_agree(
        (p, n, accs) in accs_strategy(),
        tau in 1usize..5,
        tau_prime in 1usize..5,
        iters in 1usize..5,
    ) {
        let k = (n / 10).max(1);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut okt = OkTopk::new(OkTopkConfig::new(n, k).with_periods(tau, tau_prime));
            let mut last = Default::default();
            for t in 1..=iters {
                // Vary the inputs deterministically per iteration.
                let acc: Vec<f32> = accs[comm.rank()]
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| v + (t as f32 * 0.01) * ((i % 7) as f32 - 3.0))
                    .collect();
                last = okt.allreduce(comm, &acc, t).update;
            }
            last
        });
        for r in 1..p {
            prop_assert_eq!(&report.results[r], &report.results[0]);
        }
    }

    /// Ok-Topk SGD residual invariant: after a step, residual[i] is either 0 (at a
    /// contributed index) or exactly the accumulator value.
    #[test]
    fn residual_invariant((p, n, accs) in accs_strategy()) {
        let k = (n / 8).max(1);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut sgd = OkTopkSgd::new(OkTopkConfig::new(n, k));
            let grad = &accs[comm.rank()];
            let acc = sgd.peek_accumulator(grad, 0.1);
            let step = sgd.step(comm, grad, 0.1);
            let contributed: std::collections::HashSet<u32> =
                step.contributed.iter().copied().collect();
            let mut ok = true;
            for (i, (&got, &a)) in sgd.residual().iter().zip(&acc).enumerate() {
                let expect = if contributed.contains(&(i as u32)) { 0.0 } else { a };
                ok &= got == expect;
            }
            ok
        });
        prop_assert!(report.results.iter().all(|&ok| ok));
    }

    /// intersect_sorted equals the set intersection for any sorted inputs.
    #[test]
    fn intersection_is_set_intersection(
        mut a in proptest::collection::vec(0u32..200, 0..50),
        mut b in proptest::collection::vec(0u32..200, 0..50),
    ) {
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        let got = intersect_sorted(&a, &b);
        let sa: std::collections::HashSet<u32> = a.iter().copied().collect();
        let sb: std::collections::HashSet<u32> = b.iter().copied().collect();
        let mut want: Vec<u32> = sa.intersection(&sb).copied().collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
