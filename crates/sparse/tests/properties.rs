//! Property tests for the sparse-gradient machinery.

use proptest::prelude::*;
use sparse::coo::CooGradient;
use sparse::partition::{balanced_boundaries, consensus_boundaries};
use sparse::select::{exact_threshold, exact_threshold_by_sort, select_ge, topk_exact};

fn dense_vec() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100i32..100, 1..300)
        .prop_map(|v| v.into_iter().map(|x| x as f32 * 0.125).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Radix-select threshold equals full-sort threshold for every input and k.
    #[test]
    fn radix_select_equals_sort(dense in dense_vec(), k_frac in 0.0f64..1.0) {
        let k = ((dense.len() as f64 * k_frac) as usize).max(1);
        prop_assert_eq!(exact_threshold(&dense, k), exact_threshold_by_sort(&dense, k));
    }

    /// The two exact thresholds agree to the bit under the magnitude-key order
    /// when the input carries NaN, ±∞, −0.0 and subnormals, and the keep-scan
    /// then emits the finite-or-infinite part of the top k: short by exactly the
    /// number of NaNs that took a place.
    #[test]
    fn exact_thresholds_agree_on_non_finite_input(
        dense in proptest::collection::vec(
            prop_oneof![
                (-100i32..100).prop_map(|x| x as f32 * 0.125),
                (-100i32..100).prop_map(|x| x as f32 * 0.125),
                (-100i32..100).prop_map(|x| x as f32 * 0.125),
                prop_oneof![
                    Just(f32::NAN),
                    Just(-f32::NAN),
                    Just(f32::INFINITY),
                    Just(f32::NEG_INFINITY),
                    Just(-0.0f32),
                    Just(f32::from_bits(1)),
                    Just(-f32::from_bits(0x007f_ffff)),
                    Just(f32::MIN_POSITIVE),
                ],
            ],
            1..300,
        ),
        k_frac in 0.0f64..1.0,
    ) {
        let k = ((dense.len() as f64 * k_frac) as usize).max(1);
        let th = exact_threshold(&dense, k);
        prop_assert_eq!(th.to_bits(), exact_threshold_by_sort(&dense, k).to_bits());

        let nans = dense.iter().filter(|v| v.is_nan()).count();
        let selected = select_ge(&dense, th);
        if th.is_nan() {
            prop_assert!(nans >= k);
            prop_assert!(selected.is_empty());
        } else {
            // Everything at or above the threshold, zeros and NaNs aside.
            let at_or_above = dense.iter().filter(|v| v.abs() >= th && **v != 0.0).count();
            prop_assert_eq!(selected.nnz(), at_or_above);
            if th > 0.0 {
                prop_assert!(selected.nnz() + nans >= k, "short by more than the NaNs");
            }
        }
    }

    /// topk_exact returns exactly min(k, #nonzeros) entries and they dominate the rest.
    #[test]
    fn topk_exact_is_a_topk(dense in dense_vec(), k in 1usize..50) {
        let g = topk_exact(&dense, k);
        let nonzeros = dense.iter().filter(|&&v| v != 0.0).count();
        prop_assert_eq!(g.nnz(), k.min(nonzeros));
        let min_kept = g.values().iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
        let kept: std::collections::HashSet<u32> = g.indexes().iter().copied().collect();
        for (i, &v) in dense.iter().enumerate() {
            if !kept.contains(&(i as u32)) {
                prop_assert!(v.abs() <= min_kept, "missed a larger entry");
            }
        }
    }

    /// Threshold-scan selection keeps exactly the entries meeting the cut.
    #[test]
    fn select_ge_is_exact(dense in dense_vec(), th in 0.0f32..5.0) {
        let g = select_ge(&dense, th);
        let expected = dense.iter().filter(|&&v| v.abs() >= th && v != 0.0).count();
        prop_assert_eq!(g.nnz(), expected);
        prop_assert!(g.values().iter().all(|v| v.abs() >= th));
    }

    /// COO merge-sum agrees with dense addition and is commutative.
    #[test]
    fn merge_sum_matches_dense(
        a in proptest::collection::vec((0u32..64, -10i32..10), 0..40),
        b in proptest::collection::vec((0u32..64, -10i32..10), 0..40),
    ) {
        let a = CooGradient::from_unsorted(a.into_iter().map(|(i, v)| (i, v as f32)).collect());
        let b = CooGradient::from_unsorted(b.into_iter().map(|(i, v)| (i, v as f32)).collect());
        let ab = a.merge_sum(&b);
        let ba = b.merge_sum(&a);
        prop_assert_eq!(&ab, &ba);
        let mut dense = a.to_dense(64);
        for (d, x) in dense.iter_mut().zip(b.to_dense(64)) {
            *d += x;
        }
        prop_assert_eq!(ab.to_dense(64), dense);
    }

    /// Splitting by any boundaries and concatenating reconstructs the gradient, and
    /// every shard's entries are inside its region.
    #[test]
    fn split_concat_roundtrip(
        pairs in proptest::collection::vec((0u32..1000, -10i32..10), 0..80),
        cuts in proptest::collection::vec(0u32..1000, 1..6),
    ) {
        let g = CooGradient::from_unsorted(
            pairs.into_iter().map(|(i, v)| (i, v as f32)).collect());
        let mut boundaries = vec![0u32];
        let mut cuts = cuts;
        cuts.sort_unstable();
        boundaries.extend(cuts);
        boundaries.push(1000);
        let shards = g.split_by_boundaries(&boundaries);
        prop_assert_eq!(CooGradient::concat_ordered(&shards), g);
        for (j, s) in shards.iter().enumerate() {
            for (i, _) in s.iter() {
                prop_assert!(i >= boundaries[j]);
                prop_assert!(i < boundaries[j + 1]);
            }
        }
    }

    /// Balanced boundaries are monotone, pinned to [0, n], and each region's share of
    /// the top-k mass is within 2× of the ideal (for non-degenerate inputs).
    #[test]
    fn balanced_boundaries_are_balanced(
        mut idx in proptest::collection::vec(0u32..10_000, 32..200),
        p in 2usize..9,
    ) {
        idx.sort_unstable();
        idx.dedup();
        prop_assume!(idx.len() >= 2 * p);
        let b = balanced_boundaries(&idx, 10_000, p);
        prop_assert_eq!(b[0], 0.0);
        prop_assert_eq!(b[p], 10_000.0);
        prop_assert!(b.windows(2).all(|w| w[0] <= w[1]));
        let bu = consensus_boundaries(&b, 1, 10_000);
        let counts: Vec<usize> = bu
            .windows(2)
            .map(|w| idx.iter().filter(|&&i| w[0] <= i && i < w[1]).count())
            .collect();
        prop_assert_eq!(counts.iter().sum::<usize>(), idx.len());
        let ideal = idx.len() as f64 / p as f64;
        // Duplicated coordinates and rounding can skew regions, but no region should
        // hold more than ~2× its share + a small constant.
        for &c in &counts {
            prop_assert!((c as f64) <= 2.0 * ideal + 2.0, "counts={:?}", counts);
        }
    }

    /// Residual-style mass conservation: filter + complement reconstruct the input.
    #[test]
    fn filter_partitions_mass(pairs in proptest::collection::vec((0u32..500, -100i32..100), 0..60), th in 0.0f32..10.0) {
        let g = CooGradient::from_unsorted(
            pairs.into_iter().map(|(i, v)| (i, v as f32 * 0.1)).collect());
        let kept = g.filter_abs_ge(th);
        let kept_set: std::collections::HashSet<u32> = kept.indexes().iter().copied().collect();
        let mut reconstructed = kept.to_dense(500);
        for (i, v) in g.iter() {
            if !kept_set.contains(&i) {
                reconstructed[i as usize] += v;
            }
        }
        prop_assert_eq!(reconstructed, g.to_dense(500));
    }
}
