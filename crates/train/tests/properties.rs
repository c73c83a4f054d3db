//! Property tests at the trainer level: scheme-independent invariants of the
//! data-parallel harness on random small models and data.

use dnn::data::SyntheticImages;
use dnn::models::VggLite;
use proptest::prelude::*;
use train::{run_data_parallel, top_k, OptimizerKind, Scheme, TrainConfig};

/// Every flat scheme: a two-tier one is its flat twin without a topology.
fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    let flat = Scheme::all().into_iter().filter(|s| !s.is_two_tier());
    Union::new(flat.map(|s| Just(s).boxed()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the scheme, P, density and periods: the run completes, records are
    /// well-formed (monotone iteration ids, non-negative times, finite losses) and
    /// the result is deterministic.
    #[test]
    fn runs_complete_and_are_wellformed(
        scheme in scheme_strategy(),
        p in 2usize..5,
        density in 0.02f64..0.5,
        tau in 1usize..5,
        seed in 0u64..50,
    ) {
        let mut cfg = TrainConfig::new(scheme, density);
        cfg.iters = 4;
        cfg.local_batch = 2;
        cfg.tau = tau;
        cfg.tau_prime = tau;
        cfg.optimizer = OptimizerKind::Sgd { lr: 0.02 };
        let data = SyntheticImages::with_shape(seed, 3, 3, 8, 0.4);
        let d2 = data.clone();
        let res = run_data_parallel(
            p,
            &cfg,
            move || VggLite::with_width(9, 4, 8, 16, 3, 8),
            move |it, r, w| d2.train_batch(it, r, w, 2),
            &[],
        );
        prop_assert_eq!(res.records.len(), 4);
        for (i, r) in res.records.iter().enumerate() {
            prop_assert_eq!(r.t, i + 1);
            prop_assert!(r.compute > 0.0 && r.reduce.sparsify_time >= 0.0 && r.comm >= 0.0);
            prop_assert!(r.train_loss.is_finite());
            if scheme.is_sparse() {
                prop_assert!(r.reduce.local_nnz.is_some());
                prop_assert!(r.reduce.global_nnz.is_some());
            } else {
                prop_assert!(r.reduce.local_nnz.is_none());
            }
        }
        prop_assert!(res.makespan > 0.0);
    }

    /// Sparse schemes respect the density dial: the steady-state result support is
    /// within a small factor of k for exact-selection schemes.
    #[test]
    fn exact_selection_schemes_respect_k(
        scheme in prop_oneof![Just(Scheme::TopkA), Just(Scheme::TopkDsa), Just(Scheme::GTopk)],
        p in 2usize..5,
        density in 0.05f64..0.3,
    ) {
        let mut cfg = TrainConfig::new(scheme, density);
        cfg.iters = 3;
        cfg.local_batch = 2;
        let data = SyntheticImages::with_shape(5, 3, 3, 8, 0.4);
        let res = run_data_parallel(
            p,
            &cfg,
            move || VggLite::with_width(9, 4, 8, 16, 3, 8),
            move |it, r, w| data.train_batch(it, r, w, 2),
            &[],
        );
        use dnn::Model;
        let n = VggLite::with_width(9, 4, 8, 16, 3, 8).num_params();
        let k = top_k(n, density);
        for r in &res.records {
            let local = r.reduce.local_nnz.expect("sparse scheme records local_nnz");
            prop_assert_eq!(local, k, "exact local selection must be exactly k");
            let global = r.reduce.global_nnz.expect("sparse scheme records global_nnz");
            match scheme {
                // gTopk re-selects: ≤ k.
                Scheme::GTopk => prop_assert!(global <= k),
                // Union-based: between k and P·k.
                _ => prop_assert!(global >= k && global <= p * k),
            }
        }
    }
}
