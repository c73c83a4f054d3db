//! Property tests for the DL framework: gradient correctness across random layer
//! shapes, dataset determinism, optimizer invariants.

use dnn::data::{SyntheticImages, SyntheticMaskedLm, SyntheticSequences};
use dnn::layers::Linear;
use dnn::ops::{softmax_xent, IGNORE};
use dnn::optim::{Adam, Sgd};
use dnn::Arena;
use proptest::prelude::*;
use rand::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Linear-layer parameter gradients match numerical gradients for any shape.
    #[test]
    fn linear_gradcheck_any_shape(
        in_dim in 1usize..6,
        out_dim in 2usize..6,
        batch in 1usize..4,
        seed in 0u64..1000,
    ) {
        let mut arena = Arena::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let lin = Linear::new(&mut arena, &mut rng, in_dim, out_dim);
        let x: Vec<f32> = (0..batch * in_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let targets: Vec<u32> = (0..batch).map(|_| rng.gen_range(0..out_dim as u32)).collect();

        let y = lin.forward(&arena, &x, batch);
        let mut dl = vec![0.0f32; y.len()];
        softmax_xent(&y, &targets, &mut dl, batch, out_dim, 1.0);
        arena.zero_grads();
        lin.backward(&mut arena, &x, &dl, batch);
        let analytic = arena.grads().to_vec();

        let eps = 1e-2f32;
        for (i, &want) in analytic.iter().enumerate() {
            let orig = arena.params()[i];
            arena.params_mut()[i] = orig + eps;
            let yp = lin.forward(&arena, &x, batch);
            let mut s = vec![0.0f32; yp.len()];
            let fp = softmax_xent(&yp, &targets, &mut s, batch, out_dim, 1.0).0;
            arena.params_mut()[i] = orig - eps;
            let ym = lin.forward(&arena, &x, batch);
            let fm = softmax_xent(&ym, &targets, &mut s, batch, out_dim, 1.0).0;
            arena.params_mut()[i] = orig;
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            prop_assert!((num - want).abs() < 3e-2 * 1.0f32.max(num.abs()),
                "param {}: {} vs {}", i, num, want);
        }
    }

    /// Datasets are pure functions of (iter, rank, world, batch) and shards from
    /// different ranks never alias.
    #[test]
    fn datasets_deterministic_and_disjoint(seed in 0u64..500, iter in 0u64..50) {
        let img = SyntheticImages::new(seed);
        let a = img.train_batch(iter, 0, 4, 4);
        let b = img.train_batch(iter, 0, 4, 4);
        prop_assert_eq!(&a.pixels, &b.pixels);
        let c = img.train_batch(iter, 3, 4, 4);
        prop_assert_ne!(&a.pixels, &c.pixels);

        let seqs = SyntheticSequences::new(seed);
        let s1 = seqs.train_batch(iter, 1, 4, 4);
        let s2 = seqs.train_batch(iter, 1, 4, 4);
        prop_assert_eq!(&s1.tokens, &s2.tokens);

        let mlm = SyntheticMaskedLm::new(seed);
        let m1 = mlm.train_batch(iter, 2, 4, 4);
        // Scored positions are masked in the input; everything else is not.
        for (t, &tg) in m1.tokens.iter().zip(&m1.targets) {
            if tg != IGNORE {
                prop_assert_eq!(*t, mlm.mask_token());
            } else {
                prop_assert_ne!(*t, mlm.mask_token());
            }
        }
    }

    /// SGD with momentum 0 is exactly `w -= lr·g` for any inputs.
    #[test]
    fn sgd_plain_update(
        w0 in proptest::collection::vec(-10.0f32..10.0, 1..20),
        lr in 0.001f32..1.0,
    ) {
        let g: Vec<f32> = w0.iter().map(|v| v * 0.5 + 1.0).collect();
        let mut w = w0.clone();
        let mut opt = Sgd::new(lr, 0.0);
        opt.step(&mut w, &g);
        for i in 0..w.len() {
            prop_assert!((w[i] - (w0[i] - lr * g[i])).abs() < 1e-6);
        }
    }

    /// Sparse Adam on the full support equals dense Adam, step by step.
    #[test]
    fn sparse_adam_equals_dense_on_full_support(
        n in 1usize..12,
        steps in 1usize..5,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let idx: Vec<u32> = (0..n as u32).collect();
        let mut dense = Adam::new(0.01, 0.9, 0.999, 1e-8, 0.005, n);
        let mut sparse = Adam::new(0.01, 0.9, 0.999, 1e-8, 0.005, n);
        let mut wd: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut ws = wd.clone();
        for _ in 0..steps {
            let g: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            dense.step(&mut wd, &g);
            sparse.step_sparse(&mut ws, &idx, &g);
        }
        for (a, b) in wd.iter().zip(&ws) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }
}
