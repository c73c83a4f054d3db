//! Cross-crate integration tests: data-parallel training through the whole stack
//! (dnn models → reducers → collectives/oktopk → simnet).

use dnn::data::SyntheticImages;
use dnn::models::VggLite;
use dnn::optim::Sgd;
use dnn::Model;
use train::{run_data_parallel, OptimizerKind, Scheme, TrainConfig};

fn small_images() -> SyntheticImages {
    SyntheticImages::with_shape(1, 4, 3, 8, 0.5)
}

fn small_vgg() -> VggLite {
    VggLite::with_width(7, 4, 8, 16, 4, 8)
}

/// P-rank dense data-parallel SGD must equal serial SGD on the concatenated
/// global batch (same model, same update: the averaged gradient).
#[test]
fn dense_data_parallel_equals_serial() {
    let p = 4;
    let local_batch = 2;
    let iters = 5;
    let data = small_images();

    // Serial reference: average the P shard gradients by hand each iteration.
    let mut serial = small_vgg();
    let mut opt = Sgd::new(0.05, 0.0);
    for t in 0..iters as u64 {
        let mut avg = vec![0.0f32; serial.num_params()];
        for r in 0..p {
            let batch = data.train_batch(t, r, p, local_batch);
            serial.zero_grads();
            serial.forward_backward(&batch);
            for (a, g) in avg.iter_mut().zip(serial.grads()) {
                *a += g / p as f32;
            }
        }
        opt.step(serial.params_mut(), &avg);
    }

    // Distributed run.
    let mut cfg = TrainConfig::new(Scheme::Dense, 1.0);
    cfg.iters = iters;
    cfg.local_batch = local_batch;
    cfg.optimizer = OptimizerKind::Sgd { lr: 0.05 };
    let d2 = data.clone();
    let res = run_data_parallel(
        p,
        &cfg,
        small_vgg,
        move |it, r, w| d2.train_batch(it, r, w, local_batch),
        &[],
    );
    assert_eq!(res.records.len(), iters);

    // Compare final evaluation of both models on held-out data.
    let test = data.test_batch(0, 16);
    let serial_eval = serial.evaluate(&test);

    // Re-derive the distributed model's final state by replaying (the harness
    // doesn't return parameters): train one more distributed-style model locally
    // with identical averaging. Losses recorded per iteration must match the
    // serial losses up to f32 reduction order.
    let mut replay = small_vgg();
    let mut ropt = Sgd::new(0.05, 0.0);
    for t in 0..iters as u64 {
        let mut avg = vec![0.0f32; replay.num_params()];
        let mut loss = 0.0;
        let mut count = 0usize;
        for r in 0..p {
            let batch = data.train_batch(t, r, p, local_batch);
            replay.zero_grads();
            let s = replay.forward_backward(&batch);
            loss += s.loss;
            count += s.count;
            for (a, g) in avg.iter_mut().zip(replay.grads()) {
                *a += g / p as f32;
            }
        }
        let mean_loss = loss / count as f64;
        let recorded = res.records[t as usize].train_loss;
        assert!(
            (mean_loss - recorded).abs() < 1e-3 * (1.0 + mean_loss.abs()),
            "iter {t}: serial loss {mean_loss} vs distributed {recorded}"
        );
        ropt.step(replay.params_mut(), &avg);
    }
    let replay_eval = replay.evaluate(&test);
    assert!((serial_eval.mean_loss() - replay_eval.mean_loss()).abs() < 1e-5);
}

/// Training records from every scheme are deterministic across repeated runs.
#[test]
fn all_schemes_deterministic() {
    let data = small_images();
    for scheme in Scheme::all() {
        let mut cfg = TrainConfig::new(scheme, 0.05);
        cfg.iters = 4;
        cfg.local_batch = 2;
        cfg.tau = 2;
        cfg.tau_prime = 2;
        let run = || {
            let d = data.clone();
            run_data_parallel(3, &cfg, small_vgg, move |it, r, w| d.train_batch(it, r, w, 2), &[])
        };
        let a = run();
        let b = run();
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.train_loss, y.train_loss, "{}", scheme.name());
            assert_eq!(x.comm, y.comm, "{}", scheme.name());
        }
        assert_eq!(a.makespan, b.makespan, "{}", scheme.name());
    }
}

/// At density 1.0 with exact selection, TopkA reduces to a dense allreduce:
/// its training losses must match Dense's almost exactly.
#[test]
fn sparse_at_full_density_matches_dense() {
    let data = small_images();
    let run = |scheme: Scheme| {
        let mut cfg = TrainConfig::new(scheme, 1.0);
        cfg.iters = 5;
        cfg.local_batch = 2;
        cfg.optimizer = OptimizerKind::Sgd { lr: 0.05 };
        let d = data.clone();
        run_data_parallel(2, &cfg, small_vgg, move |it, r, w| d.train_batch(it, r, w, 2), &[])
    };
    let dense = run(Scheme::Dense);
    let topka = run(Scheme::TopkA);
    for (a, b) in dense.records.iter().zip(&topka.records) {
        assert!(
            (a.train_loss - b.train_loss).abs() < 1e-3 * (1.0 + a.train_loss.abs()),
            "dense {} vs topka {}",
            a.train_loss,
            b.train_loss
        );
    }
}

/// Ok-Topk training reaches a test accuracy close to Dense's on the image task
/// (the Fig. 9 claim at integration-test scale).
#[test]
fn oktopk_accuracy_close_to_dense() {
    let data = small_images();
    let eval: Vec<_> = (0..2).map(|b| data.test_batch(b, 16)).collect();
    let run = |scheme: Scheme| {
        let mut cfg = TrainConfig::new(scheme, 0.1);
        cfg.iters = 60;
        cfg.local_batch = 4;
        cfg.optimizer = OptimizerKind::Sgd { lr: 0.05 };
        cfg.lr_decay_iters = 30;
        cfg.tau = 8;
        cfg.tau_prime = 8;
        cfg.eval_every = 60;
        let d = data.clone();
        run_data_parallel(4, &cfg, small_vgg, move |it, r, w| d.train_batch(it, r, w, 4), &eval)
    };
    let dense_acc = run(Scheme::Dense).evals.last().expect("eval").accuracy;
    let okt_acc = run(Scheme::OkTopk).evals.last().expect("eval").accuracy;
    assert!(dense_acc > 0.5, "dense failed to learn: {dense_acc}");
    assert!(
        okt_acc > dense_acc - 0.15,
        "Ok-Topk accuracy {okt_acc} too far below dense {dense_acc}"
    );
}
