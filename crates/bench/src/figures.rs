//! Table 1, Figs. 4–7, the ablations and the rotation timeline. The model
//! panels (Figs. 8–13) are rows of the tables in [`crate::panels`].

use collectives::{dsa_allreduce, gtopk_allreduce, topk_allgather_allreduce};
use dnn::{Model, TrainStats};
use oktopk::balance::balance_and_allgatherv;
use oktopk::split_reduce::split_and_reduce;
use oktopk::{OkTopk, OkTopkConfig, OkTopkSgd};
use rand::prelude::*;
use simnet::{render_timeline, Cluster, Comm, CostModel, Topology};
use sparse::partition::equal_boundaries;
use sparse::select::{exact_threshold, topk_exact};
use sparse::stats::Histogram;
use sparse::threshold::GaussianEstimator;
use sparse::{CooGradient, SelectScratch};
use train::{CostProfile, OptimizerKind, RunResult, Scheme, TrainConfig};

use crate::models::{Data, ModelJob};
use crate::{full_scale, iters, Figure};

/// `n` draws from U(−1, 1).
fn uniform(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// `p` exact top-k selections of uniform vectors, one seeded stream.
fn random_locals(p: usize, n: usize, k: usize, seed: u64) -> Vec<CooGradient> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..p).map(|_| topk_exact(&uniform(&mut rng, n), k)).collect()
}

/// Slowest rank's result of `f` on `p` ranks (each rank returns a duration).
fn slowest(p: usize, net: CostModel, f: impl Fn(&mut Comm) -> f64 + Send + Sync) -> f64 {
    Cluster::new(p, net).run(f).results.iter().copied().fold(0.0, f64::max)
}

/// Modeled time of Ok-Topk's second allreduce over `accs` (the first pays the
/// threshold re-evaluation and repartition).
fn oktopk_steady(comm: &mut Comm, cfg: &OkTopkConfig, accs: &[Vec<f32>]) -> f64 {
    let mut okt = OkTopk::new(cfg.clone());
    okt.allreduce(comm, &accs[comm.rank()], 1);
    let t1 = comm.now();
    okt.allreduce(comm, &accs[comm.rank()], 2);
    comm.now() - t1
}

/// Table 1: communication overhead of dense and sparse allreduces. Each
/// collective runs on synthetic k-sparse gradients with uniformly random
/// supports; the per-rank sent volume comes from the traffic ledger and sits
/// next to the paper's analytic bandwidth term. Expected: Dense ≈ 2n;
/// TopkA/Gaussiank ∝ 2kP; TopkDSA between 4k and 2k+n by fill-in; Ok-Topk
/// within [2k, 6k]·(P−1)/P at every P.
pub fn table1(fig: &mut Figure) {
    let n: usize = if full_scale() { 1 << 20 } else { 1 << 17 };
    let k = n / 100; // density 1%
    let ps: Vec<usize> =
        if full_scale() { vec![4, 8, 16, 32, 64, 128] } else { vec![4, 8, 16, 32, 64] };
    fig.row(format!("Table 1 — communication overhead (n = {n}, k = {k}, density 1%)"));
    fig.row("volumes are per-rank sent elements; time is modeled seconds\n");
    fig.series("P =", &ps.iter().map(|&p| p as f64).collect::<Vec<_>>());

    let cost = CostProfile::paper_calibrated().network();
    // (max over ranks, mean, modeled seconds) of sent elements: `r2`'s, less
    // `r1`'s where given.
    let volumes = |r2: &simnet::SimReport<f64>, r1: Option<&simnet::SimReport<f64>>, p| {
        let base = |r: usize| r1.map_or(0, |r1| r1.ledger.rank_elements(r));
        let max = (0..p).map(|r| r2.ledger.rank_elements(r) - base(r)).max().unwrap_or(0);
        let total = r2.ledger.total_elements() - r1.map_or(0, |r1| r1.ledger.total_elements());
        (max as f64, total as f64 / p as f64, r2.makespan() - r1.map_or(0.0, |r1| r1.makespan()))
    };
    let mut okt_max = Vec::new();
    for name in ["Dense", "TopkA", "TopkDSA", "gTopk", "Gaussiank", "Ok-Topk"] {
        let (mut maxs, mut means, mut times) = (Vec::new(), Vec::new(), Vec::new());
        for &p in &ps {
            let locals = random_locals(p, n, k, 42 + p as u64);
            let run = |f: &(dyn Fn(&mut Comm) + Sync)| {
                Cluster::new(p, cost).run(|comm| {
                    f(comm);
                    comm.now()
                })
            };
            // Ok-Topk's row is its steady state: a 2-iteration run less a
            // 1-iteration run, so the τ′-amortized re-evaluation traffic is
            // excluded, as the paper's model assumes.
            let (report, less) = match name {
                "Dense" => {
                    let mut rng = StdRng::seed_from_u64(7);
                    let inputs: Vec<Vec<f32>> = (0..p).map(|_| uniform(&mut rng, n)).collect();
                    let report = run(&|comm| {
                        let mut d = inputs[comm.rank()].clone();
                        collectives::allreduce_inplace(comm, &mut d);
                    });
                    (report, None)
                }
                // Gaussiank shares TopkA's transport; only selection differs.
                "TopkA" | "Gaussiank" => (
                    run(&|comm| {
                        topk_allgather_allreduce(comm, locals[comm.rank()].clone());
                    }),
                    None,
                ),
                "TopkDSA" => (
                    run(&|comm| {
                        dsa_allreduce(comm, locals[comm.rank()].clone(), n);
                    }),
                    None,
                ),
                "gTopk" => (
                    run(&|comm| {
                        gtopk_allreduce(comm, locals[comm.rank()].clone(), k);
                    }),
                    None,
                ),
                _ => {
                    let dense = |ls: Vec<CooGradient>| -> Vec<Vec<f32>> {
                        ls.iter().map(|g| g.to_dense(n)).collect()
                    };
                    let accs = [dense(locals), dense(random_locals(p, n, k, 1000 + p as u64))];
                    let iterate = |iters: usize| {
                        run(&|comm| {
                            let cfg = OkTopkConfig::new(n, k).with_periods(1_000, 1_000);
                            let mut okt = OkTopk::new(cfg);
                            for t in 1..=iters {
                                okt.allreduce(comm, &accs[(t > 1) as usize][comm.rank()], t);
                            }
                        })
                    };
                    (iterate(2), Some(iterate(1)))
                }
            };
            let (max, mean, time) = volumes(&report, less.as_ref(), p);
            maxs.push(max);
            means.push(mean);
            times.push(time * 1e3);
        }
        fig.row(format!("\n{name}"));
        fig.series("max sent/rank", &maxs);
        fig.series("mean sent/rank", &means);
        fig.series("modeled time (ms)", &times);
        let (kf, nf) = (k as f64, n as f64);
        let analytic: Vec<f64> = ps
            .iter()
            .map(|&p| {
                let pf = p as f64;
                match name {
                    "Dense" => 2.0 * nf * (pf - 1.0) / pf,
                    "TopkA" | "Gaussiank" => 2.0 * kf * (pf - 1.0),
                    "TopkDSA" => 4.0 * kf * (pf - 1.0) / pf, // best case; fill-in raises it
                    "gTopk" => 4.0 * kf * pf.log2(),
                    _ => 6.0 * kf * (pf - 1.0) / pf,
                }
            })
            .collect();
        fig.series("paper bandwidth term", &analytic);
        okt_max = maxs;
    }

    fig.row("\nSanity: Ok-Topk per-rank volume must stay within the 6k(P-1)/P bound:");
    for (&p, &max) in ps.iter().zip(&okt_max) {
        let bound = 6.0 * k as f64 * (p as f64 - 1.0) / p as f64;
        let ok = max <= bound;
        let verdict = if ok { "OK" } else { "VIOLATION" };
        fig.row(format!("  P={p:<4} max/rank {max:>10.0}  bound {bound:>10.0}  {verdict}"));
        fig.check(ok, || format!("table1: Ok-Topk sends {max} > 6k(P-1)/P = {bound} at P={p}"));
    }
}

/// Fig. 4: gradient value distribution and local top-k thresholds (accurate
/// vs Ok-Topk's reused one vs Gaussiank's estimate), one panel per model,
/// snapshotted ≥ 25 iterations after the last threshold re-evaluation.
/// Expected: the reused threshold lands near the accurate one; the Gaussian
/// fit's longer tail puts its estimate off by a wide margin.
pub fn fig4(fig: &mut Figure) {
    fig.row("Figure 4 — gradient value distributions and threshold predictions");
    for panel in 0..3 {
        fig4_panel(fig, panel);
    }
}

/// One model panel of Fig. 4: 0 VGG, 1 LSTM, 2 BERT.
pub fn fig4_panel(fig: &mut Figure, panel: usize) {
    // BERT's τ′ is 128 in the paper; quick mode uses 32 so the snapshot still
    // comes ≥ 25 iterations after a re-evaluation within a short run.
    let bert_tau = if full_scale() { 128 } else { 32 };
    let (name, data, density, tau_prime, lr) = [
        ("VGG-16 stand-in on Cifar-10 stand-in", Data::vgg(), 0.02, 32, 0.05),
        ("LSTM stand-in on AN4 stand-in", Data::lstm(), 0.02, 32, 0.2),
        ("BERT stand-in on Wikipedia stand-in", Data::bert(), 0.01, bert_tau, 1.0), // Adam: raw grads
    ][panel]
        .clone();
    let total = iters(160, 400);
    // The largest iteration ≤ total sitting 26 after a re-evaluation
    // (Algorithm 1 re-evaluates when (t−1) mod τ′ == 0).
    let at = ((total.saturating_sub(27)) / tau_prime) * tau_prime + 27;
    let (acc, reused) = data.with_model(Snapshot { density, tau_prime, total, at, lr });

    let n = acc.len();
    let k = ((n as f64 * density) as usize).max(1);
    let accurate = exact_threshold(&acc, k);
    let gaussian = GaussianEstimator::raw_threshold(&acc, k);
    let picks = |th: f32| {
        let count = acc.iter().filter(|v| v.abs() >= th).count();
        (count, 100.0 * (count as f64 - k as f64) / k as f64)
    };
    let ((ok_n, ok_dev), (g_n, g_dev)) = (picks(reused), picks(gaussian));
    fig.row(format!("\n=== {name} (n = {n}, density = {:.2}%) ===", density * 100.0));
    fig.row(format!("  accurate threshold      {accurate:>12.6}  (selects exactly ~k = {k})"));
    fig.row(format!(
        "  Ok-Topk reused threshold{reused:>12.6}  (selects {ok_n}, {ok_dev:+.1}% vs k)"
    ));
    fig.row(format!(
        "  Gaussiank threshold     {gaussian:>12.6}  (selects {g_n}, {g_dev:+.1}% vs k)"
    ));

    // Histogram of the central mass, log-scaled bars.
    let spread = 4.0 * accurate as f64;
    let mut h = Histogram::new(-spread, spread, 41);
    h.add_all(&acc);
    let max_count = h.counts().iter().copied().max().unwrap_or(1).max(1);
    fig.row("  value distribution (log-scaled bars; | marks ±accurate threshold):");
    for (i, &c) in h.counts().iter().enumerate() {
        let center = h.bin_center(i);
        let bar =
            if c == 0 { 0.0 } else { 40.0 * ((c as f64).ln_1p() / (max_count as f64).ln_1p()) };
        let marker = if (center.abs() - accurate as f64).abs() < spread / 41.0 { "|" } else { " " };
        fig.row(format!("   {center:>10.5} {marker} {}", "#".repeat(bar as usize)));
    }
    let (below, above) = h.outliers();
    fig.row(format!("   (outside range: {below} below, {above} above)"));
}

/// Drive Ok-Topk SGD on 4 free-cost ranks; at iteration `at` return rank 0's
/// accumulator and the threshold Ok-Topk is reusing.
struct Snapshot {
    density: f64,
    tau_prime: usize,
    total: usize,
    at: usize,
    lr: f32,
}

impl ModelJob for Snapshot {
    type Out = (Vec<f32>, f32);

    fn run<M: Model>(
        self,
        model: fn() -> M,
        train: &(dyn Fn(u64, usize, usize, usize) -> M::Batch + Sync),
        _: &dyn Fn(u64, usize) -> M::Batch,
    ) -> (Vec<f32>, f32)
    where
        M::Batch: Sync,
    {
        let Snapshot { density, tau_prime, total, at, lr } = self;
        let report = Cluster::new(4, CostModel::free()).run(|comm| {
            let mut model = model();
            let n = model.num_params();
            let k = ((n as f64 * density) as usize).max(1);
            let mut sgd = OkTopkSgd::new(OkTopkConfig::new(n, k).with_periods(64, tau_prime));
            let mut out = None;
            for t in 1..=total {
                let batch = train((t - 1) as u64, comm.rank(), comm.size(), 4);
                model.zero_grads();
                let _: TrainStats = model.forward_backward(&batch);
                let acc =
                    (t == at && comm.rank() == 0).then(|| sgd.peek_accumulator(model.grads(), lr));
                let step = sgd.step(comm, model.grads(), lr);
                if let Some(acc) = acc {
                    out = Some((acc, step.meta.local_th));
                }
                let params = model.params_mut();
                for (i, v) in step.update.iter() {
                    params[i as usize] -= v;
                }
            }
            out
        });
        report.results.into_iter().next().flatten().unwrap_or((Vec::new(), 0.0))
    }
}

/// Fig. 5: the empirical ξ of Assumption 1 over training, each model at two
/// densities. Expected: ξ rises early then stabilizes or grows slowly; the
/// higher density gives the smaller ξ; convergence needs ξ ≲ P.
pub fn fig5(fig: &mut Figure) {
    fig.row("Figure 5 — empirical xi over training (Assumption 1 validation)");
    let (p, total) = (4, iters(48, 160));
    let adam = OptimizerKind::Adam { lr: 2e-4, weight_decay: 0.01 };
    for (model, data, densities, optimizer) in [
        ("VGG-16 stand-in", Data::vgg(), [0.01, 0.02], OptimizerKind::Sgd { lr: 0.05 }),
        ("LSTM stand-in", Data::lstm(), [0.02, 0.04], OptimizerKind::Sgd { lr: 0.2 }),
        ("BERT stand-in", Data::bert(), [0.01, 0.02], adam),
    ] {
        for density in densities {
            let mut cfg = TrainConfig::new(Scheme::OkTopk, density);
            (cfg.iters, cfg.local_batch, cfg.tau, cfg.tau_prime) = (total, 4, 16, 16);
            cfg.optimizer = optimizer;
            cfg.measure_xi_every = (total / 12).max(1);
            let res = data.train(p, &cfg, None, 0);
            fig.row(format!("\n{model}, density = {:.1}%, P = {p}", density * 100.0));
            let mut max = 0.0f64;
            for (t, xi) in res.records.iter().filter_map(|r| r.xi.map(|x| (r.t, x))) {
                let bar = "#".repeat(((xi * 8.0).min(60.0)) as usize);
                fig.row(format!("  iter {t:>5}  xi = {xi:>8.3}  {bar}"));
                max = max.max(xi);
            }
            fig.row(format!("  max xi = {max:.3} (convergence needs xi ≲ P = {p})"));
        }
    }
}

/// Fig. 6: local and global top-k counts Ok-Topk selects with its reused
/// thresholds, against k, plus Gaussiank's raw prediction on the same stream
/// and TopkDSA's output fill-in (§5.2), one panel per model. Expected:
/// Ok-Topk hugs k after an early overshoot; Gaussiank under-predicts; the
/// fill-in density is a multiple of the input density.
pub fn fig6(fig: &mut Figure) {
    fig.row("Figure 6 — local/global top-k selection counts over training");
    for panel in 0..3 {
        fig6_panel(fig, panel);
    }
}

/// One model panel of Fig. 6: 0 VGG, 1 LSTM, 2 BERT.
pub fn fig6_panel(fig: &mut Figure, panel: usize) {
    let bert_tau = if full_scale() { 128 } else { 32 };
    let adam = OptimizerKind::Adam { lr: 2e-4, weight_decay: 0.01 };
    let (name, data, density, tau_prime, optimizer) = [
        (
            "VGG stand-in, density 2%, tau' = 32",
            Data::vgg(),
            0.02,
            32,
            OptimizerKind::Sgd { lr: 0.05 },
        ),
        (
            "LSTM stand-in, density 2%, tau' = 32",
            Data::lstm(),
            0.02,
            32,
            OptimizerKind::Sgd { lr: 0.2 },
        ),
        (
            "BERT stand-in, density 1%, tau' = 128 (32 in quick mode)",
            Data::bert(),
            0.01,
            bert_tau,
            adam,
        ),
    ][panel]
        .clone();
    let mut cfg = TrainConfig::new(Scheme::OkTopk, density);
    (cfg.iters, cfg.local_batch, cfg.tau, cfg.tau_prime) = (iters(256, 640), 4, 32, tau_prime);
    cfg.optimizer = optimizer;
    let mut run = |scheme| {
        cfg.scheme = scheme;
        data.train(4, &cfg, None, 0)
    };
    let [oktopk, gaussian, dsa]: [RunResult; 3] =
        [Scheme::OkTopk, Scheme::GaussianK, Scheme::TopkDsa].map(&mut run);
    let k = ((data.num_params() as f64 * density) as usize).max(1);
    let kf = k as f64;

    fig.row(format!("\n=== {name} (k = {k}) ==="));
    fig.row("  iter | Ok-Topk local | Ok-Topk global | Gaussiank predicted");
    let recs = &oktopk.records;
    for r in recs.iter().step_by((recs.len() / 12).max(1)) {
        let g = gaussian.records.iter().find(|x| x.t == r.t).and_then(|x| x.gaussian_pred);
        let (local, global) = (r.local_nnz.unwrap_or(0), r.global_nnz.unwrap_or(0));
        fig.row(format!("  {:>5} | {local:>13} | {global:>14} | {:>19}", r.t, g.unwrap_or(0)));
    }
    // Deviation over the second half of training: the residuals need ~n/k
    // iterations to reach their stationary scale, and the paper's "below 11%"
    // is over full-length runs dominated by that stationary phase.
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let dev = |get: fn(&train::IterRecord) -> Option<usize>| {
        let stable = &recs[recs.len() / 2..];
        100.0
            * mean(
                stable.iter().filter_map(|r| get(r).map(|v| (v as f64 - kf).abs() / kf)).collect(),
            )
    };
    let (local, global) = (dev(|r| r.local_nnz), dev(|r| r.global_nnz));
    fig.row(format!(
        "  Ok-Topk average |deviation| from k (2nd half of training): local {local:.1}%, global {global:.1}%"
    ));
    let g2 = &gaussian.records[gaussian.records.len() / 2..];
    let g_sum: f64 = g2.iter().filter_map(|r| r.gaussian_pred).map(|v| v as f64).sum();
    let g_mean = g_sum / g2.len().max(1) as f64;
    fig.row(format!("  Gaussiank mean raw prediction: {g_mean:.0} ({:.2}x of k)", g_mean / kf));
    let fill = mean(dsa.records.iter().filter_map(|r| r.dsa_density).collect());
    fig.row(format!(
        "  TopkDSA/TopkA output-buffer density (fill-in, §5.2): mean {:.2}% (input density was the configured k/n)",
        100.0 * fill
    ));
}

/// Accumulators whose top-k coordinates cluster in the band `[lo, lo + width)`
/// (a few hot embedding rows dominate, consistently across workers, with
/// per-worker jitter — the §3.1.1 observation the balanced partition uses).
fn clustered(rng: &mut StdRng, p: usize, n: usize, lo: usize, width: usize) -> Vec<Vec<f32>> {
    (0..p)
        .map(|_| {
            (0..n)
                .map(|i| {
                    let base: f32 = rng.gen_range(-0.01f32..0.01);
                    if i >= lo && i < lo + width {
                        base + rng.gen_range(-1.0f32..1.0)
                    } else {
                        base
                    }
                })
                .collect()
        })
        .collect()
}

/// Fig. 7: Ok-Topk's two load-balancing optimizations and destination
/// rotation, each against its naive twin. Expected: (a) balanced regions
/// 1.1–1.8× faster, growing with P (the band is narrower than one equal-width
/// region, so the naive partition funnels traffic to one owner); (b) data
/// balancing 1.1–1.5×, growing with P.
pub fn fig7(fig: &mut Figure) {
    let cost = CostProfile::paper_calibrated();
    let n: usize = 1 << 16;
    let k = (n as f64 * 0.01) as usize;
    let ps = [8usize, 16, 32, 64, 128];
    let p_row: Vec<f64> = ps.iter().map(|&p| p as f64).collect();
    let sweep = |f: &dyn Fn(usize, bool) -> f64| -> (Vec<f64>, Vec<f64>) {
        ps.iter().map(|&p| (f(p, false) * 1e3, f(p, true) * 1e3)).unzip()
    };
    let emit = |fig: &mut Figure, labels: [&str; 2], (off, on): (Vec<f64>, Vec<f64>)| {
        fig.series("P =", &p_row);
        fig.series(labels[0], &off);
        fig.series(labels[1], &on);
        fig.series("speedup", &off.iter().zip(&on).map(|(a, b)| a / b).collect::<Vec<_>>());
    };

    fig.row("Figure 7(a) — balanced space repartition vs naive equal regions");
    fig.row("(split-and-reduce makespan, modeled ms; clustered top-k coordinates)\n");
    let repartition = sweep(&|p, balanced| {
        let accs = clustered(&mut StdRng::seed_from_u64(11 + p as u64), p, n, n / 8, n / 256);
        let cfg = OkTopkConfig::new(n, k)
            .with_periods(1_000, 1_000)
            .with_balanced_partition(balanced)
            .with_merge_cost(cost.merge_per_elem);
        slowest(p, cost.network(), |comm| oktopk_steady(comm, &cfg, &accs))
    });
    emit(fig, ["naive reduce (ms)", "balanced reduce (ms)"], repartition);

    fig.row("\nFigure 7(b) — data balancing + allgatherv vs direct allgatherv");
    fig.row(
        "(balance-and-allgatherv makespan, modeled ms; survivors concentrated on one worker)\n",
    );
    let balancing = sweep(&|p, balancing| {
        // Every global-top-k survivor lands in worker 0's region.
        let mut rng = StdRng::seed_from_u64(5);
        let top: Vec<f32> = (0..2 * k).map(|_| rng.gen_range(0.5f32..1.0)).collect();
        let top = topk_exact(&top, k);
        let cfg = OkTopkConfig::new(n, k).with_data_balancing(balancing);
        slowest(p, cost.network(), |comm| {
            let mine = if comm.rank() == 0 { top.clone() } else { CooGradient::new() };
            let t0 = comm.now();
            balance_and_allgatherv(comm, &cfg, mine);
            comm.now() - t0
        })
    });
    emit(fig, ["direct allgatherv (ms)", "balance+allgatherv (ms)"], balancing);

    // Destination rotation (the Fig. 2 optimization), same setting as 7(a).
    fig.row("\nExtra ablation — destination rotation vs naive send order (split-and-reduce)");
    let rotation = sweep(&|p, rotation| {
        let accs = clustered(&mut StdRng::seed_from_u64(77 + p as u64), p, n, n / 8, n / 256);
        let locals: Vec<CooGradient> = accs.iter().map(|a| topk_exact(a, k)).collect();
        let bounds = equal_boundaries(n as u32, p);
        let cfg =
            OkTopkConfig::new(n, k).with_rotation(rotation).with_merge_cost(cost.merge_per_elem);
        slowest(p, cost.network(), |comm| {
            let t0 = comm.now();
            split_and_reduce(comm, &cfg, &locals[comm.rank()], &bounds, &mut SelectScratch::new());
            comm.now() - t0
        })
    });
    emit(fig, ["no rotation (ms)", "rotation (ms)"], rotation);
}

/// Ablations beyond Fig. 7: (1) split-and-reduce bucket size, (2) the
/// repartition period τ, (3) the data-balancing trigger, (4) Ok-Topk vs dense
/// on Aries-class vs commodity networks (the paper's closing claim: the
/// advantage grows on slow networks), (5) flat vs two-tier network.
pub fn ablations(fig: &mut Figure) {
    let (p, n) = (32usize, 1usize << 16);
    let k = n / 100;
    let cost = CostProfile::paper_calibrated();
    // Six accumulators per worker whose hot band drifts by 2% of n a step.
    let mut rng = StdRng::seed_from_u64(3);
    let stream: Vec<Vec<Vec<f32>>> = (0..6)
        .map(|it| {
            let lo = n / 8 + ((it as f32 * 0.02 * n as f32) as usize) % (n / 2);
            clustered(&mut rng, p, n, lo, n / 64)
        })
        .collect();
    let run_stream = |cfg: OkTopkConfig| {
        slowest(p, cost.network(), |comm| {
            let mut okt = OkTopk::new(cfg.clone());
            for (i, accs) in stream.iter().enumerate() {
                okt.allreduce(comm, &accs[comm.rank()], i + 1);
            }
            comm.now()
        }) * 1e3
    };
    let base = || OkTopkConfig::new(n, k).with_merge_cost(cost.merge_per_elem);
    let sweep = |fig: &mut Figure,
                 title: String,
                 label,
                 xs: &[f64],
                 cfg: &dyn Fn(f64) -> OkTopkConfig| {
        fig.row(title);
        fig.series(label, xs);
        fig.series("total time (ms)", &xs.iter().map(|&x| run_stream(cfg(x))).collect::<Vec<_>>());
    };
    let title =
        format!("Ablation 1 — bucket size in split-and-reduce (P = {p}, modeled ms for 6 iters)");
    sweep(fig, title, "bucket size", &[1.0, 2.0, 4.0, 8.0, 16.0, 31.0], &|b| {
        base().with_bucket_size(b as usize).with_periods(4, 4)
    });
    let title = "\nAblation 2 — space-repartition period tau (drifting hot band)".to_string();
    sweep(fig, title, "tau", &[1.0, 2.0, 4.0, 8.0, 1000.0], &|tau| {
        base().with_periods(tau as usize, 4)
    });
    let title = "\nAblation 3 — data-balancing trigger threshold (×mean)".to_string();
    sweep(fig, title, "trigger", &[1.0, 2.0, 4.0, 8.0, 1e9], &|tr| {
        let mut cfg = base().with_periods(4, 4);
        cfg.balance_trigger = tr;
        cfg
    });

    // Dense allreduce and a steady-state Ok-Topk exchange on `make()`'s
    // cluster, modeled seconds.
    let exchange = |make: &dyn Fn() -> Cluster, dense_seed: u64, accs: &[Vec<f32>]| {
        let mut rng = StdRng::seed_from_u64(dense_seed);
        let dense_in: Vec<Vec<f32>> = (0..p).map(|_| uniform(&mut rng, n)).collect();
        let max = |r: simnet::SimReport<f64>| r.results.iter().copied().fold(0.0, f64::max);
        let t_dense = max(make().run(|comm| {
            let mut d = dense_in[comm.rank()].clone();
            collectives::allreduce_inplace(comm, &mut d);
            comm.now()
        }));
        let cfg = OkTopkConfig::new(n, k).with_periods(1000, 1000);
        (t_dense, max(make().run(|comm| oktopk_steady(comm, &cfg, accs))))
    };
    fig.row("\nAblation 4 — Ok-Topk vs dense allreduce on Aries-class vs commodity networks");
    fig.row(format!("(single steady-state exchange, P = {p}, n = {n}, k = {k}; modeled ms)"));
    let same = topk_exact(&uniform(&mut StdRng::seed_from_u64(11), n), k).to_dense(n);
    let locals = vec![same; p];
    for (name, prof) in
        [("aries", CostProfile::paper_calibrated()), ("commodity", CostProfile::commodity_cloud())]
    {
        let (t_dense, t_okt) = exchange(&|| Cluster::new(p, prof.network()), 9, &locals);
        // The claim is about end-to-end training: on slower networks
        // communication dominates the iteration, so cutting its volume buys
        // more total time. Compose one modeled training iteration.
        let compute = prof.fwd_bwd(n);
        let speedup = (compute + t_dense) / (compute + prof.scan(n, 1) + t_okt);
        fig.row(format!(
            "  {name:<10} comm: dense {:>8.4} ms, ok-topk {:>8.4} ms | full iteration speedup {speedup:>5.2}x",
            t_dense * 1e3,
            t_okt * 1e3,
        ));
    }
    fig.row("  (the paper predicts the full-iteration speedup grows on the slower network)");

    fig.row("\nAblation 5 — two-level topology (8 ranks/node, intra-node link 8x faster)");
    fig.row(format!("(steady-state exchange, P = {p}, modeled ms; flat vs hierarchical network)"));
    let net = cost.network();
    let two_tier = Topology::two_tier(8, (net.alpha / 8.0, net.beta / 8.0), (net.alpha, net.beta));
    let accs: Vec<Vec<f32>> =
        (0..p).map(|r| uniform(&mut StdRng::seed_from_u64(23 + r as u64), n)).collect();
    for (name, hier) in [("flat", false), ("hierarchical", true)] {
        let make = || {
            let c = Cluster::new(p, net);
            if hier {
                c.with_topology(two_tier)
            } else {
                c
            }
        };
        let (t_dense, t_okt) = exchange(&make, 17, &accs);
        fig.row(format!(
            "  {name:<13} dense {:>8.4} ms   ok-topk {:>8.4} ms",
            t_dense * 1e3,
            t_okt * 1e3
        ));
    }
    fig.row("  (both algorithms are topology-agnostic; the hierarchy model exists to study");
    fig.row("   placement-aware variants — the paper's hybrid-parallelism future work)");
}

/// Split-and-reduce's destination rotation pipelining the network (Fig. 2's
/// optimization), as ASCII Gantt charts of each rank's modeled activity.
pub fn trace_demo(fig: &mut Figure) {
    let (p, n) = (8usize, 1usize << 14);
    let k = n / 50;
    let cost = CostProfile::paper_calibrated();
    let locals = random_locals(p, n, k, 4);
    let bounds = equal_boundaries(n as u32, p);
    for rotation in [false, true] {
        let cfg =
            OkTopkConfig::new(n, k).with_rotation(rotation).with_merge_cost(cost.merge_per_elem);
        let report = Cluster::new(p, cost.network()).run(|comm| {
            comm.enable_trace();
            split_and_reduce(comm, &cfg, &locals[comm.rank()], &bounds, &mut SelectScratch::new());
            comm.take_trace()
        });
        let order = if rotation { "WITH destination rotation" } else { "naive send order" };
        let makespan = report.makespan() * 1e6;
        fig.row(format!("\nsplit-and-reduce, P = {p}, {order} (makespan {makespan:.2} µs):"));
        fig.row(render_timeline(&report.results, 100).trim_end_matches('\n'));
    }
    fig.row("\nS = send-port busy, R = recv-port busy, C = merge compute, · = idle.");
    fig.row("With rotation the receive activity staggers across ranks instead of");
    fig.row("serializing on one endpoint per step.");
}
