//! Ablation studies for the design choices DESIGN.md calls out, beyond the
//! paper's own Fig. 7:
//!
//! 1. bucket-size sweep for split-and-reduce (§3.1.1 bucketing),
//! 2. space-repartition period τ sweep (cost of repartitioning vs staleness),
//! 3. data-balancing trigger threshold sweep (§3.1.2's 4×),
//! 4. the paper's closing claim: Ok-Topk's advantage over dense allreduce grows
//!    on commodity (slow) networks.

use okbench::print_series;
use oktopk::{OkTopk, OkTopkConfig};
use rand::prelude::*;
use simnet::{Cluster, Topology};
use sparse::select::topk_exact;
use train::CostProfile;

fn clustered_accs(p: usize, n: usize, seed: u64, drift: f32) -> Vec<Vec<Vec<f32>>> {
    // A short stream of accumulators per worker whose hot band drifts slowly.
    let mut rng = StdRng::seed_from_u64(seed);
    let iters = 6;
    (0..iters)
        .map(|it| {
            let band_lo = n / 8 + ((it as f32 * drift * n as f32) as usize) % (n / 2);
            let band_hi = band_lo + n / 64;
            (0..p)
                .map(|_| {
                    (0..n)
                        .map(|i| {
                            let base: f32 = rng.gen_range(-0.01f32..0.01);
                            if i >= band_lo && i < band_hi {
                                base + rng.gen_range(-1.0f32..1.0)
                            } else {
                                base
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn run_stream(p: usize, _n: usize, _k: usize, cfg: OkTopkConfig, stream: &[Vec<Vec<f32>>]) -> f64 {
    let cost = CostProfile::paper_calibrated();
    let stream = stream.to_vec();
    Cluster::new(p, cost.network())
        .run(move |comm| {
            let mut okt = OkTopk::new(cfg.clone());
            for (i, accs) in stream.iter().enumerate() {
                okt.allreduce(comm, &accs[comm.rank()], i + 1);
            }
            comm.now()
        })
        .results
        .iter()
        .copied()
        .fold(0.0, f64::max)
        * 1e3
}

fn main() {
    let (p, n) = (32usize, 1usize << 16);
    let k = n / 100;
    let cost = CostProfile::paper_calibrated();
    let stream = clustered_accs(p, n, 3, 0.02);

    println!("Ablation 1 — bucket size in split-and-reduce (P = {p}, modeled ms for 6 iters)");
    let buckets = [1usize, 2, 4, 8, 16, 31];
    let times: Vec<f64> = buckets
        .iter()
        .map(|&b| {
            run_stream(
                p,
                n,
                k,
                OkTopkConfig::new(n, k)
                    .with_bucket_size(b)
                    .with_merge_cost(cost.merge_per_elem)
                    .with_periods(4, 4),
                &stream,
            )
        })
        .collect();
    print_series("bucket size", &buckets.iter().map(|&b| b as f64).collect::<Vec<_>>());
    print_series("total time (ms)", &times);

    println!("\nAblation 2 — space-repartition period tau (drifting hot band)");
    let taus = [1usize, 2, 4, 8, 1000];
    let times: Vec<f64> = taus
        .iter()
        .map(|&tau| {
            run_stream(
                p,
                n,
                k,
                OkTopkConfig::new(n, k).with_periods(tau, 4).with_merge_cost(cost.merge_per_elem),
                &stream,
            )
        })
        .collect();
    print_series("tau", &taus.iter().map(|&t| t as f64).collect::<Vec<_>>());
    print_series("total time (ms)", &times);

    println!("\nAblation 3 — data-balancing trigger threshold (×mean)");
    let triggers = [1.0f64, 2.0, 4.0, 8.0, 1e9];
    let times: Vec<f64> = triggers
        .iter()
        .map(|&tr| {
            let mut cfg = OkTopkConfig::new(n, k).with_periods(4, 4);
            cfg.balance_trigger = tr;
            cfg.merge_cost_per_elem = cost.merge_per_elem;
            run_stream(p, n, k, cfg, &stream)
        })
        .collect();
    print_series("trigger", &triggers);
    print_series("total time (ms)", &times);

    println!("\nAblation 4 — Ok-Topk vs dense allreduce on Aries-class vs commodity networks");
    println!("(single steady-state exchange, P = {p}, n = {n}, k = {k}; modeled ms)");
    for (name, prof) in
        [("aries", CostProfile::paper_calibrated()), ("commodity", CostProfile::commodity_cloud())]
    {
        let mut rng = StdRng::seed_from_u64(9);
        let dense_in: Vec<Vec<f32>> =
            (0..p).map(|_| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        let t_dense = Cluster::new(p, prof.network())
            .run(|comm| {
                let mut d = dense_in[comm.rank()].clone();
                collectives::allreduce_inplace(comm, &mut d);
                comm.now()
            })
            .results
            .iter()
            .copied()
            .fold(0.0, f64::max);
        let locals: Vec<Vec<f32>> = (0..p)
            .map(|_| {
                let dense: Vec<f32> = {
                    let mut r2 = StdRng::seed_from_u64(11);
                    (0..n).map(|_| r2.gen_range(-1.0f32..1.0)).collect()
                };
                topk_exact(&dense, k).to_dense(n)
            })
            .collect();
        let t_okt = {
            let locals = locals.clone();
            Cluster::new(p, prof.network())
                .run(move |comm| {
                    let mut okt = OkTopk::new(OkTopkConfig::new(n, k).with_periods(1000, 1000));
                    okt.allreduce(comm, &locals[comm.rank()], 1);
                    let t1 = comm.now();
                    okt.allreduce(comm, &locals[comm.rank()], 2);
                    comm.now() - t1
                })
                .results
                .iter()
                .copied()
                .fold(0.0, f64::max)
        };
        // The paper's claim concerns *end-to-end* training speedup: on slower
        // networks communication dominates the iteration, so cutting its volume
        // buys more total time. Compose one modeled training iteration.
        let compute = prof.fwd_bwd(n);
        let sparsify = prof.scan(n, 1);
        let iter_dense = compute + t_dense;
        let iter_okt = compute + sparsify + t_okt;
        println!(
            "  {name:<10} comm: dense {:>8.4} ms, ok-topk {:>8.4} ms | full iteration speedup {:>5.2}x",
            t_dense * 1e3,
            t_okt * 1e3,
            iter_dense / iter_okt
        );
    }
    println!("  (the paper predicts the full-iteration speedup grows on the slower network)");

    println!("\nAblation 5 — two-level topology (8 ranks/node, intra-node link 8x faster)");
    println!("(steady-state exchange, P = {p}, modeled ms; flat vs hierarchical network)");
    let net = CostProfile::paper_calibrated().network();
    let two_tier = Topology::two_tier(8, (net.alpha / 8.0, net.beta / 8.0), (net.alpha, net.beta));
    for (name, hier) in [("flat", false), ("hierarchical", true)] {
        let cluster = || {
            let c = Cluster::new(p, net);
            if hier {
                c.with_topology(two_tier)
            } else {
                c
            }
        };
        let mut rng = StdRng::seed_from_u64(17);
        let dense_in: Vec<Vec<f32>> =
            (0..p).map(|_| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        let t_dense = cluster()
            .run(|comm| {
                let mut d = dense_in[comm.rank()].clone();
                collectives::allreduce_inplace(comm, &mut d);
                comm.now()
            })
            .results
            .iter()
            .copied()
            .fold(0.0, f64::max);
        let accs: Vec<Vec<f32>> = (0..p)
            .map(|r| {
                let mut r2 = StdRng::seed_from_u64(23 + r as u64);
                (0..n).map(|_| r2.gen_range(-1.0f32..1.0)).collect()
            })
            .collect();
        let t_okt = {
            let accs = accs.clone();
            cluster()
                .run(move |comm| {
                    let mut okt = OkTopk::new(OkTopkConfig::new(n, k).with_periods(1000, 1000));
                    okt.allreduce(comm, &accs[comm.rank()], 1);
                    let t1 = comm.now();
                    okt.allreduce(comm, &accs[comm.rank()], 2);
                    comm.now() - t1
                })
                .results
                .iter()
                .copied()
                .fold(0.0, f64::max)
        };
        println!("  {name:<13} dense {:>8.4} ms   ok-topk {:>8.4} ms", t_dense * 1e3, t_okt * 1e3);
    }
    println!("  (both algorithms are topology-agnostic; the hierarchy model exists to study");
    println!("   placement-aware variants — the paper's hybrid-parallelism future work)");
}
