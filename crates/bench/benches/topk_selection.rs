//! Criterion benches of the top-k selection kernels (§2 / §3.1.3): full sort,
//! radix-select thresholding, the O(n) threshold scan, and the Gaussian-PPF
//! estimator. These are real wall-time measurements of this crate's CPU
//! implementations — the relative ordering (sort ≫ radix select > scan ≈ gaussian)
//! is the paper's motivation for threshold reuse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::prelude::*;
use sparse::select::{exact_threshold, exact_threshold_by_sort, select_ge};
use sparse::threshold::GaussianEstimator;

fn gradient_like(n: usize, seed: u64) -> Vec<f32> {
    // Sharply peaked with heavy tails, like real gradients.
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u: f32 = rng.gen_range(-1.0f32..1.0);
            u * u * u * if rng.gen_bool(0.02) { 10.0 } else { 0.1 }
        })
        .collect()
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_selection");
    for &n in &[1usize << 14, 1 << 17, 1 << 20] {
        let values = gradient_like(n, 7);
        let k = n / 100;
        let th = exact_threshold(&values, k);
        group.throughput(Throughput::Elements(n as u64));

        group.bench_with_input(BenchmarkId::new("full_sort", n), &values, |b, v| {
            b.iter(|| exact_threshold_by_sort(v, k))
        });
        group.bench_with_input(BenchmarkId::new("radix_select", n), &values, |b, v| {
            b.iter(|| exact_threshold(v, k))
        });
        group.bench_with_input(BenchmarkId::new("threshold_scan", n), &values, |b, v| {
            b.iter(|| select_ge(v, th))
        });
        group.bench_with_input(BenchmarkId::new("gaussian_ppf", n), &values, |b, v| {
            b.iter(|| GaussianEstimator::raw_threshold(v, k))
        });
    }
    group.finish();
}

fn bench_duplicate_heavy(c: &mut Criterion) {
    // The residual-accumulator shape: ~99% exact zeros (every counting pass
    // piles onto one bucket).
    let n = 1 << 18;
    let mut values = vec![0.0f32; n];
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..n / 100 {
        let i = rng.gen_range(0..n);
        values[i] = rng.gen_range(-1.0f32..1.0);
    }
    c.bench_function("radix_select_mostly_zeros_256k", |b| {
        b.iter(|| exact_threshold(&values, n / 200))
    });
}

criterion_group!(benches, bench_selection, bench_duplicate_heavy);
criterion_main!(benches);
