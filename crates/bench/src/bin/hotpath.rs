//! Hot-path wall-clock gate: the four host-speed properties no test and no
//! other gate catches losing (EXPERIMENTS.md § "Hot-path wall-clock gate"
//! has the mutation table). Each row times a baseline against the path the
//! code runs and gates the speedup:
//!
//! - `scan_scalar_vs_simd`: the threshold count, `Lanes::S1` vs the
//!   auto-dispatched SIMD width (flagged `serial_fallback` on a host without a
//!   vector unit, where the gate skips it);
//! - `accumulate_select_separate_vs_fused_n4m`: one rank's error-feedback
//!   recurrence (accumulate, select, zero what was selected) the two-buffer
//!   way — `fused_scale_add` into a second array, `scan_keep_append`, swap —
//!   vs `accumulate_scan_keep_append` in place, at n = 2²² (flagged where the
//!   host's caches hold n: the gain is DRAM traffic);
//! - `obs_off_vs_on`: an Ok-Topk step with the metrics registry off vs on;
//! - `matmul_wt_loop_vs_kernel`: `dx = dy·wᵀ` at BertLite's backward shape,
//!   the explicit loop (one serial dot product per output) vs the weight
//!   packed transposed plus the lane-parallel kernel, as `Linear::backward`
//!   runs it (gated on every host: the kernel has no scalar fallback).
//!
//! Usage: `cargo run --release -p okbench --bin hotpath [-- --quick] [--gate]
//! [--out PATH]` (default `target/hotpath.json`). `--gate` is the pre-PR
//! regression gate run by `scripts/check.sh`; see [`floor_of`] for the floors
//! and [`measure_gated`] for its three-attempt rule.

use std::hint::black_box;
use std::time::Instant;

use dnn::ops::{matmul_acc_wt, transpose};
use okbench::Json;
use oktopk::{OkTopkConfig, OkTopkSgd};
use simnet::{Cluster, CostModel};
use sparse::simd::{self, Lanes};

struct BenchResult {
    name: &'static str,
    baseline_ns: f64,
    optimized_ns: f64,
    /// True when the optimized path deliberately ran without its optimization
    /// (the SIMD dispatch resolved to scalar; the host's caches hold the input),
    /// so speedup ≈ 1.0 is by design and the gate skips the row.
    serial_fallback: bool,
    /// Speedup of every measurement [`measure_gated`] took of this row, in
    /// order; the other fields hold the last one.
    attempts: Vec<f64>,
    note: String,
}

impl BenchResult {
    fn new(name: &'static str, baseline_ns: f64, optimized_ns: f64, note: String) -> Self {
        let serial_fallback = false;
        Self { name, baseline_ns, optimized_ns, serial_fallback, attempts: Vec::new(), note }
    }

    fn speedup(&self) -> f64 {
        self.baseline_ns / self.optimized_ns
    }
}

/// The median of `v` (the upper one for an even length).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median ns/rep over `trials` timed runs of `reps` calls each (one warm-up run).
fn time_ns(reps: usize, trials: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: fill scratch pools, fault in pages
    median(
        (0..trials)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..reps {
                    f();
                }
                start.elapsed().as_nanos() as f64 / reps as f64
            })
            .collect(),
    )
}

fn pseudo_dense(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            let v = ((h >> 33) % 2000) as f32 / 1000.0 - 1.0;
            // ~60% exact zeros: the duplicate-heavy regime of a residual buffer.
            if v.abs() < 0.6 {
                0.0
            } else {
                v
            }
        })
        .collect()
}

/// The O(n) threshold count Ok-Topk runs every steady-state iteration
/// (Algorithm 1's reuse path), scalar vs auto SIMD.
fn bench_scan_simd(n: usize, reps: usize, trials: usize) -> BenchResult {
    let dense = pseudo_dense(n, 7);
    let th = 0.75f32;
    let caps = simd::caps();
    let scalar = time_ns(reps, trials, || {
        black_box(simd::count_abs_ge_with_lanes(black_box(&dense), th, Lanes::S1));
    });
    let auto = time_ns(reps, trials, || {
        black_box(simd::count_abs_ge(black_box(&dense), th));
    });
    let (lanes, isa) = (caps.lanes.width(), caps.isa);
    let note = format!("n={n} th={th}; count_abs_ge scalar vs auto ({lanes} lanes, {isa})");
    let mut r = BenchResult::new("scan_scalar_vs_simd", scalar, auto, note);
    r.serial_fallback = caps.lanes == Lanes::S1;
    r
}

/// Whether streaming `n` floats runs at DRAM speed here: the threshold count
/// costs clearly more per element at `n` than on a cache-resident slice.
fn is_dram_resident(n: usize, trials: usize) -> bool {
    const CACHED: usize = 1 << 13;
    let dense = pseudo_dense(n, 11);
    let per_elem = |len: usize, reps: usize| {
        time_ns(reps, trials, || {
            black_box(simd::count_abs_ge(black_box(&dense[..len]), 0.75));
        }) / len as f64
    };
    n > CACHED && per_elem(n, 2) > 1.5 * per_elem(CACHED, 2 * n / CACHED)
}

/// One rank's error-feedback recurrence over a fixed gradient, the two-buffer
/// way vs fused in place. Both sides start from the same ε and make the same
/// number of calls, so they walk the same sequence of states and selections.
/// ε starts spread evenly between 0 and the threshold along each gradient's
/// sign, which makes the recurrence stationary from the first call: about 1%
/// of the entries cross per step (40% nonzero, |g|·scale ≈ th/40).
fn bench_accumulate_select(n: usize, reps: usize, trials: usize) -> BenchResult {
    let grad = pseudo_dense(n, 12);
    let (scale, th) = (0.01f32, 0.32f32);
    let start: Vec<f32> = grad
        .iter()
        .enumerate()
        .map(|(i, g)| {
            g * th * ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f32
                / (1u64 << 24) as f32
        })
        .collect();
    let (mut idx, mut val) = (Vec::new(), Vec::new());

    let mut residual = start.clone();
    let mut acc = vec![0.0f32; n];
    let separate = time_ns(reps, trials, || {
        idx.clear();
        val.clear();
        simd::fused_scale_add(&mut acc, &residual, black_box(&grad), scale);
        simd::scan_keep_append(&acc, th, 0, &mut idx, &mut val);
        std::mem::swap(&mut residual, &mut acc);
        for &i in &idx {
            residual[i as usize] = 0.0;
        }
        black_box(idx.len());
    });
    drop(acc);

    residual.copy_from_slice(&start);
    let fused = time_ns(reps, trials, || {
        idx.clear();
        val.clear();
        simd::accumulate_scan_keep_append(
            &mut residual,
            black_box(&grad),
            scale,
            th,
            &mut idx,
            &mut val,
        );
        for &i in &idx {
            residual[i as usize] = 0.0;
        }
        black_box(idx.len());
    });
    let note = format!(
        "n={n} scale={scale} th={th}, {} selected by the last call; fused_scale_add + \
         scan_keep_append + swap vs accumulate_scan_keep_append in place; flagged when \
         the host's caches hold n (no DRAM traffic to save)",
        idx.len()
    );
    let mut r = BenchResult::new("accumulate_select_separate_vs_fused_n4m", separate, fused, note);
    r.serial_fallback = !is_dram_resident(n, trials);
    r
}

/// Observability overhead on the simnet hot path: the same messaging-heavy
/// Ok-Topk step with the per-run metrics registry disabled (baseline) vs
/// enabled (optimized column).
fn bench_obs_overhead(p: usize, n: usize, k: usize, iters: usize, trials: usize) -> BenchResult {
    let run = |obs_on: bool| {
        let start = Instant::now();
        Cluster::new(p, CostModel::free()).with_obs(obs_on).run(|comm| {
            let mut sgd = OkTopkSgd::new(OkTopkConfig::new(n, k).with_periods(8, 8));
            let mut grad = vec![0.0f32; n];
            for it in 0..iters {
                for (i, g) in grad.iter_mut().enumerate() {
                    *g = (((it * 31 + i * 7 + comm.rank()) % 997) as f32 / 997.0) - 0.5;
                }
                black_box(sgd.step(comm, &grad, 0.01).update.nnz());
            }
        });
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    // Paired-ratio median: each trial times off and on back to back (~ms
    // apart, inside the same host-noise regime) and the statistic is the
    // median of the per-pair off/on ratios. Independent minima would be
    // fooled whenever a noise-regime boundary lands inside a pair; the
    // per-pair ratio cancels regime-scale noise and the median discards the
    // boundary pairs.
    run(true); // warm-up both pools and the page cache
    let pairs: Vec<(f64, f64)> = (0..trials).map(|_| (run(false), run(true))).collect();
    let ratio = median(pairs.iter().map(|&(o, n)| o / n).collect());
    let off = median(pairs.iter().map(|&(o, _)| o).collect());
    // Report the off median and an on value derived so that the displayed
    // speedup IS the paired-median ratio the gate tests.
    let note = format!(
        "p={p} n={n} k={k}; per-step wall, registry off vs on, paired-ratio \
         median over {trials} trials (gate: on within 5% of off)"
    );
    BenchResult::new("obs_off_vs_on", off, off / ratio, note)
}

/// `dx = dy·wᵀ` at BertLite's ff1 backward shape (rows = batch·seq = 32,
/// d_model 64, ff 128). The baseline is the reference the `kernel_parity`
/// suite checks against: one serial dot product per output, a single
/// latency-bound accumulator chain. The optimized column is what
/// `Linear::backward` pays: pack the weight transposed, then the kernel with
/// lanes on 32 independent outputs.
fn bench_matmul_wt(reps: usize, trials: usize) -> BenchResult {
    let (rows, inner, cols) = (32usize, 64usize, 128usize);
    let dy = pseudo_dense(rows * cols, 21);
    let w = pseudo_dense(inner * cols, 22);
    let (mut out, mut out2, mut wt) = (vec![0.0f32; rows * inner], vec![0.0; rows * inner], vec![]);
    let mut reference = || {
        time_ns(reps, 1, || {
            let (dy, w) = (black_box(&dy), black_box(&w));
            for (dyb, ob) in dy.chunks_exact(cols).zip(out.chunks_exact_mut(inner)) {
                for (o, wrow) in ob.iter_mut().zip(w.chunks_exact(cols)) {
                    let mut acc = 0.0f32;
                    for (d, wv) in dyb.iter().zip(wrow) {
                        acc += d * wv;
                    }
                    *o += acc;
                }
            }
            black_box(&mut out);
        })
    };
    let mut kernel = || {
        time_ns(reps, 1, || {
            let wt = transpose(black_box(&w), inner, cols, &mut wt);
            matmul_acc_wt(black_box(&dy), wt, &mut out2, rows, inner, cols);
            black_box(&mut out2);
        })
    };
    // Paired-ratio median, as in `bench_obs_overhead`: each trial times both
    // sides back to back, so a noise burst on a shared host lands in one pair.
    let pairs: Vec<(f64, f64)> = (0..trials).map(|_| (reference(), kernel())).collect();
    let ratio = median(pairs.iter().map(|&(r, k)| r / k).collect());
    let base = median(pairs.iter().map(|&(r, _)| r).collect());
    let note = format!(
        "rows={rows} inner={inner} cols={cols}; dy·wᵀ as serial dot products vs transpose + \
         matmul_acc_wt ({}-lane panels, simd isa {}), paired-ratio median over {trials} trials",
        simd::PANEL,
        simd::caps().isa
    );
    BenchResult::new("matmul_wt_loop_vs_kernel", base, base / ratio, note)
}

/// `attempts` as a comma-separated list of 3-decimal speedups.
fn fmt_attempts(attempts: &[f64]) -> String {
    attempts.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(", ")
}

/// `obs_off_vs_on` floor: the gate trips when the enabled registry costs more
/// than 5% of a step. The row's workload is a 150–230 µs P = 4 step on a
/// shared host, and 24 recorded runs of it on unchanged code read
/// 0.97, 1.01, 1.01, 1.18, 0.94, 1.03, 0.96, 0.95, 0.98, 0.96, 0.95, 0.90,
/// 1.12, 1.02, 1.03, 1.00 (PR 13) and 0.970, 0.979, 0.985, 0.956, 1.071,
/// 0.987, 0.978, 0.979 (PR 17): median ≈ 0.98, i.e. obs costs about 2% of a
/// P = 4 step, and half the runs land under 0.98 by noise alone. 0.95 is
/// where a real regression separates from that spread. The figure does not
/// carry to large P: on `scale_oktopk_p1024` the benchmark's
/// `obs.on_over_off_step` reads ×1.065 (×1.28 while every message updated
/// shared registry atomics; EXPERIMENTS.md § "A single-writer message path").
const OBS_FLOOR: f64 = 0.95;

/// `matmul_wt_loop_vs_kernel` floor. On a shared 2-core AVX2 host, six
/// `--quick` runs of the shipped kernel read 3.45, 4.44, 5.24, 4.40, 4.89,
/// 4.41; four of its portable SSE2 build (the AVX2 dispatch disabled) read
/// 4.00, 3.99, 4.02, 3.87; six of the four scalar `dot4` chains it replaced
/// read 1.49, 1.24, 1.47, 1.48, 1.46, 1.48. 2.5 sits between the two.
const MATMUL_WT_FLOOR: f64 = 2.5;

/// The speedup a row must reach: the vectorized scan ≥ 1.5× scalar, the
/// in-place fused pass ≥ 1.2× the two-buffer composition where n streams from
/// DRAM, [`OBS_FLOOR`] and [`MATMUL_WT_FLOOR`].
fn floor_of(name: &str) -> f64 {
    match name {
        "scan_scalar_vs_simd" => 1.5,
        "accumulate_select_separate_vs_fused_n4m" => 1.2,
        "matmul_wt_loop_vs_kernel" => MATMUL_WT_FLOOR,
        _ => OBS_FLOOR,
    }
}

/// The floor `r` is under, if it is a non-fallback row that missed it.
fn missed_floor(r: &BenchResult) -> Option<f64> {
    let floor = floor_of(r.name);
    (!r.serial_fallback && r.speedup() < floor).then_some(floor)
}

/// Measurements the gate takes of a row before it calls it a failure.
const MAX_ATTEMPTS: usize = 3;

/// Measure a row; with `retry`, measure it again (same reps and trials) while
/// it lands under its floor, [`MAX_ATTEMPTS`] times at most. Every row here
/// times microseconds to milliseconds on a shared host, so one reading under
/// the floor is weak evidence; three in a row are not. Returns the last
/// measurement, with every attempt's speedup recorded.
fn measure_gated(retry: bool, mut measure: impl FnMut() -> BenchResult) -> BenchResult {
    let mut attempts = Vec::new();
    loop {
        let mut r = measure();
        attempts.push(r.speedup());
        match missed_floor(&r) {
            Some(floor) if retry && attempts.len() < MAX_ATTEMPTS => {
                let tried = fmt_attempts(&attempts);
                eprintln!("  {}: [{tried}] under its floor {floor}; measuring again", r.name)
            }
            _ => {
                r.attempts = attempts;
                return r;
            }
        }
    }
}

/// Rows measured by [`measure_gated`] whose last attempt — hence every
/// attempt — is under its floor.
fn gate(results: &[BenchResult]) -> Vec<String> {
    let failed = results.iter().filter_map(|r| Some((r, missed_floor(r)?)));
    failed
        .map(|(r, floor)| {
            format!(
                "{}: speedup [{}] < {floor} on every attempt",
                r.name,
                fmt_attempts(&r.attempts)
            )
        })
        .collect()
}

fn main() {
    let args = okbench::Args::parse("hotpath");
    let (n, reps, trials) = if args.quick { (1 << 15, 5, 3) } else { (1 << 18, 10, 5) };
    let (sgd_n, sgd_iters) = if args.quick { (1 << 12, 30) } else { (1 << 14, 100) };
    let obs_trials = if args.quick { 11 } else { 15 };
    let caps = simd::caps();
    eprintln!(
        "hotpath: n={n} quick={} simd isa={} lanes={}",
        args.quick,
        caps.isa,
        caps.lanes.width()
    );
    let results = vec![
        measure_gated(args.gate, || bench_scan_simd(n, reps, trials)),
        measure_gated(args.gate, || bench_accumulate_select(1 << 22, 3, trials)),
        measure_gated(args.gate, || {
            bench_obs_overhead(4, sgd_n, sgd_n / 64, sgd_iters * 4, obs_trials)
        }),
        measure_gated(args.gate, || bench_matmul_wt(50, obs_trials)),
    ];
    let rows: Vec<Json> = results
        .iter()
        .map(|r| {
            let row = Json::default()
                .text("name", r.name)
                .field("baseline_ns", format!("{:.1}", r.baseline_ns))
                .field("optimized_ns", format!("{:.1}", r.optimized_ns))
                .field("speedup", format!("{:.3}", r.speedup()))
                .field("floor", floor_of(r.name))
                .field("attempts", format!("[{}]", fmt_attempts(&r.attempts)))
                .field("serial_fallback", r.serial_fallback)
                .text("note", &r.note);
            eprintln!("  {}", row.inline());
            row
        })
        .collect();
    args.header.write_json(&args.out, Json::default(), &rows);
    let ok = format!(
        "scan scalar-vs-simd >= 1.5, fused accumulate+select >= 1.2, \
         obs off-vs-on >= {OBS_FLOOR}, matmul wt loop-vs-kernel >= {MATMUL_WT_FLOOR}; \
         best of {MAX_ATTEMPTS}"
    );
    okbench::gate_exit(args.gate, &gate(&results), &ok);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A gated row (`obs_off_vs_on`, floor [`OBS_FLOOR`]) replaying `speedups`.
    fn scripted(retry: bool, speedups: &[f64], serial_fallback: bool) -> BenchResult {
        let mut left = speedups.iter();
        measure_gated(retry, || {
            let base = *left.next().expect("measured more often than scripted");
            let mut r = BenchResult::new("obs_off_vs_on", base, 1.0, String::new());
            r.serial_fallback = serial_fallback;
            r
        })
    }

    #[test]
    fn gate_fails_only_when_three_attempts_land_under_the_floor() {
        let first = scripted(true, &[0.99], false);
        assert_eq!(first.attempts, [0.99]);
        assert!(gate(&[first]).is_empty());

        let second = scripted(true, &[0.90, 1.02], false);
        assert_eq!(second.attempts, [0.90, 1.02], "a passing attempt ends the retries");
        assert!(gate(&[second]).is_empty());

        let third = scripted(true, &[0.90, 0.94, 0.96], false);
        assert_eq!(third.attempts, [0.90, 0.94, 0.96]);
        assert_eq!(third.speedup(), 0.96);
        assert!(gate(&[third]).is_empty());

        let failed = scripted(true, &[0.90, 0.94, 0.93], false);
        assert_eq!(failed.attempts, [0.90, 0.94, 0.93], "no fourth attempt");
        let msg = gate(&[failed]).join("; ");
        assert!(msg.contains("obs_off_vs_on") && msg.contains("0.93"), "{msg}");
    }

    #[test]
    fn fallback_rows_and_ungated_runs_are_measured_once() {
        let fallback = scripted(true, &[0.5], true);
        assert_eq!(fallback.attempts, [0.5]);
        assert!(gate(&[fallback]).is_empty());

        let no_retry = scripted(false, &[0.5], false);
        assert_eq!(no_retry.attempts, [0.5], "without --gate nothing is re-measured");
    }
}
