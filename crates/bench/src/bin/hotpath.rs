//! Hot-path wall-clock benchmark: selection throughput, SIMD lane-kernel
//! headroom, per-iteration SGD step time, and end-to-end trainer wall-clock.
//!
//! Emits `BENCH_PR6.json` (in the working directory — repo root under
//! `cargo run`) with per-bench baseline/optimized nanoseconds, speedups, and a
//! per-lane-width sweep so numbers are comparable across machines:
//!
//! - *baseline* for the selection benches is the allocating `sparse::select`
//!   path (fresh `Vec`s every call), exactly what the hot loop did before the
//!   scratch subsystem.
//! - the `scan_scalar_vs_simd` headline row and `select_fill_simd` compare the
//!   scalar mask kernels (`Lanes::S1`) against the auto-dispatched SIMD width,
//!   with a per-lane-width sweep. On a host with no vector unit the row is
//!   flagged `serial_fallback: true` and the SIMD gate auto-skips.
//! - `accumulate_select_separate_vs_fused_*` run one rank's error-feedback
//!   recurrence (accumulate, select, zero what was selected) the two-buffer way
//!   — `fused_scale_add` into a second array, `scan_keep_append` over it, swap —
//!   against `accumulate_scan_keep_append` in place, at a cache-resident and a
//!   DRAM-resident n. The gain is DRAM traffic, so a row is flagged
//!   `serial_fallback` when the host's caches hold its n.
//! - `exact_threshold_sort_vs_radix_*` time the full-sort reference against the
//!   pooled radix select at the same two sizes.
//!
//! The JSON header records the probed SIMD capability (ISA, lane width) so
//! perf trajectories across hosts stay interpretable.
//!
//! Usage: `cargo run --release -p okbench --bin hotpath [-- --quick] [--gate]
//! [--out PATH]`. `--gate` is the pre-PR regression gate run by
//! `scripts/check.sh`; see [`floor_of`] for the rows it checks and
//! [`measure_gated`] for its three-attempt rule.

use std::hint::black_box;
use std::time::Instant;

use oktopk::{OkTopkConfig, OkTopkSgd};
use simnet::{Cluster, CostModel};
use sparse::scratch::{select_ge_scratch, SelectScratch};
use sparse::select::{exact_threshold, exact_threshold_by_sort, select_ge};
use sparse::simd::{self, Lanes};

struct BenchResult {
    name: &'static str,
    baseline_ns: Option<f64>,
    optimized_ns: Option<f64>,
    /// True when the optimized path deliberately ran without its optimization
    /// (the SIMD dispatch resolved to scalar; the host's caches hold the input),
    /// so speedup ≈ 1.0 is by design and the gates skip the row.
    serial_fallback: bool,
    /// Lane-width sweep: (lanes, ns per rep).
    sweep: Vec<(usize, f64)>,
    /// Speedup of every measurement [`measure_gated`] took of this row, in
    /// order; the other fields hold the last one.
    attempts: Vec<f64>,
    note: String,
}

impl BenchResult {
    fn speedup(&self) -> Option<f64> {
        match (self.baseline_ns, self.optimized_ns) {
            (Some(b), Some(o)) if o > 0.0 => Some(b / o),
            _ => None,
        }
    }
}

/// Median ns/rep over `trials` timed runs of `reps` calls each (one warm-up run).
fn time_ns(reps: usize, trials: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: fill scratch pools, fault in pages
    let mut samples: Vec<f64> = (0..trials)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
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

/// Selection: allocating `select` path vs pooled scratch path.
fn bench_selection_scratch(n: usize, k: usize, reps: usize, trials: usize) -> BenchResult {
    let dense = pseudo_dense(n, 1);
    let baseline = time_ns(reps, trials, || {
        let th = exact_threshold(black_box(&dense), k);
        black_box(select_ge(&dense, th));
    });
    let mut scratch = SelectScratch::new();
    let optimized = time_ns(reps, trials, || {
        let th = exact_threshold(black_box(&dense), k);
        let g = select_ge_scratch(&dense, th, &mut scratch);
        black_box(g.nnz());
        scratch.recycle(g);
    });
    BenchResult {
        name: "selection_alloc_vs_scratch",
        baseline_ns: Some(baseline),
        optimized_ns: Some(optimized),
        serial_fallback: false,
        sweep: Vec::new(),
        attempts: Vec::new(),
        note: format!(
            "n={n} k={k}; exact_threshold + select_ge per rep; baseline is the scalar \
             allocating select path, scratch runs pooled buffers + SIMD lanes (PR2's \
             0.974x was alloc-vs-pool parity inside the 2% bench noise floor — the \
             pooled path saves allocation but did identical scalar arithmetic; the \
             lane kernels now pull it decisively ahead)"
        ),
    }
}

/// Lane-width sweep helper: time `f` at every [`Lanes`] width, returning
/// `(width, ns)` rows plus the scalar and auto-width timings.
fn lane_sweep(reps: usize, trials: usize, mut f: impl FnMut(Lanes)) -> (Vec<(usize, f64)>, f64) {
    let sweep: Vec<(usize, f64)> =
        Lanes::ALL.iter().map(|&l| (l.width(), time_ns(reps, trials, || f(l)))).collect();
    let scalar = sweep[0].1;
    (sweep, scalar)
}

/// The tentpole headline: threshold-scan throughput, forced-scalar vs the
/// auto-dispatched SIMD width. This is the O(n) pass Ok-Topk runs every
/// steady-state iteration (Algorithm 1's reuse path), so the gate pins the
/// ≥1.5x floor here.
fn bench_scan_simd(n: usize, reps: usize, trials: usize) -> BenchResult {
    let dense = pseudo_dense(n, 7);
    let th = 0.75f32;
    let caps = simd::caps();
    let (sweep, scalar) = lane_sweep(reps, trials, |l| {
        black_box(simd::count_abs_ge_with_lanes(black_box(&dense), th, l));
    });
    let auto = time_ns(reps, trials, || {
        black_box(simd::count_abs_ge(black_box(&dense), th));
    });
    BenchResult {
        name: "scan_scalar_vs_simd",
        baseline_ns: Some(scalar),
        optimized_ns: Some(auto),
        serial_fallback: caps.lanes == Lanes::S1,
        sweep,
        attempts: Vec::new(),
        note: format!(
            "n={n} th={th}; count_abs_ge scalar vs auto ({} lanes, {})",
            caps.lanes.width(),
            caps.isa
        ),
    }
}

/// Survivor-scan headroom: the full `select_ge` keep-scan (mask + ordered
/// emit), forced-scalar vs auto SIMD. Informational — the emit tail is scalar
/// by construction (order-preserving compaction), so the speedup is bounded
/// below the pure-count row and not gated.
fn bench_select_fill_simd(n: usize, reps: usize, trials: usize) -> BenchResult {
    let dense = pseudo_dense(n, 8);
    let th = 0.75f32;
    let caps = simd::caps();
    let (mut idx, mut val) = (Vec::new(), Vec::new());
    let (sweep, scalar) = lane_sweep(reps, trials, |l| {
        idx.clear();
        val.clear();
        simd::scan_keep_append_with_lanes(black_box(&dense), th, 0, &mut idx, &mut val, l);
        black_box(idx.len());
    });
    let auto = time_ns(reps, trials, || {
        idx.clear();
        val.clear();
        simd::scan_keep_append(black_box(&dense), th, 0, &mut idx, &mut val);
        black_box(idx.len());
    });
    BenchResult {
        name: "select_fill_simd",
        baseline_ns: Some(scalar),
        optimized_ns: Some(auto),
        serial_fallback: caps.lanes == Lanes::S1,
        sweep,
        attempts: Vec::new(),
        note: format!("n={n} th={th}; scan_keep_append scalar vs auto; informational (not gated)"),
    }
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
fn bench_accumulate_select(
    name: &'static str,
    n: usize,
    reps: usize,
    trials: usize,
) -> BenchResult {
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
    BenchResult {
        name,
        baseline_ns: Some(separate),
        optimized_ns: Some(fused),
        serial_fallback: !is_dram_resident(n, trials),
        sweep: Vec::new(),
        attempts: Vec::new(),
        note: format!(
            "n={n} scale={scale} th={th}, {} selected by the last call; fused_scale_add + \
             scan_keep_append + swap vs accumulate_scan_keep_append in place; flagged when \
             the host's caches hold n (no DRAM traffic to save)",
            idx.len()
        ),
    }
}

/// Exact threshold: the full-sort reference vs the pooled radix select.
fn bench_exact_threshold(name: &'static str, n: usize, reps: usize, trials: usize) -> BenchResult {
    let dense = pseudo_dense(n, 13);
    let k = n / 100;
    let sort = time_ns(reps, trials, || {
        black_box(exact_threshold_by_sort(black_box(&dense), k));
    });
    let radix = time_ns(reps, trials, || {
        black_box(exact_threshold(black_box(&dense), k));
    });
    BenchResult {
        name,
        baseline_ns: Some(sort),
        optimized_ns: Some(radix),
        serial_fallback: false,
        sweep: Vec::new(),
        attempts: Vec::new(),
        note: format!(
            "n={n} k={k}; exact_threshold_by_sort vs exact_threshold ({:.2} ns/elem)",
            radix / n as f64
        ),
    }
}

/// Per-iteration Ok-Topk SGD step time on a simulated cluster (current code;
/// the zero-allocation refactor is in-library, so no allocating twin exists to
/// run as a baseline — track this number across PRs instead).
fn bench_sgd_step(p: usize, n: usize, k: usize, iters: usize) -> BenchResult {
    let start = Instant::now();
    Cluster::new(p, CostModel::free()).run(|comm| {
        let mut sgd = OkTopkSgd::new(OkTopkConfig::new(n, k).with_periods(8, 8));
        let mut grad = vec![0.0f32; n];
        for it in 0..iters {
            for (i, g) in grad.iter_mut().enumerate() {
                *g = (((it * 31 + i * 7 + comm.rank()) % 997) as f32 / 997.0) - 0.5;
            }
            black_box(sgd.step(comm, &grad, 0.01).update.nnz());
        }
    });
    let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
    BenchResult {
        name: "sgd_step",
        baseline_ns: None,
        optimized_ns: Some(per_iter),
        serial_fallback: false,
        sweep: Vec::new(),
        attempts: Vec::new(),
        note: format!("p={p} n={n} k={k}; wall-clock per collective step, {iters} iters"),
    }
}

/// End-to-end trainer wall-clock: distributed quadratic fit (the convergence
/// test's workload) for a fixed iteration budget.
fn bench_e2e_trainer(p: usize, n: usize, k: usize, iters: usize) -> BenchResult {
    let centers: Vec<Vec<f32>> = (0..p).map(|r| pseudo_dense(n, 100 + r as u64)).collect();
    let start = Instant::now();
    let report = Cluster::new(p, CostModel::aries()).run(|comm| {
        let mut sgd = OkTopkSgd::new(OkTopkConfig::new(n, k).with_periods(8, 8));
        let mut w = vec![0.0f32; n];
        for it in 0..iters {
            let grad: Vec<f32> =
                w.iter().zip(&centers[comm.rank()]).map(|(wi, ci)| wi - ci).collect();
            let lr = 0.1 / (1.0 + it as f32 / 100.0);
            let step = sgd.step(comm, &grad, lr);
            for (i, v) in step.update.iter() {
                w[i as usize] -= v;
            }
        }
        w.iter().map(|v| *v as f64).sum::<f64>()
    });
    black_box(&report.results);
    let total = start.elapsed().as_nanos() as f64;
    BenchResult {
        name: "e2e_trainer",
        baseline_ns: None,
        optimized_ns: Some(total),
        serial_fallback: false,
        sweep: Vec::new(),
        attempts: Vec::new(),
        note: format!("p={p} n={n} k={k} iters={iters}; total wall-clock ns"),
    }
}

/// Observability overhead on the simnet hot path: the same messaging-heavy
/// collective workload with the per-run metrics registry disabled (baseline)
/// vs enabled (optimized column). The gate ([`OBS_FLOOR`]) trips when the
/// enabled run costs more than 5% — the enabled fast path (relaxed atomics,
/// single-writer slots) must stay cheap.
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
    // Paired-ratio median: each trial times the off and on configurations
    // back to back (~ms apart, inside the same host-noise regime) and the
    // gate statistic is the median of the per-pair off/on ratios. Taking
    // independent minima instead would be fooled whenever a noise-regime
    // boundary lands inside a pair (one side catches a fast window the other
    // never sees); the per-pair ratio cancels regime-scale noise and the
    // median discards the boundary pairs.
    run(true); // warm-up both pools and the page cache
    let pairs: Vec<(f64, f64)> = (0..trials).map(|_| (run(false), run(true))).collect();
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let ratio = median(pairs.iter().map(|&(o, n)| o / n).collect());
    let off = median(pairs.iter().map(|&(o, _)| o).collect());
    // Report the off median and an on value derived so that the displayed
    // speedup IS the paired-median ratio the gate tests.
    let on = off / ratio;
    BenchResult {
        name: "obs_off_vs_on",
        baseline_ns: Some(off),
        optimized_ns: Some(on),
        serial_fallback: false,
        sweep: Vec::new(),
        attempts: Vec::new(),
        note: format!(
            "p={p} n={n} k={k}; per-step wall, registry off vs on, paired-ratio \
             median over {trials} trials (gate: on within 5% of off)"
        ),
    }
}

/// `attempts` as a comma-separated list of 3-decimal speedups.
fn fmt_attempts(attempts: &[f64]) -> String {
    attempts.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(", ")
}

fn json_f64(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.1}"),
        _ => "null".to_string(),
    }
}

fn write_json(path: &str, header: &okbench::Header, results: &[BenchResult]) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&header.json_fields());
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"baseline_ns\": {},\n", json_f64(r.baseline_ns)));
        out.push_str(&format!("      \"optimized_ns\": {},\n", json_f64(r.optimized_ns)));
        let speedup = match r.speedup() {
            Some(s) if s.is_finite() => format!("{s:.3}"),
            _ => "null".to_string(),
        };
        out.push_str(&format!("      \"speedup\": {speedup},\n"));
        out.push_str(&format!("      \"attempts\": [{}],\n", fmt_attempts(&r.attempts)));
        out.push_str(&format!("      \"serial_fallback\": {},\n", r.serial_fallback));
        if r.sweep.is_empty() {
            out.push_str("      \"sweep\": [],\n");
        } else {
            out.push_str("      \"sweep\": [\n");
            for (j, (lanes, ns)) in r.sweep.iter().enumerate() {
                let sep = if j + 1 < r.sweep.len() { "," } else { "" };
                out.push_str(&format!(
                    "        {{ \"lanes\": {lanes}, \"ns\": {} }}{sep}\n",
                    json_f64(Some(*ns))
                ));
            }
            out.push_str("      ],\n");
        }
        out.push_str(&format!("      \"note\": \"{}\"\n", r.note));
        out.push_str(if i + 1 < results.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write bench json");
}

/// `obs_off_vs_on` floor: the gate trips when the enabled registry costs more
/// than 5% of a step. The row's workload is a 150–230 µs P = 4 step on a
/// shared host, and 24 recorded runs of it on unchanged code read
/// 0.97, 1.01, 1.01, 1.18, 0.94, 1.03, 0.96, 0.95, 0.98, 0.96, 0.95, 0.90,
/// 1.12, 1.02, 1.03, 1.00 (PR 13) and 0.970, 0.979, 0.985, 0.956, 1.071,
/// 0.987, 0.978, 0.979 (PR 17): median ≈ 0.98, i.e. obs costs about 2%, and
/// half the runs land under 0.98 by noise alone. 0.95 is where a real
/// regression separates from that spread.
const OBS_FLOOR: f64 = 0.95;

/// The speedup a gated row must reach; `None` for informational rows.
///
/// - `obs_off_vs_on`: see [`OBS_FLOOR`].
/// - `scan_scalar_vs_simd`: the vectorized threshold scan must beat the
///   scalar kernel by ≥1.5x on a SIMD-capable host. On a host with no vector
///   unit (`serial_fallback` flag) the row auto-skips.
/// - `accumulate_select_separate_vs_fused_n4m`: the in-place fused pass must
///   beat the two-buffer composition by ≥1.2x where n = 2²² streams from DRAM
///   (flagged `serial_fallback` where it does not).
/// - `exact_threshold_sort_vs_radix_n4m`: the radix select must beat the
///   full sort by ≥2x.
fn floor_of(name: &str) -> Option<f64> {
    match name {
        "obs_off_vs_on" => Some(OBS_FLOOR),
        "scan_scalar_vs_simd" => Some(1.5),
        "accumulate_select_separate_vs_fused_n4m" => Some(1.2),
        "exact_threshold_sort_vs_radix_n4m" => Some(2.0),
        _ => None,
    }
}

/// The floor `r` is under, if it is a gated, non-fallback row that missed it.
fn missed_floor(r: &BenchResult) -> Option<f64> {
    let floor = floor_of(r.name)?;
    (!r.serial_fallback && r.speedup()? < floor).then_some(floor)
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
        attempts.extend(r.speedup());
        match missed_floor(&r) {
            Some(floor) if retry && attempts.len() < MAX_ATTEMPTS => {
                eprintln!(
                    "  {}: [{}] under its floor {floor}; measuring again",
                    r.name,
                    fmt_attempts(&attempts)
                )
            }
            _ => {
                r.attempts = attempts;
                return r;
            }
        }
    }
}

/// Regression gate over rows measured by [`measure_gated`]: a row fails when
/// its last attempt — hence every attempt — is under its floor.
fn gate(results: &[BenchResult]) -> Result<(), String> {
    let failures: Vec<String> = results
        .iter()
        .filter_map(|r| {
            let floor = missed_floor(r)?;
            Some(format!(
                "{}: speedup [{}] < {floor} on every attempt",
                r.name,
                fmt_attempts(&r.attempts)
            ))
        })
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let header = okbench::Header::begin("hotpath", quick);
    let run_gate = args.iter().any(|a| a == "--gate");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_PR6.json")
        .to_string();

    let (n, k, reps, trials) =
        if quick { (1 << 15, 1 << 9, 5, 3) } else { (1 << 18, 1 << 12, 10, 5) };
    let (sgd_n, sgd_iters) = if quick { (1 << 12, 30) } else { (1 << 14, 100) };
    let e2e_iters = if quick { 60 } else { 300 };

    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("hotpath: n={n} k={k} host_threads={host_threads} quick={quick}");
    let caps = simd::caps();
    eprintln!("hotpath: simd isa={} lanes={}", caps.isa, caps.lanes.width());
    let obs_trials = if quick { 11 } else { 15 };
    let results = vec![
        measure_gated(run_gate, || bench_scan_simd(n, reps, trials)),
        measure_gated(run_gate, || bench_select_fill_simd(n, reps, trials)),
        measure_gated(run_gate, || {
            bench_accumulate_select("accumulate_select_separate_vs_fused_n64k", 1 << 16, 50, trials)
        }),
        measure_gated(run_gate, || {
            bench_accumulate_select("accumulate_select_separate_vs_fused_n4m", 1 << 22, 3, trials)
        }),
        measure_gated(run_gate, || {
            bench_exact_threshold("exact_threshold_sort_vs_radix_n64k", 1 << 16, 5, trials)
        }),
        measure_gated(run_gate, || {
            bench_exact_threshold("exact_threshold_sort_vs_radix_n4m", 1 << 22, 1, trials)
        }),
        measure_gated(run_gate, || bench_selection_scratch(n, k, reps, trials)),
        measure_gated(run_gate, || bench_sgd_step(4, sgd_n, sgd_n / 64, sgd_iters)),
        measure_gated(run_gate, || bench_e2e_trainer(4, 4096, 256, e2e_iters)),
        measure_gated(run_gate, || {
            bench_obs_overhead(4, sgd_n, sgd_n / 64, sgd_iters * 4, obs_trials)
        }),
    ];

    for r in &results {
        let speedup = r.speedup().map(|s| format!("{s:.2}x")).unwrap_or_else(|| "—".to_string());
        let fb = if r.serial_fallback { " [serial fallback]" } else { "" };
        eprintln!(
            "  {:<40} baseline {:>12} ns  optimized {:>12} ns  speedup {}{}",
            r.name,
            json_f64(r.baseline_ns),
            json_f64(r.optimized_ns),
            speedup,
            fb
        );
        for (lanes, ns) in &r.sweep {
            eprintln!("      lanes={lanes:<3} {:>12} ns", json_f64(Some(*ns)));
        }
        if r.attempts.len() > 1 {
            eprintln!("      attempts [{}]", fmt_attempts(&r.attempts));
        }
    }
    write_json(&out_path, &header, &results);
    eprintln!("wrote {out_path}");

    if run_gate {
        match gate(&results) {
            Ok(()) => {
                eprintln!(
                    "gate: OK (scan scalar-vs-simd >= 1.5, fused accumulate+select >= 1.2, \
                     radix select >= 2, obs off-vs-on >= {OBS_FLOOR}; best of {MAX_ATTEMPTS})"
                )
            }
            Err(msg) => {
                eprintln!("gate: FAIL — {msg}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A gated row (`obs_off_vs_on`, floor [`OBS_FLOOR`]) replaying `speedups`.
    fn scripted(retry: bool, speedups: &[f64], serial_fallback: bool) -> BenchResult {
        let mut left = speedups.iter();
        measure_gated(retry, || BenchResult {
            name: "obs_off_vs_on",
            baseline_ns: Some(*left.next().expect("measured more often than scripted")),
            optimized_ns: Some(1.0),
            serial_fallback,
            sweep: Vec::new(),
            attempts: Vec::new(),
            note: String::new(),
        })
    }

    #[test]
    fn gate_fails_only_when_three_attempts_land_under_the_floor() {
        let first = scripted(true, &[0.99], false);
        assert_eq!(first.attempts, [0.99]);
        assert!(gate(&[first]).is_ok());

        let second = scripted(true, &[0.90, 1.02], false);
        assert_eq!(second.attempts, [0.90, 1.02], "a passing attempt ends the retries");
        assert!(gate(&[second]).is_ok());

        let third = scripted(true, &[0.90, 0.94, 0.96], false);
        assert_eq!(third.attempts, [0.90, 0.94, 0.96]);
        assert_eq!(third.speedup(), Some(0.96));
        assert!(gate(&[third]).is_ok());

        let failed = scripted(true, &[0.90, 0.94, 0.93], false);
        assert_eq!(failed.attempts, [0.90, 0.94, 0.93], "no fourth attempt");
        let msg = gate(&[failed]).unwrap_err();
        assert!(msg.contains("obs_off_vs_on") && msg.contains("0.93"), "{msg}");
    }

    #[test]
    fn fallback_rows_and_ungated_runs_are_measured_once() {
        let fallback = scripted(true, &[0.5], true);
        assert_eq!(fallback.attempts, [0.5]);
        assert!(gate(&[fallback]).is_ok());

        let no_retry = scripted(false, &[0.5], false);
        assert_eq!(no_retry.attempts, [0.5], "without --gate nothing is re-measured");
    }
}
