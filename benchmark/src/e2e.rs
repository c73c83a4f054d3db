//! The untraced pass: end-to-end metrics a user of the system would see,
//! plus the output checks. Two clocks, named on every number: *modeled*
//! (virtual alpha-beta seconds and exact counts, the same for a seed on any
//! host) and *host* (wall time and memory of producing them here).

use crate::gen;
use crate::report::{median, metric, ns_to_f64, per_rank_u64, percentile, Checks, Metric};
use crate::runner::{self, LoopOpts, LoopOut};
use crate::workloads::{Kind, Spec};
use std::time::{Duration, Instant};
use train::{RunResult, Scheme};

/// Set-ups measured per run; the median is reported.
const SETUP_REPEATS: usize = 3;

/// Held-out loss `train_bert_p16` must reach. Ok-Topk crosses it at about
/// two thirds of the iteration budget; never crossing fails a check.
pub const TRAIN_TARGET_LOSS: f64 = 4.12;

/// The paper's per-rank volume bound for flat Ok-Topk, in words per step:
/// 6k(P-1)/P, plus the threshold re-evaluation gather amortised over tau',
/// with the 1.35 slack `tests/volume_bounds.rs` allows for the
/// approximately-k selections.
pub fn oktopk_words_bound(p: usize, k: usize, tau_prime: usize) -> f64 {
    let (p, k) = (p as f64, k as f64);
    (6.0 * k * (p - 1.0) / p + 2.0 * k * (p - 1.0) / tau_prime as f64) * 1.35
}

/// Modeled numbers of the fixed window of a loop pass.
pub struct Modeled {
    pub step_s: f64,
    /// Max over ranks of bytes sent per step.
    pub wire_bytes: f64,
    pub fingerprint: u64,
}

pub fn modeled_of(spec: &Spec, out: &LoopOut) -> Modeled {
    let (a, b) = out.window.as_ref().expect("a full pass has a modeled window");
    let steps = spec.model_steps as f64;
    let tx_a = per_rank_u64(&a.metrics, "sim.tx_bytes");
    let tx_b = per_rank_u64(&b.metrics, "sim.tx_bytes");
    let sent: Vec<u64> = tx_b.iter().zip(&tx_a).map(|(b, a)| b - a).collect();
    let mut fp = gen::key(&[a.v.to_bits(), b.v.to_bits(), out.warm_chain]);
    for w in sent.iter().chain(&out.checksums) {
        fp = gen::mix(fp ^ w);
    }
    Modeled {
        step_s: (b.v - a.v) / steps,
        wire_bytes: sent.iter().copied().max().unwrap_or(0) as f64 / steps,
        fingerprint: fp,
    }
}

/// Options of a pass of exactly the modeled window (untraced, registry on):
/// reference runs, and the traced pass's counts, spans and registry-off run.
pub fn fixed_opts(seed: u64) -> LoopOpts {
    LoopOpts {
        seed,
        budget: Duration::ZERO,
        setup_only: false,
        traced: false,
        obs: true,
        launch: Instant::now(),
    }
}

/// The output checks of a loop pass. Returns the chaos/clean modeled ratio
/// where a chaos plan runs (1 otherwise).
pub fn check_loop(spec: &Spec, seed: u64, out: &LoopOut, checks: &mut Checks) -> f64 {
    let modeled = modeled_of(spec, out);
    checks.tally(
        out.checksums.len(),
        out.checksum_mismatches,
        "per-step update checksum identical on every rank",
    );
    if !out.dense_sample.is_empty() {
        let err =
            runner::dense_reference_error(spec, seed, out.dense_sample_step, &out.dense_sample);
        checks.check(err <= 1e-4, || format!("dense average vs serial f64 sum: rel err {err:e}"));
    }
    if spec.kind == Kind::Reduce(Scheme::OkTopk) {
        let words = modeled.wire_bytes / 4.0;
        let bound = oktopk_words_bound(spec.p, spec.k(), spec.tau_prime);
        checks.check(words <= bound, || format!("Ok-Topk volume {words:.0} words > {bound:.0}"));
    }
    if !spec.chaos {
        return 1.0;
    }
    let clean =
        modeled_of(spec, &runner::run_loop(&Spec { chaos: false, ..*spec }, fixed_opts(seed)));
    let ratio = modeled.step_s / clean.step_s;
    checks.check(ratio >= 1.0, || format!("chaos made the modeled step faster: ratio {ratio}"));
    ratio
}

/// What the untraced pass reports.
pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    pub fingerprint: u64,
    /// Human-readable side notes (sample count, p90, ...), for stderr.
    pub notes: String,
}

fn host_metrics(
    p: usize,
    step_wall_ns: &[u64],
    setups: &[Duration],
    vm_hwm_kb: u64,
) -> Vec<Metric> {
    let walls = ns_to_f64(step_wall_ns);
    let setups: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    vec![
        metric("setup_s", "s", median(&setups)),
        metric("host_rank_steps_per_s", "1/s", p as f64 / (median(&walls) / 1e9)),
        metric("peak_rss_mb", "MB", vm_hwm_kb as f64 / 1024.0),
    ]
}

fn host_notes(step_wall_ns: &[u64], setups: &[Duration]) -> String {
    let walls = ns_to_f64(step_wall_ns);
    format!(
        "timed_steps={} step_ms_p50={:.3} step_ms_p90={:.3} setups_s={:?}",
        walls.len(),
        median(&walls) / 1e6,
        percentile(&walls, 0.9) / 1e6,
        setups.iter().map(|d| (d.as_secs_f64() * 1e3).round() / 1e3).collect::<Vec<_>>(),
    )
}

fn run_loop_e2e(spec: &Spec, seed: u64, seconds: f64, launch: Instant) -> EndToEnd {
    let opts = LoopOpts {
        seed,
        budget: Duration::from_secs_f64(seconds),
        setup_only: false,
        traced: false,
        obs: true,
        launch,
    };
    let main = runner::run_loop(spec, opts);
    // Peak memory is read before anything else runs in this process.
    let vm_hwm_kb = main.vm_hwm_kb;
    let mut checks = Checks::default();
    let mut setups = vec![main.setup];
    for _ in 1..SETUP_REPEATS {
        let again =
            runner::run_loop(spec, LoopOpts { setup_only: true, launch: Instant::now(), ..opts });
        setups.push(again.setup);
        checks.check(again.warm_chain == main.warm_chain, || {
            "warm-up updates differ between two set-ups of the same seed".to_string()
        });
    }
    let modeled = modeled_of(spec, &main);
    check_loop(spec, seed, &main, &mut checks);
    let walls: Vec<u64> = main.steps.iter().map(|s| s.wall_ns).collect();
    let mut metrics = host_metrics(spec.p, &walls, &setups, vm_hwm_kb);
    metrics.push(metric("modeled_step_s", "s", modeled.step_s));
    metrics.push(metric("wire_bytes_per_rank_step", "bytes", modeled.wire_bytes));
    EndToEnd {
        metrics,
        checks,
        fingerprint: modeled.fingerprint,
        notes: host_notes(&walls, &setups),
    }
}

/// Trainer iterations for `seconds` of measurement.
pub fn train_iters(spec: &Spec, seconds: f64) -> usize {
    ((seconds * spec.train_iters_per_second as f64).round() as usize).max(spec.warmup + 2)
}

/// Iterations of the prefix run: the trainer owns its loop and reports
/// whole-run totals, so the modeled window is what a full run adds to a
/// shorter run of the same seed (as `tests/volume_bounds.rs` does). Three
/// tau' periods leave out the un-warmed thresholds' overshoot.
pub fn train_prefix_iters(spec: &Spec, iters: usize) -> usize {
    (3 * spec.tau_prime).min(iters / 2).max(spec.warmup + 1)
}

/// Modeled numbers of the iterations `full` ran past `prefix` (pass an empty
/// `prefix` of zero iterations for whole-run numbers).
pub fn train_modeled(spec: &Spec, full: &RunResult, prefix: Option<&RunResult>) -> Modeled {
    let tx = |r: &RunResult| per_rank_u64(&r.metrics, "sim.tx_bytes");
    let before = prefix.map_or(vec![0; spec.p], tx);
    let sent: Vec<u64> = tx(full).iter().zip(&before).map(|(f, p)| f - p).collect();
    let (t0, n0) = prefix.map_or((0.0, 0), |p| (p.makespan, p.records.len()));
    let iters = (full.records.len() - n0) as f64;
    let mut fp = gen::key(&[full.makespan.to_bits(), t0.to_bits()]);
    for w in full.evals.iter().map(|e| e.loss.to_bits()).chain(sent.iter().copied()) {
        fp = gen::mix(fp ^ w);
    }
    Modeled {
        step_s: (full.makespan - t0) / iters,
        wire_bytes: sent.iter().copied().max().unwrap_or(0) as f64 / iters,
        fingerprint: fp,
    }
}

/// Modeled time of the first held-out evaluation at or under the target.
pub fn time_to_target(run: &RunResult) -> Option<f64> {
    run.evals.iter().find(|e| e.loss <= TRAIN_TARGET_LOSS).map(|e| e.time)
}

/// The output checks of a trainer run `full` and its prefix run.
pub fn check_train(
    spec: &Spec,
    full: &RunResult,
    prefix: &RunResult,
    quick: bool,
    checks: &mut Checks,
) {
    checks.check(full.records.iter().all(|r| r.train_loss.is_finite()), || {
        "the trainer recorded a non-finite loss".to_string()
    });
    let same = prefix.records.iter().zip(&full.records);
    checks.check(same.clone().all(|(a, b)| a.train_loss == b.train_loss), || {
        "two runs of the same seed disagree on the training loss".to_string()
    });
    // The quick shape is far too short to warm its thresholds or to converge;
    // it checks the plumbing only.
    if quick {
        return;
    }
    let words = train_modeled(spec, full, Some(prefix)).wire_bytes / 4.0;
    let bound = oktopk_words_bound(spec.p, spec.k(), spec.tau_prime);
    checks.check(words <= bound, || format!("Ok-Topk volume {words:.0} words > {bound:.0}"));
    checks.check(time_to_target(full).is_some(), || {
        let last = full.evals.last().map_or(f64::NAN, |e| e.loss);
        format!("held-out loss never reached {TRAIN_TARGET_LOSS} (last {last})")
    });
}

fn run_train_e2e(spec: &Spec, seed: u64, seconds: f64, quick: bool, launch: Instant) -> EndToEnd {
    let iters = train_iters(spec, seconds);
    let main = runner::run_train(spec, seed, Scheme::OkTopk, iters, launch);
    // Peak memory is read before anything else runs in this process.
    let vm_hwm_kb = main.vm_hwm_kb;
    // The other two set-ups: the prefix run, and one that stops after its
    // first timed step.
    let prefix_iters = train_prefix_iters(spec, iters);
    let prefix = runner::run_train(spec, seed, Scheme::OkTopk, prefix_iters, Instant::now());
    let short = runner::run_train(spec, seed, Scheme::OkTopk, spec.warmup + 1, Instant::now());
    let setups = [main.setup, prefix.setup, short.setup];
    let mut checks = Checks::default();
    check_train(spec, &main.result, &prefix.result, quick, &mut checks);
    let modeled = train_modeled(spec, &main.result, Some(&prefix.result));
    let mut metrics = host_metrics(spec.p, &main.step_wall_ns, &setups, vm_hwm_kb);
    metrics.push(metric("modeled_step_s", "s", modeled.step_s));
    metrics.push(metric("wire_bytes_per_rank_step", "bytes", modeled.wire_bytes));
    let last = main.result.evals.last().map_or(f64::NAN, |e| e.loss);
    EndToEnd {
        metrics,
        checks,
        fingerprint: modeled.fingerprint,
        notes: format!(
            "{} iters={iters} prefix_iters={prefix_iters} final_eval_loss={last:.4} \
             modeled_time_to_target_s={:?}",
            host_notes(&main.step_wall_ns, &setups),
            time_to_target(&main.result),
        ),
    }
}

/// Run the untraced pass of `spec`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, quick: bool, launch: Instant) -> EndToEnd {
    match spec.kind {
        Kind::Train => run_train_e2e(spec, seed, seconds, quick, launch),
        Kind::Reduce(_) => run_loop_e2e(spec, seed, seconds, launch),
    }
}
