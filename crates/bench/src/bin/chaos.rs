//! Robustness harness: how gracefully does each allreduce variant degrade when
//! the cluster misbehaves?
//!
//! For every flat scheme of `Scheme::all()` that does not overlap the backward
//! pass, and every cluster size P, the harness runs [`okbench::reduce_steps`]
//! under a family of deterministic chaos plans:
//!
//! - **straggler severity sweep**: one rank computes 1×–4× slower (1× = clean
//!   baseline), measuring `slowdown(s) = makespan(s) / makespan(1)`;
//! - **jitter sweep**: every message picks up seeded uniform extra head latency
//!   of up to {50, 200}×α, at clean compute speed.
//!
//! All times are *modeled* (virtual seconds), so every cell is deterministic.
//!
//! Usage: `cargo run --release -p okbench --bin chaos [-- --quick] [--gate]
//! [--out PATH]` (default `target/chaos.json`). `--gate` runs a tiny P=4
//! sweep and exits non-zero if any perturbed cell finishes *faster* than its
//! clean baseline (chaos must never help) or if a repeated cell is not
//! bit-identical — the smoke run wired into `scripts/check.sh`.

use okbench::{reduce_steps, Json};
use simnet::ChaosPlan;
use train::{CostProfile, Scheme};

/// Small enough that a full sweep stays fast, large enough that compute and
/// communication are comparable — a straggler that only stretched compute on
/// a comm-dominated run would show nothing.
const N: usize = 16_384;
const DENSITY: f64 = 0.02;
const ITERS: usize = 4;

const SEVERITIES: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
/// Jitter bounds as multiples of α. Messages here are big enough that β·L
/// dominates α, so meaningful jitter is many α deep: [50α, 200α] spans "noisy
/// switch" to "congested fabric", where message-count differences show.
const JITTER_LEVELS: [f64; 2] = [50.0, 200.0];

/// Modeled makespan of `scheme` at size `p` under `plan`.
fn makespan(scheme: Scheme, p: usize, plan: ChaosPlan) -> f64 {
    reduce_steps((scheme, p, N, DENSITY, ITERS), 1, |c| c.with_chaos(plan)).makespan()
}

fn main() {
    let args = okbench::Args::parse("chaos");
    let sizes: &[usize] = if args.gate {
        &[4]
    } else if args.quick {
        &[8, 16]
    } else {
        &[8, 16, 32]
    };
    eprintln!("chaos: n={N} density={DENSITY} iters={ITERS} sizes={sizes:?}");
    let alpha = CostProfile::paper_calibrated().scaled_for_model(N).network().alpha;
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for &p in sizes {
        // An overlap window depends on a backward-pass schedule the fixed step
        // here does not model.
        for scheme in
            Scheme::all().into_iter().filter(|s| !s.is_two_tier() && !s.overlaps_backward())
        {
            let clean = makespan(scheme, p, ChaosPlan::new(0));
            let mut row = Json::default()
                .text("scheme", scheme.name())
                .field("p", p)
                .field("clean_makespan", format!("{clean:.6e}"));
            let cells =
                SEVERITIES.iter().map(|&s| ("straggler", s, ChaosPlan::new(0).straggler(0, s)));
            let jitter =
                JITTER_LEVELS.iter().map(|&l| ("jitter", l, ChaosPlan::new(7).jitter(l * alpha)));
            for (kind, level, plan) in cells.chain(jitter) {
                let slowdown = if level == 1.0 { 1.0 } else { makespan(scheme, p, plan) / clean };
                row = row.field(&format!("{kind}_{level}"), format!("{slowdown:.4}"));
                // Chaos can only add modeled time; allow a whisker of float slack.
                if slowdown < 1.0 - 1e-9 {
                    let name = scheme.name();
                    failures
                        .push(format!("{name} p={p} {kind} {level}: slowdown {slowdown:.4} < 1"));
                }
            }
            eprintln!("  p={p:<3} {:<10} {}", scheme.name(), row.inline());
            rows.push(row);
        }
    }
    if args.gate {
        // The same plan must reproduce the same modeled makespan to the bit.
        let plan = || ChaosPlan::new(3).straggler(0, 2.0).jitter(1e-5);
        let (a, b) = (makespan(Scheme::OkTopk, 4, plan()), makespan(Scheme::OkTopk, 4, plan()));
        if a.to_bits() != b.to_bits() {
            failures.push(format!("nondeterministic chaos run: {a:?} vs {b:?}"));
        }
    }
    let params = Json::default().field("n", N).field("density", DENSITY).field("iters", ITERS);
    args.header.write_json(&args.out, params, &rows);
    okbench::gate_exit(args.gate, &failures, "all slowdowns >= 1.0, chaos runs deterministic");
}
