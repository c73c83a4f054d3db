//! Scale sweep: how far can one process push the cluster size P?
//!
//! Rank fibers on a few worker threads let P ∈ {1024, 2048, 4096} — the
//! regime where the paper's O(α·log P + β·k) claim separates Ok-Topk from
//! gTopk and dense allreduce — fit in one address space. This harness:
//!
//! - sweeps P ∈ {32, 128, 512, 1024, 2048, 4096} × {Dense, gTopk, Ok-Topk}
//!   over [`okbench::reduce_steps`], recording modeled makespan, wall time,
//!   peak RSS and the scheduler's counters (parks per rank per step, handoff
//!   rate: a *hit* is a grant the granting worker ran itself, a *miss* one
//!   that woke an idle worker);
//! - cross-checks schedules at P=32: a run serialized on one worker (W = 1)
//!   and one on the default worker count must give bit-identical makespan and
//!   update checksum;
//! - with `--gate`, asserts Ok-Topk at P=1024 completes within a wall/memory
//!   budget and holds the PR 9 headline at P=2048 (≥1.5x over the BENCH_PR7
//!   baseline, with direct handoff carrying grants, inside its own memory
//!   budget). All legs are hard failures; P = 4096 is in the full sweep only.
//!
//! Usage: `cargo run --release -p okbench --bin scale [-- --quick] [--gate]
//! [--out PATH]` (default `target/scale.json`).

use std::time::{Duration, Instant};

use okbench::{fnv, proc_status_kb, reduce_steps, Json, SchedStats};
use train::Scheme;

const N: usize = 4096;
const DENSITY: f64 = 0.05;
const ITERS: usize = 2;
/// Small rank stacks: the sweep's point is thousands of ranks per process.
const STACK_BYTES: usize = 1 << 20;

const SCHEMES: [Scheme; 3] = [Scheme::Dense, Scheme::GTopk, Scheme::OkTopk];

/// Gate budgets for Ok-Topk at P=1024. The wall budget is absolute with
/// generous headroom (~1.2 s measured on a 2-core CI-class host). The memory
/// budget is meant to fail: peak RSS repeats to within a MiB or two, so it
/// sits between what a thread per rank costs (102.6–104.5 MiB: its stack
/// mapping, its kernel task and its thread-local blocks) and what the step
/// costs with each rank a fiber (92.6–93.2 MiB).
const GATE_P: usize = 1024;
const GATE_WALL_BUDGET: Duration = Duration::from_secs(60);
const GATE_MEM_BUDGET_KB: u64 = 98 * 1024;

/// PR 9 headline leg: Ok-Topk at P=2048. The PR 7 baseline recorded ~46.2 s
/// there (`BENCH_PR7.json`); direct handoff and cohort wakeups brought it to
/// ~10 s with a thread per rank, and ~4.5 s with fibers. The budget asserts at
/// least the claimed 1.5x over that baseline (46.2 / 1.5 ≈ 30.8 s) with
/// headroom over the measured wall for CI noise.
const HEADLINE_P: usize = 2048;
const HEADLINE_WALL_BUDGET: Duration = Duration::from_secs(30);
/// Peak RSS budget at the headline cell, set the same way as the P=1024 one:
/// 209.6–212.2 MiB with a thread per rank, 183.7–186.2 MiB with fibers.
const HEADLINE_MEM_BUDGET_KB: u64 = 198 * 1024;
/// Ok-Topk P=2048 event-engine wall from BENCH_PR7.json, for the speedup line.
const BASELINE_PR7_MS: f64 = 46165.1;

struct Row {
    scheme: Scheme,
    p: usize,
    makespan: f64,
    checksum: u64,
    wall: Duration,
    sched: SchedStats,
    vm_hwm_kb: u64,
}

/// One sweep cell on `workers` run tokens (`None`: the cluster default).
fn run_cell(scheme: Scheme, p: usize, workers: Option<usize>) -> Row {
    let wall = Instant::now();
    let report = reduce_steps((scheme, p, N, DENSITY, ITERS), 1, |cluster| {
        let cluster = cluster.with_stack_bytes(STACK_BYTES).with_obs(true);
        match workers {
            Some(w) => cluster.with_workers(w),
            None => cluster,
        }
    });
    Row {
        scheme,
        p,
        makespan: report.makespan(),
        checksum: fnv(report.results.iter().copied()),
        wall: wall.elapsed(),
        sched: SchedStats::of(&report.metrics),
        vm_hwm_kb: proc_status_kb("VmHWM:"),
    }
}

fn main() {
    let args = okbench::Args::parse("scale");
    let sizes: &[usize] = if args.gate {
        &[32, GATE_P, HEADLINE_P]
    } else if args.quick {
        &[32, 128, 512]
    } else {
        &[32, 128, 512, 1024, 2048, 4096]
    };
    eprintln!("scale: n={N} density={DENSITY} iters={ITERS} sizes={sizes:?}");
    let mut failures = Vec::new();

    // Schedule parity at P=32: W = 1 (fully serialized) is the reference.
    for scheme in SCHEMES {
        let (one, w) = (run_cell(scheme, 32, Some(1)), run_cell(scheme, 32, None));
        if one.makespan.to_bits() != w.makespan.to_bits() || one.checksum != w.checksum {
            failures.push(format!(
                "{} p=32: W=1 and the default W diverged (makespan {:?} vs {:?}, checksum \
                 {:016x} vs {:016x})",
                scheme.name(),
                one.makespan,
                w.makespan,
                one.checksum,
                w.checksum
            ));
        }
    }
    let parity_ok = failures.is_empty();
    eprintln!("  parity p=32 across worker counts: {}", if parity_ok { "ok" } else { "FAIL" });

    let mut rows = Vec::new();
    for &p in sizes {
        for scheme in SCHEMES {
            if args.gate && p != 32 && scheme != Scheme::OkTopk {
                continue;
            }
            let r = run_cell(scheme, p, None);
            let row = Json::default()
                .text("scheme", r.scheme.name())
                .field("p", r.p)
                .field("makespan", format!("{:.6e}", r.makespan))
                .text("checksum", &format!("{:016x}", r.checksum))
                .field("wall_ms", format!("{:.1}", r.wall.as_secs_f64() * 1e3))
                .field("vm_hwm_kb", r.vm_hwm_kb)
                .field("vm_rss_kb", proc_status_kb("VmRSS:"))
                .field("parks", r.sched.parks)
                .field(
                    "parks_per_rank_step",
                    format!("{:.3}", r.sched.parks as f64 / (p * ITERS) as f64),
                )
                .field("handoff_rate", format!("{:.4}", r.sched.handoff_rate()))
                .field("handoff_hit", r.sched.handoff_hit)
                .field("handoff_miss", r.sched.handoff_miss)
                .field("park_elided", r.sched.park_elided);
            eprintln!("  {}", row.inline());
            rows.push((r, row));
        }
    }

    let mut params = Json::default()
        .field("n", N)
        .field("density", DENSITY)
        .field("iters", ITERS)
        .field("stack_bytes", STACK_BYTES)
        .field("schedule_parity_p32", parity_ok);
    let okt =
        |p: usize| rows.iter().map(|(r, _)| r).find(|r| r.p == p && r.scheme == Scheme::OkTopk);
    for (p, wall_budget, mem_budget) in [
        (GATE_P, GATE_WALL_BUDGET, GATE_MEM_BUDGET_KB),
        (HEADLINE_P, HEADLINE_WALL_BUDGET, HEADLINE_MEM_BUDGET_KB),
    ] {
        let Some(r) = okt(p) else {
            if args.gate {
                failures.push(format!("the sweep has no Ok-Topk cell at P={p}"));
            }
            continue;
        };
        let wall_ms = r.wall.as_secs_f64() * 1e3;
        params = params
            .field(&format!("okt_p{p}_wall_ms"), format!("{wall_ms:.1}"))
            .field(&format!("okt_p{p}_vm_hwm_kb"), r.vm_hwm_kb);
        if !args.gate {
            continue;
        }
        if r.wall > wall_budget {
            failures.push(format!("Ok-Topk at P={p} took {wall_ms:.0} ms > {wall_budget:?}"));
        }
        if r.vm_hwm_kb > mem_budget {
            failures
                .push(format!("Ok-Topk at P={p} peaked at {} KiB > {mem_budget} KiB", r.vm_hwm_kb));
        }
        if p == HEADLINE_P && r.sched.handoff_rate() <= 0.0 {
            failures.push(format!(
                "scheduler handoff rate is zero at P={p}: direct handoff is not carrying grants \
                 (or `engine.handoff_hit`/`handoff_miss` stopped being recorded)"
            ));
        }
    }
    if let Some(r) = okt(HEADLINE_P) {
        let speedup = BASELINE_PR7_MS / (r.wall.as_secs_f64() * 1e3);
        eprintln!("  headline p={HEADLINE_P} Ok-Topk: {speedup:.2}x vs the PR 7 baseline {BASELINE_PR7_MS} ms");
        params = params
            .field("baseline_pr7_wall_ms", BASELINE_PR7_MS)
            .field("speedup_vs_pr7", format!("{speedup:.2}"))
            .field("handoff_rate", format!("{:.4}", r.sched.handoff_rate()));
    }
    let rows: Vec<Json> = rows.into_iter().map(|(_, row)| row).collect();
    args.header.write_json(&args.out, params, &rows);
    let ok = format!(
        "parity holds at P=32; Ok-Topk ran at P={GATE_P} within {GATE_WALL_BUDGET:?} / {} MiB and at \
         P={HEADLINE_P} within {HEADLINE_WALL_BUDGET:?} / {} MiB",
        GATE_MEM_BUDGET_KB / 1024,
        HEADLINE_MEM_BUDGET_KB / 1024
    );
    // A parity failure fails the full sweep too.
    okbench::gate_exit(args.gate || !parity_ok, &failures, &ok);
}
