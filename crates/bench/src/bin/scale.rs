//! Scale sweep: how far can one process push the cluster size P?
//!
//! The discrete-event engine exists so P ∈ {1024, 2048, 4096} sweeps — the
//! regime where the paper's O(α·log P + β·k) claim separates Ok-Topk from
//! gTopk and dense allreduce — fit in one address space with a bounded set of
//! runnable ranks. This harness:
//!
//! - sweeps P ∈ {32, 128, 512, 1024, 2048, 4096} × {Dense, gTopk, Ok-Topk},
//!   recording modeled makespan, wall time and peak RSS;
//! - cross-checks schedules at P=32: a run serialized on one worker (W = 1)
//!   and one on the default worker count must give bit-identical makespan and
//!   update checksum;
//! - with `--gate`, asserts Ok-Topk at P=1024 completes within a wall/memory
//!   budget and holds the PR 9 headline at P=2048 (≥1.5x over the BENCH_PR7
//!   baseline, with direct handoff carrying grants, inside its own memory
//!   budget). All legs are hard failures; P = 4096 is in the full sweep only.
//!
//! Every row also records the scheduler's counters (parks per rank per step,
//! handoff rate, elided parks) so regressions in the dispatch path show up
//! next to the wall time they cause. A handoff *hit* is a grant the granting
//! worker ran itself, straight after its fiber switched out; a *miss* is a
//! grant that woke an idle worker.
//!
//! Usage: `cargo run --release -p okbench --bin scale [-- --quick] [--gate]
//! [--out PATH]`.

use simnet::{Cluster, Comm};
use std::time::{Duration, Instant};
use train::{CostProfile, Reducer, Scheme, Update};

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
const GATE_MEM_BUDGET_KB: u64 = 98 * 1024; // 98 MiB peak RSS

/// PR 9 headline leg: Ok-Topk at P=2048. The PR 7 baseline recorded ~46.2 s
/// there (`BENCH_PR7.json`); direct handoff and cohort wakeups brought it to
/// ~10 s with a thread per rank, and ~4.5 s with fibers. The budget asserts at
/// least the claimed 1.5x over that baseline (46.2 / 1.5 ≈ 30.8 s) with
/// headroom over the measured wall for CI noise.
const HEADLINE_P: usize = 2048;
const HEADLINE_WALL_BUDGET: Duration = Duration::from_secs(30);
/// Peak RSS budget at the headline cell, set the same way as the P=1024 one:
/// 209.6–212.2 MiB with a thread per rank, 183.7–186.2 MiB with fibers.
const HEADLINE_MEM_BUDGET_KB: u64 = 198 * 1024; // 198 MiB peak RSS
/// Ok-Topk P=2048 event-engine wall from BENCH_PR7.json, for the speedup line.
const BASELINE_PR7_MS: f64 = 46165.1;

fn grad(rank: usize, iter: usize) -> Vec<f32> {
    (0..N)
        .map(|i| {
            let x = (i * (rank + 2) + iter * 131) as f32;
            let spike = if i % 211 == (rank * 13 + iter) % 211 { 3.0 } else { 0.0 };
            (x * 0.01).sin() * 0.25 + spike
        })
        .collect()
}

/// Scheduler counters pulled from one cell's metrics snapshot (all zero with
/// obs off).
#[derive(Clone, Copy, Default)]
struct SchedStats {
    parks: u64,
    token_grants: u64,
    handoff_hit: u64,
    handoff_miss: u64,
    park_elided: u64,
}

impl SchedStats {
    fn from_metrics(metrics: &obs::MetricsSnapshot) -> Self {
        let counter = |name: &str| match metrics.get(name) {
            Some(obs::MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        SchedStats {
            parks: counter("engine.parks"),
            token_grants: counter("engine.token_grants"),
            handoff_hit: counter("engine.handoff_hit"),
            handoff_miss: counter("engine.handoff_miss"),
            park_elided: counter("engine.park_elided"),
        }
    }

    /// Parks per rank per training step — the headline "how often does a
    /// rank actually sleep" figure.
    fn parks_per_rank_step(&self, p: usize) -> f64 {
        self.parks as f64 / (p * ITERS) as f64
    }

    /// Fraction of token grants handed straight to a worker — the granting
    /// one (hit) or an idle one it woke (miss) — rather than left in the run
    /// queue for the next worker to free up.
    fn handoff_rate(&self) -> f64 {
        if self.token_grants == 0 {
            return 0.0;
        }
        (self.handoff_hit + self.handoff_miss) as f64 / self.token_grants as f64
    }
}

/// One sweep cell: `ITERS` data-parallel steps of `scheme` at size `p` on
/// `workers` run tokens (`None`: the cluster default). Returns (modeled
/// makespan, FNV checksum of every rank's update bits in rank order, wall
/// time, scheduler counters).
fn run_cell(scheme: Scheme, p: usize, workers: Option<usize>) -> (f64, u64, Duration, SchedStats) {
    let profile = CostProfile::paper_calibrated().scaled_for_model(N);
    let fwd = profile.fwd_bwd(N);
    let wall = Instant::now();
    let mut cluster =
        Cluster::new(p, profile.network()).with_stack_bytes(STACK_BYTES).with_obs(true);
    if let Some(w) = workers {
        cluster = cluster.with_workers(w);
    }
    let report = cluster.run(move |comm: &mut Comm| {
        let mut reducer = Reducer::new(scheme, N, DENSITY, profile, 8, 8);
        let mut fnv = 0xcbf29ce484222325u64;
        for it in 0..ITERS {
            comm.compute(fwd);
            let g = grad(comm.rank(), it);
            let (update, _) = reducer.reduce(comm, &g, 0.1);
            let mut mix = |w: u32| {
                fnv = (fnv ^ w as u64).wrapping_mul(0x100000001b3);
            };
            match update {
                Update::Dense(v) => v.iter().for_each(|x| mix(x.to_bits())),
                Update::Sparse(coo) => {
                    coo.indexes().iter().for_each(|&i| mix(i));
                    coo.values().iter().for_each(|x| mix(x.to_bits()));
                }
            }
        }
        fnv
    });
    let wall = wall.elapsed();
    let mut fnv = 0xcbf29ce484222325u64;
    for r in &report.results {
        fnv = (fnv ^ r).wrapping_mul(0x100000001b3);
    }
    let sched = SchedStats::from_metrics(&report.metrics);
    (report.makespan(), fnv, wall, sched)
}

/// Peak resident set size of this process so far, in KiB (Linux VmHWM).
fn vm_hwm_kb() -> u64 {
    proc_status_kb("VmHWM:")
}

/// Current resident set size, in KiB (Linux VmRSS).
fn vm_rss_kb() -> u64 {
    proc_status_kb("VmRSS:")
}

fn proc_status_kb(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

struct Row {
    scheme: Scheme,
    p: usize,
    makespan: f64,
    checksum: u64,
    wall: Duration,
    vm_hwm_kb: u64,
    vm_rss_kb: u64,
    sched: SchedStats,
}

fn sweep_cell(scheme: Scheme, p: usize) -> Row {
    let (makespan, checksum, wall, sched) = run_cell(scheme, p, None);
    Row {
        scheme,
        p,
        makespan,
        checksum,
        wall,
        vm_hwm_kb: vm_hwm_kb(),
        vm_rss_kb: vm_rss_kb(),
        sched,
    }
}

fn write_json(
    path: &str,
    header: &okbench::Header,
    sizes: &[usize],
    rows: &[Row],
    parity_ok: bool,
    gate: Option<(&Row, &Row)>,
) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&header.json_fields());
    out.push_str(&format!("  \"n\": {N},\n"));
    out.push_str(&format!("  \"density\": {DENSITY},\n"));
    out.push_str(&format!("  \"iters\": {ITERS},\n"));
    out.push_str(&format!("  \"stack_bytes\": {STACK_BYTES},\n"));
    out.push_str(&format!(
        "  \"cluster_sizes\": [{}],\n",
        sizes.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(", ")
    ));
    out.push_str(&format!("  \"schedule_parity_p32\": {parity_ok},\n"));
    if let Some((gate_row, headline_row)) = gate {
        out.push_str("  \"gate\": {\n");
        out.push_str(&format!("    \"p\": {GATE_P},\n"));
        out.push_str(&format!("    \"wall_budget_ms\": {},\n", GATE_WALL_BUDGET.as_millis()));
        out.push_str(&format!("    \"mem_budget_kb\": {GATE_MEM_BUDGET_KB},\n"));
        out.push_str(&format!(
            "    \"event_wall_ms\": {:.1},\n",
            gate_row.wall.as_secs_f64() * 1e3
        ));
        out.push_str(&format!("    \"event_vm_hwm_kb\": {},\n", gate_row.vm_hwm_kb));
        out.push_str(&format!("    \"headline_p\": {HEADLINE_P},\n"));
        out.push_str(&format!(
            "    \"headline_wall_budget_ms\": {},\n",
            HEADLINE_WALL_BUDGET.as_millis()
        ));
        out.push_str(&format!("    \"headline_mem_budget_kb\": {HEADLINE_MEM_BUDGET_KB},\n"));
        out.push_str(&format!(
            "    \"headline_wall_ms\": {:.1},\n",
            headline_row.wall.as_secs_f64() * 1e3
        ));
        out.push_str(&format!("    \"headline_vm_hwm_kb\": {},\n", headline_row.vm_hwm_kb));
        out.push_str(&format!("    \"baseline_pr7_wall_ms\": {BASELINE_PR7_MS},\n"));
        out.push_str(&format!(
            "    \"speedup_vs_pr7\": {:.2}\n",
            BASELINE_PR7_MS / (headline_row.wall.as_secs_f64() * 1e3)
        ));
        out.push_str("  },\n");
    }
    // The PR 9 headline comparison, recorded whenever the sweep reaches the
    // headline cell (gate or full mode) so the checked-in JSON always carries
    // the before/after claim.
    if let Some(r) = rows.iter().find(|r| r.p == HEADLINE_P && r.scheme == Scheme::OkTopk) {
        let wall_ms = r.wall.as_secs_f64() * 1e3;
        out.push_str("  \"headline\": {\n");
        out.push_str(&format!("    \"scheme\": \"{}\",\n", Scheme::OkTopk.name()));
        out.push_str(&format!("    \"p\": {HEADLINE_P},\n"));
        out.push_str(&format!("    \"wall_ms\": {wall_ms:.1},\n"));
        out.push_str(&format!("    \"baseline_pr7_wall_ms\": {BASELINE_PR7_MS},\n"));
        out.push_str(&format!("    \"speedup_vs_pr7\": {:.2},\n", BASELINE_PR7_MS / wall_ms));
        out.push_str(&format!("    \"handoff_rate\": {:.4}\n", r.sched.handoff_rate()));
        out.push_str("  },\n");
    }
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"p\": {}, \"engine\": \"{}\", \"makespan\": {:.6e}, \
             \"checksum\": \"{:016x}\", \"wall_ms\": {:.1}, \"vm_hwm_kb\": {}, \"vm_rss_kb\": {}, \
             \"parks\": {}, \"parks_per_rank_step\": {:.3}, \"handoff_rate\": {:.4}, \
             \"handoff_hit\": {}, \"handoff_miss\": {}, \"park_elided\": {}}}{}\n",
            r.scheme.name(),
            r.p,
            okbench::Header::engine_name(),
            r.makespan,
            r.checksum,
            r.wall.as_secs_f64() * 1e3,
            r.vm_hwm_kb,
            r.vm_rss_kb,
            r.sched.parks,
            r.sched.parks_per_rank_step(r.p),
            r.sched.handoff_rate(),
            r.sched.handoff_hit,
            r.sched.handoff_miss,
            r.sched.park_elided,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write bench json");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let quick = args.iter().any(|a| a == "--quick");
    let run_gate = args.iter().any(|a| a == "--gate");
    let header = okbench::Header::begin("scale", quick || run_gate);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_PR9.json")
        .to_string();

    let sizes: &[usize] = if run_gate {
        &[32, GATE_P, HEADLINE_P]
    } else if quick {
        &[32, 128, 512]
    } else {
        &[32, 128, 512, 1024, 2048, 4096]
    };

    eprintln!("scale: n={N} density={DENSITY} iters={ITERS} sizes={sizes:?}");
    let mut failures: Vec<String> = Vec::new();

    // Schedule parity at P=32: W = 1 (fully serialized) is the reference.
    let mut parity_ok = true;
    for scheme in SCHEMES {
        let (mk_1, ck_1, _, _) = run_cell(scheme, 32, Some(1));
        let (mk_w, ck_w, _, _) = run_cell(scheme, 32, None);
        if mk_1.to_bits() != mk_w.to_bits() || ck_1 != ck_w {
            parity_ok = false;
            failures.push(format!(
                "{} p=32: W=1 and the default W diverged (makespan {mk_1:?} vs {mk_w:?}, \
                 checksum {ck_1:016x} vs {ck_w:016x})",
                scheme.name()
            ));
        }
    }
    eprintln!("  parity p=32 across worker counts: {}", if parity_ok { "ok" } else { "FAIL" });

    let mut rows = Vec::new();
    for &p in sizes {
        for scheme in SCHEMES {
            if run_gate && p != 32 && scheme != Scheme::OkTopk {
                continue;
            }
            let row = sweep_cell(scheme, p);
            eprintln!(
                "  p={:<5} {:<8} makespan {:>10.4e}s wall {:>7.0} ms rss {:>7} KiB (peak {} KiB) \
                 parks/rank/step {:>6.2} handoff {:>5.1}%",
                row.p,
                row.scheme.name(),
                row.makespan,
                row.wall.as_secs_f64() * 1e3,
                row.vm_rss_kb,
                row.vm_hwm_kb,
                row.sched.parks_per_rank_step(row.p),
                row.sched.handoff_rate() * 100.0,
            );
            rows.push(row);
        }
    }

    // Gate: Ok-Topk must fit the budget at P=1024 and hold the P=2048 headline.
    let mut gate = None;
    if run_gate {
        let gate_row = rows
            .iter()
            .find(|r| r.p == GATE_P && r.scheme == Scheme::OkTopk)
            .expect("gate sweep includes Ok-Topk at GATE_P");
        if gate_row.wall > GATE_WALL_BUDGET {
            failures.push(format!(
                "event engine exceeded the wall budget at P={GATE_P}: {:.1}s > {:.0}s",
                gate_row.wall.as_secs_f64(),
                GATE_WALL_BUDGET.as_secs_f64()
            ));
        }
        if gate_row.vm_hwm_kb > GATE_MEM_BUDGET_KB {
            failures.push(format!(
                "event engine exceeded the memory budget at P={GATE_P}: {} KiB > {} KiB",
                gate_row.vm_hwm_kb, GATE_MEM_BUDGET_KB
            ));
        }
        // PR 9 headline: Ok-Topk at P=2048 must land inside the tightened
        // budget (≥1.5x over the BENCH_PR7 baseline), and direct handoff must
        // actually carry the grants.
        let headline_row = rows
            .iter()
            .find(|r| r.p == HEADLINE_P && r.scheme == Scheme::OkTopk)
            .expect("gate sweep includes Ok-Topk at HEADLINE_P");
        if headline_row.wall > HEADLINE_WALL_BUDGET {
            failures.push(format!(
                "event engine exceeded the headline wall budget at P={HEADLINE_P}: {:.1}s > {:.0}s \
                 (PR7 baseline {:.1}s; budget asserts the 1.5x speedup)",
                headline_row.wall.as_secs_f64(),
                HEADLINE_WALL_BUDGET.as_secs_f64(),
                BASELINE_PR7_MS / 1e3
            ));
        }
        if headline_row.vm_hwm_kb > HEADLINE_MEM_BUDGET_KB {
            failures.push(format!(
                "event engine exceeded the memory budget at P={HEADLINE_P}: {} KiB > {} KiB",
                headline_row.vm_hwm_kb, HEADLINE_MEM_BUDGET_KB
            ));
        }
        if headline_row.sched.handoff_rate() <= 0.0 {
            failures.push(format!(
                "scheduler handoff rate is zero at P={HEADLINE_P}: direct handoff is not \
                 carrying grants (or `engine.handoff_hit`/`handoff_miss` stopped being recorded)"
            ));
        }
        eprintln!(
            "  headline p={HEADLINE_P} Ok-Topk: {:.1}s (budget {:.0}s, {:.2}x vs PR7 baseline {:.1}s)",
            headline_row.wall.as_secs_f64(),
            HEADLINE_WALL_BUDGET.as_secs_f64(),
            BASELINE_PR7_MS / (headline_row.wall.as_secs_f64() * 1e3),
            BASELINE_PR7_MS / 1e3
        );
        gate = Some((gate_row, headline_row));
    }

    write_json(&out_path, &header, sizes, &rows, parity_ok, gate);
    eprintln!("wrote {out_path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("gate: FAIL — {f}");
        }
        std::process::exit(1);
    }
    if run_gate {
        eprintln!(
            "gate: OK (parity holds at P=32; event engine ran Ok-Topk at P={GATE_P} within {:.0}s / {} MiB \
             and at P={HEADLINE_P} within {:.0}s / {} MiB)",
            GATE_WALL_BUDGET.as_secs_f64(),
            GATE_MEM_BUDGET_KB / 1024,
            HEADLINE_WALL_BUDGET.as_secs_f64(),
            HEADLINE_MEM_BUDGET_KB / 1024
        );
    }
}
