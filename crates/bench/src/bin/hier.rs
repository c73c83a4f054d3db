//! Flat vs hierarchical collectives on a two-tier fabric: when does the
//! intra-node reduce → leader exchange → broadcast pipeline beat running the
//! flat algorithm straight across the cluster?
//!
//! Every cell prices the *same* hardware — fast intra-node links (α_i = 1 µs,
//! β_i = 1 ns/elem) and a slow inter-node fabric (α_e = 25 µs, β_e = 4 ns/elem
//! × oversubscription ρ) — and runs [`okbench::reduce_steps`] with the flat
//! scheme or its hierarchical counterpart: Dense vs Hier-Dense, gTopk vs
//! Hier-gTopk, Ok-Topk vs Hier-Ok-Topk. The sweep crosses ranks-per-node with
//! ρ and a chaos variant that degrades *inter-node links only* (1.5× α, 2× β)
//! — the failure mode a leader-funnelled exchange is most exposed to. All
//! times are modeled virtual seconds, so every cell is deterministic.
//!
//! Usage: `cargo run --release -p okbench --bin hier [-- --quick] [--gate]
//! [--out PATH]` (default `target/hier.json`). `--gate` runs a small P=8
//! slice and fails unless (a) Hier-Ok-Topk beats flat Ok-Topk once the
//! effective inter/intra β ratio reaches 8× (ρ = 2 here, since β_e/β_i is
//! already 4×), (b) a repeated cell is bit-identical, and (c) inter-link
//! chaos never speeds a cell up. This is the smoke run in `scripts/check.sh`.

use okbench::{reduce_steps, Json};
use simnet::{ChaosPlan, Topology};
use train::Scheme;

const N: usize = 16_384;
const DENSITY: f64 = 0.02;
const ITERS: usize = 4;

/// Two-tier link parameters (seconds, seconds-per-element). β_e/β_i = 4× at
/// ρ = 1; oversubscription multiplies β_e only.
const INTRA: (f64, f64) = (1e-6, 1e-9);
const INTER: (f64, f64) = (25e-6, 4e-9);

/// Flat scheme and its hierarchical counterpart.
const PAIRS: [(Scheme, Scheme); 3] = [
    (Scheme::Dense, Scheme::HierDense),
    (Scheme::GTopk, Scheme::HierGTopk),
    (Scheme::OkTopk, Scheme::HierOkTopk),
];

/// Modeled makespan of `scheme` at size `p` on a two-tier topology with `rpn`
/// ranks per node and oversubscription `rho`, every inter-node link degraded
/// for the whole run if `chaos`.
fn makespan(scheme: Scheme, p: usize, rpn: usize, rho: f64, chaos: bool) -> f64 {
    let topo = Topology::two_tier(rpn, INTRA, INTER).with_oversubscription(rho);
    let report = reduce_steps((scheme, p, N, DENSITY, ITERS), rpn, |cluster| {
        let cluster = cluster.with_topology(topo);
        if !chaos {
            return cluster;
        }
        let mut plan = ChaosPlan::new(17);
        for (src, dst) in (0..p).flat_map(|s| (0..p).map(move |d| (s, d))) {
            if src / rpn != dst / rpn {
                plan = plan.degrade_link(src, dst, 1.5, 2.0, 0.0, 1e3);
            }
        }
        cluster.with_chaos(plan)
    });
    report.makespan()
}

fn main() {
    let args = okbench::Args::parse("hier");
    let (p, rpns, rhos): (usize, &[usize], &[f64]) = if args.gate {
        (8, &[4], &[1.0, 2.0])
    } else if args.quick {
        (16, &[4, 8], &[1.0, 4.0, 16.0])
    } else {
        (32, &[4, 8, 16], &[1.0, 2.0, 4.0, 8.0, 16.0])
    };
    eprintln!("hier: n={N} density={DENSITY} iters={ITERS} p={p} rpn={rpns:?} rho={rhos:?}");
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let mut gate_cells = 0;
    for &rpn in rpns {
        for &rho in rhos {
            for (flat, hier) in PAIRS {
                let [fm, hm, fm_chaos, hm_chaos] =
                    [(flat, false), (hier, false), (flat, true), (hier, true)]
                        .map(|(scheme, chaos)| makespan(scheme, p, rpn, rho, chaos));
                for (chaos, f, h) in [(false, fm, hm), (true, fm_chaos, hm_chaos)] {
                    let row = Json::default()
                        .field("p", p)
                        .field("rpn", rpn)
                        .field("oversub", rho)
                        .field("chaos", chaos)
                        .text("flat", flat.name())
                        .text("hier", hier.name())
                        .field("flat_makespan", format!("{f:.6e}"))
                        .field("hier_makespan", format!("{h:.6e}"))
                        .field("speedup", format!("{:.4}", f / h));
                    eprintln!("  {}", row.inline());
                    rows.push(row);
                }
                // Chaos on inter-node links must never make a cell faster.
                if hm_chaos < hm - 1e-12 || fm_chaos < fm - 1e-12 {
                    failures.push(format!(
                        "{} rpn={rpn} rho={rho}: inter-link chaos sped a run up",
                        hier.name()
                    ));
                }
                // Once the effective inter/intra β ratio reaches 8× (ρ = 2 with
                // β_e/β_i = 4×), hierarchical Ok-Topk must beat flat Ok-Topk.
                if args.gate && hier == Scheme::HierOkTopk && rho >= 2.0 {
                    gate_cells += 1;
                    if hm >= fm {
                        failures.push(format!(
                            "Hier-Ok-Topk does not beat flat Ok-Topk at rho={rho}: {hm:.4e} vs {fm:.4e}"
                        ));
                    }
                }
            }
        }
    }
    if args.gate {
        if gate_cells == 0 {
            failures.push("no Hier-Ok-Topk gate cell found".into());
        }
        let (a, b) = (
            makespan(Scheme::HierOkTopk, p, 4, 2.0, true),
            makespan(Scheme::HierOkTopk, p, 4, 2.0, true),
        );
        if a.to_bits() != b.to_bits() {
            failures.push(format!("nondeterministic hier run: {a:?} vs {b:?}"));
        }
    }
    let params = Json::default()
        .field("n", N)
        .field("density", DENSITY)
        .field("iters", ITERS)
        .field("intra_alpha", format!("{:e}", INTRA.0))
        .field("intra_beta", format!("{:e}", INTRA.1))
        .field("inter_alpha", format!("{:e}", INTER.0))
        .field("inter_beta", format!("{:e}", INTER.1));
    args.header.write_json(&args.out, params, &rows);
    okbench::gate_exit(
        args.gate,
        &failures,
        "hier wins at rho >= 2, runs deterministic, chaos never helps",
    );
}
