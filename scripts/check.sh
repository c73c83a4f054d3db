#!/usr/bin/env bash
# Pre-PR gate: everything a change must pass before review.
#
#   ./scripts/check.sh          # build + lints (every target) + full test suite + golden figures + quick bench gates
#
# - golden (cargo test --release -p okbench --test golden, ~30 s on 2 cores)
#   reruns table1, fig5, fig7, ablations, trace_demo, chaos and hier in full
#   quick mode and one cell of fig4, fig6 and fig8-fig13, and fails if a
#   modeled row differs byte for byte from results/<name>.txt, if a model
#   panel's file lists other schemes or P values than its table row runs, or
#   if a figure's printed check fails. A mismatch writes the actual text to
#   target/golden/<name>.txt and prints the diff; copying that file over
#   results/<name>.txt is how a moved modeled number is accepted. A failed
#   check cannot be accepted that way. The checks:
#   - table1: Ok-Topk's per-rank volume stays within 6k(P-1)/P at every P;
#   - chaos (P = 4, 8, 16, 32): no straggler or jitter plan lowers a makespan,
#     and Ok-Topk's 4x straggler slowdown is below gTopk's at every P;
#   - hier (P = 32, rpn 4/8/16, oversubscription 1-16): Hier-Ok-Topk beats
#     flat Ok-Topk at every oversubscription >= 2 (effective inter/intra beta
#     >= 8x), inter-link chaos never speeds a flat or hierarchical run up, and
#     Hier-gTopk ties gTopk to float rounding.
#   Same-plan bit-identical replay, clean and under chaos, is the tier-1
#   crates/train/tests/schedule_invariance.rs.
#
# The host-clock benches run in --quick --gate mode (a few seconds each) and
# write their JSON to target/*-gate.json:
#
# - hotpath fails the script if the scan_scalar_vs_simd headline is under 1.5
#   (skipped where the host resolved to the scalar lane path), if at n = 2^22
#   the fused accumulate+select is under 1.2x the two-buffer composition
#   (skipped where the host's caches hold n), if the obs_off_vs_on row
#   shows the metrics registry costing
#   more than 5% on a messaging-heavy collective workload (it costs about 2%
#   in the median; run-to-run spread on a shared host is wider than that), or
#   if matmul_wt_loop_vs_kernel (dx = dy·wᵀ at BertLite's backward shape, the
#   explicit loop vs transpose + the lane-parallel kernel) is under 2.5x.
#   A row under its floor is measured again, and fails only when three
#   attempts in a row land under; every attempt is in the JSON. These four
#   rows are the host-speed regressions no test and no other gate catches
#   (EXPERIMENTS.md § "Hot-path wall-clock gate" has the mutation table).
# - scale checks bit-parity between W = 1 (fully serialized) and the default
#   worker count at P=32, then fails
#   the script if Dense at P=2048 misses its wall/memory budget (5 s /
#   112 MiB; one n/2 buffer per rank reads ~75 MiB, a buffer per region
#   ~161 MiB),
#   if Ok-Topk at P=1024 misses its wall/memory budget (60 s /
#   98 MiB), or if the P=2048 headline misses its 30 s budget (>= 1.5x over
#   the BENCH_PR7.json baseline), its 198 MiB memory budget, or reports a zero
#   scheduler handoff rate. The Ok-Topk memory budgets sit between what a
#   thread per rank costs and what the step costs with each rank a fiber.
# - fig10 --paper-axis sweeps the weak-scaling axis to P=4096 (clean + one
#   chaos cell, which must not be faster than clean) under a hard wall budget;
#   fig8/fig12 run the same sweep with CHECK_PAPER_AXIS=1.
#
# - the frozen benchmark/ package is copied to .bench_check/ and its
#   selftest.sh run there (build against these crates, every workload at its
#   quick shape, metric names vs BENCHMARK.json, fmt, clippy).
#
# Run without --out, the benches write target/<bench>.json. The checked-in
# BENCH_PR*.json files are the history EXPERIMENTS.md cites; nothing here
# overwrites them.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== clippy (deny warnings, tests and examples included) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt (check) =="
cargo fmt --check

echo "== env-knob inventory (crates vs README.md) =="
# Every env var the crates read must have a row in README.md's knob table, and
# every row must still be read, so the knob count cannot creep up unnoticed.
# The table has one row: OKBENCH_FULL. Every run setting is a Cluster builder
# call or a CPU probe (DESIGN.md §11), so no crate declares a cargo feature.
knobs=$(grep -rhoE '"(SIMNET|OKTOPK|OKBENCH)_[A-Z_]+"' crates --include=*.rs --exclude-dir=shims \
          | tr -d '"' | sort -u)
diff <(echo "$knobs") \
     <(grep -oE '^\| `(SIMNET|OKTOPK|OKBENCH)_[A-Z_]+`' README.md | tr -d '|` ' | sort -u)
if [ "$knobs" != "OKBENCH_FULL" ]; then
  echo "FAIL: env knobs read under crates/ are [$knobs] (want OKBENCH_FULL only)" >&2
  exit 1
fi
if grep -n '^\[features\]' Cargo.toml crates/*/Cargo.toml; then
  echo "FAIL: a cargo feature is a second home for a run setting (lines above)" >&2
  exit 1
fi

echo "== one two-tier skeleton, one scheme table (DESIGN.md §12) =="
# collectives::two_tier is the only code that forms node and leader groups;
# a hierarchical scheme is three closures handed to it. Outside #[cfg(test)]
# the trainer crate therefore names neither GroupComm::new nor LEADER_GROUP,
# and hier.rs forms its two groups, one of them the leader group, inside
# two_tier. Scheme predicates live in the table: nothing outside reducer.rs
# tests a scheme's identity to decide whether it overlaps the backward pass.
non_test() {
  for f in "$@"; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ":" $0 }' "$f"
  done
}
if non_test crates/train/src/*.rs | grep -E 'GroupComm::new|LEADER_GROUP'; then
  echo "FAIL: a private copy of the two-tier skeleton is back in train (lines above)" >&2
  exit 1
fi
sites=$(non_test crates/collectives/src/hier.rs | grep -c 'GroupComm::new(.*LEADER_GROUP' || true)
groups=$(non_test crates/collectives/src/hier.rs | grep -c 'GroupComm::new(' || true)
if [ "$sites" -ne 1 ] || [ "$groups" -ne 2 ]; then
  echo "FAIL: hier.rs forms $groups groups, $sites of them the leader group (want 2 and 1," \
       "both inside two_tier)" >&2
  exit 1
fi
if grep -rnE '[!=]= *Scheme::DenseOvlp|Scheme::DenseOvlp *[!=]=' crates tests examples src \
   --include=*.rs | grep -v '^crates/train/src/reducer.rs:'; then
  echo "FAIL: a DenseOvlp identity test outside the scheme table (use overlaps_backward)" >&2
  exit 1
fi

echo "== the message path shares nothing (DESIGN.md §3) =="
# Each rank's Comm keeps its own spare message buffer, so outside #[cfg(test)]
# comm.rs names no Mutex and takes no lock: a structure every rank shares
# cannot come back onto the message path unnoticed.
if non_test crates/simnet/src/comm.rs | grep -E 'Mutex|\.lock\(\)'; then
  echo "FAIL: comm.rs takes a lock on the message path (lines above)" >&2
  exit 1
fi

echo "== frozen benchmark surface still has its callers (DESIGN.md §7) =="
# These names exist only because benchmark/ is frozen between benchmark PRs.
# When a benchmark PR drops the last call of one, the shim must go with it.
for name in 'okpar::configured_threads' 'okpar::prewarm' 'okpar::run_chunks' \
            'select_ge_with_threads' 'exact_threshold_scratch' 'with_sched(' 'SchedMode' \
            'export_state' 'balance_and_allgatherv(' 'isend(' 'with_engine(' 'Engine::Event' \
            'cfg.engine'; do
  if ! grep -rqF "$name" benchmark/src; then
    echo "FAIL: shim $name has no caller left — delete it" >&2
    exit 1
  fi
done

echo "== frozen benchmark builds and self-tests against these crates =="
# The greps above only look for names; this compiles benchmark/ against
# crates/ and runs every workload at its quick shape, so a PR that breaks a
# public name the benchmark calls learns it here. In a git-ignored sibling
# copy (../crates and ../BENCHMARK.json still resolve): building in place
# makes cargo rewrite the tracked benchmark/Cargo.lock.
mkdir -p .bench_check
find .bench_check -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
tar -C benchmark --exclude=./target --exclude=./out -cf - . | tar -C .bench_check -xf -
bash .bench_check/selftest.sh

echo "== tests =="
# The tier-1 command: the root manifest's default-members are every crate.
cargo test -q

echo "== golden figures (modeled rows vs results/*.txt) =="
cargo test --release -q -p okbench --test golden

echo "== obs trace export (obsdump, schema-checked) =="
# The profiling command must produce a loadable Perfetto trace end to end.
cargo run --release -p okbench --bin obsdump -- --ranks 2 --iters 2 \
  --out target/obsdump-trace.json > /dev/null

echo "== hot-path bench (quick, gated) =="
cargo run --release -p okbench --bin hotpath -- --quick --gate --out target/hotpath-gate.json

echo "== scale sweep smoke (Dense P=2048 + Ok-Topk P=1024 budgets + P=2048 headline, gated) =="
cargo run --release -p okbench --bin scale -- --gate --out target/scale-gate.json

echo "== paper-axis weak scaling to P=4096 (fig10, budgeted) =="
# The fig8/10/12 harnesses sweep the paper's full 256-4096 cluster axis with
# --paper-axis (clean + one chaos cell at P=4096).
# The default gate runs the cheapest of the three (fig10's LSTM stand-in,
# ~3 min single-core) under a hard wall budget; fig8 and fig12 carry larger
# models (~12 min each) and run under the same budget with CHECK_PAPER_AXIS=1
# (measured walls in EXPERIMENTS.md).
timeout 900 cargo run --release -p okbench --bin fig10 -- --paper-axis
if [[ "${CHECK_PAPER_AXIS:-0}" == "1" ]]; then
  timeout 900 cargo run --release -p okbench --bin fig8 -- --paper-axis
  timeout 900 cargo run --release -p okbench --bin fig12 -- --paper-axis
fi

echo "OK: all gates passed"
