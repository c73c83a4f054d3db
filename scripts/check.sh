#!/usr/bin/env bash
# Pre-PR gate: everything a change must pass before review.
#
#   ./scripts/check.sh          # build + lints (every target) + full test suite + golden figures + quick bench gates
#
# - golden (cargo test --release -p okbench --test golden, ~30 s on 2 cores)
#   reruns table1, fig5, fig7, ablations and trace_demo in full quick mode and
#   one cell of fig4, fig6 and fig8-fig13, and fails if a modeled row differs
#   byte for byte from results/<name>.txt, or if a model panel's file lists
#   other schemes or P values than its table row runs. A mismatch writes the
#   actual text to target/golden/<name>.txt and prints the diff; copying that
#   file over results/<name>.txt is how a moved modeled number is accepted.
#
# The benches run in --quick --gate mode (a few seconds each) and write their
# JSON to target/*-gate.json:
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
# - chaos runs a tiny P=4 robustness sweep and fails the script if any
#   perturbed cell beats its clean baseline (chaos must never help) or if a
#   repeated chaos run is not bit-identical.
# - hier runs a P=8 flat-vs-hierarchical slice on a two-tier topology and
#   fails the script if Hier-Ok-Topk does not beat flat Ok-Topk once the
#   effective inter/intra beta ratio reaches 8x, if a repeated cell is not
#   bit-identical, or if inter-link chaos speeds any cell up.
# - scale checks bit-parity between W = 1 (fully serialized) and the default
#   worker count at P=32, then fails
#   the script if Dense at P=2048 misses its wall/memory budget (5 s /
#   112 MiB; a dense reduce-scatter leaf floor of 1 element reads ~161 MiB),
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
cargo build --release --workspace

echo "== clippy (deny warnings, tests and examples included) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt (check) =="
cargo fmt --check

echo "== env-knob inventory (crates vs README.md) =="
# Every env var the crates read must have a row in README.md's knob table, and
# every row must still be read, so the knob count cannot creep up unnoticed.
# The table has one row: OKBENCH_FULL. Every run setting is a Cluster builder
# call (DESIGN.md §11).
knobs=$(grep -rhoE '"(SIMNET|OKTOPK|OKBENCH)_[A-Z_]+"' crates --include=*.rs --exclude-dir=shims \
          | tr -d '"' | sort -u)
diff <(echo "$knobs") \
     <(grep -oE '^\| `(SIMNET|OKTOPK|OKBENCH)_[A-Z_]+`' README.md | tr -d '|` ' | sort -u)
if [ "$knobs" != "OKBENCH_FULL" ]; then
  echo "FAIL: env knobs read under crates/ are [$knobs] (want OKBENCH_FULL only)" >&2
  exit 1
fi

echo "== one exact-threshold path (no quickselect, no magnitude copy) =="
# The radix select replaced quickselect over a copied |value| buffer; neither
# may come back beside it.
if grep -rn 'quickselect\|\.mags\b' crates --include=*.rs; then
  echo "FAIL: the deleted exact-threshold path is back (lines above)" >&2
  exit 1
fi

echo "== ranks are the only host parallelism (no kernel thread pool) =="
# The okpar worker pool, its thread-count knob and every *_with_threads entry
# were deleted; only the frozen select_ge_with_threads forwarder and its test
# may carry such a name.
if grep -rnE 'OKTOPK_THREADS|SendPtr|run_tasks|set_threads|_with_threads' \
     crates tests examples \
   | grep -v '^crates/sparse/src/scratch.rs:.*select_ge_with_threads'; then
  echo "FAIL: the deleted intra-rank thread pool is back (lines above)" >&2
  exit 1
fi

echo "== one dense allreduce, one copy of its result (DESIGN.md §7) =="
# allreduce_shared replaced the in-place allreduce; the in-place entries are
# wrappers around it. A second Rabenseifner or ring outside tests/ (by name, or
# by its reduce-scatter loop in dense.rs) means the in-place twin came back.
for name in rabenseifner ring_allreduce; do
  defs=$(grep -rn "fn $name\b" crates --include=*.rs | grep -vc '/tests/' || true)
  if [ "$defs" -ne 1 ]; then
    echo "FAIL: $defs definitions of $name outside tests/ (want exactly 1)" >&2
    exit 1
  fi
done
for loop in 'dist = p / 2' '(left, TAG_RS)'; do
  if [ "$(grep -cF "$loop" crates/collectives/src/dense.rs)" -ne 1 ]; then
    echo "FAIL: dense.rs must hold exactly one reduce-scatter loop with '$loop'" >&2
    exit 1
  fi
done
# Update::Dense is a handle to the step's one shared result: the Reducer must
# not build it from (or make) a private copy of the gradient.
if grep -rnE 'Update::Dense\([^)]*\.to_vec\(\)|grad\.to_vec\(\)' crates/train/src; then
  echo "FAIL: a per-rank copy of the gradient is back in the Reducer (lines above)" >&2
  exit 1
fi

echo "== one two-tier skeleton, one scheme table (DESIGN.md §12) =="
# collectives::two_tier is the only code that forms node and leader groups;
# a hierarchical scheme is three closures handed to it. Outside #[cfg(test)]
# the trainer crate therefore names neither GroupComm::new nor LEADER_GROUP,
# hier.rs builds the leader group at one site, and the scheme -> family table
# is total: no unreachable!() arm for "a scheme this match does not expect".
non_test() {
  for f in "$@"; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ":" $0 }' "$f"
  done
}
if non_test crates/train/src/*.rs | grep -E 'GroupComm::new|LEADER_GROUP'; then
  echo "FAIL: a private copy of the two-tier skeleton is back in train (lines above)" >&2
  exit 1
fi
if non_test crates/train/src/reducer.rs | grep -F 'unreachable!'; then
  echo "FAIL: a scheme match that is not total (lines above)" >&2
  exit 1
fi
# Scheme predicates live in the table: nothing outside reducer.rs tests a
# scheme's identity to decide whether it overlaps the backward pass.
if grep -rnE '[!=]= *Scheme::DenseOvlp|Scheme::DenseOvlp *[!=]=' crates tests examples src \
   --include=*.rs | grep -v '^crates/train/src/reducer.rs:'; then
  echo "FAIL: a DenseOvlp identity test outside the scheme table (use overlaps_backward)" >&2
  exit 1
fi
sites=$(non_test crates/collectives/src/hier.rs | grep -c 'GroupComm::new(.*LEADER_GROUP' || true)
groups=$(non_test crates/collectives/src/hier.rs | grep -c 'GroupComm::new(' || true)
if [ "$sites" -ne 1 ] || [ "$groups" -ne 2 ]; then
  echo "FAIL: hier.rs forms $groups groups, $sites of them the leader group (want 2 and 1," \
       "both inside two_tier)" >&2
  exit 1
fi

echo "== one error-feedback pipeline (DESIGN.md §12) =="
# Ok-Topk is a row of the sparse table: the Reducer runs it through
# oktopk::ErrorFeedback like every other sparse scheme, so outside #[cfg(test)]
# reducer.rs keeps no Ok-Topk family, state arm, cost block or OkTopkSgd; the
# leave-ε clear exists once in core + train; and sparse::threshold keeps no
# estimator trait with one production impl.
if non_test crates/train/src/reducer.rs \
   | grep -E 'OkTopkSgd|fn oktopk_step|State::OkTopk|Family::OkTopk'; then
  echo "FAIL: Ok-Topk has its own family in the Reducer again (lines above)" >&2
  exit 1
fi
clears=$(non_test crates/core/src/*.rs crates/train/src/*.rs \
         | grep -cE '\[[a-z_]+ as usize\] = 0\.0' || true)
if [ "$clears" -ne 1 ]; then
  echo "FAIL: the leave-ε clear appears $clears times in core + train (want 1:" \
       "ErrorFeedback::step)" >&2
  exit 1
fi
if non_test crates/sparse/src/threshold.rs | grep -E 'trait ThresholdEstimator'; then
  echo "FAIL: the one-impl threshold-estimator trait is back (lines above)" >&2
  exit 1
fi

echo "== one home per run setting (DESIGN.md §11) =="
# Obs on/off, the SIMD lane width and two-tier link prices each have one home:
# a Cluster builder call or a CPU probe. Outside #[cfg(test)] no cargo feature,
# process-global obs switch or second two-tier pricing path may come back, and
# only the two mask kernels, where a width selects different code, take one.
# (The engine_parity suite covers obs off; scalar lanes are the parity suites'
# reference, so neither needs a re-run of the suite under a switch.)
mapfile -t crate_rs < <(find crates -name '*.rs' -not -path 'crates/shims/*' | sort)
if non_test "${crate_rs[@]}" | grep -E 'feature = "simd"|set_enabled|with_hierarchy|\bHierarchy\b'; then
  echo "FAIL: a second home for a run setting is back (lines above)" >&2
  exit 1
fi
if grep -n '^\[features\]' crates/sparse/Cargo.toml; then
  echo "FAIL: crates/sparse grew a cargo feature again" >&2
  exit 1
fi
lanes=$(non_test "${crate_rs[@]}" | grep -oE 'pub fn [a-z0-9_]+_with_lanes' | sort | tr '\n' ' ')
if [ "$lanes" != "pub fn count_abs_ge_with_lanes pub fn scan_keep_append_with_lanes " ]; then
  echo "FAIL: _with_lanes entries are [$lanes] (want count_abs_ge and scan_keep_append)" >&2
  exit 1
fi

echo "== one home for the radix histograms (DESIGN.md §7) =="
# The 32 KiB of histograms live in sparse::select's process-wide pool, not in
# every rank's SelectScratch: outside #[cfg(test)] their size is named only in
# select.rs, no estimator takes a scratch for them, and SelectScratch has no
# hist field.
if non_test "${crate_rs[@]}" | grep -F 'RADIX_HIST_WORDS' | grep -v '^crates/sparse/src/select.rs:'; then
  echo "FAIL: the radix histogram size is named outside select.rs (lines above)" >&2
  exit 1
fi
if non_test "${crate_rs[@]}" | grep -E 'fn threshold_scratch\('; then
  echo "FAIL: a threshold_scratch estimator entry is back (lines above)" >&2
  exit 1
fi
if non_test crates/sparse/src/scratch.rs \
   | awk '/pub struct SelectScratch/, /:[0-9]+:}$/' \
   | grep -E ':[0-9]+:\s*(pub(\([a-z]+\))?\s+)?hist\s*:'; then
  echo "FAIL: SelectScratch keeps a histogram again (lines above)" >&2
  exit 1
fi

echo "== one copy per process of what every rank agrees on (DESIGN.md §7) =="
# Ok-Topk's boundaries, τ′ threshold, size-gather prefix sums and u_t are the
# same on every rank, so each exists once per process: the consensus merges
# into shared partial sums (allreduce_f64_shared) and the rest is assembled by
# the first rank out of its gather (gather_assembled, the one OnceLock rule in
# dense.rs beside the consensus merge). Outside #[cfg(test)] no per-rank copy
# may come back.
if non_test crates/core/src/*.rs | grep -F 'allreduce_sum_f64('; then
  echo "FAIL: Ok-Topk's consensus sums a copy per rank again (lines above)" >&2
  exit 1
fi
if non_test crates/core/src/oktopk.rs | grep -E 'boundaries:\s*Vec<u32>'; then
  echo "FAIL: OkTopk keeps its own boundary vector again (lines above)" >&2
  exit 1
fi
if non_test crates/core/src/sgd.rs | grep -F 'update.clone()'; then
  echo "FAIL: OkTopkSgd scales a per-rank copy of u_t again (lines above)" >&2
  exit 1
fi
if non_test crates/train/src/reducer.rs | grep -F 'broadcast(node, 0, update'; then
  echo "FAIL: Hier-Ok-Topk hands each rank its own copy of the update again (lines above)" >&2
  exit 1
fi
inits=$(non_test crates/collectives/src/dense.rs | grep -c 'get_or_init(' || true)
if [ "$inits" -ne 2 ]; then
  echo "FAIL: dense.rs calls get_or_init $inits times (want 2: gather_assembled and the" \
       "consensus merge)" >&2
  exit 1
fi
if non_test crates/collectives/src/*.rs crates/core/src/*.rs crates/train/src/*.rs \
   | grep -F 'OnceLock' | grep -v '^crates/collectives/src/dense.rs:'; then
  echo "FAIL: a second copy of the once-per-process assembly is back (lines above)" >&2
  exit 1
fi

echo "== one way to do each thing in simnet (DESIGN.md §3, §12) =="
# A receive is recv (overlap comes from program order, not a request handle),
# the buffer pool holds f32 buffers only, and a topology is its priced tiers,
# installed only by Cluster::with_topology. None of the deleted second ways
# may come back under crates/, tests/ or examples/.
if grep -rnE '\b(irecv|wait_recv|test_recv|RecvHandle|take_u32|recycle_u32|advance_to|max_across|nodes_of|from_env)\b|SIMNET_TOPO|Payload::(U32|F64)\b' \
     crates tests examples --include=*.rs; then
  echo "FAIL: a deleted second way to do something in simnet is back (lines above)" >&2
  exit 1
fi

echo "== one engine, one simulator crate (DESIGN.md §10) =="
# The thread-per-rank oracle, its transport, watchdog, recv deadline and the
# chaos wall hold it alone served were deleted: the schedule-invariance suites
# compare W = 1 with W = P on the one event engine (EXPERIMENTS.md § "One
# engine" has the mutation table). topo and chaos are simnet modules.
if grep -rnE 'Engine::Thread|Backend::|run_threaded|BarrierState|recv_timeout|wall_hold|crossbeam|Condvar' \
     crates tests examples; then
  echo "FAIL: a second engine or its machinery is back (lines above)" >&2
  exit 1
fi
for dir in crates/topo crates/chaos; do
  if [ -d "$dir" ]; then
    echo "FAIL: $dir is back; topology and chaos are simnet modules" >&2
    exit 1
  fi
done

echo "== one continuation mechanism: rank fibers (DESIGN.md §10) =="
# A rank is a fiber that one of W worker threads resumes (simnet's fiber.rs);
# blocking is a register swap. No OS-thread park, wake or yield, no thread per
# rank and no spin-then-park controller may come back beside it under
# crates/simnet/src, and fiber.rs holds simnet's only unsafe code, every
# unsafe block or impl under its own `// SAFETY:` comment, which ends at most
# two lines above it.
if grep -rnE 'thread::park|unpark|yield_now|\bSPIN_[A-Z_]+' crates/simnet/src; then
  echo "FAIL: an OS-thread park/wake path is back in simnet (lines above)" >&2
  exit 1
fi
builders=$(grep -rc 'thread::Builder' crates/simnet/src | awk -F: '{ n += $2 } END { print n }')
if [ "$builders" -gt 1 ] || { [ "$builders" -eq 1 ] \
     && ! grep -rn -B3 'thread::Builder' crates/simnet/src | grep -q 'worker_threads()'; }; then
  echo "FAIL: simnet spawns threads other than its W workers ($builders thread::Builder sites)" >&2
  exit 1
fi
if grep -rnE '\bunsafe\b' crates/simnet/src --include=*.rs | grep -v '^crates/simnet/src/fiber.rs:' \
   | grep -vE '^[^:]+:[0-9]+:\s*//'; then
  echo "FAIL: unsafe code outside simnet's fiber.rs (lines above)" >&2
  exit 1
fi
if ! awk '/^[[:space:]]*\/\// { if ($0 ~ /SAFETY:/) safety = 1; if (safety) end = FNR; next }
          { safety = 0 }
          /(^|[^a-z_])unsafe([^a-z_]|$)/ {
            if (FNR - end > 2) { print FILENAME ":" FNR ": " $0; bad = 1 }
            end = -100
          }
          END { exit bad }' crates/simnet/src/fiber.rs; then
  echo "FAIL: unsafe code without a // SAFETY: comment (lines above)" >&2
  exit 1
fi

echo "== pruned stays pruned (DESIGN.md §2) =="
# Quantization, the hybrid-pipeline sweep, checkpointing, the recipe helpers,
# alltoallv and the criterion benches were deleted because no figure, gate or
# workload read them, and so were obs records nothing read: the scheduler
# log, the cumulative global snapshot and its f64 counter, the P <= 128 link
# matrix, and the span log the phase-named activity trace replaced
# (DESIGN.md §11). Outside #[cfg(test)] none of them may come back.
mapfile -t tree_rs < <(find crates tests examples src -name '*.rs' | sort)
if non_test "${tree_rs[@]}" \
   | grep -E 'QuantMode|quantized_allgather|HybridConfig|Checkpoint|import_state|LrSchedule|clip_grad_norm|Dropout|alltoallv|criterion(::|_group|_main)|SchedEvent|SchedKind|with_sched_trace|fn absorb|FCounter|LINK_MATRIX_MAX_RANKS|SpanStack|SpanEvent|enable_spans|span_enter|span_exit|take_spans'; then
  echo "FAIL: pruned code is back (lines above)" >&2
  exit 1
fi
if grep -rn 'criterion' --include=Cargo.toml crates Cargo.toml; then
  echo "FAIL: a criterion dependency is back (lines above)" >&2
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
cargo test -q --workspace

echo "== golden figures (modeled rows vs results/*.txt) =="
cargo test --release -q -p okbench --test golden

echo "== obs trace export (obsdump, schema-checked) =="
# The profiling command must produce a loadable Perfetto trace end to end.
cargo run --release -p okbench --bin obsdump -- --ranks 2 --iters 2 \
  --out target/obsdump-trace.json > /dev/null

echo "== hot-path bench (quick, gated) =="
cargo run --release -p okbench --bin hotpath -- --quick --gate --out target/hotpath-gate.json

echo "== chaos robustness smoke (P=4, gated) =="
cargo run --release -p okbench --bin chaos -- --gate --out target/chaos-gate.json

echo "== flat-vs-hierarchical smoke (P=8 two-tier, gated) =="
cargo run --release -p okbench --bin hier -- --gate --out target/hier-gate.json

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
