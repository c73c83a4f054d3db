#!/usr/bin/env bash
# Self-test of the benchmark package: every workload at its quick shape
# (P <= 16, 3 modeled steps), the printed metric names checked against
# BENCHMARK.json, then format and lint.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
"$here/run.sh" --quick
cargo fmt --manifest-path "$here/Cargo.toml" -- --check
cargo clippy --release --offline --quiet --manifest-path "$here/Cargo.toml" -- -D warnings
echo "selftest: ok"
