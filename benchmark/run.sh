#!/usr/bin/env bash
# The benchmark's one entry point. Builds the package in this directory (it
# is not a member of the repository workspace) and hands every argument on.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload; the last line of stdout is the JSON result
#   run.sh [--seed <n>] [--quick]
#       every workload, untraced then traced, each in its own child process
#   run.sh --twice [--seed <n>]
#       the untraced set twice, compared metric by metric (REPEATABILITY.txt)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
