//! Frozen benchmark surface, not a thread pool. Ranks are the unit of host
//! parallelism (DESIGN.md §7): kernels run serially on their rank's thread and
//! no workspace crate depends on this one. `benchmark/` is frozen between
//! benchmark PRs and still calls these three names — `benchmark/src/probes.rs`
//! lines 169 (`configured_threads`), 172 (`prewarm`), 174 (`run_chunks`) and
//! `benchmark/src/report.rs` line 144 (`configured_threads`). Delete this crate
//! with those calls; `scripts/check.sh` fails once they are gone.

use std::ops::Range;

/// Threads a kernel runs on: always the caller's own.
pub fn configured_threads() -> usize {
    1
}

/// Nothing to warm up.
pub fn prewarm(_threads: usize) {}

/// Calls `f(0, 0..len)` on the caller when `len > 0`.
pub fn run_chunks(len: usize, _threads: usize, f: impl Fn(usize, Range<usize>)) {
    if len > 0 {
        f(0, 0..len);
    }
}
