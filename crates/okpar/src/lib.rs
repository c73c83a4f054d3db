//! Intra-rank data parallelism for the hot-path kernels: thread-count policy,
//! deterministic chunk partitioning, and a persistent worker pool.
//!
//! Every parallel kernel in this workspace (the dense matmuls in `dnn`, the
//! threshold scans in `sparse`) asks this crate
//! how many worker threads to use, how to partition its index space, and — via
//! [`run_chunks`] / [`run_tasks`] — where to run the pieces. Keeping policy and
//! dispatch in one place gives a single knob (the `OKTOPK_THREADS` environment
//! variable, or [`set_threads`] programmatically), one partitioning rule, and
//! one pool, so the deterministic chunk-merge contract (bit-identical output to
//! the serial kernel, any thread count) is auditable in one crate.
//!
//! Resolution order for the thread count:
//! 1. the last [`set_threads`] call, if any;
//! 2. `OKTOPK_THREADS` (positive integer) read once at first use;
//! 3. [`std::thread::available_parallelism`].
//!
//! `set_threads` also *resizes* (grows) the already-running pool, so bench
//! thread sweeps take effect immediately. Mutating the `OKTOPK_THREADS`
//! environment variable after first use cannot take effect (the value is
//! snapshotted); the pool detects the drift on its next dispatch and prints a
//! warning telling the caller to use `set_threads` instead — it is never
//! silently honored or silently ignored.
//!
//! ## Dispatch, cost, and granularity
//!
//! Workers are plain OS threads created lazily on first parallel dispatch and
//! then parked on a condvar for the life of the process ([`pool`] module). A
//! dispatch enqueues one job per chunk and costs a mutex push + wakeup (~1µs),
//! not a thread spawn (~tens of µs) — the difference that made the PR 1
//! spawn-per-call kernels *slower* than serial on sub-millisecond problems.
//! Callers pick their parallelism with [`threads_for`]`(work, grain)`: one
//! thread per `grain` units of work, capped at [`configured_threads`], so small
//! problems take the serial path with zero dispatch overhead and mid-sized
//! problems don't shred into chunks smaller than the dispatch cost.

mod pool;

pub use pool::{pool_workers, prewarm, run_tasks};

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hard cap on worker threads; far above any sane `OKTOPK_THREADS` setting,
/// guards against pathological env values allocating huge chunk tables.
pub const MAX_THREADS: usize = 256;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0); // 0 = no override
/// First-use snapshot of (`OKTOPK_THREADS` raw value, resolved thread count).
static ENV_SNAPSHOT: OnceLock<(Option<String>, usize)> = OnceLock::new();
static ENV_DRIFT_WARNED: AtomicBool = AtomicBool::new(false);

fn hardware_parallelism() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

fn env_snapshot() -> &'static (Option<String>, usize) {
    ENV_SNAPSHOT.get_or_init(|| {
        let raw = std::env::var("OKTOPK_THREADS").ok();
        let resolved = match raw.as_deref().map(|r| r.trim().parse::<usize>()) {
            Some(Ok(n)) if n >= 1 => n.min(MAX_THREADS),
            None => hardware_parallelism(),
            _ => {
                let shown = raw.as_deref().unwrap_or("");
                eprintln!(
                    "okpar: ignoring invalid OKTOPK_THREADS={shown:?} (want a positive integer)"
                );
                hardware_parallelism()
            }
        };
        (raw, resolved)
    })
}

/// Warn (once) if `OKTOPK_THREADS` was mutated after its first-use snapshot:
/// the env knob cannot be re-read safely mid-process, so late changes are
/// rejected loudly instead of silently ignored. Called from the pool on each
/// dispatch — cold enough that the env read is noise.
pub(crate) fn warn_if_env_drifted() {
    if ENV_DRIFT_WARNED.load(Ordering::Relaxed) {
        return;
    }
    let Some((snap, _)) = ENV_SNAPSHOT.get() else { return };
    let now = std::env::var("OKTOPK_THREADS").ok();
    if *snap != now && !ENV_DRIFT_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "okpar: OKTOPK_THREADS changed after first use ({:?} -> {:?}); the change is \
             IGNORED — call okpar::set_threads() to adjust the thread count at runtime",
            snap.as_deref().unwrap_or("<unset>"),
            now.as_deref().unwrap_or("<unset>")
        );
    }
}

/// Number of worker threads the parallel kernels will use (>= 1).
pub fn configured_threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => env_snapshot().1,
        n => n,
    }
}

/// Override the thread count process-wide (e.g. from a bench harness sweeping
/// thread counts). `set_threads(0)` clears the override, returning control to
/// `OKTOPK_THREADS` / available parallelism.
///
/// If the worker pool already exists it is resized (grown) immediately, so a
/// sweep that raises the count mid-process gets real workers — the pool never
/// shrinks (parked workers cost nothing), a lower count just dispatches fewer
/// chunks.
pub fn set_threads(n: usize) {
    let n = n.min(MAX_THREADS);
    OVERRIDE.store(n, Ordering::Relaxed);
    if n > 1 {
        pool::resize_if_built(n - 1);
    }
}

/// Adaptive thread count for a pass over `work` units with a calibrated
/// per-chunk `grain`: one thread per `grain` units, at least 1, at most
/// [`configured_threads`]. Work below `2 * grain` therefore runs serial — the
/// per-kernel granularity cutoff that keeps dispatch off small problems.
pub fn threads_for(work: usize, grain: usize) -> usize {
    let max = configured_threads();
    if max <= 1 {
        return 1;
    }
    if grain == 0 {
        return max;
    }
    (work / grain).clamp(1, max)
}

/// Number of chunks `0..len` splits into for `threads` workers: never more
/// chunks than elements, never zero-length chunks, zero chunks only for
/// `len == 0`.
pub fn chunk_count(len: usize, threads: usize) -> usize {
    if len == 0 {
        0
    } else {
        threads.clamp(1, MAX_THREADS).min(len)
    }
}

/// The `i`-th of `chunks` near-equal contiguous ranges partitioning `0..len`
/// (first `len % chunks` ranges get one extra element), in O(1) with no
/// allocation. `chunks` must come from [`chunk_count`] (`0 < chunks <= len`).
///
/// Every parallel kernel MUST consume these ranges in index order when merging
/// so the result is bit-identical to a serial left-to-right pass.
pub fn nth_chunk(len: usize, chunks: usize, i: usize) -> Range<usize> {
    debug_assert!(chunks >= 1 && chunks <= len && i < chunks);
    let base = len / chunks;
    let extra = len % chunks;
    let start = i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

/// Allocation-free iterator over the chunk partition of `0..len` for
/// `threads` workers; same ranges as [`chunk_ranges`], no `Vec`.
pub fn chunk_iter(len: usize, threads: usize) -> ChunkRanges {
    ChunkRanges { len, chunks: chunk_count(len, threads), next: 0 }
}

/// Iterator returned by [`chunk_iter`].
#[derive(Clone, Debug)]
pub struct ChunkRanges {
    len: usize,
    chunks: usize,
    next: usize,
}

impl Iterator for ChunkRanges {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        if self.next >= self.chunks {
            return None;
        }
        let r = nth_chunk(self.len, self.chunks, self.next);
        self.next += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.chunks - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ChunkRanges {}

/// Split `0..len` into at most `threads` contiguous ranges of near-equal size,
/// as a `Vec`. Allocating convenience wrapper around [`chunk_iter`] for tests
/// and cold paths; hot paths use [`run_chunks`] / [`chunk_iter`] / [`nth_chunk`],
/// which never allocate.
pub fn chunk_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    chunk_iter(len, threads).collect()
}

/// Run `f(chunk_index, range)` over the chunk partition of `0..len` for
/// `threads` workers, through the persistent pool. A single-chunk (or empty)
/// partition calls `f` inline on the caller with zero dispatch overhead.
/// Chunk indexes identify the merge order; the ranges are exactly
/// [`chunk_ranges`]`(len, threads)`.
pub fn run_chunks(len: usize, threads: usize, f: impl Fn(usize, Range<usize>) + Sync) {
    let chunks = chunk_count(len, threads);
    match chunks {
        0 => {}
        1 => f(0, 0..len),
        _ => run_tasks(chunks, &|i| f(i, nth_chunk(len, chunks, i))),
    }
}

/// A raw pointer that asserts `Send + Sync` so chunk workers can write
/// *disjoint* regions of one output buffer without splitting it into borrowed
/// sub-slices (which would need a per-call `Vec`).
///
/// Safety contract for users: every region handed out via [`slice_mut`]
/// (`SendPtr::slice_mut`) must be disjoint from every other region accessed
/// while the dispatch is live, and must stay within the originally borrowed
/// allocation. The chunk partition from [`chunk_count`]/[`nth_chunk`]
/// guarantees disjointness when regions are derived from distinct chunk
/// indexes.
pub struct SendPtr<T>(*mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wrap the base pointer of a mutable buffer (typically `buf.as_mut_ptr()`).
    pub fn new(ptr: *mut T) -> Self {
        Self(ptr)
    }

    /// The wrapped raw pointer.
    pub fn get(self) -> *mut T {
        self.0
    }

    /// A mutable sub-slice `[offset, offset + len)` of the wrapped buffer.
    ///
    /// # Safety
    /// The region must lie inside the allocation the pointer was taken from,
    /// and no other live reference (on any thread) may overlap it for the
    /// returned lifetime. Derive regions from distinct [`nth_chunk`] indexes
    /// of one dispatch to guarantee this.
    pub unsafe fn slice_mut<'a>(self, offset: usize, len: usize) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(offset), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunks_cover_exactly_in_order() {
        for len in [0usize, 1, 2, 3, 7, 8, 100, 101] {
            for threads in [1usize, 2, 3, 4, 7, 16] {
                let ranges = chunk_ranges(len, threads);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "len={len} threads={threads}");
                    assert!(!r.is_empty(), "len={len} threads={threads}");
                    expect = r.end;
                }
                assert_eq!(expect, len, "len={len} threads={threads}");
                assert!(ranges.len() <= threads.min(len.max(1)));
            }
        }
    }

    #[test]
    fn chunk_sizes_balanced() {
        let ranges = chunk_ranges(10, 4); // 3,3,2,2
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn nth_chunk_matches_iterated_partition() {
        for len in [1usize, 2, 5, 17, 100, 101, 4097] {
            for threads in [1usize, 2, 3, 7, 16, 255] {
                let chunks = chunk_count(len, threads);
                let vec = chunk_ranges(len, threads);
                assert_eq!(vec.len(), chunks);
                for (i, r) in vec.iter().enumerate() {
                    assert_eq!(nth_chunk(len, chunks, i), *r, "len={len} threads={threads} i={i}");
                }
                let it = chunk_iter(len, threads);
                assert_eq!(it.len(), chunks);
                assert_eq!(it.collect::<Vec<_>>(), vec);
            }
        }
        assert_eq!(chunk_count(0, 4), 0);
        assert_eq!(chunk_iter(0, 4).count(), 0);
    }

    #[test]
    fn configured_threads_positive_and_overridable() {
        assert!(configured_threads() >= 1);
        set_threads(3);
        assert_eq!(configured_threads(), 3);
        set_threads(0);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn threads_for_scales_with_work() {
        set_threads(8);
        assert_eq!(threads_for(0, 1000), 1);
        assert_eq!(threads_for(1999, 1000), 1); // below 2 grains: serial
        assert_eq!(threads_for(2000, 1000), 2);
        assert_eq!(threads_for(3500, 1000), 3);
        assert_eq!(threads_for(1_000_000, 1000), 8); // capped at configured
        assert_eq!(threads_for(5000, 0), 8); // zero grain: no cutoff
        set_threads(1);
        assert_eq!(threads_for(1_000_000, 1000), 1);
        set_threads(0);
    }

    #[test]
    fn run_chunks_executes_every_chunk_exactly_once() {
        for len in [0usize, 1, 5, 100, 1001] {
            for threads in [1usize, 2, 3, 8] {
                let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                run_chunks(len, threads, |ci, r| {
                    assert_eq!(r, nth_chunk(len, chunk_count(len, threads), ci));
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "len={len} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn send_ptr_disjoint_chunk_writes() {
        let len = 1003;
        let mut out = vec![0u32; len];
        let ptr = SendPtr::new(out.as_mut_ptr());
        run_chunks(len, 7, |_, r| {
            let part = unsafe { ptr.slice_mut(r.start, r.len()) };
            for (off, v) in part.iter_mut().enumerate() {
                *v = (r.start + off) as u32;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32));
    }
}
