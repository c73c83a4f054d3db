//! Dense collectives: Rabenseifner allreduce, ring allreduce, allgather, broadcast.
//!
//! Rabenseifner's algorithm \[12\] = recursive-halving reduce-scatter followed by a
//! recursive-doubling allgather. It meets the `2n(P−1)/P` bandwidth lower bound
//! quoted in Table 1 with `2·log P` latency, but requires a power-of-two rank count;
//! [`allreduce_shared`] falls back to a ring (same bandwidth, `2(P−1)` latency) for
//! other sizes.
//!
//! The allreduce is out of place and its result is shared: the reduce-scatter
//! half reads the caller's vector and accumulates in a buffer taken from the
//! rank's spare (`Net::take_f32`), the gather half moves `Arc` handles of the
//! reduced regions, and the n-word result is assembled once per process —
//! every rank returns a handle to the same allocation. Chunk regions are
//! computed arithmetically (no boundary vector). Every first hop out of the
//! caller's vector is *lent* (`Net::lending`), not copied: the receiver writes
//! `mine + theirs` straight out of the sender's slice into that buffer, in
//! [`accumulate`]'s operand order; every received chunk is recycled or becomes
//! the rank's piece.
//!
//! Who copies what in Rabenseifner's reduce-scatter: every half a rank gives
//! away is lent, and only its piece is copied. A rank takes one buffer for the
//! half it keeps at the first step and sums `mine + theirs` into it, straight
//! out of its own vector and the partner's loan. Every later step splits the
//! run of that buffer the rank still reduces, lends the half it gives away and
//! adds the partner's loan into the half it keeps, in place (`mine + got`). A
//! half once given is never written again, so the whole reduce-scatter is one
//! lending scope, which settles once, after the last step. Then the rank's
//! region is copied out as its exact-size piece and the buffer is recycled as
//! the rank's spare, which the next allreduce takes again. Messages, their
//! sizes, order and tags, and every sum's operands are those of a schedule
//! that copies each half it sends.
//!
//! The same rule serves every result that is identical on all ranks
//! ([`allgather_assembled`], [`allreduce_f64_shared`]): it exists once per
//! process, and each rank returns a handle to it.

use simnet::{Net, WireSize};
use std::slice::SliceIndex;
use std::sync::{Arc, Mutex, OnceLock};

const TAG_RS: u64 = 0x10; // reduce-scatter phase
const TAG_AG: u64 = 0x11; // allgather phase
const TAG_BC: u64 = 0x12; // broadcast
const TAG_AR64: u64 = 0x13; // small f64 allreduce
const TAG_ITEMS: u64 = 0x14; // generic item allgather

/// Element range of regions `[a, b)` of the equal partition of `n` elements into
/// `p` regions (region `j` spans `[n·j/p, n·(j+1)/p)`). Same boundaries as
/// `sparse::partition::equal_boundaries`, computed on demand without the vector.
fn region(n: usize, p: usize, a: usize, b: usize) -> std::ops::Range<usize> {
    n * a / p..n * b / p
}

/// Evenly spreads a caller-attributed compute budget across the steps of a
/// collective. Each share is spent between a step's send and its receive, so
/// the message drains concurrently with the compute (DenseOvlp).
#[derive(Clone, Copy)]
struct StepBudget {
    per_step: f64,
}

impl StepBudget {
    fn new(total: f64, steps: usize) -> Self {
        Self { per_step: if steps > 0 { total / steps as f64 } else { 0.0 } }
    }

    fn spend<C: Net>(&self, comm: &mut C) {
        if self.per_step > 0.0 {
            comm.compute(self.per_step);
        }
    }
}

/// One fully reduced region of an allreduce, travelling by handle through the
/// gather half.
struct Piece(Vec<f32>);

impl WireSize for Piece {
    fn wire_elems(&self) -> u64 {
        self.0.len() as u64
    }
}

/// The regions in `pieces`, in the order given, as one n-word vector.
fn concat<'a>(pieces: impl Iterator<Item = &'a Piece>, n: usize) -> Vec<f32> {
    let mut whole = Vec::with_capacity(n);
    for piece in pieces {
        whole.extend_from_slice(&piece.0);
    }
    whole
}

/// Sum-allreduce of a dense f32 vector across all ranks, out of place: `grad` is
/// only read, and every rank returns a handle to the *same* n-word result.
///
/// Picks Rabenseifner for power-of-two cluster sizes, ring otherwise. `grad`
/// must have the same length on every rank. `finish` is applied to the sum
/// before it is shared — each rank runs it on the one region it reduced, so an
/// elementwise `finish` (the `/= P` of an average) costs n/P per rank instead
/// of n.
///
/// `overlap_compute` seconds of caller-attributed local work (e.g. the
/// DenseOvlp backward tail) are interleaved into the exchange: the budget is
/// spread evenly over the algorithm's steps and spent between each step's send
/// and its receive, so compute runs while the message drains through the
/// reception port — real overlap in modeled time, not an accounting fiction.
///
/// Whichever rank finishes its gather first concatenates the P regions into
/// the result; the others clone its handle ([`gather_assembled`]). Region
/// order fixes the content, so only *who* copies depends on the schedule,
/// never what any rank returns.
pub fn allreduce_shared<C: Net>(
    comm: &mut C,
    grad: &[f32],
    overlap_compute: f64,
    finish: impl FnOnce(&mut [f32]),
) -> Arc<Vec<f32>> {
    let p = comm.size();
    if p == 1 {
        if overlap_compute > 0.0 {
            comm.compute(overlap_compute);
        }
        let mut sum = grad.to_vec();
        finish(&mut sum);
        return Arc::new(sum);
    }
    if p.is_power_of_two() {
        let steps = 2 * p.trailing_zeros() as usize;
        rabenseifner(comm, grad, StepBudget::new(overlap_compute, steps), finish)
    } else {
        ring_allreduce(comm, grad, StepBudget::new(overlap_compute, 2 * (p - 1)), finish)
    }
}

/// In-place form of [`allreduce_shared`]: runs the shared schedule and copies
/// the result back over `data`.
pub fn allreduce_inplace<C: Net>(comm: &mut C, data: &mut [f32]) {
    let sum = allreduce_shared(comm, data, 0.0, |_| {});
    data.copy_from_slice(&sum);
}

/// `got ← mine + got`: the received buffer becomes the accumulator. Every
/// dense sum is written `mine + got`, never as `+=`, which in the unoptimised
/// build keeps `got`'s NaN payload. That fixes signed zeros and every non-NaN
/// bit; which operand's NaN payload survives is unspecified in release builds,
/// where LLVM may commute the add.
#[allow(clippy::assign_op_pattern)]
fn accumulate(got: &mut [f32], mine: &[f32]) {
    for (g, d) in got.iter_mut().zip(mine) {
        *g = *d + *g;
    }
}

/// Append `mine + theirs` to `out`: [`accumulate`]'s sum, in its operand
/// order, read straight out of a loan.
fn add_into(out: &mut Vec<f32>, mine: &[f32], theirs: &[f32]) {
    out.extend(mine.iter().zip(theirs).map(|(m, t)| m + t));
}

/// `mine ← mine + got`, in [`accumulate`]'s operand order: written out,
/// because in the unoptimised build `*m += *t` keeps `got`'s NaN payload.
#[allow(clippy::assign_op_pattern)]
fn add_in_place(mine: &mut [f32], got: &[f32]) {
    for (m, t) in mine.iter_mut().zip(got) {
        *m = *m + *t;
    }
}

/// End of a reduce-scatter half: the rank's reduced region, `acc[own]` with
/// `finish` applied, as the piece it contributes to the gather. The piece is
/// an exact-size copy and the accumulator is recycled as the rank's spare — a
/// piece is freed by whichever rank drops it last, so an accumulator that left
/// as one would never come back, and every step would open with a miss.
fn own_piece<C: Net>(
    comm: &mut C,
    acc: Vec<f32>,
    own: impl SliceIndex<[f32], Output = [f32]>,
    finish: impl FnOnce(&mut [f32]),
) -> Piece {
    let mut data = acc[own].to_vec();
    comm.recycle_f32(acc);
    finish(&mut data);
    Piece(data)
}

/// Rabenseifner's allreduce for power-of-two P (the module docs say who
/// copies what).
fn rabenseifner<C: Net>(
    comm: &mut C,
    grad: &[f32],
    overlap: StepBudget,
    finish: impl FnOnce(&mut [f32]),
) -> Arc<Vec<f32>> {
    let p = comm.size();
    let rank = comm.rank();
    let n = grad.len();
    debug_assert!(p.is_power_of_two() && p > 1);

    // Recursive-halving reduce-scatter. The segment of regions this rank still
    // reduces starts at region `seg_lo` and, at distance `dist`, is 2·dist
    // regions long; each step keeps one half. `acc` holds the half the first
    // step keeps, regions `[first, first + P/2)`, and `window` the run of it
    // the rank still reduces. It is taken before the first loan goes out, so
    // every rank's take comes before any recycle.
    let first = rank & (p / 2);
    let mut acc = comm.take_f32(region(n, p, first, first + p / 2).len());
    comm.lending(|comm, loans| {
        let mut dist = p / 2;
        let partner = rank ^ dist;
        comm.lend(loans, partner, TAG_RS, &grad[region(n, p, first ^ dist, (first ^ dist) + dist)]);
        overlap.spend(comm);
        let mine = &grad[region(n, p, first, first + dist)];
        comm.recv_lent(partner, TAG_RS, |theirs| add_into(&mut acc, mine, theirs));
        let (mut seg_lo, mut window) = (first, acc.as_mut_slice());
        while dist > 1 {
            dist /= 2;
            let partner = rank ^ dist;
            let (lo, hi) = window.split_at_mut(region(n, p, seg_lo, seg_lo + dist).len());
            let (keep, give) = if rank & dist != 0 { (hi, lo) } else { (lo, hi) };
            comm.lend(loans, partner, TAG_RS, give);
            overlap.spend(comm);
            comm.recv_lent(partner, TAG_RS, |got| add_in_place(keep, got));
            seg_lo += rank & dist;
            window = keep;
        }
        debug_assert_eq!(seg_lo, rank);
    });
    let base = region(n, p, first, first).start;
    let own = region(n, p, rank, rank + 1);
    let piece = own_piece(comm, acc, own.start - base..own.end - base, finish);

    // Recursive-doubling allgather: segments re-merge in reverse order, and
    // origin order is region order.
    gather_assembled(comm, piece, TAG_AG, overlap, |pieces| concat(pieces.iter().copied(), n))
}

/// Ring allreduce for arbitrary P: P−1 reduce-scatter steps + P−1 allgather
/// steps.
fn ring_allreduce<C: Net>(
    comm: &mut C,
    grad: &[f32],
    overlap: StepBudget,
    finish: impl FnOnce(&mut [f32]),
) -> Arc<Vec<f32>> {
    let p = comm.size();
    let rank = comm.rank();
    let n = grad.len();
    let right = (rank + 1) % p;
    let left = (rank + p - 1) % p;

    // Reduce-scatter: at step s, send the partial sum of chunk (rank − s) and
    // accumulate chunk (rank − s − 1) arriving from the left — which is the
    // chunk the next step sends, so the accumulated buffer itself is forwarded.
    // Step 0 lends this rank's chunk of `grad` and sums the left one's loan.
    let mut partial = comm.lending(|comm, loans| {
        comm.lend(loans, right, TAG_RS, &grad[region(n, p, rank, rank + 1)]);
        overlap.spend(comm);
        let mine = &grad[region(n, p, left, left + 1)];
        // The longest region's length, so that the chunk the rank ends with,
        // another rank's, fits this take in the next allreduce.
        let mut sum = comm.take_f32(n.div_ceil(p));
        comm.recv_lent(left, TAG_RS, |theirs| add_into(&mut sum, mine, theirs));
        sum
    });
    for s in 1..p - 1 {
        let recv_chunk = (rank + p - s - 1) % p;
        comm.send(right, TAG_RS, partial);
        overlap.spend(comm);
        partial = comm.recv(left, TAG_RS);
        accumulate(&mut partial, &grad[region(n, p, recv_chunk, recv_chunk + 1)]);
    }
    let piece = own_piece(comm, partial, .., finish);

    // Allgather: circulate the fully reduced chunks. The ring leaves rank r
    // holding region r + 1, so region order is origin order rotated by one.
    gather_assembled(comm, piece, TAG_AG, overlap, |pieces| {
        let (last, rest) = pieces.split_last().expect("p > 1 gathers P pieces");
        concat(std::iter::once(last).chain(rest).copied(), n)
    })
}

/// Block reduce-scatter: afterwards each rank holds the fully reduced region `rank`
/// of the equal partition (returned together with its element offset).
///
/// Lends every shard, sums its own region with the first loan it reads into
/// one buffer (`mine + theirs`) and adds every later loan into it in place
/// (`mine + got`), in [`accumulate`]'s operand order, so it copies nothing.
/// The order fixes signed zeros and every non-NaN bit; which NaN payload
/// survives is unspecified in release builds.
pub fn reduce_scatter_block<C: Net>(comm: &mut C, data: &[f32]) -> (usize, Vec<f32>) {
    let p = comm.size();
    let rank = comm.rank();
    let n = data.len();
    if p == 1 {
        return (0, data.to_vec());
    }
    // Direct exchange: lend region j to rank j (rotated to avoid endpoint
    // hot-spots), then sum the P−1 incoming loans of our own region.
    let own = region(n, p, rank, rank + 1);
    let mut sum = comm.take_f32(own.len());
    comm.lending(|comm, loans| {
        for dst in (1..p).map(|s| (rank + s) % p) {
            comm.lend(loans, dst, TAG_RS, &data[region(n, p, dst, dst + 1)]);
        }
        let mine = &data[own.clone()];
        comm.recv_lent((rank + p - 1) % p, TAG_RS, |theirs| add_into(&mut sum, mine, theirs));
        for src in (2..p).map(|s| (rank + p - s) % p) {
            comm.recv_lent(src, TAG_RS, |got| add_in_place(&mut sum, got));
        }
    });
    (own.start, sum)
}

/// Allgather of one item per rank: `result[r]` is rank `r`'s item.
///
/// Recursive doubling (log P steps) for power-of-two P, a ring otherwise. The
/// item type carries its own wire size, so variable-size payloads (an
/// *allgatherv*) are natural.
///
/// Zero-copy: a rank wraps its item in one `Arc` and only handles travel, so
/// after the gather all P ranks hold the *same* allocation for each origin.
/// Pieces are immutable and shared; whoever drops the last handle frees. The
/// wire is charged for the items the handles stand for, in the order a real
/// allgatherv would move them.
pub fn allgather_items<C: Net, T>(comm: &mut C, mine: T) -> Vec<Arc<T>>
where
    T: Send + Sync + WireSize + 'static,
{
    match gather_handles(comm, Arc::new(mine), TAG_ITEMS, StepBudget::new(0.0, 0)) {
        Gathered::List(all) => all,
        tree => {
            let mut all = Vec::with_capacity(comm.size());
            tree.for_each(|item| all.push(Arc::clone(item)));
            all
        }
    }
}

/// Allgather whose caller only wants one function of the gathered items, the
/// same on every rank: `assemble` runs once per process, on the rank-ordered
/// items, and every rank returns a handle to its result. Same messages as
/// [`allgather_items`]; see [`gather_assembled`] for who assembles.
pub fn allgather_assembled<C: Net, T, R>(
    comm: &mut C,
    mine: T,
    assemble: impl FnOnce(&[&T]) -> R,
) -> Arc<R>
where
    T: Send + Sync + WireSize + 'static,
    R: Send + Sync + 'static,
{
    gather_assembled(comm, mine, TAG_ITEMS, StepBudget::new(0.0, 0), assemble)
}

/// A rank-ordered block of gathered items in a doubling round: one origin's
/// item, or two adjacent blocks. Its wire size is its items', so relaying a
/// block costs one handle and is charged what the items would be.
enum Block<T> {
    Leaf(Arc<T>),
    Join { lo: Arc<Block<T>>, hi: Arc<Block<T>>, elems: u64 },
}

impl<T: WireSize> Block<T> {
    fn join(lo: Arc<Self>, hi: Arc<Self>) -> Arc<Self> {
        let elems = lo.wire_elems() + hi.wire_elems();
        Arc::new(Block::Join { lo, hi, elems })
    }
}

impl<T> Block<T> {
    /// The block's first item: log P steps down its left edge.
    fn first(&self) -> &Arc<T> {
        match self {
            Block::Leaf(item) => item,
            Block::Join { lo, .. } => lo.first(),
        }
    }

    /// Call `f` on the block's items, in rank order.
    fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a Arc<T>)) {
        match self {
            Block::Leaf(item) => f(item),
            Block::Join { lo, hi, .. } => {
                lo.for_each(f);
                hi.for_each(f);
            }
        }
    }
}

impl<T: WireSize> WireSize for Block<T> {
    fn wire_elems(&self) -> u64 {
        match self {
            Block::Leaf(item) => item.wire_elems(),
            Block::Join { elems, .. } => *elems,
        }
    }
}

/// What a handle gather leaves a rank holding: the last doubling round's
/// block (P a power of two), or the ring's rank-ordered list.
enum Gathered<T> {
    Tree(Arc<Block<T>>),
    List(Vec<Arc<T>>),
}

impl<T> Gathered<T> {
    /// Origin 0's item.
    fn first(&self) -> &Arc<T> {
        match self {
            Gathered::Tree(block) => block.first(),
            Gathered::List(all) => &all[0],
        }
    }

    /// Call `f` on every origin's item, in rank order.
    fn for_each<'a>(&'a self, mut f: impl FnMut(&'a Arc<T>)) {
        match self {
            Gathered::Tree(block) => block.for_each(&mut f),
            Gathered::List(all) => all.iter().for_each(f),
        }
    }
}

/// The handle allgather behind [`allgather_items`] and [`gather_assembled`]
/// (so also the dense allreduce's gather half), whose callers differ in `tag`
/// and in the `overlap` share spent between each step's send and its receive.
fn gather_handles<C: Net, T>(
    comm: &mut C,
    mine: Arc<T>,
    tag: u64,
    overlap: StepBudget,
) -> Gathered<T>
where
    T: Send + Sync + WireSize + 'static,
{
    let p = comm.size();
    let rank = comm.rank();
    if p.is_power_of_two() {
        // Recursive doubling: at distance `dist` a rank holds the rank-ordered
        // block of the `dist` origins that agree with it above that bit, and
        // its partner the adjacent block — below it if the rank's bit is set.
        // A round relays the block's one handle; the origin is implied by
        // position, as in MPI's displacement array. No P-long list is built
        // here: the last round's block is the whole gather.
        let mut have = Arc::new(Block::Leaf(mine));
        let mut dist = 1;
        while dist < p {
            let partner = rank ^ dist;
            comm.send_shared(partner, tag, Arc::clone(&have));
            overlap.spend(comm);
            let got = comm.recv_shared(partner, tag);
            have = if rank & dist == 0 { Block::join(have, got) } else { Block::join(got, have) };
            dist *= 2;
        }
        return Gathered::Tree(have);
    }
    // Ring: forward the item that arrived last. Origins arrive in the order
    // rank, rank−1, …, rank+1 (mod P); reversed and rotated that is 0..P.
    let right = (rank + 1) % p;
    let left = (rank + p - 1) % p;
    let mut have = Vec::with_capacity(p);
    have.push(mine);
    for _ in 1..p {
        let fwd = Arc::clone(have.last().expect("starts with the rank's own item"));
        comm.send_shared(right, tag, fwd);
        overlap.spend(comm);
        have.push(comm.recv_shared(left, tag));
    }
    have.reverse();
    have.rotate_right(rank + 1);
    Gathered::List(have)
}

/// An item of [`gather_assembled`]. Every origin's carries a slot; only
/// origin 0's is ever filled.
struct Assembly<T, R> {
    item: T,
    whole: OnceLock<Arc<R>>,
}

impl<T: WireSize, R> WireSize for Assembly<T, R> {
    fn wire_elems(&self) -> u64 {
        self.item.wire_elems()
    }
}

/// The one rule by which a result every rank computes identically exists
/// once per process: gather the items, then whichever rank gets out of the
/// gather first runs `assemble` on the rank-ordered items and leaves the
/// result in origin 0's slot; every other rank clones the handle there (one
/// that arrives mid-assembly blocks on the lock until it is done). After a
/// doubling gather only the assembler walks the tree into a list — the others
/// step down its left edge to origin 0 — so the 8 B per peer of a rank-ordered
/// list exists once per process, not once per rank.
///
/// Schedule-independent in everything a caller can observe: the items and
/// their order are the same on every rank, so only *who* assembles depends on
/// the grant order, never what is returned, and nothing modeled happens after
/// the last receive. `assemble` must not communicate.
fn gather_assembled<C: Net, T, R>(
    comm: &mut C,
    mine: T,
    tag: u64,
    overlap: StepBudget,
    assemble: impl FnOnce(&[&T]) -> R,
) -> Arc<R>
where
    T: Send + Sync + WireSize + 'static,
    R: Send + Sync + 'static,
{
    let p = comm.size();
    let mine = Arc::new(Assembly { item: mine, whole: OnceLock::new() });
    let all = gather_handles(comm, mine, tag, overlap);
    let whole = all.first().whole.get_or_init(|| {
        let mut items = Vec::with_capacity(p);
        all.for_each(|a| items.push(&a.item));
        Arc::new(assemble(&items))
    });
    Arc::clone(whole)
}

/// Binomial-tree broadcast from `root`.
///
/// The payload travels as one `Arc`-shared buffer ([`broadcast_shared`]); each
/// rank materializes its own copy only on return, and the last holder of the
/// handle gets the original back without copying.
pub fn broadcast<C: Net, T>(comm: &mut C, root: usize, value: Option<T>) -> T
where
    T: Clone + Send + Sync + WireSize + 'static,
{
    let arc = broadcast_shared(comm, root, value.map(Arc::new));
    Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone())
}

/// Binomial-tree broadcast of a handle: relays clone the `Arc`, not the data,
/// so a P-rank broadcast allocates nothing and every rank returns a handle to
/// the root's allocation.
pub fn broadcast_shared<C: Net, T>(comm: &mut C, root: usize, value: Option<Arc<T>>) -> Arc<T>
where
    T: Send + Sync + WireSize + 'static,
{
    let p = comm.size();
    let rank = comm.rank();
    // Work in a rotated space where the root is rank 0.
    let vrank = (rank + p - root) % p;
    let mut have = if rank == root {
        Some(value.expect("root must provide the broadcast value"))
    } else {
        None
    };
    // Round r: ranks with vrank < 2^r and vrank + 2^r < p send to vrank + 2^r.
    let mut dist = 1;
    while dist < p {
        if vrank < dist {
            let target = vrank + dist;
            if target < p {
                let dst = (target + root) % p;
                comm.send_shared(dst, TAG_BC, have.clone().expect("sender holds the value"));
            }
        } else if vrank < 2 * dist {
            let src = ((vrank - dist) + root) % p;
            have = Some(comm.recv_shared(src, TAG_BC));
        }
        dist *= 2;
    }
    have.expect("broadcast reached every rank")
}

/// A partial sum of [`allreduce_f64_shared`]'s doubling rounds: the sum over
/// one aligned block of ranks, which every rank of the block holds by handle.
struct PartialSum<R> {
    /// Words summed, fixed at creation. The wire size reads this, not `sum`:
    /// another pair of the block may already have merged the buffer away when
    /// a slower rank sends the node.
    len: usize,
    /// Moved out by the node's one merge.
    sum: Mutex<Vec<f64>>,
    /// What this node and its sibling merge into. Both partners of every pair
    /// reach it through the lower block's node.
    next: OnceLock<Arc<PartialSum<R>>>,
    /// `finish` of the total, on the last merge's node only.
    result: Option<Arc<R>>,
}

impl<R> WireSize for PartialSum<R> {
    fn wire_elems(&self) -> u64 {
        2 * self.len as u64
    }
}

impl<R> PartialSum<R> {
    fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *self.sum.lock().expect("no merge panics holding a sum"))
    }

    /// `lo + hi` in `lo`'s buffer; both buffers are moved out, so a leaf dies
    /// at its block's first merge. With `finish`, the merge is the last one
    /// and the node carries only its result.
    fn merge(lo: &Self, hi: &Self, finish: Option<impl FnOnce(&[f64]) -> R>) -> Arc<Self> {
        let (mut sum, add) = (lo.take(), hi.take());
        debug_assert_eq!((sum.len(), add.len()), (lo.len, hi.len), "a node merged twice");
        for (s, a) in sum.iter_mut().zip(&add) {
            *s += a;
        }
        let (len, next) = (lo.len, OnceLock::new());
        Arc::new(match finish {
            Some(finish) => {
                let result = Some(Arc::new(finish(&sum)));
                PartialSum { len, sum: Mutex::default(), next, result }
            }
            None => PartialSum { len, sum: Mutex::new(sum), next, result: None },
        })
    }
}

/// Small-vector f64 sum-allreduce (recursive doubling on the full vector)
/// whose result exists once per process: `finish` runs once, on the total,
/// and every rank returns a handle to what it made.
///
/// Used for Ok-Topk's boundary consensus (§3.1.1): message size is `P+1` elements,
/// so latency dominates — `⌈log2 P⌉·α`, exactly the overhead the paper amortizes
/// over τ iterations.
///
/// Each doubling round sends one handle to the rank's partial-sum node (charged
/// `2·len` words, what a copy of the vector was). The two blocks of a round
/// merge once, not once per rank: the first of their ranks out of the round
/// adds the upper block's sum into the lower's in place (`lo + hi`), and every
/// rank of both blocks moves on to that node. For input without NaNs this is
/// the sum of the per-rank form to the bit (IEEE addition commutes). With
/// NaNs, every rank now returns the same bits; the per-rank form had the upper
/// partner of a pair compute `hi + lo`, which keeps the other operand's NaN
/// payload, so ranks could disagree. P not a power of two gathers the vectors
/// and the assembler ([`gather_assembled`]) sums them once, in rank order from
/// zero.
pub fn allreduce_f64_shared<C: Net, R>(
    comm: &mut C,
    data: Vec<f64>,
    finish: impl FnOnce(&[f64]) -> R,
) -> Arc<R>
where
    R: Send + Sync + 'static,
{
    let p = comm.size();
    let rank = comm.rank();
    if p == 1 {
        return Arc::new(finish(&data));
    }
    if !p.is_power_of_two() {
        // Gather-and-sum; fine for tiny vectors.
        let len = data.len();
        return gather_assembled(comm, data, TAG_ITEMS, StepBudget::new(0.0, 0), |all| {
            let mut sum = vec![0.0f64; len];
            for v in all {
                for (s, x) in sum.iter_mut().zip(v.iter()) {
                    *s += x;
                }
            }
            finish(&sum)
        });
    }
    let mut finish = Some(finish);
    let mut have = Arc::new(PartialSum {
        len: data.len(),
        sum: Mutex::new(data),
        next: OnceLock::new(),
        result: None,
    });
    let mut dist = 1;
    while dist < p {
        let partner = rank ^ dist;
        comm.send_shared(partner, TAG_AR64, Arc::clone(&have));
        let got = comm.recv_shared(partner, TAG_AR64);
        let (lo, hi) = if rank & dist == 0 { (&have, &got) } else { (&got, &have) };
        let last = 2 * dist == p;
        let next = lo
            .next
            .get_or_init(|| PartialSum::merge(lo, hi, if last { finish.take() } else { None }));
        have = Arc::clone(next);
        dist *= 2;
    }
    Arc::clone(have.result.as_ref().expect("the last merge applied finish"))
}

/// [`allreduce_f64_shared`] returning the sum as this rank's own vector: the
/// trainer's free-mode loss statistics.
pub fn allreduce_sum_f64<C: Net>(comm: &mut C, data: Vec<f64>) -> Vec<f64> {
    Arc::unwrap_or_clone(allreduce_f64_shared(comm, data, <[f64]>::to_vec))
}
#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use simnet::{Cluster, CostModel};

    fn make_inputs(p: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p).map(|_| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
    }

    fn reference_sum(inputs: &[Vec<f32>]) -> Vec<f32> {
        let mut sum = vec![0.0f32; inputs[0].len()];
        for v in inputs {
            for (s, x) in sum.iter_mut().zip(v) {
                *s += x;
            }
        }
        sum
    }

    fn check_allreduce(p: usize, n: usize) {
        let inputs = make_inputs(p, n, 42 + p as u64);
        let expect = reference_sum(&inputs);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut data = inputs[comm.rank()].clone();
            allreduce_inplace(comm, &mut data);
            data
        });
        for (rank, got) in report.results.iter().enumerate() {
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 1e-4, "rank {rank}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn rabenseifner_matches_reference_pow2() {
        for p in [2, 4, 8, 16] {
            check_allreduce(p, 103); // non-divisible length exercises uneven regions
        }
    }

    #[test]
    fn ring_matches_reference_non_pow2() {
        for p in [3, 5, 6, 7] {
            check_allreduce(p, 64);
        }
    }

    #[test]
    fn allreduce_volume_is_2n_fraction() {
        // Rabenseifner per-rank sent volume should be ~2n(P−1)/P.
        let p = 8;
        let n = 1 << 12;
        let inputs = make_inputs(p, n, 1);
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut data = inputs[comm.rank()].clone();
            allreduce_inplace(comm, &mut data);
        });
        let expected = 2.0 * n as f64 * (p - 1) as f64 / p as f64;
        for rank in 0..p {
            let sent = report.ledger.rank_elements(rank) as f64;
            assert!(
                (sent - expected).abs() / expected < 0.01,
                "rank {rank} sent {sent}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn reduce_scatter_block_sums_own_region() {
        let p = 4;
        let n = 17;
        let inputs = make_inputs(p, n, 3);
        let expect = reference_sum(&inputs);
        let report = Cluster::new(p, CostModel::aries())
            .run(|comm| reduce_scatter_block(comm, &inputs[comm.rank()]));
        let mut reconstructed = vec![0.0f32; n];
        for (offset, chunk) in &report.results {
            reconstructed[*offset..*offset + chunk.len()].copy_from_slice(chunk);
        }
        for (r, e) in reconstructed.iter().zip(&expect) {
            assert!((r - e).abs() < 1e-4);
        }
    }

    #[test]
    fn allgather_items_pow2_and_ring() {
        for p in [2usize, 4, 8, 3, 5] {
            let report = Cluster::new(p, CostModel::aries()).run(|comm| {
                let mine: Vec<u32> = vec![comm.rank() as u32; comm.rank() + 1];
                allgather_items(comm, mine)
            });
            for got in &report.results {
                for (r, item) in got.iter().enumerate() {
                    assert_eq!(**item, vec![r as u32; r + 1], "p={p}");
                }
            }
        }
    }

    #[test]
    fn broadcast_from_each_root() {
        for p in [2usize, 3, 4, 7, 8] {
            for root in [0, p / 2, p - 1] {
                let report = Cluster::new(p, CostModel::aries()).run(|comm| {
                    let v = if comm.rank() == root { Some(vec![9.5f32, -1.0]) } else { None };
                    broadcast(comm, root, v)
                });
                for got in &report.results {
                    assert_eq!(got, &vec![9.5f32, -1.0], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn f64_allreduce_sums() {
        for p in [2usize, 4, 5] {
            let report = Cluster::new(p, CostModel::aries())
                .run(|comm| allreduce_sum_f64(comm, vec![comm.rank() as f64, 1.0]));
            let expect0: f64 = (0..p).map(|r| r as f64).sum();
            for got in &report.results {
                assert_eq!(got[0], expect0);
                assert_eq!(got[1], p as f64);
            }
        }
    }

    #[test]
    fn single_rank_noops() {
        let report = Cluster::new(1, CostModel::aries()).run(|comm| {
            let mut d = vec![1.0f32, 2.0];
            allreduce_inplace(comm, &mut d);
            let all = allgather_items(comm, vec![5u32]);
            let b = broadcast(comm, 0, Some(7u32));
            (d, all, b)
        });
        let (d, all, b) = &report.results[0];
        assert_eq!(d, &vec![1.0, 2.0]);
        assert_eq!(all, &vec![Arc::new(vec![5u32])]);
        assert_eq!(*b, 7);
        assert_eq!(report.ledger.total_elements(), 0);
    }
}
