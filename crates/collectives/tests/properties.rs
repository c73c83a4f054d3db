//! Property tests: every collective matches its serial reference on random inputs.

use collectives::{
    allgather_items, allreduce_f64_shared, allreduce_inplace, allreduce_shared, broadcast,
    dsa_allreduce, gtopk_allreduce, reduce_scatter_block, reduce_to_root_dense,
    reduce_to_root_dense_into, topk_allgather_allreduce, two_tier,
};
use proptest::prelude::*;
use simnet::{Cluster, CostModel, GroupComm, Net, WireSize};
use sparse::select::topk_exact;
use sparse::CooGradient;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn coo_close(a: &CooGradient, b: &CooGradient) -> bool {
    a.indexes() == b.indexes()
        && a.values().iter().zip(b.values()).all(|(x, y)| (x - y).abs() <= 1e-4 * (1.0 + y.abs()))
}

fn inputs_strategy() -> impl Strategy<Value = (usize, Vec<Vec<f32>>)> {
    (2usize..9, 8usize..120).prop_flat_map(|(p, n)| {
        (
            Just(p),
            proptest::collection::vec(
                proptest::collection::vec((-100i32..100).prop_map(|x| x as f32 * 0.01), n..=n),
                p..=p,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Dense allreduce equals the serial sum for every P (pow2 and not) and length.
    #[test]
    fn dense_allreduce_matches_serial((p, dense) in inputs_strategy()) {
        let mut expect = vec![0.0f32; dense[0].len()];
        for v in &dense {
            for (e, x) in expect.iter_mut().zip(v) {
                *e += x;
            }
        }
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mut d = dense[comm.rank()].clone();
            allreduce_inplace(comm, &mut d);
            d
        });
        for got in &report.results {
            for (g, e) in got.iter().zip(&expect) {
                prop_assert!((g - e).abs() <= 1e-4 * (1.0 + e.abs()));
            }
        }
    }

    /// TopkA equals the serial sparse union-sum; every rank agrees.
    #[test]
    fn topk_a_matches_serial((p, dense) in inputs_strategy(), k in 1usize..16) {
        let locals: Vec<CooGradient> = dense.iter().map(|d| topk_exact(d, k)).collect();
        let mut expect = CooGradient::new();
        for l in &locals {
            expect.merge_sum_into(l);
        }
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            topk_allgather_allreduce(comm, locals[comm.rank()].clone())
        });
        for got in &report.results {
            prop_assert!(coo_close(got, &expect));
        }
    }

    /// TopkDSA computes the same union-sum as TopkA (they differ only in schedule).
    #[test]
    fn dsa_matches_topk_a((p, dense) in inputs_strategy(), k in 1usize..16) {
        let n = dense[0].len();
        let locals: Vec<CooGradient> = dense.iter().map(|d| topk_exact(d, k)).collect();
        let mut expect = CooGradient::new();
        for l in &locals {
            expect.merge_sum_into(l);
        }
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            dsa_allreduce(comm, locals[comm.rank()].clone(), n)
        });
        // Compare as dense vectors: exact cancellations (a + (−a) = 0) may appear as
        // an explicit zero in the serial union but be dropped by DSA's dense wire
        // format — same vector, different support.
        let expect_dense = expect.to_dense(n);
        for out in &report.results {
            let got = out.sum.to_dense(n);
            for (g, e) in got.iter().zip(&expect_dense) {
                prop_assert!((g - e).abs() <= 1e-4 * (1.0 + e.abs()));
            }
            prop_assert!(out.stats.output_nnz <= expect.nnz());
        }
    }

    /// gTopk: all ranks agree, the result is ≤ k sparse, and its support is a subset
    /// of the union of the inputs' supports.
    #[test]
    fn gtopk_invariants((p, dense) in inputs_strategy(), k in 1usize..16) {
        let locals: Vec<CooGradient> = dense.iter().map(|d| topk_exact(d, k)).collect();
        let union: std::collections::HashSet<u32> = locals
            .iter()
            .flat_map(|g| g.indexes().iter().copied())
            .collect();
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            gtopk_allreduce(comm, locals[comm.rank()].clone(), k)
        });
        let first = &report.results[0];
        prop_assert!(first.nnz() <= k);
        for got in &report.results {
            prop_assert_eq!(got, first);
        }
        for (i, _) in first.iter() {
            prop_assert!(union.contains(&i));
        }
    }

    /// allgather/broadcast deliver intact data for any payload sizes.
    #[test]
    fn allgather_broadcast_roundtrip(p in 2usize..10, len in 0usize..40, root_sel in 0usize..10) {
        let root = root_sel % p;
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let mine: Vec<f32> = (0..len + comm.rank()).map(|i| i as f32).collect();
            let all = allgather_items(comm, mine);
            let b = if comm.rank() == root {
                broadcast(comm, root, Some(vec![comm.rank() as u32]))
            } else {
                broadcast::<_, Vec<u32>>(comm, root, None)
            };
            (all, b)
        });
        for (all, b) in &report.results {
            prop_assert_eq!(b, &vec![root as u32]);
            for (r, item) in all.iter().enumerate() {
                prop_assert_eq!(item.len(), len + r);
            }
        }
    }
}

/// The two reduce-to-root entries are one collective: same root sum bit for
/// bit, same clocks and ledger — and neither writes anything but the root's
/// destination (inputs are read-only on every rank, a non-root `out` is never
/// touched), so no caller has to hand either of them a defensive copy.
#[test]
fn reduce_to_root_into_matches_in_place() {
    const SENTINEL: f32 = -7.25;
    for g in 1usize..=9 {
        for n in [0, 1, g - 1, 103, 4096] {
            let input = move |rank: usize| -> Vec<f32> {
                (0..n).map(|i| ((rank * 131 + i * 7) % 257) as f32 * 0.37 - 40.0).collect()
            };
            let in_place = Cluster::new(g, CostModel::aries()).run(move |comm| {
                let mut data = input(comm.rank());
                reduce_to_root_dense(comm, &mut data);
                data
            });
            let into = Cluster::new(g, CostModel::aries()).run(move |comm| {
                let data = input(comm.rank());
                let mut out = if comm.rank() == 0 { Vec::new() } else { vec![SENTINEL; 5] };
                reduce_to_root_dense_into(comm, &data, &mut out);
                (data, out)
            });
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let what = format!("g={g} n={n}");
            assert_eq!(bits(&into.results[0].1), bits(&in_place.results[0]), "{what}: root sum");
            assert_eq!(into.times, in_place.times, "{what}: clocks");
            assert_eq!(into.ledger.total_messages(), in_place.ledger.total_messages(), "{what}");
            assert_eq!(into.ledger.total_elements(), in_place.ledger.total_elements(), "{what}");
            for (rank, (data, out)) in into.results.iter().enumerate() {
                assert_eq!(data, &input(rank), "{what}: rank {rank}'s input was written");
                if rank != 0 {
                    assert_eq!(out, &vec![SENTINEL; 5], "{what}: rank {rank}'s out was written");
                    assert_eq!(in_place.results[rank], input(rank), "{what}: rank {rank} in place");
                }
            }
        }
    }
}

/// The allgather this crate had before pieces were shared, kept only as the
/// reference [`allgather_items`] is compared against: origin-keyed items in
/// `Option` slots, and every doubling round deep-clones everything gathered so
/// far where the shared gather relays one block handle. Same tag, partners,
/// message order and wire elements.
fn allgather_items_cloning<C: Net, T>(comm: &mut C, mine: T) -> Vec<T>
where
    T: Clone + Send + WireSize + 'static,
{
    const TAG_ITEMS: u64 = 0x14;
    struct FromRank<T>(u32, T);
    impl<T: WireSize> WireSize for FromRank<T> {
        fn wire_elems(&self) -> u64 {
            self.1.wire_elems()
        }
    }

    let p = comm.size();
    let rank = comm.rank();
    let mut slots: Vec<Option<T>> = (0..p).map(|_| None).collect();
    slots[rank] = Some(mine);
    if p.is_power_of_two() {
        let mut dist = 1;
        while dist < p {
            let partner = rank ^ dist;
            let have: Vec<FromRank<T>> = slots
                .iter()
                .enumerate()
                .filter_map(|(r, s)| s.clone().map(|v| FromRank(r as u32, v)))
                .collect();
            let got: Vec<FromRank<T>> = comm.sendrecv(partner, TAG_ITEMS, have, partner, TAG_ITEMS);
            for FromRank(r, v) in got {
                slots[r as usize] = Some(v);
            }
            dist *= 2;
        }
    } else {
        let right = (rank + 1) % p;
        let left = (rank + p - 1) % p;
        for s in 0..p - 1 {
            let item = slots[(rank + p - s) % p].clone().expect("ring invariant: item present");
            let got: T = comm.sendrecv(right, TAG_ITEMS, item, left, TAG_ITEMS);
            slots[(rank + p - s - 1) % p] = Some(got);
        }
    }
    slots.into_iter().map(|s| s.expect("allgather filled every slot")).collect()
}

/// The shared-piece allgather delivers rank r's item at `result[r]` for every
/// P (doubling and ring) and item size (empty ones included), is the deep-
/// cloning gather it replaced on the modeled side — same clocks, same per-rank
/// messages and elements — and is zero-copy: all P ranks end up holding the
/// *same* allocation for each origin. P = 16 and 64 run the doubling gather's
/// block relay through 4 and 6 rounds.
#[test]
fn allgather_items_shares_pieces_and_matches_the_cloning_gather() {
    for p in (1usize..=9).chain([16, 64]) {
        // Sizes 0, 3, 1, 4, 2, 0, 3, 1, 4: variable, and empty at ranks 0 and 5.
        let item = |rank: usize| -> Vec<u32> {
            (0..(rank * 3) % 5).map(|i| (rank * 100 + i) as u32).collect()
        };
        let shared = Cluster::new(p, CostModel::aries()).run(move |comm| {
            comm.set_phase("gather");
            allgather_items(comm, item(comm.rank()))
        });
        let cloning = Cluster::new(p, CostModel::aries()).run(move |comm| {
            comm.set_phase("gather");
            allgather_items_cloning(comm, item(comm.rank()))
        });

        assert_eq!(shared.times, cloning.times, "p={p}: clocks");
        for rank in 0..p {
            assert_eq!(
                shared.ledger.cell(rank, "gather"),
                cloning.ledger.cell(rank, "gather"),
                "p={p}: rank {rank}'s messages and elements"
            );
            assert_eq!(shared.results[rank].len(), p, "p={p}: rank {rank}'s piece count");
            for origin in 0..p {
                let piece = &shared.results[rank][origin];
                assert_eq!(**piece, item(origin), "p={p}: rank {rank}'s piece from {origin}");
                assert_eq!(**piece, cloning.results[rank][origin], "p={p}: against the reference");
                assert!(
                    Arc::ptr_eq(piece, &shared.results[0][origin]),
                    "p={p}: ranks 0 and {rank} hold different copies of {origin}'s item"
                );
            }
        }
        // The run's handles are all that is left: one allocation per origin.
        for piece in &shared.results[0] {
            assert_eq!(Arc::strong_count(piece), p, "p={p}");
        }
    }
}

/// The in-place dense allreduce this crate had before its result was shared,
/// kept only as the reference [`allreduce_shared`] is compared against: a
/// working copy the caller owns, every chunk copied into a pooled buffer on
/// the way out and out of one on the way in, each rank left with its own n
/// words. Same tags, partners, message order, wire elements and overlap
/// interleave.
fn allreduce_in_place_copying<C: Net>(comm: &mut C, data: &mut [f32], overlap_compute: f64) {
    const TAG_RS: u64 = 0x10;
    const TAG_AG: u64 = 0x11;
    let region = |n: usize, p: usize, a: usize, b: usize| n * a / p..n * b / p;
    fn pooled_chunk<C: Net>(comm: &mut C, data: &[f32]) -> Vec<f32> {
        let mut chunk = comm.take_f32(data.len());
        chunk.extend_from_slice(data);
        chunk
    }

    let (p, rank, n) = (comm.size(), comm.rank(), data.len());
    if p == 1 {
        if overlap_compute > 0.0 {
            comm.compute(overlap_compute);
        }
        return;
    }
    let steps = if p.is_power_of_two() { 2 * p.trailing_zeros() as usize } else { 2 * (p - 1) };
    let per_step = overlap_compute / steps as f64;
    let spend = |comm: &mut C| {
        if per_step > 0.0 {
            comm.compute(per_step);
        }
    };

    if p.is_power_of_two() {
        // Rabenseifner: recursive-halving reduce-scatter, recursive-doubling allgather.
        let (mut seg_lo, mut seg_len) = (0usize, p);
        let mut dist = p / 2;
        while dist >= 1 {
            let partner = rank ^ dist;
            let mid = seg_lo + seg_len / 2;
            let (keep, give) = if rank & dist == 0 {
                ((seg_lo, mid), (mid, seg_lo + seg_len))
            } else {
                ((mid, seg_lo + seg_len), (seg_lo, mid))
            };
            let chunk = pooled_chunk(comm, &data[region(n, p, give.0, give.1)]);
            comm.send(partner, TAG_RS, chunk);
            spend(comm);
            let got: Vec<f32> = comm.recv(partner, TAG_RS);
            for (d, g) in data[region(n, p, keep.0, keep.1)].iter_mut().zip(&got) {
                *d += g;
            }
            comm.recycle_f32(got);
            seg_lo = keep.0;
            seg_len /= 2;
            dist /= 2;
        }
        let mut dist = 1;
        while dist < p {
            let partner = rank ^ dist;
            let chunk = pooled_chunk(comm, &data[region(n, p, seg_lo, seg_lo + seg_len)]);
            comm.send(partner, TAG_AG, chunk);
            spend(comm);
            let got: Vec<f32> = comm.recv(partner, TAG_AG);
            let partner_lo = if rank & dist == 0 { seg_lo + seg_len } else { seg_lo - seg_len };
            data[region(n, p, partner_lo, partner_lo + seg_len)].copy_from_slice(&got);
            comm.recycle_f32(got);
            seg_lo = seg_lo.min(partner_lo);
            seg_len *= 2;
            dist *= 2;
        }
    } else {
        // Ring: P−1 reduce-scatter steps, P−1 allgather steps.
        let right = (rank + 1) % p;
        let left = (rank + p - 1) % p;
        for s in 0..p - 1 {
            let send_chunk = (rank + p - s) % p;
            let recv_chunk = (rank + p - s - 1) % p;
            let chunk = pooled_chunk(comm, &data[region(n, p, send_chunk, send_chunk + 1)]);
            comm.send(right, TAG_RS, chunk);
            spend(comm);
            let got: Vec<f32> = comm.recv(left, TAG_RS);
            for (d, g) in data[region(n, p, recv_chunk, recv_chunk + 1)].iter_mut().zip(&got) {
                *d += g;
            }
            comm.recycle_f32(got);
        }
        for s in 0..p - 1 {
            let send_chunk = (rank + 1 + p - s) % p;
            let recv_chunk = (rank + p - s) % p;
            let chunk = pooled_chunk(comm, &data[region(n, p, send_chunk, send_chunk + 1)]);
            comm.send(right, TAG_AG, chunk);
            spend(comm);
            let got: Vec<f32> = comm.recv(left, TAG_AG);
            data[region(n, p, recv_chunk, recv_chunk + 1)].copy_from_slice(&got);
            comm.recycle_f32(got);
        }
    }
}

/// Rank `rank`'s input to the parity test: finite values with every kind of
/// special mixed in. Each index sees at most one NaN bit pattern (the
/// canonical one, or the one `inf − inf` makes), so the sum's bits do not
/// depend on which operand of an add the compiler puts first.
fn special_input(rank: usize, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| match (i % 13, (rank + i) % 3) {
            (2, 0) => f32::NAN,
            (4, 0) => f32::INFINITY,
            (6, 1) => f32::NEG_INFINITY,
            (8, 0) => f32::INFINITY,
            (8, 1) => f32::NEG_INFINITY,
            (10, _) => -0.0,
            (11, 0) => -0.0,
            (11, _) => 0.0,
            _ => ((rank * 131 + i * 7) % 257) as f32 * 0.37 - 40.0,
        })
        .collect()
}

/// The shared-result allreduce is the in-place one it replaced on the modeled
/// side — same result bits (NaN, ±inf and −0.0 included), same clocks, same
/// per-rank messages and elements, for both schedules, empty and uneven
/// regions, with and without an overlap budget, flat and inside a group,
/// serialized (W = 1) and with every rank its own thread (W = P) — and it is
/// shared: every rank returns the same allocation.
#[test]
fn allreduce_shared_matches_the_in_place_allreduce_and_shares_its_result() {
    let halve = |sum: &mut [f32]| sum.iter_mut().for_each(|v| *v *= 0.5);
    for serial in [true, false] {
        for grouped in [false, true] {
            for p in 1usize..=9 {
                for n in [0, 1, p - 1, 103, 4096] {
                    for budget in [0.0, 3e-4] {
                        // Grouped: ranks 1..=p of a (p+2)-cluster, in reverse order.
                        let size = if grouped { p + 2 } else { p };
                        let members: Vec<usize> = (1..=p).rev().collect();
                        let workers = if serial { 1 } else { size };
                        let cluster = Cluster::new(size, CostModel::aries()).with_workers(workers);
                        let shared = cluster.run(|comm| {
                            comm.set_phase("dense");
                            if !grouped {
                                let input = special_input(comm.rank(), n);
                                return Some(allreduce_shared(comm, &input, budget, halve));
                            }
                            members.contains(&comm.rank()).then(|| {
                                let mut g = GroupComm::new(comm, members.clone(), 7);
                                let input = special_input(Net::rank(&g), n);
                                allreduce_shared(&mut g, &input, budget, halve)
                            })
                        });
                        let in_place = cluster.run(|comm| {
                            comm.set_phase("dense");
                            if !grouped {
                                let mut data = special_input(comm.rank(), n);
                                allreduce_in_place_copying(comm, &mut data, budget);
                                halve(&mut data);
                                return Some(data);
                            }
                            members.contains(&comm.rank()).then(|| {
                                let mut g = GroupComm::new(comm, members.clone(), 7);
                                let mut data = special_input(Net::rank(&g), n);
                                allreduce_in_place_copying(&mut g, &mut data, budget);
                                halve(&mut data);
                                data
                            })
                        });

                        let what =
                            format!("W={workers} grouped={grouped} p={p} n={n} budget={budget}");
                        assert_eq!(shared.times, in_place.times, "{what}: clocks");
                        for rank in 0..size {
                            assert_eq!(
                                shared.ledger.cell(rank, "dense"),
                                in_place.ledger.cell(rank, "dense"),
                                "{what}: rank {rank}'s messages and elements"
                            );
                        }
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let handles: Vec<_> = shared.results.iter().flatten().collect();
                        let copies: Vec<_> = in_place.results.iter().flatten().collect();
                        assert_eq!((handles.len(), copies.len()), (p, p), "{what}");
                        for (handle, copy) in handles.iter().zip(&copies) {
                            assert_eq!(bits(handle), bits(copy), "{what}: result bits");
                            assert!(Arc::ptr_eq(handle, handles[0]), "{what}: a second copy");
                        }
                        // The run's handles are all that is left of the step.
                        assert_eq!(Arc::strong_count(handles[0]), p, "{what}");
                    }
                }
            }
        }
    }
}

/// Rank `rank`'s input to the bit parity test. NaNs whose payload names the
/// rank meet at every 17th index, so the sum's bits there depend on which
/// operand of each add comes first; −0.0 meets −0.0 or +0.0 elsewhere, and
/// the finite values span enough magnitudes that a sum's association shows in
/// its low bits.
fn payload_input(rank: usize, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| match (i % 17, (rank + i) % 4) {
            (5, _) => f32::from_bits(0x7fc0_0000 | (rank as u32 + 1)),
            (9, _) => -0.0,
            (12, 0) => 0.0,
            (12, _) => -0.0,
            (_, k) => ((rank * 131 + i * 7) % 257) as f32 * 0.37 * 10f32.powi(k as i32 - 2),
        })
        .collect()
}

/// Rabenseifner's sum of element `i`, one add at a time in the schedule's
/// order: at distance `d` (P/2 down to 1) every rank's partial becomes
/// `mine + partner's`, and rank `owner` ends up holding its region's sum.
fn halving_order_sum(inputs: &[Vec<f32>], i: usize, owner: usize) -> f32 {
    let p = inputs.len();
    let mut partial: Vec<f32> = inputs.iter().map(|v| v[i]).collect();
    let mut dist = p / 2;
    while dist >= 1 {
        partial = (0..p).map(|r| partial[r] + partial[r ^ dist]).collect();
        dist /= 2;
    }
    partial[owner]
}

/// Bit parity of the power-of-two allreduce against a serial sum in its own
/// association order, at the uneven-region edges: a vector just under 1024
/// elements, and about 1024 elements a region, with `n` one short of a multiple of
/// P, a multiple of P, and three over. NaN payloads make every add's operand
/// order visible in the result bits — in the unoptimised test build only:
/// LLVM treats `fadd` as commutative, so an optimised build may swap
/// operands, which changes nothing but the payload a NaN keeps, and there any
/// NaN passes for a NaN. The messages and clocks are the in-place
/// allreduce's, and `finish` runs once per element.
#[test]
fn rabenseifner_reduces_in_halving_order_to_the_bit() {
    let halve = |sum: &mut [f32]| sum.iter_mut().for_each(|v| *v *= 0.5);
    for p in [2usize, 4, 8, 16] {
        for n in [1023, 1024 * p - 1, 1024 * p, 1024 * p + 3] {
            let what = format!("p={p} n={n}");
            let inputs: Vec<Vec<f32>> = (0..p).map(|r| payload_input(r, n)).collect();
            let cluster = Cluster::new(p, CostModel::aries());
            let shared = cluster.run(|comm| {
                comm.set_phase("dense");
                allreduce_shared(comm, &inputs[comm.rank()], 0.0, halve)
            });
            let in_place = cluster.run(|comm| {
                comm.set_phase("dense");
                let mut data = inputs[comm.rank()].clone();
                allreduce_in_place_copying(comm, &mut data, 0.0);
            });
            assert_eq!(shared.times, in_place.times, "{what}: clocks");
            for rank in 0..p {
                assert_eq!(
                    shared.ledger.cell(rank, "dense"),
                    in_place.ledger.cell(rank, "dense"),
                    "{what}: rank {rank}'s messages and elements"
                );
            }
            let got = &shared.results[0];
            assert_eq!(got.len(), n, "{what}");
            for owner in 0..p {
                for i in n * owner / p..n * (owner + 1) / p {
                    let want = halving_order_sum(&inputs, i, owner) * 0.5;
                    let same = got[i].to_bits() == want.to_bits()
                        || (!cfg!(debug_assertions) && got[i].is_nan() && want.is_nan());
                    assert!(
                        same,
                        "{what}: element {i}: {:#x} vs {:#x}",
                        got[i].to_bits(),
                        want.to_bits()
                    );
                }
            }
            assert!(got[5].is_nan() && got[5].to_bits() != f32::NAN.to_bits(), "{what}");
        }
    }
}

/// Bit parity of the block reduce-scatter against a serial sum in its receive
/// order: rank r starts from `mine + theirs` with its left neighbour's loan,
/// then adds rank r − 2's, r − 3's, … as `sum + got`. With P ≥ 3 each rank
/// adds at least one loan after the first, so an add written `sum += got`
/// shows as a NaN payload; the NaN caveat of
/// [`rabenseifner_reduces_in_halving_order_to_the_bit`] holds here too.
#[test]
fn reduce_scatter_block_sums_in_receive_order_to_the_bit() {
    for p in [2usize, 3, 4, 5, 8] {
        for n in [17 * p, 17 * p + 3, 1024 * p - 1] {
            let what = format!("p={p} n={n}");
            let inputs: Vec<Vec<f32>> = (0..p).map(|r| payload_input(r, n)).collect();
            let report = Cluster::new(p, CostModel::aries())
                .run(|comm| reduce_scatter_block(comm, &inputs[comm.rank()]));
            for (rank, (start, sum)) in report.results.iter().enumerate() {
                assert_eq!(
                    (*start, sum.len()),
                    (n * rank / p, n * (rank + 1) / p - start),
                    "{what}"
                );
                for (j, got) in sum.iter().enumerate() {
                    let i = start + j;
                    let want = (2..p)
                        .fold(inputs[rank][i] + inputs[(rank + p - 1) % p][i], |acc, s| {
                            acc + inputs[(rank + p - s) % p][i]
                        });
                    let same = got.to_bits() == want.to_bits()
                        || (!cfg!(debug_assertions) && got.is_nan() && want.is_nan());
                    assert!(
                        same,
                        "{what}: rank {rank} element {i}: {:#x} vs {:#x}",
                        got.to_bits(),
                        want.to_bits()
                    );
                }
            }
        }
    }
}

/// After a first allreduce of a length no dense allreduce takes a fresh
/// buffer: Rabenseifner's rank recycles the buffer it took, and a ring rank
/// ends with another rank's chunk, which holds its next take even when the
/// regions' lengths differ (P = 3, n = 10: 3, 3 and 4 words).
#[test]
fn a_steady_state_dense_allreduce_takes_only_spares() {
    for (p, n) in [(3, 10), (3, 3 * 1024 + 2), (5, 23), (4, 4 * 17 + 3), (8, 1023)] {
        let report = Cluster::new(p, CostModel::aries()).with_obs(true).run(|comm| {
            let data: Vec<f32> = (0..n).map(|i| (comm.rank() * n + i) as f32).collect();
            for _ in 0..3 {
                allreduce_shared(comm, &data, 0.0, |_| {});
            }
        });
        assert_eq!(
            report.metrics.get("pool.miss"),
            Some(&obs::MetricValue::Counter(p as u64)),
            "p={p} n={n}: one miss per rank, in the first allreduce"
        );
    }
}

/// The f64 allreduce this crate had before its result was shared, kept only
/// as the reference [`allreduce_f64_shared`] is compared against: every rank
/// sums its own copy, a doubling round sends a clone of the whole vector, and
/// the upper partner of a pair computes `hi + lo`. Same tags, partners,
/// message order and wire elements.
fn allreduce_sum_f64_per_rank<C: Net>(comm: &mut C, mut data: Vec<f64>) -> Vec<f64> {
    const TAG_AR64: u64 = 0x13;
    let (p, rank) = (comm.size(), comm.rank());
    if p == 1 {
        return data;
    }
    if p.is_power_of_two() {
        let mut dist = 1;
        while dist < p {
            let partner = rank ^ dist;
            let got: Vec<f64> = comm.sendrecv(partner, TAG_AR64, data.clone(), partner, TAG_AR64);
            for (d, g) in data.iter_mut().zip(&got) {
                *d += g;
            }
            dist *= 2;
        }
        data
    } else {
        let mut sum = vec![0.0f64; data.len()];
        for v in allgather_items(comm, data) {
            for (s, x) in sum.iter_mut().zip(v.iter()) {
                *s += x;
            }
        }
        sum
    }
}

/// Rank `rank`'s input to the f64 parity test: finite values, ±0.0 and ±∞.
/// An index where +∞ meets −∞ sums to the default NaN whatever the order, and
/// no input is a NaN, so the per-rank form's sum is the same on every rank.
fn special_f64(rank: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| match (i % 11, (rank + i) % 3) {
            (2, 0) => f64::INFINITY,
            (4, 1) => f64::NEG_INFINITY,
            (6, 0) => f64::INFINITY,
            (6, 1) => f64::NEG_INFINITY,
            (8, _) => -0.0,
            (9, 0) => -0.0,
            (9, _) => 0.0,
            _ => ((rank * 131 + i * 7) % 257) as f64 * 0.37 - 40.0,
        })
        .collect()
}

/// The shared f64 allreduce is the per-rank one it replaced, once: same
/// result bits (±0.0, ±∞ and the NaN they make included), same clocks, same
/// per-rank messages and elements, for both schedules and every length the
/// consensus can have, at W = 1 and W = P — and every rank returns the same
/// allocation, made by one `finish` call per process.
#[test]
fn allreduce_f64_shared_is_the_per_rank_allreduce_once() {
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }
    let calls = AtomicUsize::new(0);
    let halve = |sum: &[f64]| {
        calls.fetch_add(1, Ordering::Relaxed);
        sum.iter().map(|x| x * 0.5).collect::<Vec<f64>>()
    };
    for p in 1usize..=9 {
        for workers in [1, p] {
            for len in [0, 1, p + 1, 1025] {
                let what = format!("W={workers} p={p} len={len}");
                let cluster = Cluster::new(p, CostModel::aries()).with_workers(workers);
                calls.store(0, Ordering::Relaxed);
                let shared = cluster.run(|comm| {
                    comm.set_phase("consensus");
                    allreduce_f64_shared(comm, special_f64(comm.rank(), len), halve)
                });
                assert_eq!(calls.load(Ordering::Relaxed), 1, "{what}: finish calls");
                let per_rank = cluster.run(|comm| {
                    comm.set_phase("consensus");
                    let sum = allreduce_sum_f64_per_rank(comm, special_f64(comm.rank(), len));
                    sum.iter().map(|x| x * 0.5).collect::<Vec<f64>>()
                });

                assert_eq!(shared.times, per_rank.times, "{what}: clocks");
                for rank in 0..p {
                    assert_eq!(
                        shared.ledger.cell(rank, "consensus"),
                        per_rank.ledger.cell(rank, "consensus"),
                        "{what}: rank {rank}'s messages and elements"
                    );
                    let got = &shared.results[rank];
                    assert_eq!(bits(got), bits(&per_rank.results[rank]), "{what}: rank {rank}");
                    assert!(Arc::ptr_eq(got, &shared.results[0]), "{what}: a second copy");
                }
                if len == 1025 && p > 2 {
                    assert!(shared.results[0][6].is_nan(), "{what}: +inf met -inf");
                }
            }
        }
    }
}

/// With NaN inputs whose payloads differ between ranks, every rank still
/// returns the same bits: the sum is made once. (The per-rank form's upper
/// partner computed `hi + lo`, and an add keeps one operand's NaN payload, so
/// its ranks could disagree.)
#[test]
fn allreduce_f64_shared_agrees_on_nan_payloads() {
    for p in 2usize..=9 {
        for workers in [1, p] {
            let report = Cluster::new(p, CostModel::aries()).with_workers(workers).run(|comm| {
                let payload = f64::from_bits(0x7ff8_0000_0000_0000 | (comm.rank() as u64 + 1));
                allreduce_f64_shared(comm, vec![payload, 1.0, payload], <[f64]>::to_vec)
            });
            let want: Vec<u64> = report.results[0].iter().map(|x| x.to_bits()).collect();
            assert!(report.results[0][0].is_nan() && report.results[0][1] == p as f64);
            for (rank, got) in report.results.iter().enumerate() {
                let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "W={workers} p={p}: rank {rank}'s bits");
            }
        }
    }
}

#[test]
fn two_tier_runs_up_and_down_everywhere_and_across_on_leaders_only() {
    use std::cell::Cell;
    for (p, rpn) in [(8usize, 4usize), (6, 4), (7, 2), (8, 8), (5, 1), (1, 1)] {
        let report = Cluster::new(p, CostModel::aries()).run(move |comm| {
            let (ups, acrosses, downs) = (Cell::new(0), Cell::new(0), Cell::new(0));
            let out = two_tier(
                comm,
                rpn,
                "skeleton",
                |node| {
                    ups.set(ups.get() + 1);
                    node.rank()
                },
                |leaders, node_rank| {
                    acrosses.set(acrosses.get() + 1);
                    assert_eq!(node_rank, 0, "across got what up returned at the leader");
                    // A flat collective that labels its own traffic.
                    leaders.set_phase("renamed");
                    let mut nodes = vec![1.0f32];
                    allreduce_inplace(leaders, &mut nodes);
                    nodes[0] as u32
                },
                |node, led| {
                    downs.set(downs.get() + 1);
                    assert_eq!(led.is_some(), node.rank() == 0, "only the leader led");
                    broadcast(node, 0, led.map(|nodes| vec![nodes; 3]))
                },
            );
            (out, ups.get(), acrosses.get(), downs.get())
        });
        let at = format!("p={p} rpn={rpn}");
        let flat = rpn.clamp(1, p) == 1;
        let nodes = p.div_ceil(rpn) as u32;
        for (rank, (out, ups, acrosses, downs)) in report.results.iter().enumerate() {
            if flat {
                assert_eq!((out, *ups, *acrosses, *downs), (&None, 0, 0, 0), "{at} rank {rank}");
                continue;
            }
            assert_eq!(out.as_deref(), Some(&[nodes; 3][..]), "{at} rank {rank}");
            assert_eq!((*ups, *downs), (1, 1), "{at} rank {rank}");
            assert_eq!(*acrosses, usize::from(rank % rpn == 0), "{at} rank {rank}");
        }
        // What `down` sent is ledgered under the skeleton's phase although
        // `across` renamed it at the leaders: a node of g ranks broadcasts in
        // g - 1 messages, the first of them the leader's; the leader group's
        // own traffic stays under its own label, at leaders only.
        for rank in 0..p {
            let (skeleton, renamed) =
                (report.ledger.cell(rank, "skeleton"), report.ledger.cell(rank, "renamed"));
            if flat || rank % rpn != 0 {
                assert_eq!(renamed.messages, 0, "{at} rank {rank}");
                continue;
            }
            let g = rpn.min(p - rank);
            let node_msgs: u64 =
                (rank..rank + g).map(|r| report.ledger.cell(r, "skeleton").messages).sum();
            assert_eq!(node_msgs, g as u64 - 1, "{at} node of rank {rank}");
            assert_eq!(skeleton.messages > 0, g > 1, "{at} leader {rank}");
            assert_eq!(renamed.messages > 0, nodes > 1, "{at} leader {rank}");
        }
    }
}
