//! Property tests: every collective matches its serial reference on random inputs.

use collectives::{
    allgather_items, allreduce_inplace, broadcast, dsa_allreduce, gtopk_allreduce,
    reduce_to_root_dense, reduce_to_root_dense_into, topk_allgather_allreduce,
};
use proptest::prelude::*;
use simnet::{Cluster, CostModel, Net, WireSize};
use sparse::select::topk_exact;
use sparse::CooGradient;
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
/// far. Same tag, partners, message order and wire elements.
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
/// *same* allocation for each origin.
#[test]
fn allgather_items_shares_pieces_and_matches_the_cloning_gather() {
    for p in 1usize..=9 {
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
