//! The loan contract (`Net::lending`, `lend`, `recv_lent`): a lender leaves
//! its scope only once every slice it lent has been read, a failed run
//! reports its real fault and never hangs, and a lent message costs exactly
//! what a copied send of the same slice costs. Every test runs fully
//! serialized (W = 1) and at the default worker count.

use simnet::{
    ChaosPlan, Cluster, Comm, CostModel, GroupComm, LedgerSnapshot, Net, PhaseVolume, Topology,
    TraceEvent,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The two worker counts every contract is held at.
fn clusters(size: usize) -> [Cluster; 2] {
    [Cluster::new(size, CostModel::aries()).with_workers(1), Cluster::new(size, CostModel::aries())]
}

/// Unwrap a `catch_unwind` result that must be a panic, as a string message.
fn expect_panic<T>(result: std::thread::Result<T>, why: &str) -> String {
    let payload = result.err().unwrap_or_else(|| panic!("{why}"));
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => (*s).to_string(),
        (_, Some(s)) => s.clone(),
        _ => panic!("panic payload was not a string"),
    }
}

#[test]
fn a_late_reader_still_reads_before_the_lender_leaves() {
    // Rank 1 first blocks on rank 2, which waits for a message rank 0 sends
    // only after lending, so rank 0 settles its scope before rank 1 can read.
    const LOAN: u64 = 1;
    const GO: u64 = 2;
    const FIRST: u64 = 3;
    for cluster in clusters(3) {
        let reads = AtomicUsize::new(0);
        let report = cluster.run(|comm| match comm.rank() {
            0 => {
                let mut data: Vec<f32> = (0..100).map(|i| i as f32 * 0.25).collect();
                comm.lending(|comm, loans| {
                    comm.lend(loans, 1, LOAN, &data[10..90]);
                    comm.send(2, GO, ());
                });
                let read_before_return = reads.load(Ordering::SeqCst);
                data.iter_mut().for_each(|x| *x = -1.0);
                (read_before_return, 0.0)
            }
            1 => {
                let _: u32 = comm.recv(2, FIRST);
                let sum = comm.recv_lent(0, LOAN, |lent| {
                    reads.fetch_add(1, Ordering::SeqCst);
                    lent.iter().sum::<f32>()
                });
                (0, sum)
            }
            _ => {
                let () = comm.recv(0, GO);
                comm.send(1, FIRST, 7u32);
                (0, 0.0)
            }
        });
        assert_eq!(report.results[0].0, 1, "the lender left its scope before its loan was read");
        let want: f32 = (10..90).map(|i| i as f32 * 0.25).sum();
        assert_eq!(report.results[1].1, want, "the reader saw other than the lent slice");
    }
}

#[test]
fn a_reader_that_panics_before_reading_fails_the_run_with_its_panic() {
    for cluster in clusters(3) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            cluster.run(|comm| {
                let data = vec![1.0f32; 64];
                match comm.rank() {
                    0 => comm.lending(|comm, loans| {
                        comm.lend(loans, 1, 0, &data);
                        comm.lend(loans, 2, 0, &data[..32]);
                    }),
                    1 => panic!("the borrower failed before reading"),
                    _ => comm.recv_lent(0, 0, |lent| assert_eq!(lent.len(), 32)),
                }
            })
        }));
        let msg = expect_panic(result, "a reader's panic must fail the run");
        assert!(msg.contains("the borrower failed before reading"), "wrong fault surfaced: {msg}");
    }
}

#[test]
fn a_lender_that_panics_inside_its_scope_fails_the_run_with_its_panic() {
    for cluster in clusters(2) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            cluster.run(|comm| {
                let data = vec![2.0f32; 64];
                if comm.rank() == 0 {
                    comm.lending(|comm, loans| {
                        comm.lend(loans, 1, 0, &data);
                        panic!("the lender failed inside its scope");
                    })
                } else {
                    comm.recv_lent(0, 0, |lent| assert!(lent.iter().all(|&x| x == 2.0)));
                }
            })
        }));
        let msg = expect_panic(result, "a lender's panic must fail the run");
        assert!(msg.contains("the lender failed inside its scope"), "wrong fault surfaced: {msg}");
    }
}

#[test]
fn a_loan_nobody_receives_is_a_deadlock_that_names_the_lender() {
    // Rank 1 waits for what rank 2 sends after its scope, instead of reading
    // the loan: a cycle through the lender's wait.
    for cluster in clusters(3) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            cluster.run(|comm| match comm.rank() {
                1 => {
                    let _: u32 = comm.recv(2, 5);
                }
                2 => {
                    let data = vec![3.0f32; 16];
                    comm.lending(|comm, loans| comm.lend(loans, 1, 0, &data));
                    comm.send(1, 5, 0u32);
                }
                _ => {}
            })
        }));
        let msg = expect_panic(result, "an unread loan must fail the run");
        assert!(msg.contains("simnet deadlock (exact)"), "unexpected report: {msg}");
        assert!(
            msg.contains("rank 2: blocked leaving a lending scope until its loans are read"),
            "the report must name the lender: {msg}"
        );
        assert!(msg.contains("recv cycle: 1 -> 2 -> 1"), "the report must name the cycle: {msg}");
    }
}

/// Canonical, comparable form of a ledger snapshot.
fn ledger_canon(snap: &LedgerSnapshot, size: usize) -> Vec<((usize, String), PhaseVolume)> {
    let mut cells = Vec::new();
    for phase in snap.phases() {
        for rank in 0..size {
            cells.push(((rank, phase.to_string()), snap.cell(rank, phase)));
        }
    }
    cells
}

/// Rotated all-to-all rounds, then a pairwise exchange inside a group of
/// same-parity ranks, every message a slice of the rank's vector: lent, or
/// copied into a sent `Vec<f32>`. Returns the bits of what each read
/// summed, and the rank's trace.
fn exchange(comm: &mut Comm, lend: bool) -> (Vec<u32>, Vec<TraceEvent>) {
    comm.enable_trace();
    let (me, p) = (comm.rank(), comm.size());
    let data: Vec<f32> = (0..96).map(|i| ((me * 96 + i) as f32).sin()).collect();
    let slice = |step: usize| &data[step..step + 16 + 8 * step];
    let mut sums = Vec::new();
    for round in 0..3u64 {
        comm.set_phase(format!("round {round}"));
        comm.compute(1e-5 * (me + 1) as f64);
        let mut read = |lent: &[f32]| sums.push(lent.iter().sum::<f32>().to_bits());
        if lend {
            comm.lending(|comm, loans| {
                (1..p).for_each(|s| comm.lend(loans, (me + s) % p, round, slice(s)));
                (1..p).for_each(|s| comm.recv_lent((me + p - s) % p, round, &mut read));
            });
        } else {
            (1..p).for_each(|s| comm.send((me + s) % p, round, slice(s).to_vec()));
            (1..p).for_each(|s| read(&comm.recv::<Vec<f32>>((me + p - s) % p, round)));
        }
    }
    comm.set_phase("group");
    let members = (me % 2..p).step_by(2).collect();
    let mut group = GroupComm::new(comm, members, 1);
    let partner = Net::rank(&group) ^ 1;
    let mut read = |lent: &[f32]| sums.push(lent.iter().sum::<f32>().to_bits());
    if lend {
        group.lending(|g, loans| {
            g.lend(loans, partner, 9, slice(3));
            g.recv_lent(partner, 9, &mut read);
        });
    } else {
        Net::send(&mut group, partner, 9, slice(3).to_vec());
        read(&Net::recv::<Vec<f32>>(&mut group, partner, 9));
    }
    (sums, comm.take_trace())
}

#[test]
fn a_lent_send_costs_exactly_what_a_copied_send_costs() {
    let p = 4;
    let (alpha, beta) = (CostModel::aries().alpha, CostModel::aries().beta);
    let plan =
        ChaosPlan::new(51).straggler(1, 1.5).jitter(4e-6).degrade_all_links(1.1, 1.3, 0.0, 1e-4);
    let topo = Topology::two_tier(2, (alpha / 8.0, beta / 8.0), (alpha, beta));
    for cluster in clusters(p) {
        let cluster = cluster.with_obs(true).with_chaos(plan.clone()).with_topology(topo);
        let copied = cluster.run(|comm| exchange(comm, false));
        let lent = cluster.run(|comm| exchange(comm, true));
        assert_eq!(lent.results, copied.results, "reads or traces differ");
        assert_eq!(lent.times, copied.times, "clocks differ");
        assert_eq!(
            ledger_canon(&lent.ledger, p),
            ledger_canon(&copied.ledger, p),
            "ledgers differ"
        );
        assert_eq!(lent.metrics.parity_view(), copied.metrics.parity_view(), "metrics differ");
        assert!(copied.results.iter().all(|(_, trace)| !trace.is_empty()));
    }
}
