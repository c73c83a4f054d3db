#![warn(missing_docs)]
// A rank is a fiber, and a lent slice is read in place: `fiber.rs` and
// `loan.rs` hold the crate's only unsafe code, every block under its own
// `// SAFETY:` comment (DESIGN.md §3 and §10).
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]

//! # simnet — a simulated message-passing substrate
//!
//! This crate stands in for MPI in the Ok-Topk reproduction. Each *rank* runs a
//! real program; point-to-point messages carry **real data** (gradient chunks,
//! index lists) between ranks, so every algorithm built on top of simnet is a
//! genuine parallel implementation whose output can be checked against a serial
//! reference.
//!
//! Time, however, is *modeled*, not measured: simnet maintains a virtual clock per rank
//! and charges communication using the classic latency–bandwidth (α–β) cost model the
//! paper itself uses for its analysis (Table 1), extended with per-rank NIC port
//! serialization so that endpoint congestion — the effect the paper's destination
//! rotation (Fig. 2) exists to avoid — is observable in modeled time.
//!
//! ## Cost model
//!
//! Sending a message of `L` elements (one element = one 4-byte word, i.e. one `f32`
//! value or one `u32` index, matching the paper's COO accounting):
//!
//! - occupies the sender's *injection port* for `β·L` seconds,
//! - the head of the message arrives at the receiver `α` seconds after injection starts,
//! - streaming the body occupies the receiver's *reception port* for `β·L` seconds;
//!   messages draining into the same receiver serialize on that port.
//!
//! A rank's clock advances on [`Comm::compute`] (local work) and on [`Comm::recv`]
//! (waiting for data). The model is deterministic regardless of thread interleaving:
//! clock arithmetic depends only on per-rank program order and the matched message
//! order, never on wall-clock races.
//!
//! ## One engine
//!
//! Every run executes on one discrete-event core (`engine.rs`): each rank is a
//! fiber (`fiber.rs`) that a blocking call suspends with a register swap, a
//! bounded set of run tokens ([`Cluster::with_workers`]) is granted in
//! virtual-time order to as many worker threads, and deadlocks are detected
//! *exactly*, with no watchdog. This is what scales sweeps to P ≥ 1024 in one
//! process.
//!
//! Because clock arithmetic depends only on per-rank program order and matched
//! message order — never on who physically ran when — every worker count
//! produces **bit-identical** results, clocks, traces and ledgers for the same
//! inputs. The schedule-invariance suites hold W = 1 (fully serialized, a
//! deterministic grant order) and W = P (a worker thread per rank) to the same
//! answer.
//!
//! ## Topology and fault injection
//!
//! [`Cluster::with_topology`] installs a two-tier [`Topology`] (module
//! `topo`): ranks grouped onto nodes, every link priced by its tier.
//! [`Cluster::with_chaos`] installs a [`ChaosPlan`] (module `chaos`): a
//! seeded, deterministic schedule of stragglers, link degradation windows,
//! per-message latency jitter and rank pauses that the charging paths consult.
//! With neither installed every path is the clean flat model.
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Cluster, CostModel};
//!
//! let report = Cluster::new(4, CostModel::aries()).run(|comm| {
//!     // Ring shift: everyone sends its rank to the right neighbour.
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send(right, 7, vec![comm.rank() as f32]);
//!     let got: Vec<f32> = comm.recv(left, 7);
//!     got[0] as usize
//! });
//! assert_eq!(report.results, vec![3, 0, 1, 2]);
//! ```

mod chaos;
mod cluster;
mod comm;
mod cost;
mod engine;
mod envelope;
#[allow(unsafe_code)]
mod fiber;
mod ledger;
#[allow(unsafe_code)]
mod loan;
pub mod net;
pub mod request;
mod topo;
pub mod trace;

pub use chaos::{ChaosPlan, CompiledChaos};
pub use cluster::{Cluster, SimReport};
pub use comm::{Comm, Tag};
pub use cost::{CostModel, WireSize};
pub use engine::{current_rank, Engine, SchedMode};
pub use ledger::{LedgerSnapshot, PhaseVolume};
pub use loan::Loans;
pub use net::{GroupComm, Net};
pub use request::SendHandle;
pub use topo::Topology;
pub use trace::{
    export_chrome, render_timeline, render_timeline_with_chaos, TraceEvent, TraceKind,
};
