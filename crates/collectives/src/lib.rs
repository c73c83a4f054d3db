#![warn(missing_docs)]

//! # collectives — dense and baseline sparse allreduce algorithms
//!
//! The communication substrate of the reproduction. Contains:
//!
//! - [`dense`]: Rabenseifner's allreduce (recursive-halving reduce-scatter +
//!   recursive-doubling allgather) with a ring fallback for non-power-of-two P,
//!   out of place and with one `Arc`-shared result per process rather than a
//!   copy per rank; generic allgather/allgatherv whose gathered pieces are
//!   shared the same way (or assembled once per process into one shared
//!   result), broadcast, and a small f64 allreduce with a shared result used
//!   for Ok-Topk's boundary consensus. Dense allreduce achieves the `2n(P−1)/P`
//!   bandwidth bound quoted in Table 1.
//! - [`topk_a`]: the allgather-based sparse allreduce (TopkA, §2) — also the
//!   transport of the Gaussiank baseline, which differs only in its selection
//!   strategy (see `sparse::threshold::GaussianEstimator`).
//! - [`topk_dsa`]: SparCML's dynamic sparse allreduce (TopkDSA) — sparse
//!   reduce-scatter with fill-in and a switch-to-dense escape hatch, then allgatherv;
//!   fill-in statistics are reported so §5.2's density-expansion numbers can be
//!   reproduced.
//! - [`gtopk`]: the gTopk reduction-tree/broadcast-tree allreduce with hierarchical
//!   top-k re-selection at every level (`4k·log P` volume).
//! - [`hier`]: two-tier hierarchical variants (intra-node reduce → inter-node
//!   leader exchange → intra-node broadcast) that confine most traffic to the
//!   fast intra-node tier of a [`simnet::Topology`], each three closures handed
//!   to the one skeleton, [`two_tier`].
//!
//! All algorithms move real data over [`simnet`] and are tested against serial
//! references; their measured traffic (from the simnet ledger) is compared against
//! Table 1's analytic volumes in the `table1` harness.

pub mod dense;
pub mod gtopk;
pub mod hier;
pub mod topk_a;
pub mod topk_dsa;

pub use dense::{
    allgather_assembled, allgather_items, allreduce_f64_shared, allreduce_inplace,
    allreduce_shared, allreduce_sum_f64, broadcast, broadcast_shared, reduce_scatter_block,
};
pub use gtopk::{gtopk_allreduce, gtopk_reduce_to_root};
pub use hier::{
    hier_dense_allreduce, hier_dense_shared, hier_gtopk_allreduce, ranks_per_node,
    reduce_to_root_dense, reduce_to_root_dense_into, two_tier,
};
pub use topk_a::{topk_allgather_allreduce, topk_allgather_allreduce_with};
pub use topk_dsa::{dsa_allreduce, DsaOutput, DsaStats};
