#![warn(missing_docs)]

//! # oktopk — the O(k) sparse allreduce and Ok-Topk SGD
//!
//! This crate implements the paper's contribution:
//!
//! - **Algorithm 1, O(k) sparse allreduce** ([`OkTopk::allreduce`]): two phases,
//!   *split and reduce* ([`split_reduce`]) and *balance and allgatherv*
//!   ([`balance`]), glued together with the periodic threshold re-evaluation and
//!   space-repartition machinery of §3.1. Per-iteration communication volume is
//!   bounded by `6k(P−1)/P` elements (Theorem 3.1 shows `2k(P−1)/P` is the lower
//!   bound, so the algorithm is asymptotically optimal) — the bound is enforced by
//!   tests against the simnet traffic ledger.
//! - **Algorithm 2, Ok-Topk SGD** ([`OkTopkSgd`]): residual accumulation, sparse
//!   allreduce of the accumulator, residual update at the contributing indexes,
//!   and the `u_t / P` model update — the error-feedback pipeline
//!   ([`ErrorFeedback`]) every sparse scheme runs, with Ok-Topk's selector and
//!   exchange as its [`SparseRow`].
//!
//! The semantic computed is `Topk(Σᵢ Topk(accᵢ))` up to the threshold
//! approximation of §3.1.3: local and global top-k selections use thresholds that
//! are re-evaluated exactly every τ′ iterations and reused in between.
//!
//! Every optimization of the paper is present and individually switchable for the
//! ablation studies (Fig. 7): balanced space repartition vs naive equal regions,
//! destination rotation vs naive ordering, bucketing, and the 4× data-balancing
//! trigger before the final allgatherv.

pub mod balance;
pub mod config;
pub mod oktopk;
pub mod sgd;
pub mod split_reduce;

pub use config::OkTopkConfig;
pub use oktopk::{OkTopk, OkTopkOutput, SparseStep};
pub use sgd::{ErrorFeedback, OkTopkSgd, SparseRow};
