#![warn(missing_docs)]

//! # train — distributed data-parallel training harness
//!
//! Glues everything together the way the paper's evaluation does (§5): P model
//! replicas (one per simnet rank) compute real gradients on disjoint data shards,
//! exchange them through one of the allreduce schemes, and apply identical
//! updates. The harness also carries the instrumentation the paper's figures need:
//!
//! - per-iteration **time breakdown** into sparsification / communication /
//!   computation, in modeled seconds (Figs. 8, 10, 12),
//! - **ξ measurement** validating Assumption 1 (Fig. 5),
//! - **top-k selection counts** — local/global for Ok-Topk, the raw Gaussian
//!   prediction for comparison (Fig. 6), and TopkDSA's fill-in density (§5.2),
//! - **convergence curves**: held-out metric vs modeled wall-clock
//!   (Figs. 9, 11, 13).
//!
//! Schemes: the paper's seven and their two-tier variants, one table in
//! [`Scheme::all`]. Cost calibration is documented in [`cost`].

pub mod cost;
pub mod reducer;
pub mod trainer;

pub use cost::CostProfile;
pub use reducer::{top_k, Reducer, Scheme, Update};
pub use trainer::{
    run_data_parallel, run_data_parallel_chaos, EvalPoint, IterRecord, OptimizerKind, RunResult,
    TrainConfig,
};
