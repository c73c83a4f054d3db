#![warn(missing_docs)]

//! # sparse — sparse gradients and top-k machinery
//!
//! Everything the paper's §3.1.3 ("Efficient selection for top-k values") and the
//! baselines' sparsifiers need:
//!
//! - [`CooGradient`]: the coordinate-format sparse gradient the paper assumes
//!   throughout (k values + k `u32` indexes = 2k wire elements),
//! - exact top-k selection via radix select and via full sort ([`select`]),
//! - threshold-based selection (a single O(n) scan, the GPU-friendly primitive the
//!   paper builds on),
//! - threshold estimators ([`threshold`]): the paper's periodic exact re-evaluation
//!   with reuse (Ok-Topk) and the Gaussian percent-point estimator (Gaussiank),
//! - balanced gradient-space partitioning for split-and-reduce ([`partition`]),
//! - pooled scratch buffers for the zero-allocation steady-state
//!   selection path ([`scratch`]),
//! - explicit-lane SIMD kernels for the O(n) hot loops, with runtime dispatch and
//!   a scalar fallback ([`simd`]),
//! - numeric utilities ([`stats`]): erf, inverse normal CDF, moments, histograms.

pub mod coo;
pub mod partition;
pub mod scratch;
pub mod select;
pub mod simd;
pub mod stats;
pub mod threshold;

pub use coo::CooGradient;
pub use scratch::SelectScratch;
pub use select::{exact_threshold, select_ge, topk_exact};
pub use threshold::{GaussianEstimator, PeriodicExactEstimator, ThresholdEstimator};
