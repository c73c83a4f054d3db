//! Deterministic fault & perturbation injection.
//!
//! The simulated network is *perfect* by default: every rank computes at the
//! same speed and every link honors the calibrated α–β exactly. Real clusters
//! are not — stragglers, latency jitter and transient link degradation
//! dominate tail behavior. This module describes such imperfections as data: a
//! [`ChaosPlan`] is a schedule of typed perturbations
//!
//! - **stragglers** — a rank's modeled compute runs `factor`× slower, constantly
//!   or inside a virtual-time window,
//! - **link degradation** — a link's (or every link's) α/β are multiplied inside
//!   a window,
//! - **latency jitter** — each message picks up extra head latency drawn from a
//!   seeded, hash-based RNG,
//! - **pauses** — a rank freezes entirely for an interval and resumes.
//!
//! A plan is *compiled* ([`ChaosPlan::compile`]) into an immutable
//! [`CompiledChaos`] shared by all ranks, from which each rank takes a
//! `ChaosView` holding its per-destination message counters. The
//! communicator consults the view when charging virtual time.
//!
//! ## Determinism
//!
//! Everything is a pure function of `(plan, seed, rank, virtual time, per-link
//! message sequence number)`. Jitter uses a stateless splitmix64 hash, never a
//! stateful RNG shared across threads, so two runs of the same plan produce
//! bit-identical virtual-time trajectories regardless of thread scheduling —
//! the same guarantee the simulator itself makes, extended to the perturbed
//! network.

mod compiled;
mod plan;
mod rng;

pub(crate) use compiled::ChaosView;
pub use compiled::CompiledChaos;
pub use plan::ChaosPlan;
