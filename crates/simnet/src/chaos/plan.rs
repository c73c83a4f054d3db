//! Plan schema: typed perturbations on a virtual-time schedule.

use super::compiled::CompiledChaos;

/// A half-open virtual-time interval `[start, end)` in modeled seconds.
/// `end = f64::INFINITY` means "until the end of the run".
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Window {
    /// Window start (inclusive), modeled seconds.
    pub start: f64,
    /// Window end (exclusive), modeled seconds; may be `f64::INFINITY`.
    pub end: f64,
}

impl Window {
    /// The whole run: `[0, ∞)`.
    pub(crate) fn always() -> Self {
        Self { start: 0.0, end: f64::INFINITY }
    }

    /// A bounded window `[start, end)`.
    pub(crate) fn new(start: f64, end: f64) -> Self {
        assert!(start >= 0.0 && start.is_finite(), "window start must be finite and >= 0");
        assert!(end > start, "window must be non-empty: [{start}, {end})");
        Self { start, end }
    }

    /// Whether virtual time `t` falls inside the window.
    pub(crate) fn contains(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }
}

/// One typed perturbation of the simulated cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Perturbation {
    /// `rank`'s modeled compute runs `factor`× slower while `window` is active.
    Straggler {
        /// Affected rank.
        rank: usize,
        /// Compute-time multiplier (> 0; 2.0 = half speed).
        factor: f64,
        /// When the slowdown applies.
        window: Window,
    },
    /// The α/β of matching links are multiplied while `window` is active.
    /// `None` endpoints are wildcards, so `src: None, dst: None` degrades the
    /// whole fabric.
    LinkDegrade {
        /// Sending endpoint (`None` = any).
        src: Option<usize>,
        /// Receiving endpoint (`None` = any).
        dst: Option<usize>,
        /// Multiplier on the link's per-message latency α (> 0).
        alpha_mult: f64,
        /// Multiplier on the link's per-element time β (> 0).
        beta_mult: f64,
        /// When the degradation applies.
        window: Window,
    },
    /// Each message on a matching link picks up extra head latency drawn
    /// uniformly from `[0, max_extra)` seconds, deterministically from the plan
    /// seed and the message's per-link sequence number.
    Jitter {
        /// Sending endpoint (`None` = any).
        src: Option<usize>,
        /// Receiving endpoint (`None` = any).
        dst: Option<usize>,
        /// Upper bound of the uniform extra latency (seconds, >= 0).
        max_extra: f64,
        /// When the jitter applies (judged at injection start).
        window: Window,
    },
    /// `rank` freezes at `window.start` and resumes at `window.end`: no compute
    /// progresses and its NIC ports stay occupied for the duration.
    Pause {
        /// Affected rank.
        rank: usize,
        /// The frozen interval (must be bounded).
        window: Window,
    },
}

/// A seeded schedule of perturbations, built with a fluent API and compiled
/// once per cluster size into a [`CompiledChaos`].
///
/// ```
/// use simnet::ChaosPlan;
/// let plan = ChaosPlan::new(42)
///     .straggler(0, 3.0)                       // rank 0 computes 3x slower
///     .jitter(2e-6)                            // every message: up to 2 µs extra
///     .degrade_link(1, 2, 4.0, 4.0, 0.0, 0.5)  // link 1→2 is 4x worse until t=0.5s
///     .pause(3, 1.0, 0.25);                    // rank 3 freezes for 250 ms at t=1s
/// let compiled = plan.compile(4);
/// assert_eq!(compiled.windows().len(), 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    seed: u64,
    perturbations: Vec<Perturbation>,
}

impl ChaosPlan {
    /// An empty plan with the given jitter seed. An empty plan is valid and
    /// perturbs nothing.
    pub fn new(seed: u64) -> Self {
        Self { seed, perturbations: Vec::new() }
    }

    /// The jitter seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled perturbations, in insertion order.
    pub(crate) fn perturbations(&self) -> &[Perturbation] {
        &self.perturbations
    }

    /// Append an arbitrary perturbation (the fluent helpers below cover the
    /// common shapes).
    pub(crate) fn push(mut self, p: Perturbation) -> Self {
        match &p {
            Perturbation::Straggler { factor, .. } => {
                assert!(*factor > 0.0 && factor.is_finite(), "straggler factor must be > 0");
            }
            Perturbation::LinkDegrade { alpha_mult, beta_mult, .. } => {
                assert!(*alpha_mult > 0.0 && *beta_mult > 0.0, "link multipliers must be > 0");
            }
            Perturbation::Jitter { max_extra, .. } => {
                assert!(*max_extra >= 0.0 && max_extra.is_finite(), "jitter bound must be >= 0");
            }
            Perturbation::Pause { window, .. } => {
                assert!(window.end.is_finite(), "pauses must be bounded (rank must resume)");
            }
        }
        self.perturbations.push(p);
        self
    }

    /// `rank` computes `factor`× slower for the whole run.
    pub fn straggler(self, rank: usize, factor: f64) -> Self {
        self.push(Perturbation::Straggler { rank, factor, window: Window::always() })
    }

    /// `rank` computes `factor`× slower inside `[start, end)`.
    pub fn straggler_window(self, rank: usize, factor: f64, start: f64, end: f64) -> Self {
        self.push(Perturbation::Straggler { rank, factor, window: Window::new(start, end) })
    }

    /// Degrade the `src → dst` link by `alpha_mult`/`beta_mult` inside
    /// `[start, end)`.
    pub fn degrade_link(
        self,
        src: usize,
        dst: usize,
        alpha_mult: f64,
        beta_mult: f64,
        start: f64,
        end: f64,
    ) -> Self {
        self.push(Perturbation::LinkDegrade {
            src: Some(src),
            dst: Some(dst),
            alpha_mult,
            beta_mult,
            window: Window::new(start, end),
        })
    }

    /// Degrade every link by `alpha_mult`/`beta_mult` inside `[start, end)`.
    pub fn degrade_all_links(self, alpha_mult: f64, beta_mult: f64, start: f64, end: f64) -> Self {
        self.push(Perturbation::LinkDegrade {
            src: None,
            dst: None,
            alpha_mult,
            beta_mult,
            window: Window::new(start, end),
        })
    }

    /// Add up-to-`max_extra` seconds of per-message latency jitter on every
    /// link, for the whole run.
    pub fn jitter(self, max_extra: f64) -> Self {
        self.push(Perturbation::Jitter {
            src: None,
            dst: None,
            max_extra,
            window: Window::always(),
        })
    }

    /// Freeze `rank` for `duration` seconds starting at virtual time `start`.
    pub fn pause(self, rank: usize, start: f64, duration: f64) -> Self {
        assert!(duration > 0.0 && duration.is_finite(), "pause duration must be finite and > 0");
        self.push(Perturbation::Pause { rank, window: Window::new(start, start + duration) })
    }

    /// Compile for a cluster of `size` ranks, validating every referenced rank.
    ///
    /// # Panics
    /// If any perturbation names a rank `>= size`.
    pub fn compile(&self, size: usize) -> CompiledChaos {
        CompiledChaos::build(self, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_perturbations_in_order() {
        let plan = ChaosPlan::new(1).straggler(0, 2.0).jitter(1e-6).pause(1, 0.5, 0.5);
        assert_eq!(plan.perturbations().len(), 3);
        assert!(matches!(plan.perturbations()[0], Perturbation::Straggler { rank: 0, .. }));
        assert!(ChaosPlan::new(9).perturbations().is_empty());
    }

    #[test]
    fn windows_are_half_open() {
        let w = Window::new(1.0, 2.0);
        assert!(w.contains(1.0));
        assert!(w.contains(1.999));
        assert!(!w.contains(2.0));
        assert!(!w.contains(0.999));
        assert!(Window::always().contains(1e12));
    }

    #[test]
    #[should_panic(expected = "straggler factor")]
    fn zero_factor_is_rejected() {
        let _ = ChaosPlan::new(0).straggler(0, 0.0);
    }

    #[test]
    #[should_panic(expected = "bounded")]
    fn unbounded_pause_is_rejected() {
        let _ = ChaosPlan::new(0).push(Perturbation::Pause { rank: 0, window: Window::always() });
    }
}
