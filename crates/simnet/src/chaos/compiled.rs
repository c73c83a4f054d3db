//! Compiled plans and per-rank views: the query interface the communicator
//! charges virtual time through.

use super::plan::{ChaosPlan, Perturbation, Window};
use super::rng::hash_u01;
use std::sync::Arc;

struct LinkRule {
    src: Option<usize>,
    dst: Option<usize>,
    alpha_mult: f64,
    beta_mult: f64,
    window: Window,
}

struct JitterRule {
    src: Option<usize>,
    dst: Option<usize>,
    max_extra: f64,
    window: Window,
    /// Position in the plan, salted into each draw so overlapping jitter rules
    /// draw independently.
    salt: u64,
}

fn matches(endpoint: Option<usize>, rank: usize) -> bool {
    endpoint.is_none_or(|e| e == rank)
}

/// A [`ChaosPlan`] compiled for a fixed cluster size: per-rank straggler and
/// pause timelines plus link rules, immutable and shared by every rank.
pub struct CompiledChaos {
    size: usize,
    seed: u64,
    /// Per-rank `(window, factor)` slowdowns.
    stragglers: Vec<Vec<(Window, f64)>>,
    /// Per-rank frozen intervals, sorted by start.
    pauses: Vec<Vec<Window>>,
    links: Vec<LinkRule>,
    jitters: Vec<JitterRule>,
}

impl CompiledChaos {
    pub(crate) fn build(plan: &ChaosPlan, size: usize) -> Self {
        assert!(size >= 1, "cluster size must be >= 1");
        let mut stragglers = vec![Vec::new(); size];
        let mut pauses: Vec<Vec<Window>> = vec![Vec::new(); size];
        let mut links = Vec::new();
        let mut jitters = Vec::new();
        let check = |rank: usize| {
            assert!(rank < size, "perturbation names rank {rank}, but the cluster has {size}");
        };
        for (i, p) in plan.perturbations().iter().enumerate() {
            match *p {
                Perturbation::Straggler { rank, factor, window } => {
                    check(rank);
                    stragglers[rank].push((window, factor));
                }
                Perturbation::Pause { rank, window } => {
                    check(rank);
                    pauses[rank].push(window);
                }
                Perturbation::LinkDegrade { src, dst, alpha_mult, beta_mult, window } => {
                    if let Some(r) = src {
                        check(r);
                    }
                    if let Some(r) = dst {
                        check(r);
                    }
                    links.push(LinkRule { src, dst, alpha_mult, beta_mult, window });
                }
                Perturbation::Jitter { src, dst, max_extra, window } => {
                    if let Some(r) = src {
                        check(r);
                    }
                    if let Some(r) = dst {
                        check(r);
                    }
                    jitters.push(JitterRule { src, dst, max_extra, window, salt: i as u64 });
                }
            }
        }
        for p in &mut pauses {
            p.sort_by(|a, b| a.start.total_cmp(&b.start));
        }
        Self { size, seed: plan.seed(), stragglers, pauses, links, jitters }
    }

    /// If `t` falls inside a pause of `rank`, the resume time (looping until
    /// out of every overlapping pause); otherwise `t` unchanged.
    fn unpause(&self, rank: usize, t: f64) -> f64 {
        let mut t = t;
        loop {
            let mut moved = false;
            for w in &self.pauses[rank] {
                if w.contains(t) {
                    t = w.end;
                    moved = true;
                }
            }
            if !moved {
                return t;
            }
        }
    }

    /// The compute slowdown factor of `rank` at time `t` (product of active
    /// straggler windows; 1.0 when clean).
    fn factor_at(&self, rank: usize, t: f64) -> f64 {
        self.stragglers[rank].iter().filter(|(w, _)| w.contains(t)).map(|&(_, f)| f).product()
    }

    /// Next straggler-window edge or pause start strictly after `t` (∞ if none):
    /// the factor is constant on `[t, next_edge)`.
    fn next_edge(&self, rank: usize, t: f64) -> f64 {
        let mut edge = f64::INFINITY;
        for (w, _) in &self.stragglers[rank] {
            for b in [w.start, w.end] {
                if b > t && b < edge {
                    edge = b;
                }
            }
        }
        for w in &self.pauses[rank] {
            if w.start > t && w.start < edge {
                edge = w.start;
            }
        }
        edge
    }

    /// The virtual time at which a compute block of `nominal` modeled seconds,
    /// started by `rank` at `t0`, finishes under this plan — integrating the
    /// piecewise-constant slowdown and skipping pauses. With no active
    /// perturbation this is exactly `t0 + nominal`.
    fn advance_compute(&self, rank: usize, t0: f64, nominal: f64) -> f64 {
        let mut t = self.unpause(rank, t0);
        let mut work = nominal;
        loop {
            let f = self.factor_at(rank, t);
            let edge = self.next_edge(rank, t);
            if edge.is_infinite() {
                return t + work * f;
            }
            let cap = (edge - t) / f;
            if work <= cap {
                return t + work * f;
            }
            work -= cap;
            t = self.unpause(rank, edge);
        }
    }

    /// `(alpha_mult, beta_mult)` for a message injected on `src → dst` at `t`
    /// (product of matching active link rules; `(1, 1)` when clean).
    fn link_mults(&self, src: usize, dst: usize, t: f64) -> (f64, f64) {
        let mut a = 1.0;
        let mut b = 1.0;
        for rule in &self.links {
            if matches(rule.src, src) && matches(rule.dst, dst) && rule.window.contains(t) {
                a *= rule.alpha_mult;
                b *= rule.beta_mult;
            }
        }
        (a, b)
    }

    /// Extra head latency of the `seq`-th message on `src → dst` injected at
    /// `t`: sum over matching active jitter rules of a uniform `[0, max_extra)`
    /// draw keyed by `(seed, rule, src, dst, seq)`.
    fn jitter_extra(&self, src: usize, dst: usize, seq: u64, t: f64) -> f64 {
        let mut extra = 0.0;
        for rule in &self.jitters {
            if matches(rule.src, src) && matches(rule.dst, dst) && rule.window.contains(t) {
                extra +=
                    rule.max_extra * hash_u01(&[self.seed, rule.salt, src as u64, dst as u64, seq]);
            }
        }
        extra
    }

    /// All perturbation windows of the plan, for timeline rendering. Open
    /// windows report `end = ∞`; the renderer clamps them to its span.
    pub fn windows(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for per_rank in &self.stragglers {
            for (w, _) in per_rank {
                out.push((w.start, w.end));
            }
        }
        for per_rank in &self.pauses {
            for w in per_rank {
                out.push((w.start, w.end));
            }
        }
        for rule in &self.links {
            out.push((rule.window.start, rule.window.end));
        }
        for rule in &self.jitters {
            out.push((rule.window.start, rule.window.end));
        }
        out
    }
}

/// Everything one send needs to know about its perturbation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SendPerturb {
    /// Multiplier on the link α.
    pub(crate) alpha_mult: f64,
    /// Multiplier on the link β.
    pub(crate) beta_mult: f64,
    /// Extra head latency (seconds) drawn for this message.
    pub(crate) extra_latency: f64,
}

impl SendPerturb {
    /// Whether the send deviates from the clean α–β model at all.
    pub(crate) fn is_perturbed(&self) -> bool {
        self.alpha_mult != 1.0 || self.beta_mult != 1.0 || self.extra_latency > 0.0
    }
}

/// One rank's handle on a compiled plan: the shared immutable tables plus this
/// rank's per-destination send counters (which make jitter draws a function of
/// per-link program order, hence deterministic).
pub(crate) struct ChaosView {
    rank: usize,
    plan: Arc<CompiledChaos>,
    send_seq: Vec<u64>,
}

impl ChaosView {
    /// The view of `rank` on `plan`.
    pub(crate) fn new(plan: Arc<CompiledChaos>, rank: usize) -> Self {
        let size = plan.size;
        assert!(rank < size, "rank {rank} out of range for plan of size {size}");
        Self { rank, plan, send_seq: vec![0; size] }
    }

    /// See [`CompiledChaos::unpause`] for this rank.
    pub(crate) fn unpause(&self, t: f64) -> f64 {
        self.plan.unpause(self.rank, t)
    }

    /// See [`CompiledChaos::advance_compute`] for this rank.
    pub(crate) fn advance_compute(&self, t0: f64, nominal: f64) -> f64 {
        self.plan.advance_compute(self.rank, t0, nominal)
    }

    /// Perturbation of the next message this rank injects toward `dst` at
    /// virtual time `t`. Consumes the per-destination sequence number.
    pub(crate) fn send_perturb(&mut self, dst: usize, t: f64) -> SendPerturb {
        let seq = self.send_seq[dst];
        self.send_seq[dst] += 1;
        let (alpha_mult, beta_mult) = self.plan.link_mults(self.rank, dst, t);
        let extra_latency = self.plan.jitter_extra(self.rank, dst, seq, t);
        SendPerturb { alpha_mult, beta_mult, extra_latency }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_is_identity() {
        let c = ChaosPlan::new(0).compile(4);
        assert!(c.windows().is_empty());
        assert_eq!(c.advance_compute(2, 1.5, 3.0), 4.5);
        assert_eq!(c.unpause(0, 7.0), 7.0);
        assert_eq!(c.link_mults(0, 1, 0.0), (1.0, 1.0));
        assert_eq!(c.jitter_extra(0, 1, 0, 0.0), 0.0);
    }

    #[test]
    fn constant_straggler_scales_compute() {
        let c = ChaosPlan::new(0).straggler(1, 2.5).compile(2);
        assert_eq!(c.advance_compute(1, 0.0, 2.0), 5.0);
        // Other ranks unaffected.
        assert_eq!(c.advance_compute(0, 0.0, 2.0), 2.0);
    }

    #[test]
    fn windowed_straggler_integrates_piecewise() {
        // 3x slowdown inside [0.5, 1.0): a 1.0 s block from t=0 spends
        // 0.5 s clean, then 0.5/3 of work per... : remaining 0.5 of work needs
        // 0.5*3 = 1.5 s of window, but the window is only 0.5 s long, covering
        // 1/6 of work; the final 1/3 of work finishes clean after t=1.0.
        let c = ChaosPlan::new(0).straggler_window(0, 3.0, 0.5, 1.0).compile(1);
        let end = c.advance_compute(0, 0.0, 1.0);
        assert!((end - (4.0 / 3.0)).abs() < 1e-12, "end {end}");
        // A block entirely before the window is untouched.
        assert_eq!(c.advance_compute(0, 0.0, 0.25), 0.25);
        // A block entirely inside the window is fully scaled.
        let end = c.advance_compute(0, 0.5, 0.1);
        assert!((end - 0.8).abs() < 1e-12, "end {end}");
    }

    #[test]
    fn overlapping_stragglers_compose_multiplicatively() {
        let c = ChaosPlan::new(0)
            .straggler_window(0, 2.0, 0.0, 10.0)
            .straggler_window(0, 3.0, 0.0, 10.0)
            .compile(1);
        assert_eq!(c.factor_at(0, 1.0), 6.0);
        assert_eq!(c.advance_compute(0, 0.0, 1.0), 6.0);
    }

    #[test]
    fn pauses_freeze_and_resume() {
        let c = ChaosPlan::new(0).pause(0, 1.0, 2.0).compile(2);
        assert_eq!(c.unpause(0, 1.5), 3.0);
        assert_eq!(c.unpause(0, 0.99), 0.99);
        assert_eq!(c.unpause(0, 3.0), 3.0);
        // Compute crossing the pause: 0.5 s of work before, the rest after.
        assert_eq!(c.advance_compute(0, 0.5, 1.0), 3.5);
        // Back-to-back pauses chain.
        let c = ChaosPlan::new(0).pause(0, 1.0, 1.0).pause(0, 2.0, 1.0).compile(1);
        assert_eq!(c.unpause(0, 1.2), 3.0);
    }

    #[test]
    fn link_rules_match_wildcards_and_windows() {
        let c = ChaosPlan::new(0)
            .degrade_link(0, 1, 2.0, 4.0, 0.0, 1.0)
            .degrade_all_links(3.0, 1.0, 0.5, 2.0)
            .compile(3);
        assert_eq!(c.link_mults(0, 1, 0.0), (2.0, 4.0));
        assert_eq!(c.link_mults(0, 1, 0.75), (6.0, 4.0)); // both active
        assert_eq!(c.link_mults(0, 1, 1.5), (3.0, 1.0)); // only the wildcard
        assert_eq!(c.link_mults(2, 1, 0.0), (1.0, 1.0));
        assert_eq!(c.link_mults(2, 1, 0.6), (3.0, 1.0));
        assert_eq!(c.link_mults(0, 1, 2.5), (1.0, 1.0));
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_seed_sensitive() {
        let a = ChaosPlan::new(7).jitter(1e-3).compile(2);
        let b = ChaosPlan::new(7).jitter(1e-3).compile(2);
        let c = ChaosPlan::new(8).jitter(1e-3).compile(2);
        let mut differs = false;
        for seq in 0..64 {
            let xa = a.jitter_extra(0, 1, seq, 0.0);
            assert!((0.0..1e-3).contains(&xa));
            assert_eq!(xa, b.jitter_extra(0, 1, seq, 0.0));
            differs |= xa != c.jitter_extra(0, 1, seq, 0.0);
            // Direction matters: 0→1 and 1→0 draw independently.
            assert_ne!(xa, a.jitter_extra(1, 0, seq, 0.0));
        }
        assert!(differs, "different seeds must draw different jitter");
    }

    #[test]
    fn view_counts_sequence_per_destination() {
        let plan = Arc::new(ChaosPlan::new(3).jitter(1e-3).compile(3));
        let mut v = ChaosView::new(Arc::clone(&plan), 0);
        let first = v.send_perturb(1, 0.0).extra_latency;
        let second = v.send_perturb(1, 0.0).extra_latency;
        assert_ne!(first, second, "successive messages draw fresh jitter");
        // A fresh view replays the same sequence.
        let mut w = ChaosView::new(plan, 0);
        assert_eq!(w.send_perturb(1, 0.0).extra_latency, first);
        assert_eq!(w.send_perturb(1, 0.0).extra_latency, second);
    }

    #[test]
    #[should_panic(expected = "names rank")]
    fn compile_validates_ranks() {
        let _ = ChaosPlan::new(0).straggler(4, 2.0).compile(4);
    }

    #[test]
    fn windows_are_reported_for_rendering() {
        let c = ChaosPlan::new(0).straggler_window(0, 2.0, 0.1, 0.2).pause(0, 0.3, 0.1).compile(1);
        let ws = c.windows();
        assert!(ws.contains(&(0.1, 0.2)));
        assert!(ws.contains(&(0.3, 0.4)));
    }
}
