//! The five workloads: what runs, at which size, and why.
//!
//! Sizes (P, n, density, periods) are part of the benchmark's definition and
//! never change with `--seconds`; only the number of steps does. `--quick`
//! swaps in the small shapes the self-test uses.

use simnet::{ChaosPlan, Topology};
use train::Scheme;

/// Two-tier link parameters of `hier_chaos_p256` (seconds, seconds/element),
/// the same fabric `okbench hier` prices.
const INTRA: (f64, f64) = (1e-6, 1e-9);
const INTER: (f64, f64) = (25e-6, 4e-9);

/// Who owns the step loop and what exchanges the gradient.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `train::run_data_parallel` on BertLite; the trainer owns the loop.
    Train,
    /// Benchmark-owned loop around `Reducer::reduce` (for flat Ok-Topk that
    /// is `OkTopkSgd::step` plus the selection's modeled cost).
    Reduce(Scheme),
}

/// One workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Ranks: the closed loop's client count.
    pub p: usize,
    /// Gradient length (BertLite's parameter count for `Train`).
    pub n: usize,
    pub density: f64,
    pub tau: usize,
    pub tau_prime: usize,
    /// Ranks per node (1 = flat network, no topology installed).
    pub rpn: usize,
    /// Inter-node oversubscription of the two-tier topology.
    pub oversub: f64,
    /// Whether the seeded chaos plan is installed.
    pub chaos: bool,
    /// Steps before the first timed one (part of set-up).
    pub warmup: usize,
    /// Timed steps the modeled metrics cover. The host clock keeps sampling
    /// past them until `--seconds` is used up; the modeled window is fixed so
    /// the same seed gives the same modeled numbers on any host.
    pub model_steps: usize,
    /// `Train` only: trainer iterations per second of `--seconds` (the trainer
    /// owns its loop, so its run length is set in iterations).
    pub train_iters_per_second: usize,
}

impl Spec {
    /// The top-k target `Reducer::new` resolves for this shape.
    pub fn k(&self) -> usize {
        ((self.n as f64 * self.density).round() as usize).clamp(1, self.n)
    }

    /// The Ok-Topk scheme family runs here (its volume bound applies on a
    /// flat network only).
    pub fn is_oktopk(&self) -> bool {
        matches!(self.kind, Kind::Train | Kind::Reduce(Scheme::OkTopk | Scheme::HierOkTopk))
    }

    /// The scheme name as the paper's figures spell it.
    pub fn scheme_name(&self) -> &'static str {
        match self.kind {
            Kind::Reduce(s) => s.name(),
            Kind::Train => Scheme::OkTopk.name(),
        }
    }

    pub fn topology(&self) -> Option<Topology> {
        (self.rpn > 1)
            .then(|| Topology::two_tier(self.rpn, INTRA, INTER).with_oversubscription(self.oversub))
    }

    /// One 1.5x straggler leader, four degraded leader-to-leader links and
    /// per-message jitter. The seed draws the jitter; who straggles and which
    /// links degrade is fixed, because where they sit changes the host cost
    /// of simulating a step by tens of percent (the event engine runs ranks
    /// in virtual-time order), and a seed must not change how hard the
    /// workload is. Link rules are scanned per message, so there are few.
    pub fn chaos_plan(&self, seed: u64) -> Option<ChaosPlan> {
        if !self.chaos {
            return None;
        }
        let nodes = self.p.div_ceil(self.rpn);
        let leader = |node: usize| (node % nodes) * self.rpn;
        let mut plan = ChaosPlan::new(seed).straggler(leader(nodes / 2), 1.5).jitter(2e-7);
        for link in 0..4 {
            let (src, dst) = (leader(1 + 7 * link), leader(3 + 5 * link));
            if src != dst {
                plan = plan.degrade_link(src, dst, 1.5, 2.0, 0.0, 1e6);
            }
        }
        Some(plan)
    }
}

const TRAIN: Spec = Spec {
    name: "train_bert_p16",
    kind: Kind::Train,
    p: 16,
    n: 0, // filled from the model at run time
    density: 0.01,
    tau: 32,
    tau_prime: 32,
    rpn: 1,
    oversub: 1.0,
    chaos: false,
    warmup: 10,
    model_steps: 40,
    train_iters_per_second: 30,
};

const SCALE: Spec = Spec {
    name: "scale_oktopk_p1024",
    kind: Kind::Reduce(Scheme::OkTopk),
    p: 1024,
    n: 4096,
    density: 0.05,
    tau: 8,
    tau_prime: 8,
    warmup: 1,
    model_steps: 3,
    train_iters_per_second: 0,
    ..TRAIN
};

const RING: Spec = Spec {
    name: "ring_dense_p64_n512k",
    kind: Kind::Reduce(Scheme::Dense),
    p: 64,
    n: 1 << 19,
    density: 0.01,
    warmup: 2,
    model_steps: 16,
    ..SCALE
};

const SELECT: Spec = Spec {
    name: "select_sgd_p4_n4m",
    kind: Kind::Reduce(Scheme::OkTopk),
    p: 4,
    n: 1 << 22,
    density: 0.01,
    tau: 32,
    tau_prime: 8,
    warmup: 10,
    model_steps: 48,
    ..SCALE
};

const HIER: Spec = Spec {
    name: "hier_chaos_p256",
    kind: Kind::Reduce(Scheme::HierOkTopk),
    p: 256,
    n: 65536,
    density: 0.02,
    rpn: 8,
    oversub: 4.0,
    chaos: true,
    warmup: 2,
    model_steps: 48,
    ..SCALE
};

/// The workload list, in the order `BENCHMARK.json` declares it.
pub const ALL: [Spec; 5] = [TRAIN, SCALE, RING, SELECT, HIER];

/// Look a workload up by name; `quick` shrinks it to the self-test shape
/// (P <= 16, 3 modeled steps) without changing what it exercises.
pub fn find(name: &str, quick: bool) -> Option<Spec> {
    let spec = *ALL.iter().find(|s| s.name == name)?;
    if !quick {
        return Some(spec);
    }
    Some(Spec {
        p: spec.p.min(16),
        n: spec.n.min(1 << 16),
        warmup: spec.warmup.min(1),
        model_steps: 3,
        train_iters_per_second: 3,
        ..spec
    })
}
