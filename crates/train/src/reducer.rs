//! One interface over the gradient-exchange schemes of the evaluation: the
//! paper's seven plus their two-tier hierarchical variants. `Scheme::family`
//! is the one table from a scheme's name to what runs, [`Reducer`] that
//! family's state; a hierarchical variant is its flat scheme in [`two_tier`].

use crate::cost::CostProfile;
use collectives::{
    allreduce_shared, broadcast, broadcast_shared, dsa_allreduce, hier_dense_shared,
    hier_gtopk_allreduce, reduce_to_root_dense_into, topk_allgather_allreduce, two_tier,
};
use oktopk::oktopk::intersect_sorted;
use oktopk::{OkTopkConfig, OkTopkSgd, SparseStep};
use simnet::Net;
use sparse::select::{select_ge, topk_exact};
use sparse::simd::{axpy, count_abs_ge};
use sparse::threshold::GaussianEstimator;
use sparse::CooGradient;
use std::sync::Arc;

/// The allreduce schemes compared in §5 (Table 1 + DenseOvlp).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Single dense allreduce on the whole gradient.
    Dense,
    /// Dense allreduce overlapped with backward compute (bucketed).
    DenseOvlp,
    /// Allgather-based sparse allreduce with exact top-k selection.
    TopkA,
    /// SparCML's dynamic sparse allreduce (reduce-scatter with fill-in).
    TopkDsa,
    /// Tree allreduce with hierarchical top-k re-selection.
    GTopk,
    /// Allgather-based allreduce with Gaussian-PPF threshold selection.
    GaussianK,
    /// The paper's O(k) sparse allreduce.
    OkTopk,
    /// Two-tier dense allreduce: intra-node reduce → leader allreduce → broadcast.
    HierDense,
    /// Two-tier gTopk: intra-node re-selection tree → leader gTopk → broadcast.
    HierGTopk,
    /// Two-tier Ok-Topk: intra-node dense reduce to the leader (one re-selection
    /// point per node) → leader-group Ok-Topk → intra-node broadcast.
    HierOkTopk,
}

/// What a scheme name means to the code that runs it.
enum Family {
    /// Allreduce the whole gradient; no selection, no error feedback.
    Dense,
    /// Select locally from ε + scale·grad, exchange the selections, keep in ε
    /// what did not survive.
    Baseline(Selector, Exchange),
    /// [`OkTopkSgd`]: selection, exchange and ε are one algorithm.
    OkTopk,
}

/// How a sparse baseline picks its selection from the accumulator.
#[derive(Clone, Copy)]
enum Selector {
    /// Exact top-k selection (torch.topk-style cost).
    ExactTopk,
    /// Gaussian-PPF threshold + the §5.4 scale-until-3k/4 adjustment.
    GaussianPpf,
}

/// How a sparse baseline's local selections become the global sum.
#[derive(Clone, Copy)]
enum Exchange {
    /// Allgather and sum (TopkA, Gaussiank).
    Allgather,
    /// SparCML's sparse reduce-scatter + allgatherv.
    Dsa,
    /// gTopk's re-selecting reduction tree, regrouped over the two tiers when
    /// a node has more than one rank.
    GTopk,
}

impl Exchange {
    /// Exchange this rank's selection `local` (at most `k` entries of an
    /// `n`-long accumulator) on `comm`, `rpn` ranks to a node. Returns the
    /// global, unaveraged sum, the indexes of `local` that leave ε, and
    /// TopkDSA's output density (§5.2).
    fn run<C: Net>(
        self,
        comm: &mut C,
        cost: &CostProfile,
        local: CooGradient,
        (n, k): (usize, usize),
        rpn: usize,
    ) -> (CooGradient, Vec<u32>, Option<f64>) {
        let sent = local.indexes().to_vec();
        match self {
            // The exact exchanges sum everything sent: all of it leaves ε.
            Exchange::Allgather => (topk_allgather_allreduce(comm, local), sent, None),
            Exchange::Dsa => {
                let out = dsa_allreduce(comm, local, n);
                (out.sum, sent, Some(out.stats.output_density))
            }
            Exchange::GTopk => {
                let sum = hier_gtopk_allreduce(comm, local, k, rpn);
                // Each tree level re-selects the top-k of a 2k-entry merge,
                // which the paper attributes to communication time, and drops
                // what a rank sent: only what survived leaves ε. The two-tier
                // variant regroups the tree across tiers but keeps its depth.
                let levels = usize::BITS - (comm.size().max(2) - 1).leading_zeros();
                comm.compute(cost.topk_exact(2 * k) * levels as f64);
                let kept = intersect_sorted(&sent, sum.indexes());
                (sum, kept, None)
            }
        }
    }
}

impl Scheme {
    /// All schemes: the paper's seven in presentation order, then the
    /// hierarchical variants.
    pub fn all() -> [Scheme; 10] {
        [
            Scheme::Dense,
            Scheme::DenseOvlp,
            Scheme::TopkA,
            Scheme::TopkDsa,
            Scheme::GTopk,
            Scheme::GaussianK,
            Scheme::OkTopk,
            Scheme::HierDense,
            Scheme::HierGTopk,
            Scheme::HierOkTopk,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Dense => "Dense",
            Scheme::DenseOvlp => "DenseOvlp",
            Scheme::TopkA => "TopkA",
            Scheme::TopkDsa => "TopkDSA",
            Scheme::GTopk => "gTopk",
            Scheme::GaussianK => "Gaussiank",
            Scheme::OkTopk => "Ok-Topk",
            Scheme::HierDense => "Hier-Dense",
            Scheme::HierGTopk => "Hier-gTopk",
            Scheme::HierOkTopk => "Hier-Ok-Topk",
        }
    }

    /// Whether the scheme sparsifies gradients.
    pub fn is_sparse(&self) -> bool {
        !matches!(self.family().0, Family::Dense)
    }

    /// The scheme → exchange table: the family a name belongs to, and whether
    /// it is that family's two-tier variant (the same family run inside
    /// [`two_tier`], `false` meaning one rank to a node whatever the cluster
    /// has). A new sparse exchange is one [`Exchange`] variant and one row
    /// here, two with its two-tier variant.
    fn family(self) -> (Family, bool) {
        use {Exchange::*, Selector::*};
        match self {
            Scheme::Dense | Scheme::DenseOvlp => (Family::Dense, false),
            Scheme::HierDense => (Family::Dense, true),
            Scheme::TopkA => (Family::Baseline(ExactTopk, Allgather), false),
            Scheme::GaussianK => (Family::Baseline(GaussianPpf, Allgather), false),
            Scheme::TopkDsa => (Family::Baseline(ExactTopk, Dsa), false),
            Scheme::GTopk => (Family::Baseline(ExactTopk, GTopk), false),
            Scheme::HierGTopk => (Family::Baseline(ExactTopk, GTopk), true),
            Scheme::OkTopk => (Family::OkTopk, false),
            Scheme::HierOkTopk => (Family::OkTopk, true),
        }
    }
}

/// What a reduce produced, ready to apply to the model.
pub enum Update {
    /// Averaged dense gradient (Dense/DenseOvlp/Hier-Dense): the optimizer
    /// applies it. One immutable allocation per step, shared by every rank of
    /// the process.
    Dense(Arc<Vec<f32>>),
    /// Averaged sparse result: in SGD mode this is the model delta (lr folded into
    /// the accumulator); in Adam mode (scale = 1) the averaged sparse gradient.
    /// Ok-Topk's is one allocation per process, like the dense one; a sparse
    /// baseline's is the rank's own.
    Sparse(Arc<CooGradient>),
}

/// Instrumentation of one reduce call.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReduceMetrics {
    /// Modeled sparsification seconds charged inside this call.
    pub sparsify_time: f64,
    /// Local top-k selection size (sparse schemes).
    pub local_nnz: Option<usize>,
    /// Global/result support size.
    pub global_nnz: Option<usize>,
    /// TopkDSA output density (§5.2 fill-in metric).
    pub dsa_density: Option<f64>,
    /// Gaussiank's *raw* predicted selection count (before the 3k/4 scaling).
    pub gaussian_pred: Option<usize>,
    /// Whether Ok-Topk's data-balancing trigger fired.
    pub balanced: Option<bool>,
}

/// The persistent state of one scheme family on one rank.
enum State {
    /// Hier-Dense's intra-node gradient sum: n-sized on a node leader after
    /// its first step, empty for good on every other rank and flat scheme.
    Dense { node_sum: Vec<f32> },
    /// The residual ε: between steps it holds ε; during one, the accumulator.
    Baseline { selector: Selector, exchange: Exchange, residual: Vec<f32> },
    /// Ok-Topk keeps its ε inside `sgd`, which exists only on a rank that
    /// steps it: every rank when flat, node leaders — which also own the
    /// `node_sum` they step on — when hierarchical, so off the leader nothing
    /// n-sized is ever built.
    OkTopk { cfg: OkTopkConfig, sgd: Option<Box<OkTopkSgd>>, node_sum: Vec<f32> },
}

/// Per-rank, scheme-specific persistent state (residuals, thresholds, …).
pub struct Reducer {
    scheme: Scheme,
    n: usize,
    k: usize,
    cost: CostProfile,
    state: State,
    /// Whether `scheme` is a two-tier variant; a flat scheme ignores `rpn`.
    two_tier: bool,
    /// See [`Reducer::with_ranks_per_node`].
    rpn: usize,
}

impl Reducer {
    /// Fresh per-rank reducer state for one scheme.
    pub fn new(
        scheme: Scheme,
        n: usize,
        density: f64,
        cost: CostProfile,
        tau: usize,
        tau_prime: usize,
    ) -> Self {
        let k = ((n as f64 * density).round() as usize).clamp(1, n);
        let (family, two_tier) = scheme.family();
        let state = match family {
            Family::Dense => State::Dense { node_sum: Vec::new() },
            Family::Baseline(selector, exchange) => {
                State::Baseline { selector, exchange, residual: vec![0.0; n] }
            }
            Family::OkTopk => {
                let cfg = OkTopkConfig::new(n, k)
                    .with_periods(tau, tau_prime)
                    .with_merge_cost(cost.merge_per_elem);
                // A flat scheme steps on every rank, so its state is built
                // here, not inside the first (timed) step; a two-tier one
                // steps at leaders only, and a rank learns which it is there.
                let sgd = (!two_tier).then(|| Box::new(OkTopkSgd::new(cfg.clone())));
                State::OkTopk { cfg, sgd, node_sum: Vec::new() }
            }
        };
        Self { scheme, n, k, cost, state, two_tier, rpn: 1 }
    }

    /// Set the node grouping the hierarchical schemes use (ranks per node).
    /// `1` — the default — degenerates them to their flat counterparts; the
    /// trainer passes [`collectives::ranks_per_node`] of the live communicator.
    pub fn with_ranks_per_node(mut self, rpn: usize) -> Self {
        self.rpn = rpn.max(1);
        self
    }

    /// The resolved top-k target (density × n, clamped to [1, n]).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Exchange this iteration's gradient. `scale` folds the learning rate into
    /// the sparse accumulators (SGD mode); pass 1.0 in Adam mode. Dense schemes
    /// ignore `scale` and return the plain averaged gradient.
    ///
    /// Sparsification cost is charged to the rank's clock inside this call and
    /// reported in the metrics so the caller can split the clock delta into
    /// sparsification vs communication.
    pub fn reduce<C: Net>(
        &mut self,
        comm: &mut C,
        grad: &[f32],
        scale: f32,
    ) -> (Update, ReduceMetrics) {
        self.reduce_with_overlap(comm, grad, scale, 0.0)
    }

    /// Like [`Reducer::reduce`], but additionally spends `overlap_budget` seconds
    /// of modeled compute (the DenseOvlp backward tail) *inside* the dense
    /// allreduce, spread across its steps between each send and its receive —
    /// so the compute genuinely hides in the transfer time instead of
    /// being patched over the clock afterwards. Sparse schemes assert a zero
    /// budget: their overlap structure lives inside the collective itself.
    pub fn reduce_with_overlap<C: Net>(
        &mut self,
        comm: &mut C,
        grad: &[f32],
        scale: f32,
        overlap_budget: f64,
    ) -> (Update, ReduceMetrics) {
        debug_assert_eq!(grad.len(), self.n);
        debug_assert!(
            overlap_budget == 0.0 || !self.scheme.is_sparse(),
            "overlap budgets only apply to the dense schemes"
        );
        let p = comm.size() as f32;
        let (cost, k) = (&self.cost, self.k);
        // At one rank to a node every two-tier exchange below is its flat one.
        let rpn = if self.two_tier { self.rpn } else { 1 };

        match &mut self.state {
            State::Dense { node_sum } => {
                // Each rank averages the one region it reduced; the n-word
                // result is assembled once and shared by every rank.
                let average = |sum: &mut [f32]| sum.iter_mut().for_each(|v| *v /= p);
                let avg = if self.two_tier {
                    comm.set_phase("hier-dense");
                    // The hierarchical variant has no interleaved-overlap path;
                    // any budget is spent as plain compute up front.
                    if overlap_budget > 0.0 {
                        comm.compute(overlap_budget);
                    }
                    hier_dense_shared(comm, grad, rpn, node_sum, average)
                } else {
                    comm.set_phase("dense");
                    allreduce_shared(comm, grad, overlap_budget, average)
                };
                (Update::Dense(avg), ReduceMetrics::default())
            }
            State::Baseline { selector, exchange, residual } => {
                axpy(residual, grad, scale);
                let (local, mut metrics) = selector.select(cost, k, residual, comm);
                let (sum, contributed, dsa_density) =
                    exchange.run(comm, cost, local, (self.n, k), rpn);
                metrics.dsa_density = dsa_density;
                metrics.global_nnz = Some(sum.nnz());
                // What left ε is cleared; the rest of the accumulator (already
                // in `residual`) carries over.
                for i in contributed {
                    residual[i as usize] = 0.0;
                }
                let mut avg = sum;
                avg.scale(1.0 / p);
                (Update::Sparse(Arc::new(avg)), metrics)
            }
            State::OkTopk { cfg, sgd, node_sum } => {
                let hier = two_tier(
                    comm,
                    rpn,
                    "hier-oktopk",
                    // Up: dense-reduce the raw gradients to the node leader.
                    // Error feedback lives at the leader — one residual and one
                    // re-selection point per node, so selection cost is paid
                    // per node, not per rank.
                    |node| {
                        reduce_to_root_dense_into(node, grad, node_sum);
                        &*node_sum
                    },
                    // Across: the leader steps Ok-Topk over the leader group.
                    // Scaling by nodes/size turns the group's division by
                    // `nodes` into the exact global mean, partial last node
                    // included.
                    |leaders, node_sum| {
                        let eff = scale * leaders.size() as f32 / p;
                        oktopk_step(cost, cfg, sgd, leaders, node_sum, eff)
                    },
                    // Down: broadcast the update's handle so every rank applies
                    // the same delta — the one the leader group assembled. The
                    // tiny meta triple rides free mode — pure instrumentation,
                    // not part of the algorithm.
                    |node, led| {
                        let (sp, update, meta3) =
                            led.map_or((0.0, None, None), |(sp, u, m)| (sp, Some(u), Some(m)));
                        let update = broadcast_shared(node, 0, update);
                        node.set_free_mode(true);
                        let meta3 = broadcast(node, 0, meta3.map(Vec::from));
                        node.set_free_mode(false);
                        (sp, update, [meta3[0], meta3[1], meta3[2]])
                    },
                );
                // Flat Ok-Topk — also the hierarchical variant's degeneration
                // when every rank is its own node leader.
                let (sparsify_time, update, meta3) =
                    hier.unwrap_or_else(|| oktopk_step(cost, cfg, sgd, comm, grad, scale));
                let metrics = ReduceMetrics {
                    sparsify_time,
                    local_nnz: Some(meta3[0] as usize),
                    global_nnz: Some(meta3[1] as usize),
                    balanced: Some(meta3[2] != 0),
                    ..ReduceMetrics::default()
                };
                (Update::Sparse(update), metrics)
            }
        }
    }

    /// Peek the accumulator Ok-Topk SGD would use this step (ξ
    /// instrumentation): `None` where no Ok-Topk state exists — another
    /// family, or a Hier-Ok-Topk rank that has not stepped as a leader.
    pub fn peek_oktopk_accumulator(&self, grad: &[f32], scale: f32) -> Option<Vec<f32>> {
        let State::OkTopk { sgd, .. } = &self.state else { return None };
        sgd.as_ref().map(|s| s.peek_accumulator(grad, scale))
    }

    /// The residual ε of the sparse-baseline schemes (empty for dense and Ok-Topk,
    /// which keeps its own). Exposed for tests.
    pub fn residual(&self) -> &[f32] {
        match &self.state {
            State::Baseline { residual, .. } => residual,
            _ => &[],
        }
    }

    /// L2 norm of the current error-feedback residual, whichever scheme holds
    /// it (Ok-Topk keeps its own; dense schemes and non-leaders have none, so
    /// 0). An observability convenience: the trainer charts this per step to
    /// confirm the residual mass stays bounded (Assumption 1's premise).
    pub fn residual_l2(&self) -> f64 {
        sparse::stats::l2_norm(match &self.state {
            State::OkTopk { sgd: Some(s), .. } => s.residual(),
            _ => self.residual(),
        })
    }
}

impl Selector {
    /// This rank's selection from its accumulator `acc`, the selector's
    /// modeled cost charged to the clock.
    fn select<C: Net>(
        self,
        cost: &CostProfile,
        k: usize,
        acc: &[f32],
        comm: &mut C,
    ) -> (CooGradient, ReduceMetrics) {
        let mut metrics = ReduceMetrics::default();
        let (local, sp) = match self {
            Selector::ExactTopk => (topk_exact(acc, k), cost.topk_exact(acc.len())),
            Selector::GaussianPpf => {
                let mut th = GaussianEstimator::raw_threshold(acc, k);
                let mut count = count_abs_ge(acc, th);
                metrics.gaussian_pred = Some(count);
                // Every probe is one O(n) scan.
                let mut probes = 2; // moment pass + first selection pass
                while count < (3 * k) / 4 && probes < 100 {
                    th *= 0.9;
                    count = count_abs_ge(acc, th);
                    probes += 1;
                }
                (select_ge(acc, th), cost.scan(acc.len(), probes))
            }
        };
        comm.compute(sp);
        metrics.sparsify_time = sp;
        metrics.local_nnz = Some(local.nnz());
        (local, metrics)
    }
}

/// One Ok-Topk SGD step on `comm` — the whole cluster when flat, the leader
/// group when hierarchical, building a leader's state at its first. Returns the
/// modeled selection cost it charged, the update, and `[local_nnz, global_nnz,
/// balanced]` in the form a leader ships to its node.
fn oktopk_step<C: Net>(
    cost: &CostProfile,
    cfg: &OkTopkConfig,
    sgd: &mut Option<Box<OkTopkSgd>>,
    comm: &mut C,
    grad: &[f32],
    scale: f32,
) -> (f64, Arc<CooGradient>, [u32; 3]) {
    let sgd = sgd.get_or_insert_with(|| Box::new(OkTopkSgd::new(cfg.clone())));
    // Threshold re-evaluation iterations pay the exact selection; all others
    // pay one threshold scan (§3.1.3).
    let sp = if sgd.allreduce_state().is_reeval_iteration(sgd.iteration() + 1) {
        // Local exact threshold over n + global exact threshold over the
        // gathered ≈2k reduced values.
        cost.topk_exact(grad.len()) + cost.topk_launch
    } else {
        cost.scan(grad.len(), 1)
    };
    comm.compute(sp);
    let SparseStep { update, meta } = sgd.step(comm, grad, scale);
    (sp, update, [meta.local_nnz as u32, meta.global_nnz as u32, meta.balanced as u32])
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::hier::LEADER_GROUP;
    use oktopk::OkTopk;
    use simnet::{Cluster, CostModel, GroupComm};

    fn grads(p: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p).map(|_| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
    }

    #[test]
    fn dense_returns_exact_average() {
        let (p, n) = (4, 64);
        let gs = grads(p, n, 1);
        let report = Cluster::new(p, CostModel::free()).run(|comm| {
            let mut r = Reducer::new(Scheme::Dense, n, 1.0, CostProfile::paper_calibrated(), 4, 4);
            match r.reduce(comm, &gs[comm.rank()], 0.1).0 {
                Update::Dense(avg) => avg.to_vec(),
                _ => panic!("dense scheme returns a dense update"),
            }
        });
        for (i, got) in report.results[0].iter().enumerate() {
            let want: f32 = gs.iter().map(|g| g[i]).sum::<f32>() / p as f32;
            assert!((got - want).abs() < 1e-5);
        }
    }

    #[test]
    fn baseline_residuals_partition_the_accumulator() {
        // The exact exchanges sum exactly what every rank sends, so each rank's
        // accumulator splits into what it sent (zeroed in ε) and what it kept
        // (verbatim), and gradient mass is conserved across ranks:
        // Σ_r ε_r(after) + P·update = Σ_r (ε_r(before) + scale·g_r), per index.
        // gTopk is excluded: its tree can drop one rank's contribution to an
        // index that survives through other ranks.
        let (n, scale, steps) = (80, 0.1f32, 3);
        for scheme in [Scheme::TopkA, Scheme::TopkDsa, Scheme::GaussianK] {
            for p in [3usize, 4, 8] {
                let gs = grads(p, n, 2 + p as u64);
                let report = Cluster::new(p, CostModel::free()).run(|comm| {
                    let mut r = Reducer::new(scheme, n, 0.1, CostProfile::paper_calibrated(), 4, 4);
                    let g = &gs[comm.rank()];
                    let mut out = Vec::new();
                    for _ in 0..steps {
                        let before = r.residual().to_vec();
                        let acc: Vec<f32> =
                            before.iter().zip(g).map(|(&e, &g)| e + scale * g).collect();
                        let (update, m) = r.reduce(comm, g, scale);
                        let Update::Sparse(update) = update else { panic!("sparse scheme") };
                        let zeroed = r.residual().iter().filter(|&&v| v == 0.0).count();
                        let partitioned = zeroed >= m.local_nnz.expect("sparse scheme")
                            && r.residual().iter().zip(&acc).all(|(&e, &a)| e == 0.0 || e == a);
                        out.push((before, r.residual().to_vec(), update.to_dense(n), partitioned));
                    }
                    out
                });
                for t in 0..steps {
                    let at = format!("{} p={p} step {t}", scheme.name());
                    assert!(report.results.iter().all(|r| r[t].3), "{at}: ε is not acc minus sent");
                    // Per index: Σ_r ε_r(after) + P·update − Σ_r (ε_r(before) + scale·g_r).
                    let mut imbalance: Vec<f64> =
                        report.results[0][t].2.iter().map(|&u| p as f64 * u as f64).collect();
                    for (steps, g) in report.results.iter().zip(&gs) {
                        let (before, after, ..) = &steps[t];
                        for (i, d) in imbalance.iter_mut().enumerate() {
                            *d += after[i] as f64 - before[i] as f64 - scale as f64 * g[i] as f64;
                        }
                    }
                    // f32 rounding of a P-term sum of values under 1 is ~1e-7.
                    for (i, d) in imbalance.iter().enumerate() {
                        assert!(d.abs() < 1e-5, "{at} index {i}: mass off by {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn gtopk_clears_only_globally_selected_residuals() {
        // gTopk discards information in the tree; entries sent but dropped must
        // REMAIN in the residual (intersection semantics).
        let (p, n) = (4, 60);
        let gs = grads(p, n, 3);
        let report = Cluster::new(p, CostModel::free()).run(|comm| {
            let mut r = Reducer::new(Scheme::GTopk, n, 0.2, CostProfile::paper_calibrated(), 4, 4);
            let me = comm.rank();
            let (update, m) = r.reduce(comm, &gs[me], 1.0);
            let global = match update {
                Update::Sparse(u) => u,
                _ => panic!("sparse"),
            };
            // Residual zeros ⊆ global support.
            let support: std::collections::HashSet<u32> =
                global.indexes().iter().copied().collect();
            let mut ok = true;
            for (i, &v) in r.residual().iter().enumerate() {
                if v == 0.0 && gs[me][i] != 0.0 {
                    ok &= support.contains(&(i as u32));
                }
            }
            ok && m.global_nnz.expect("recorded") <= r.k()
        });
        assert!(report.results.iter().all(|&b| b));
    }

    #[test]
    fn gaussian_records_raw_prediction_and_meets_quota() {
        let (p, n) = (2, 500);
        let gs = grads(p, n, 4);
        let report = Cluster::new(p, CostModel::free()).run(|comm| {
            let mut r =
                Reducer::new(Scheme::GaussianK, n, 0.05, CostProfile::paper_calibrated(), 4, 4);
            let (_, m) = r.reduce(comm, &gs[comm.rank()], 0.1);
            (m.gaussian_pred, m.local_nnz, r.k())
        });
        for (pred, local, k) in &report.results {
            assert!(pred.is_some());
            // The §5.4 scaling guarantees at least 3k/4 selected.
            assert!(local.expect("recorded") >= 3 * k / 4);
        }
    }

    /// Run 3 reduce steps of `scheme` with an explicit ranks-per-node and
    /// return every rank's dense-materialized updates.
    fn run_hier_steps(scheme: Scheme, p: usize, rpn: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let gs = grads(p, n, seed);
        let report = Cluster::new(p, CostModel::aries()).run(move |comm| {
            let mut r = Reducer::new(scheme, n, 0.1, CostProfile::paper_calibrated(), 2, 2)
                .with_ranks_per_node(rpn);
            let mut out = Vec::new();
            for t in 0..3 {
                let g: Vec<f32> =
                    gs[comm.rank()].iter().map(|v| v * (1.0 + t as f32 * 0.3)).collect();
                match r.reduce(comm, &g, 0.1).0 {
                    Update::Dense(d) => out.extend_from_slice(&d),
                    Update::Sparse(u) => out.extend(u.to_dense(n)),
                }
            }
            out
        });
        report.results
    }

    #[test]
    fn hier_dense_matches_flat_dense_average() {
        // Same semantics, different summation order: agree to fp tolerance.
        for (p, rpn) in [(8usize, 4usize), (6, 4), (8, 2)] {
            let flat = run_hier_steps(Scheme::Dense, p, 1, 96, 7);
            let hier = run_hier_steps(Scheme::HierDense, p, rpn, 96, 7);
            for (a, b) in flat[0].iter().zip(&hier[0]) {
                assert!((a - b).abs() < 1e-4, "p={p} rpn={rpn}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn hier_schemes_degenerate_bitwise_at_rpn_1() {
        // With one rank per node every rank is a leader and the hierarchical
        // code paths ARE the flat ones — updates must be bit-identical.
        for (hier, flat) in [
            (Scheme::HierDense, Scheme::Dense),
            (Scheme::HierGTopk, Scheme::GTopk),
            (Scheme::HierOkTopk, Scheme::OkTopk),
        ] {
            let a = run_hier_steps(hier, 4, 1, 128, 9);
            let b = run_hier_steps(flat, 4, 1, 128, 9);
            assert_eq!(a, b, "{} vs {}", hier.name(), flat.name());
        }
    }

    #[test]
    fn hier_updates_identical_on_every_rank() {
        // All ranks must apply the same delta, including with a partial last node.
        for (p, rpn) in [(8usize, 4usize), (6, 4), (8, 8)] {
            for scheme in [Scheme::HierDense, Scheme::HierGTopk, Scheme::HierOkTopk] {
                let results = run_hier_steps(scheme, p, rpn, 128, 13);
                for r in &results[1..] {
                    assert_eq!(r, &results[0], "{} p={p} rpn={rpn}", scheme.name());
                }
            }
        }
    }

    #[test]
    fn hier_oktopk_matches_flat_on_identical_gradients() {
        // With every rank holding the same gradient, the node sums scaled by
        // nodes/size reproduce the flat accumulator exactly, so the leader
        // re-selection sees the same values the flat scheme does.
        let (p, rpn, n) = (8, 4, 200);
        let g = grads(1, n, 21).remove(0);
        let run = |scheme: Scheme, rpn: usize| {
            let g = g.clone();
            let report = Cluster::new(p, CostModel::free()).run(move |comm| {
                let mut r = Reducer::new(scheme, n, 0.1, CostProfile::paper_calibrated(), 2, 2)
                    .with_ranks_per_node(rpn);
                match r.reduce(comm, &g, 0.1).0 {
                    Update::Sparse(u) => u.to_dense(n),
                    _ => panic!("sparse"),
                }
            });
            report.results[0].clone()
        };
        let flat = run(Scheme::OkTopk, 1);
        let hier = run(Scheme::HierOkTopk, rpn);
        for (a, b) in flat.iter().zip(&hier) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    /// One Hier-Ok-Topk step as a composition of public parts, the way the arm
    /// was first written: in-place intra-node reduce on a private copy of the
    /// gradient → Algorithm 2 written out over the leader group (ε + scale·g
    /// into a second buffer, `OkTopk::allreduce`, a private clone of `u_t`
    /// scaled by 1/nodes) → intra-node broadcast of a copy to every rank. The
    /// reference the leader-owned `node_sum` arm, which shares one `u_t / P`
    /// per process, is held to.
    fn hier_oktopk_from_parts<C: Net>(
        comm: &mut C,
        (okt, residual): (&mut OkTopk, &mut [f32]),
        t: usize,
        (cost, rpn): (&CostProfile, usize),
        grad: &[f32],
        scale: f32,
    ) -> (CooGradient, ReduceMetrics) {
        let (size, rank, n) = (comm.size(), comm.rank(), grad.len());
        let mut metrics = ReduceMetrics::default();
        comm.set_phase("hier-oktopk");
        let (node, lo, nodes) = (rank / rpn, rank / rpn * rpn, size.div_ceil(rpn));
        let members: Vec<usize> = (lo..(lo + rpn).min(size)).collect();
        let mut node_sum = grad.to_owned();
        {
            let mut g = GroupComm::new(comm, members.clone(), node as u16);
            collectives::reduce_to_root_dense(&mut g, &mut node_sum);
        }
        let leader_out = (rank == lo).then(|| {
            let reeval = okt.is_reeval_iteration(t);
            let sp = if reeval { cost.topk_exact(n) + cost.topk_launch } else { cost.scan(n, 1) };
            comm.compute(sp);
            metrics.sparsify_time = sp;
            let eff = scale * nodes as f32 / size as f32;
            let acc: Vec<f32> =
                residual.iter().zip(&node_sum).map(|(&e, &x)| e + eff * x).collect();
            let mut g = GroupComm::new(comm, (0..size).step_by(rpn).collect(), LEADER_GROUP);
            let out = okt.allreduce(&mut g, &acc, t);
            residual.copy_from_slice(&acc);
            for &i in &out.contributed {
                residual[i as usize] = 0.0;
            }
            let mut update = out.update.as_ref().clone();
            update.scale(1.0 / nodes as f32);
            (update, [out.local_nnz as u32, out.global_nnz as u32, out.balanced as u32])
        });
        comm.set_phase("hier-oktopk");
        let (parts, meta3) = leader_out.map(|(u, m)| (u.into_parts(), m.to_vec())).unzip();
        let mut g = GroupComm::new(comm, members, node as u16);
        let (idx, val) = broadcast(&mut g, 0, parts);
        g.set_free_mode(true);
        let meta3 = broadcast(&mut g, 0, meta3);
        g.set_free_mode(false);
        metrics.local_nnz = Some(meta3[0] as usize);
        metrics.global_nnz = Some(meta3[1] as usize);
        metrics.balanced = Some(meta3[2] != 0);
        (CooGradient::from_sorted(idx, val), metrics)
    }

    #[test]
    fn hier_oktopk_matches_composition_from_parts() {
        // Leader-owned node sums and a shared update are host-side changes
        // only: on a two-tier topology under chaos, full and partial last
        // node, the arm must emit the composition's updates, metrics, leader
        // residuals and clocks bit for bit across re-evaluation and reuse
        // steps alike — and every rank's update must be the same allocation.
        use simnet::{ChaosPlan, Topology};
        let (n, density, tau, tau_prime) = (600, 0.05, 3, 2);
        let cost = CostProfile::paper_calibrated();
        for (p, rpn) in [(8usize, 4usize), (6, 4)] {
            let run = |from_parts: bool| {
                let gs = grads(p, n, 41);
                let topo =
                    Topology::two_tier(rpn, (1e-6, 1e-9), (25e-6, 4e-9)).with_oversubscription(4.0);
                let plan = ChaosPlan::new(29)
                    .straggler(rpn, 1.5)
                    .degrade_all_links(1.2, 1.5, 0.0, 1e-3)
                    .jitter(2e-6)
                    .pause(1, 1e-4, 5e-4);
                Cluster::new(p, cost.network()).with_topology(topo).with_chaos(plan).run(
                    move |comm| {
                        let mut r =
                            Reducer::new(Scheme::HierOkTopk, n, density, cost, tau, tau_prime)
                                .with_ranks_per_node(rpn);
                        let mut okt = OkTopk::new(
                            OkTopkConfig::new(n, r.k())
                                .with_periods(tau, tau_prime)
                                .with_merge_cost(cost.merge_per_elem),
                        );
                        let mut residual = vec![0.0f32; n];
                        let (mut out, mut handles) = (Vec::new(), Vec::new());
                        for t in 0..3 * tau_prime {
                            let g: Vec<f32> = gs[comm.rank()]
                                .iter()
                                .enumerate()
                                .map(|(i, v)| v * (1.0 + ((i + t) % 7) as f32 * 0.3))
                                .collect();
                            let ((idx, bits), m, residual_l2) = if from_parts {
                                let state = (&mut okt, residual.as_mut_slice());
                                let (u, m) = hier_oktopk_from_parts(
                                    comm,
                                    state,
                                    t + 1,
                                    (&cost, rpn),
                                    &g,
                                    0.1,
                                );
                                (coo_bits(&u), m, sparse::stats::l2_norm(&residual))
                            } else {
                                let (Update::Sparse(u), m) = r.reduce(comm, &g, 0.1) else {
                                    panic!("sparse")
                                };
                                let got = coo_bits(&u);
                                handles.push(u);
                                (got, m, r.residual_l2())
                            };
                            out.push((idx, bits, format!("{m:?}"), residual_l2));
                        }
                        (out, handles)
                    },
                )
            };
            let (arm, parts) = (run(false), run(true));
            let rows = |report: &simnet::SimReport<(Vec<_>, Vec<_>)>| {
                report.results.iter().map(|(rows, _)| rows.clone()).collect::<Vec<_>>()
            };
            assert_eq!(rows(&arm), rows(&parts), "p={p} rpn={rpn}: updates, metrics or residuals");
            assert_eq!(arm.times, parts.times, "p={p} rpn={rpn}: clocks");
            assert!(arm.results[0].0.iter().all(|(idx, ..)| !idx.is_empty()), "empty updates");
            let first = &arm.results[0].1;
            for (rank, (_, handles)) in arm.results.iter().enumerate() {
                for (t, (u, u0)) in handles.iter().zip(first).enumerate() {
                    assert!(Arc::ptr_eq(u, u0), "p={p} rpn={rpn} step {t}: rank {rank}'s own copy");
                }
            }
        }
    }

    fn coo_bits(u: &CooGradient) -> (Vec<u32>, Vec<u32>) {
        (u.indexes().to_vec(), u.values().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn sparsify_time_ordering_matches_paper() {
        // Exact-selection schemes pay more than Gaussiank, which pays more than a
        // steady-state Ok-Topk scan.
        let (p, n) = (2, 4096);
        let gs = grads(p, n, 6);
        let time_of = |scheme: Scheme, iters: usize| -> f64 {
            let gs = gs.clone();
            let report = Cluster::new(p, CostModel::free()).run(move |comm| {
                let mut r = Reducer::new(scheme, n, 0.02, CostProfile::paper_calibrated(), 64, 64);
                let mut last = 0.0;
                for _ in 0..iters {
                    let (_, m) = r.reduce(comm, &gs[comm.rank()], 0.1);
                    last = m.sparsify_time;
                }
                last
            });
            report.results[0]
        };
        let topka = time_of(Scheme::TopkA, 1);
        let gauss = time_of(Scheme::GaussianK, 1);
        let okt_steady = time_of(Scheme::OkTopk, 2); // iteration 2: reused threshold
        assert!(topka > gauss, "topka {topka} vs gauss {gauss}");
        assert!(gauss > okt_steady, "gauss {gauss} vs okt {okt_steady}");
    }
}
