//! One interface over the gradient-exchange schemes of the evaluation: the
//! paper's seven plus their two-tier hierarchical variants. `Scheme::family`
//! is the one table from a scheme's name to what runs, [`Reducer`] that
//! family's state. Every sparse row, Ok-Topk's included, is a selector and an
//! exchange on `oktopk`'s one error-feedback pipeline.

use crate::cost::CostProfile;
use collectives::{
    allreduce_shared, broadcast, broadcast_shared, dsa_allreduce, hier_dense_shared,
    hier_gtopk_allreduce, reduce_to_root_dense_into, topk_allgather_allreduce_with, two_tier,
};
use oktopk::oktopk::intersect_sorted;
use oktopk::{ErrorFeedback, OkTopk, OkTopkConfig, SparseRow};
use simnet::{Net, WireSize};
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
    /// The error-feedback pipeline with this selector and exchange.
    Sparse(Selector, Exchange),
}

/// Where a row keeps its state when a node holds more than one rank.
#[derive(Clone, Copy, PartialEq)]
enum Tier {
    /// One rank to a node, whatever the cluster has.
    Flat,
    /// Every rank keeps its own ε; the exchange regroups over the two tiers.
    Regrouped,
    /// Only the node leader keeps state, over its node's gradient sum, and runs
    /// the row on the leader group; traffic is ledgered under this phase.
    Leader(&'static str),
}

/// How a sparse row picks its selection from the accumulator.
#[derive(Clone, Copy)]
enum Selector {
    /// Exact top-k selection (torch.topk-style cost).
    ExactTopk,
    /// Gaussian-PPF threshold + the §5.4 scale-until-3k/4 adjustment.
    GaussianPpf,
    /// Ok-Topk's local threshold: exact every τ′ steps, reused in between (§3.1.3).
    ThresholdReuse,
}

/// How a sparse row's local selections become the global sum.
#[derive(Clone, Copy)]
enum Exchange {
    /// Allgather and sum (TopkA, Gaussiank).
    Allgather,
    /// SparCML's sparse reduce-scatter + allgatherv.
    Dsa,
    /// gTopk's re-selecting reduction tree, regrouped over the two tiers when
    /// a node has more than one rank.
    GTopk,
    /// Algorithm 1: split and reduce, then balance and allgatherv.
    OkTopk,
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

    /// The scheme → exchange table: the family a name belongs to and the tier
    /// its state lives on. A new sparse exchange is one [`Exchange`] variant
    /// and one row here, two with its two-tier variant.
    fn family(self) -> (Family, Tier) {
        use {Exchange::*, Selector::*, Tier::*};
        match self {
            Scheme::Dense | Scheme::DenseOvlp => (Family::Dense, Flat),
            Scheme::HierDense => (Family::Dense, Leader("hier-dense")),
            Scheme::TopkA => (Family::Sparse(ExactTopk, Allgather), Flat),
            Scheme::GaussianK => (Family::Sparse(GaussianPpf, Allgather), Flat),
            Scheme::TopkDsa => (Family::Sparse(ExactTopk, Dsa), Flat),
            Scheme::GTopk => (Family::Sparse(ExactTopk, GTopk), Flat),
            Scheme::HierGTopk => (Family::Sparse(ExactTopk, GTopk), Regrouped),
            Scheme::OkTopk => (Family::Sparse(ThresholdReuse, OkTopk), Flat),
            Scheme::HierOkTopk => (Family::Sparse(ThresholdReuse, OkTopk), Leader("hier-oktopk")),
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
    /// The Ok-Topk and allgather rows' is one allocation per process, like the
    /// dense one; TopkDSA's and gTopk's is the rank's own.
    Sparse(Arc<CooGradient>),
}

/// Instrumentation of one reduce call. A node leader hands it to its node in
/// free mode, so its wire size is never charged.
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

impl WireSize for ReduceMetrics {
    fn wire_elems(&self) -> u64 {
        6
    }
}

/// The persistent state of one scheme family on one rank.
enum State {
    /// Hier-Dense's intra-node gradient sum: n-sized on a node leader after
    /// its first step, empty for good on every other rank and flat scheme.
    Dense { node_sum: Vec<f32> },
    /// A sparse row's pipeline. Its ε exists where the row's tier keeps it: on
    /// every rank, or — built at its first step — on a node leader, which also
    /// owns the `node_sum` it steps on; off the leader nothing n-sized is built.
    Sparse { feedback: Box<ErrorFeedback<Row>>, node_sum: Vec<f32> },
}

/// Per-rank, scheme-specific persistent state (residuals, thresholds, …).
pub struct Reducer {
    n: usize,
    k: usize,
    state: State,
    tier: Tier,
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
        let (family, tier) = scheme.family();
        let state = match family {
            Family::Dense => State::Dense { node_sum: Vec::new() },
            Family::Sparse(selector, exchange) => {
                let cfg = OkTopkConfig::new(n, k).with_periods(tau, tau_prime);
                let okt = OkTopk::new(cfg.with_merge_cost(cost.merge_per_elem));
                let metrics = ReduceMetrics::default();
                let row = Row { selector, exchange, cost, n, k, regroup: 1, okt, metrics };
                // A leader builds ε at its first step, where it learns it leads.
                let eps = if let Tier::Leader(_) = tier { 0 } else { n };
                let feedback = Box::new(ErrorFeedback::with_row(row, eps));
                State::Sparse { feedback, node_sum: Vec::new() }
            }
        };
        Self { n, k, state, tier, rpn: 1 }
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
            overlap_budget == 0.0 || matches!(self.state, State::Dense { .. }),
            "overlap budgets only apply to the dense schemes"
        );
        let p = comm.size() as f32;
        // At one rank to a node every two-tier row below is its flat one.
        let rpn = if self.tier == Tier::Flat { 1 } else { self.rpn };

        match &mut self.state {
            State::Dense { node_sum } => {
                // Each rank averages the one region it reduced; the n-word
                // result is assembled once and shared by every rank.
                let average = |sum: &mut [f32]| sum.iter_mut().for_each(|v| *v /= p);
                let avg = if let Tier::Leader(phase) = self.tier {
                    comm.set_phase(phase);
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
            State::Sparse { feedback, node_sum } => {
                feedback.row.regroup = if self.tier == Tier::Regrouped { rpn } else { 1 };
                let (update, _, metrics) = match self.tier {
                    Tier::Leader(phase) => two_tier(
                        comm,
                        rpn,
                        phase,
                        // Up: dense-reduce the raw gradients to the node leader,
                        // where ε and the selection live: one selection per node.
                        |node| {
                            reduce_to_root_dense_into(node, grad, node_sum);
                            &*node_sum
                        },
                        // Across: the leader steps the pipeline. Scaling by
                        // nodes/size turns the leader group's division by
                        // `nodes` into the exact global mean, partial last node
                        // included.
                        |leaders, node_sum| {
                            feedback.step(leaders, node_sum, scale * leaders.size() as f32 / p)
                        },
                        // Down: every rank gets the handle of the update the
                        // leader group assembled, and the leader's metrics in
                        // free mode (instrumentation) but not its selection cost.
                        |node, led| {
                            let (update, mine) = led.map(|(u, _, m)| (u, m)).unzip();
                            let update = broadcast_shared(node, 0, update);
                            node.set_free_mode(true);
                            let shared = mine.map(|m| ReduceMetrics { sparsify_time: 0.0, ..m });
                            let metrics = broadcast(node, 0, shared);
                            node.set_free_mode(false);
                            (update, Vec::new(), mine.unwrap_or(metrics))
                        },
                    ),
                    _ => None,
                }
                // Flat, or a leader row with every rank its own node leader.
                .unwrap_or_else(|| feedback.step(comm, grad, scale));
                (Update::Sparse(update), metrics)
            }
        }
    }

    /// The residual ε of a sparse row: empty for the dense schemes and on a
    /// rank that keeps none (off a node leader).
    pub fn residual(&self) -> &[f32] {
        let State::Sparse { feedback, .. } = &self.state else { return &[] };
        feedback.residual()
    }

    /// L2 norm of [`Reducer::residual`]: the trainer charts it per step to
    /// confirm the residual mass stays bounded (Assumption 1's premise).
    pub fn residual_l2(&self) -> f64 {
        sparse::stats::l2_norm(self.residual())
    }
}

/// A sparse row's selector and exchange, with Ok-Topk's state (thresholds,
/// boundaries, selection pool; idle in other rows) and the step's metrics.
struct Row {
    selector: Selector,
    exchange: Exchange,
    cost: CostProfile,
    n: usize,
    k: usize,
    /// Ranks per node the exchange regroups over (1: flat).
    regroup: usize,
    okt: OkTopk,
    metrics: ReduceMetrics,
}

impl SparseRow for Row {
    type Out = (Arc<CooGradient>, Vec<u32>, ReduceMetrics);

    /// The selector's pick, its modeled cost charged before anything is sent.
    fn accumulate_select<C: Net>(
        &mut self,
        comm: &mut C,
        acc: &mut [f32],
        grad: &[f32],
        scale: f32,
        t: usize,
    ) -> CooGradient {
        let (n, k, cost) = (self.n, self.k, &self.cost);
        let mut gaussian_pred = None;
        let (local, sp) = match self.selector {
            // A re-evaluation pays the local exact selection over n and the
            // global one over the gathered ≈2k; a reuse one scan (§3.1.3).
            Selector::ThresholdReuse => {
                let exact = cost.topk_exact(n) + cost.topk_launch;
                let sp = if self.okt.is_reeval_iteration(t) { exact } else { cost.scan(n, 1) };
                (self.okt.accumulate_select(comm, acc, grad, scale, t), sp)
            }
            Selector::ExactTopk => {
                axpy(acc, grad, scale);
                (topk_exact(acc, k), cost.topk_exact(n))
            }
            Selector::GaussianPpf => {
                axpy(acc, grad, scale);
                let mut th = GaussianEstimator::raw_threshold(acc, k);
                let mut count = count_abs_ge(acc, th);
                gaussian_pred = Some(count);
                // Every probe is one O(n) scan.
                let mut probes = 2; // moment pass + first selection pass
                while count < (3 * k) / 4 && probes < 100 {
                    th *= 0.9;
                    count = count_abs_ge(acc, th);
                    probes += 1;
                }
                (select_ge(acc, th), cost.scan(n, probes))
            }
        };
        comm.compute(sp);
        self.metrics = ReduceMetrics { sparsify_time: sp, gaussian_pred, ..Default::default() };
        local
    }

    /// The sum, the indexes of `local` that leave ε, and the step's metrics.
    fn exchange<C: Net>(
        &mut self,
        comm: &mut C,
        local: CooGradient,
        t: usize,
        finish: impl FnOnce(&mut CooGradient),
    ) -> Self::Out {
        let mut metrics = std::mem::take(&mut self.metrics);
        metrics.local_nnz = Some(local.nnz());
        let (leave, sum) = match self.exchange {
            // The exact exchanges sum everything sent: all of it leaves ε.
            Exchange::Allgather => {
                (local.indexes().to_vec(), topk_allgather_allreduce_with(comm, local, finish))
            }
            Exchange::Dsa => {
                let sent = local.indexes().to_vec();
                let mut out = dsa_allreduce(comm, local, self.n);
                metrics.dsa_density = Some(out.stats.output_density);
                finish(&mut out.sum);
                (sent, Arc::new(out.sum))
            }
            Exchange::GTopk => {
                let sent = local.indexes().to_vec();
                let mut sum = hier_gtopk_allreduce(comm, local, self.k, self.regroup);
                // Each tree level re-selects the top-k of a 2k-entry merge, which
                // the paper attributes to communication time, and drops what a
                // rank sent: only what survived leaves ε. Regrouped over the two
                // tiers, the tree keeps its depth.
                let levels = usize::BITS - (comm.size().max(2) - 1).leading_zeros();
                comm.compute(self.cost.topk_exact(2 * self.k) * levels as f64);
                let kept = intersect_sorted(&sent, sum.indexes());
                finish(&mut sum);
                (kept, Arc::new(sum))
            }
            Exchange::OkTopk => {
                let out = self.okt.exchange(comm, local, t, finish);
                metrics.balanced = Some(out.meta.balanced);
                (out.meta.contributed, out.update)
            }
        };
        metrics.global_nnz = Some(sum.nnz());
        (sum, leave, metrics)
    }

    fn leaves(out: &Self::Out) -> &[u32] {
        &out.1
    }
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
        // Ok-Topk sums, at every index of the global top-k, what every rank
        // selected there, and only there clears ε: the same identity, with a
        // selection that may keep some of what it picked. gTopk is excluded:
        // its tree can drop one rank's contribution to an index that survives
        // through other ranks (`gtopk_leaks_only_where_its_tree_drops_a_rank`).
        let (n, scale, steps) = (80, 0.1f32, 3);
        for scheme in [Scheme::TopkA, Scheme::TopkDsa, Scheme::GaussianK, Scheme::OkTopk] {
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
                        let exact = scheme != Scheme::OkTopk;
                        let partitioned = (!exact || zeroed >= m.local_nnz.expect("sparse scheme"))
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

    /// Three reduces of `scheme` at `p` ranks, `rpn` to a node, n = 400,
    /// density 10 %. Per step, over the h ranks that keep ε (every rank, or
    /// the node leaders), each over its input (its gradient, or its node's
    /// sum) at the scale `scale·h/P` the row steps with: the largest per-index
    /// |Σ ε′ + h·update − Σ (ε + scale·h/P·input)|, that imbalance's ℓ1 norm,
    /// and the ℓ1 mass that left ε.
    fn mass_balance(scheme: Scheme, p: usize, rpn: usize) -> Vec<(f64, f64, f64)> {
        let (n, scale, steps) = (400, 0.1f32, 3);
        let gs = grads(p, n, 90 + p as u64);
        let report = Cluster::new(p, CostModel::free()).run(|comm| {
            let mut r = Reducer::new(scheme, n, 0.1, CostProfile::paper_calibrated(), 4, 4)
                .with_ranks_per_node(rpn);
            let mut out = Vec::new();
            for t in 0..steps {
                let g: Vec<f32> = gs[comm.rank()].iter().map(|v| v * (1.0 + t as f32)).collect();
                let before = r.residual().to_vec();
                let (Update::Sparse(u), _) = r.reduce(comm, &g, scale) else { panic!("sparse") };
                out.push((before, r.residual().to_vec(), u.to_dense(n)));
            }
            out
        });
        let holders = report.results.iter().filter(|s| !s[0].1.is_empty()).count();
        let span = if holders == p { 1 } else { rpn };
        let eff = scale as f64 * holders as f64 / p as f64;
        (0..steps)
            .map(|t| {
                let mut imbalance: Vec<f64> =
                    report.results[0][t].2.iter().map(|&u| holders as f64 * u as f64).collect();
                let mut cleared = 0.0;
                for (r, steps) in report.results.iter().enumerate().step_by(span) {
                    let (before, after, _) = &steps[t];
                    for (i, d) in imbalance.iter_mut().enumerate() {
                        let input: f64 = (r..(r + span).min(p))
                            .map(|q| gs[q][i] as f64 * (1.0 + t as f64))
                            .sum();
                        let acc = before.get(i).map_or(0.0, |&e| e as f64) + eff * input;
                        *d += after[i] as f64 - acc;
                        cleared += (acc - after[i] as f64).abs();
                    }
                }
                let max = imbalance.iter().fold(0.0f64, |m, d| m.max(d.abs()));
                (max, imbalance.iter().map(|d| d.abs()).sum(), cleared)
            })
            .collect()
    }

    #[test]
    fn hier_oktopk_leaders_conserve_mass() {
        // ε and the selection live at the node leaders, each over its node's
        // gradient sum scaled by nodes/P: per index, Σ_leaders ε′ +
        // nodes·update = Σ_leaders (ε + scale·nodes/P·node_sum), with a full
        // and a partial last node.
        for (p, rpn) in [(8usize, 4usize), (6, 4)] {
            for (t, (max, ..)) in mass_balance(Scheme::HierOkTopk, p, rpn).iter().enumerate() {
                assert!(*max < 1e-5, "p={p} rpn={rpn} step {t}: mass off by {max}");
            }
        }
    }

    #[test]
    fn gtopk_leaks_only_where_its_tree_drops_a_rank() {
        // A gTopk rank clears from ε what it sent that is in the final support,
        // but a tree level can drop its contribution to an index that survives
        // through other ranks: that mass leaves ε and reaches no update. At
        // P = 2 the one merge keeps or drops an index for both ranks, so mass
        // is conserved; beyond, the leak is a bounded share of what left ε
        // (EXPERIMENTS.md § "One error-feedback pipeline").
        for scheme in [Scheme::GTopk, Scheme::HierGTopk] {
            for (t, (max, ..)) in mass_balance(scheme, 2, 4).iter().enumerate() {
                assert!(*max < 1e-5, "{} p=2 step {t}: mass off by {max}", scheme.name());
            }
            for p in [4usize, 8, 16] {
                let (leak, cleared) = mass_balance(scheme, p, 4)
                    .iter()
                    .fold((0.0, 0.0), |(l, c), &(_, leak, cleared)| (l + leak, c + cleared));
                eprintln!("{} p={p}: leaked / cleared = {:.4}", scheme.name(), leak / cleared);
                assert!(leak > 0.0 && leak < 0.5 * cleared, "{} p={p}", scheme.name());
            }
        }
    }

    #[test]
    fn allgather_rows_assemble_one_sum_per_process() {
        // TopkA and Gaussiank merge the gathered selections and apply 1/P once
        // per process. Against the per-rank merge they replace — the same
        // selection, then `allgather_items`, `merge_sum_many` and `scale(1/P)`
        // on every rank — updates and residuals are bit-identical, and so are
        // clocks and ledger cells; every rank's update is one allocation.
        let (n, density, scale) = (300, 0.05, 0.1f32);
        let cost = CostProfile::paper_calibrated();
        for scheme in [Scheme::TopkA, Scheme::GaussianK] {
            for p in [3usize, 4, 8] {
                let gs = grads(p, n, 70 + p as u64);
                let run = |per_rank: bool| {
                    Cluster::new(p, cost.network()).run(|comm| {
                        let mut r = Reducer::new(scheme, n, density, cost, 4, 4);
                        let State::Sparse { feedback, .. } =
                            Reducer::new(scheme, n, density, cost, 4, 4).state
                        else {
                            panic!("sparse scheme")
                        };
                        let (mut row, mut residual) = (feedback.row, vec![0.0f32; n]);
                        let mut out = Vec::new();
                        for t in 1..=3 {
                            let g: Vec<f32> =
                                gs[comm.rank()].iter().map(|v| v * t as f32).collect();
                            let update = if per_rank {
                                let local =
                                    row.accumulate_select(comm, &mut residual, &g, scale, t);
                                comm.set_phase("topk_a");
                                let all = collectives::allgather_items(comm, local.clone());
                                let mut sum = CooGradient::merge_sum_many(&all);
                                sum.scale(1.0 / p as f32);
                                for &i in local.indexes() {
                                    residual[i as usize] = 0.0;
                                }
                                Arc::new(sum)
                            } else {
                                let Update::Sparse(u) = r.reduce(comm, &g, scale).0 else {
                                    panic!("sparse scheme")
                                };
                                residual.copy_from_slice(r.residual());
                                u
                            };
                            let eps: Vec<u32> = residual.iter().map(|v| v.to_bits()).collect();
                            out.push((coo_bits(&update), eps, update));
                        }
                        out
                    })
                };
                let (assembled, per_rank) = (run(false), run(true));
                let at = format!("{} p={p}", scheme.name());
                type Rows = Vec<((Vec<u32>, Vec<u32>), Vec<u32>, Arc<CooGradient>)>;
                let bits = |report: &simnet::SimReport<Rows>| {
                    let rows = report.results.iter().flatten();
                    rows.map(|(u, eps, _)| (u.clone(), eps.clone())).collect::<Vec<_>>()
                };
                assert_eq!(bits(&assembled), bits(&per_rank), "{at}: updates or residuals");
                assert_eq!(assembled.times, per_rank.times, "{at}: clocks");
                for rank in 0..p {
                    let cell = |r: &simnet::SimReport<_>| r.ledger.cell(rank, "topk_a");
                    assert_eq!(cell(&assembled), cell(&per_rank), "{at}: rank {rank}'s ledger");
                    for (t, (_, _, u)) in assembled.results[rank].iter().enumerate() {
                        let first = &assembled.results[0][t].2;
                        assert!(Arc::ptr_eq(u, first), "{at} step {t}: rank {rank}'s own sum");
                    }
                }
            }
        }
    }

    #[test]
    fn gaussian_scaling_recovers_three_quarters_on_heavy_tails() {
        // A sharply peaked gradient (most mass near zero, 1 % large values):
        // the raw PPF threshold under-selects, and the §5.4 adjustment scales
        // it down until at least 3k/4 values survive.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        let g: Vec<f32> = (0..20_000)
            .map(|i| {
                if i % 100 == 0 {
                    rng.gen_range(-3.0f32..3.0)
                } else {
                    rng.gen_range(-0.01..0.01)
                }
            })
            .collect();
        let report = Cluster::new(1, CostModel::free()).run(|comm| {
            let mut r = Reducer::new(
                Scheme::GaussianK,
                g.len(),
                0.1,
                CostProfile::paper_calibrated(),
                4,
                4,
            );
            (r.reduce(comm, &g, 1.0).1, r.k())
        });
        let (m, k) = report.results[0];
        assert!(m.gaussian_pred.expect("recorded") < k / 2, "the raw threshold under-selects");
        assert!(m.local_nnz.expect("recorded") >= 3 * k / 4);
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
