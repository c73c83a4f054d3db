//! Cluster runner: executes one closure per rank on the discrete-event engine
//! and collects results, clocks and traffic.

use crate::chaos::{ChaosPlan, ChaosView};
use crate::comm::{Comm, PoolBudget, SimMetrics, POOL_BUDGET_DEFAULT_BYTES};
use crate::cost::CostModel;
use crate::engine::{Cascade, Engine, EngineMetrics, EventCore, SchedMode};
use crate::fiber::Fiber;
use crate::ledger::{Ledger, LedgerSnapshot};
use crate::topo::Topology;
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A simulated cluster of `size` ranks governed by one [`CostModel`].
///
/// `Cluster` is cheap to construct; each [`run`](Self::run) makes fresh rank fibers,
/// a fresh traffic ledger and fresh clocks, so runs are independent and deterministic.
pub struct Cluster {
    size: usize,
    cost: CostModel,
    /// Stack size for rank fibers. Training loops keep their state on the heap, but a
    /// little headroom avoids surprises with deep call chains in debug builds.
    stack_bytes: usize,
    /// Fault/perturbation schedule applied to every run; `None` is the clean model.
    chaos: Option<ChaosPlan>,
    /// Run-token count, and worker threads (at most one per rank).
    workers: usize,
    /// Idle-pool byte budget.
    pool_budget_bytes: usize,
    /// Whether runs record metrics.
    obs: bool,
    /// Two-tier topology consulted at every link-charging point and by the
    /// hierarchical collectives; `None` (the default) is a flat network.
    topo: Option<Arc<Topology>>,
}

/// Everything a simulation run produces.
pub struct SimReport<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank final virtual times (including pending NIC injection), seconds.
    pub times: Vec<f64>,
    /// Traffic accounting for the whole run.
    pub ledger: LedgerSnapshot,
    /// Metrics recorded during the run (empty when observability is disabled).
    /// Virtual-class entries are bit-identical at every worker count.
    pub metrics: obs::MetricsSnapshot,
}

impl<T> SimReport<T> {
    /// The modeled makespan: the time the slowest rank finished.
    pub fn makespan(&self) -> f64 {
        self.times.iter().copied().fold(0.0, f64::max)
    }
}

impl Cluster {
    /// A cluster of `size` ranks under the given cost model.
    pub fn new(size: usize, cost: CostModel) -> Self {
        assert!(size >= 1, "cluster needs at least one rank");
        Self {
            size,
            cost,
            stack_bytes: 8 << 20,
            chaos: None,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_budget_bytes: POOL_BUDGET_DEFAULT_BYTES,
            obs: true,
            topo: None,
        }
    }

    /// Install a [`Topology`]: ranks are grouped onto nodes and every message
    /// is charged the α/β of its tier (intra- vs inter-node, oversubscription
    /// folded into the inter-node β) instead of the flat cost model. The
    /// effective β still rides each envelope, so sender and receiver charge
    /// identically and chaos per-link degradation composes multiplicatively on
    /// top, exactly as it does on a flat network. A topology whose two tiers
    /// equal the cost model is timing-neutral: it only affects grouping and
    /// the `net.intra_bytes` / `net.inter_bytes` tier accounting.
    pub fn with_topology(mut self, topo: Topology) -> Self {
        self.topo = Some(Arc::new(topo));
        self
    }

    /// Install a [`ChaosPlan`]: every subsequent [`run`](Self::run) charges
    /// virtual time through the plan's perturbations (stragglers, link
    /// degradation, jitter, pauses). The plan is compiled once per run and
    /// shared read-only by all ranks, so runs stay deterministic — same plan,
    /// same seed ⇒ bit-identical results and virtual-time trajectories, at
    /// any worker count.
    ///
    /// # Panics
    /// [`run`](Self::run) panics if the plan names a rank `>= size`.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Bound the number of concurrently-running ranks: `workers` run tokens,
    /// and as many worker OS threads (at most one per rank) resuming the rank
    /// fibers that hold one (default: available parallelism). Results never
    /// depend on this value: W = 1 runs one rank at a time in a deterministic
    /// grant order, W ≥ P gives every rank a worker and lets the kernel
    /// interleave them.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Set the per-rank fiber stack size (default 8 MiB), not counting the
    /// guard page below each stack; overrunning it dies by SIGSEGV. Stacks are
    /// mapped lazily, so only touched pages cost memory, but large-P sweeps
    /// shrink this anyway: 2048 ranks × 8 MiB reserves 16 GiB of address space
    /// for stacks that mostly sit parked.
    pub fn with_stack_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes >= 64 << 10, "rank stacks below 64 KiB are not survivable");
        self.stack_bytes = bytes;
        self
    }

    /// Cap the total bytes retained *idle* across all ranks' recycled-buffer
    /// free-lists (default 64 MiB). Memory in flight is never charged; the cap
    /// only stops P=2048 runs from hoarding O(P · bucket) idle buffers.
    pub fn with_pool_budget(mut self, bytes: usize) -> Self {
        self.pool_budget_bytes = bytes;
        self
    }

    /// Turn metrics recording on or off for this cluster's runs (default on).
    /// Off records nothing and leaves [`SimReport::metrics`] empty; overhead
    /// benchmarks compare `true` vs `false` in one process.
    pub fn with_obs(mut self, on: bool) -> Self {
        self.obs = on;
        self
    }

    /// No-op: the event engine has one dispatch path. Kept only because
    /// `benchmark/src/runner.rs:45` (frozen outside this crate) calls it; goes
    /// with [`SchedMode`] when a benchmark PR drops that call.
    pub fn with_sched(self, _mode: SchedMode) -> Self {
        self
    }

    /// No-op: there is one engine. Kept only because
    /// `benchmark/src/runner.rs:44` (frozen outside this crate) calls it; goes
    /// with [`Engine`] when a benchmark PR drops that call.
    pub fn with_engine(self, _engine: Engine) -> Self {
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cost model in effect.
    pub fn cost(&self) -> CostModel {
        self.cost
    }

    /// Run `f` on every rank concurrently and gather results.
    ///
    /// `f` receives a mutable [`Comm`]; its return value, the rank's final virtual
    /// time and its ledger cells are collected into a [`SimReport`] as it exits.
    ///
    /// Each rank runs `f` on a fiber of its own, resumed by whichever of the W
    /// worker threads picks it up, so a rank moves between threads at every
    /// blocking `Comm` call: a thread-local is per worker, not per rank
    /// ([`crate::current_rank`] names the running rank), and `f` must not hold
    /// a lock guard or thread-local borrow across a blocking call.
    ///
    /// # Panics
    /// Propagates the *originating* rank's panic — naming the rank on stderr,
    /// since the panic message names the worker thread — after every rank's
    /// fiber has unwound; ranks aborted as casualties of another rank's fault
    /// unwind quietly and are never the reported failure. An exact deadlock
    /// panics with the full blocked-rank report.
    pub fn run<T, F>(&self, f: F) -> SimReport<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        let ledger = Arc::new(Ledger::default());
        let compiled = self.chaos.as_ref().map(|plan| Arc::new(plan.compile(self.size)));
        let budget = Arc::new(PoolBudget::new(self.pool_budget_bytes));
        let registry = Arc::new(obs::Registry::with_ranks(self.size, self.obs));
        let metrics = SimMetrics::new(&registry);
        // One fiber per rank, run tokens granted in virtual-time order by the
        // shared core, exact deadlock detection; see [`crate::engine`] for the
        // design.
        let core =
            Arc::new(EventCore::new(self.size, self.workers, Some(EngineMetrics::new(&registry))));
        // Each rank's result or panic payload, written as its fiber exits.
        let outcomes: Vec<Mutex<Option<_>>> = (0..self.size).map(|_| Mutex::new(None)).collect();
        let fibers: Vec<Fiber<'_>> = (0..self.size)
            .map(|rank| {
                let (core, outcome, f) = (&core, &outcomes[rank], &f);
                let ledger = Arc::clone(&ledger);
                let budget = Arc::clone(&budget);
                let metrics = metrics.clone();
                let view = compiled.as_ref().map(|c| ChaosView::new(Arc::clone(c), rank));
                let topo = self.topo.clone();
                Fiber::new(self.stack_bytes, move || {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        core.check_fault();
                        let mut comm = Comm::new(
                            rank,
                            self.size,
                            self.cost,
                            ledger,
                            Arc::clone(core),
                            budget,
                            view,
                            metrics,
                            topo,
                        );
                        let r = f(&mut comm);
                        (r, comm.exit())
                    }));
                    match result {
                        Ok(_) => core.finish(rank),
                        Err(_) => core.rank_panicked(rank),
                    }
                    *outcome.lock() = Some(result);
                })
            })
            .collect();
        core.kickoff();
        std::thread::scope(|scope| {
            for worker in 0..core.worker_threads() {
                let (core, fibers) = (&core, &fibers);
                std::thread::Builder::new()
                    .name(format!("simnet-worker-{worker}"))
                    .spawn_scoped(scope, move || core.work(fibers))
                    .expect("failed to spawn a simnet worker thread");
            }
        });
        // Every fiber has exited (and unmapped its stack); dropping them ends
        // their borrows of `outcomes`.
        drop(fibers);
        let mut results = Vec::with_capacity(self.size);
        let mut times = Vec::with_capacity(self.size);
        let mut cells = Vec::with_capacity(self.size);
        let mut panics = Vec::new();
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            match outcome.into_inner().expect("every fiber ran to completion") {
                Ok((r, (t, c))) => {
                    results.push(r);
                    times.push(t);
                    cells.push(c);
                }
                Err(payload) => panics.push((rank, payload)),
            }
        }
        if !panics.is_empty() {
            resolve_panics(panics, core.fault_message());
        }
        let ledger = ledger.snapshot(cells);
        SimReport { results, times, ledger, metrics: registry.snapshot() }
    }
}

/// Report a failed run: re-raise the first *originating* panic (in rank
/// order), unchanged, never a quiet [`Cascade`] casualty. The panic hook
/// named the worker thread that ran the rank, so the rank is named on stderr
/// first. If every payload is a cascade — the engine detected a deadlock and
/// no rank panicked on its own — panic with the core's fault report instead.
fn resolve_panics(panics: Vec<(usize, Box<dyn Any + Send>)>, fault: Option<String>) -> ! {
    let mut cascades = Vec::new();
    for (rank, payload) in panics {
        if payload.is::<Cascade>() {
            cascades.push(payload);
        } else {
            eprintln!("simnet: the run failed because rank {rank} panicked");
            std::panic::resume_unwind(payload);
        }
    }
    if let Some(msg) = fault {
        panic!("{msg}");
    }
    // Only cascades and no stored fault: should be unreachable, but re-raising
    // a casualty beats swallowing a failed run.
    std::panic::resume_unwind(cascades.into_iter().next().expect("resolve_panics without panics"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let report = Cluster::new(1, CostModel::free()).run(|comm| {
            comm.compute(2.0);
            comm.rank()
        });
        assert_eq!(report.results, vec![0]);
        assert_eq!(report.times, vec![2.0]);
    }

    #[test]
    fn ring_shift_moves_real_data() {
        let p = 5;
        let report = Cluster::new(p, CostModel::aries()).run(|comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(right, 0, vec![comm.rank() as u32 * 10]);
            let got: Vec<u32> = comm.recv(left, 0);
            got[0]
        });
        assert_eq!(report.results, vec![40, 0, 10, 20, 30]);
        // 5 messages of one element each.
        assert_eq!(report.ledger.total_messages(), 5);
        assert_eq!(report.ledger.total_elements(), 5);
    }

    #[test]
    fn recv_time_is_alpha_plus_beta_l() {
        let cost = CostModel { alpha: 1.0, beta: 0.1 };
        let report = Cluster::new(2, cost).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0.0f32; 10]);
                comm.now()
            } else {
                let _: Vec<f32> = comm.recv(0, 0);
                comm.now()
            }
        });
        // Sender clock unchanged (DMA injection)…
        assert_eq!(report.results[0], 0.0);
        // …but its finish time is the injection port occupancy β·L = 0.1 · 10.
        assert!((report.times[0] - 1.0).abs() < 1e-12, "sender finished at {}", report.times[0]);
        // Receiver completes at α + β·L = 1 + 1 = 2.
        assert!((report.results[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn endpoint_congestion_serializes_reception() {
        // Three senders target rank 0 simultaneously with 100-element messages.
        let cost = CostModel { alpha: 1.0, beta: 0.01 };
        let report = Cluster::new(4, cost).run(|comm| {
            if comm.rank() == 0 {
                for src in 1..comm.size() {
                    let _: Vec<f32> = comm.recv(src, 0);
                }
                comm.now()
            } else {
                comm.send(0, 0, vec![1.0f32; 100]);
                comm.now()
            }
        });
        // All heads arrive at α = 1.0; bodies serialize: 1.0 + 3·(β·100) = 4.0.
        assert!((report.results[0] - 4.0).abs() < 1e-9, "got {}", report.results[0]);
    }

    #[test]
    fn barrier_aligns_clocks_to_slowest() {
        let cost = CostModel { alpha: 0.5, beta: 0.0 };
        let report = Cluster::new(4, cost).run(|comm| {
            comm.compute(comm.rank() as f64); // ranks finish at 0,1,2,3
            comm.barrier();
            comm.now()
        });
        // max(3) + α·log2(4) = 3 + 1.0
        for t in &report.results {
            assert!((t - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn tags_demultiplex_out_of_order() {
        let report = Cluster::new(2, CostModel::free()).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, vec![1u32]);
                comm.send(1, 20, vec![2u32]);
                0
            } else {
                // Receive in the opposite order of sending.
                let b: Vec<u32> = comm.recv(0, 20);
                let a: Vec<u32> = comm.recv(0, 10);
                (b[0] * 10 + a[0]) as usize
            }
        });
        assert_eq!(report.results[1], 21);
    }

    #[test]
    fn free_mode_moves_data_at_zero_cost() {
        let cost = CostModel { alpha: 1.0, beta: 1.0 };
        let report = Cluster::new(2, cost).run(|comm| {
            comm.set_free_mode(true);
            if comm.rank() == 0 {
                comm.send(1, 0, vec![5.0f32; 100]);
                comm.now()
            } else {
                let v: Vec<f32> = comm.recv(0, 0);
                assert_eq!(v.len(), 100);
                comm.now()
            }
        });
        assert_eq!(report.results, vec![0.0, 0.0]);
        assert_eq!(report.ledger.total_elements(), 0);
    }

    #[test]
    fn determinism_across_runs() {
        let cluster = Cluster::new(6, CostModel::aries());
        let run = || {
            cluster.run(|comm| {
                // All-to-all of variable-size payloads.
                for dst in 0..comm.size() {
                    if dst != comm.rank() {
                        comm.send(dst, 1, vec![comm.rank() as f32; comm.rank() + 1]);
                    }
                }
                let mut sum = 0.0f32;
                for src in 0..comm.size() {
                    if src != comm.rank() {
                        let v: Vec<f32> = comm.recv(src, 1);
                        sum += v.iter().sum::<f32>();
                    }
                }
                comm.barrier();
                (sum, comm.now())
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.times, b.times);
        assert_eq!(a.ledger.total_elements(), b.ledger.total_elements());
    }

    #[test]
    fn topology_charges_links_by_tier() {
        // 4 ranks, 2 per node; 0→1 is intra (fast), 0→2 inter (slow).
        let cost = CostModel { alpha: 9.0, beta: 9.0 }; // must be superseded
        let topo = Topology::two_tier(2, (0.1, 0.01), (1.0, 0.1));
        let run = |dst: usize| {
            Cluster::new(4, cost).with_topology(topo).run(move |comm| {
                if comm.rank() == 0 {
                    comm.send(dst, 0, vec![0.0f32; 10]);
                    0.0
                } else if comm.rank() == dst {
                    let _: Vec<f32> = comm.recv(0, 0);
                    comm.now()
                } else {
                    0.0
                }
            })
        };
        // Intra: α + β·L = 0.1 + 0.01·10 = 0.2.
        assert!((run(1).results[1] - 0.2).abs() < 1e-12);
        // Inter: 1.0 + 0.1·10 = 2.0.
        assert!((run(2).results[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn oversubscription_multiplies_inter_beta_at_the_charging_point() {
        let cost = CostModel::free();
        let topo = Topology::two_tier(2, (0.0, 0.01), (0.0, 0.1)).with_oversubscription(4.0);
        let report = Cluster::new(4, cost).with_topology(topo).run(|comm| {
            if comm.rank() == 0 {
                comm.send(2, 0, vec![0.0f32; 10]);
                0.0
            } else if comm.rank() == 2 {
                let _: Vec<f32> = comm.recv(0, 0);
                comm.now() // 4 × 0.1 × 10 = 4.0
            } else {
                0.0
            }
        });
        assert!((report.results[2] - 4.0).abs() < 1e-12, "{}", report.results[2]);
    }

    /// `rpn`-rank nodes whose two tiers are `cost`'s flat link.
    fn flat_tiers(rpn: usize, cost: CostModel) -> Topology {
        let link = (cost.alpha, cost.beta);
        Topology::two_tier(rpn, link, link)
    }

    #[test]
    fn topology_with_flat_tiers_is_timing_neutral() {
        // Tiers equal to the cost model charge what no topology charges.
        let cost = CostModel { alpha: 1.0, beta: 0.1 };
        let work = |comm: &mut Comm| {
            for dst in 0..comm.size() {
                if dst != comm.rank() {
                    comm.send(dst, 0, vec![0.0f32; comm.rank() + 3]);
                }
            }
            for src in 0..comm.size() {
                if src != comm.rank() {
                    let _: Vec<f32> = comm.recv(src, 0);
                }
            }
            comm.barrier();
            comm.now()
        };
        let flat = Cluster::new(4, cost).run(|c| work(c));
        let tiered = Cluster::new(4, cost).with_topology(flat_tiers(2, cost)).run(|c| work(c));
        assert_eq!(flat.results, tiered.results);
        assert_eq!(flat.times, tiered.times);
    }

    #[test]
    fn topology_composes_with_chaos_link_degradation() {
        // Chaos multipliers apply to the topology-resolved β, and the effective
        // β rides the envelope so the receiver charges identically.
        let cost = CostModel::free();
        let topo = Topology::two_tier(2, (0.0, 0.01), (0.5, 0.1));
        let plan = ChaosPlan::new(3).degrade_all_links(2.0, 3.0, 0.0, f64::MAX);
        let report = Cluster::new(4, cost).with_topology(topo).with_chaos(plan).run(|comm| {
            if comm.rank() == 0 {
                comm.send(2, 0, vec![0.0f32; 10]);
                0.0
            } else if comm.rank() == 2 {
                let _: Vec<f32> = comm.recv(0, 0);
                comm.now() // α·2 + β·3·L = 1.0 + 0.1·3·10 = 4.0
            } else {
                0.0
            }
        });
        assert!((report.results[2] - 4.0).abs() < 1e-12, "{}", report.results[2]);
    }

    #[test]
    fn tier_byte_counters_split_traffic_by_node() {
        let cost = CostModel::aries();
        let report =
            Cluster::new(4, cost).with_topology(flat_tiers(2, cost)).with_obs(true).run(|comm| {
                // Rank 0 sends 10 elems intra (→1) and 20 elems inter (→2).
                match comm.rank() {
                    0 => {
                        comm.send(1, 0, vec![0.0f32; 10]);
                        comm.send(2, 0, vec![0.0f32; 20]);
                    }
                    1 => {
                        let _: Vec<f32> = comm.recv(0, 0);
                    }
                    2 => {
                        let _: Vec<f32> = comm.recv(0, 0);
                    }
                    _ => {}
                }
                comm.barrier();
            });
        let get = |name: &str| match report.metrics.get(name) {
            Some(obs::MetricValue::PerRankU64(v)) => v.clone(),
            other => panic!("missing {name}: {other:?}"),
        };
        assert_eq!(get("net.intra_bytes")[0], 40);
        assert_eq!(get("net.inter_bytes")[0], 80);
        // Single-rank nodes (the flat-network degenerate shape): all bytes
        // are inter.
        let flat =
            Cluster::new(2, cost).with_topology(flat_tiers(1, cost)).with_obs(true).run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0, vec![0.0f32; 5]);
                } else {
                    let _: Vec<f32> = comm.recv(0, 0);
                }
                comm.barrier();
            });
        let intra = match flat.metrics.get("net.intra_bytes") {
            Some(obs::MetricValue::PerRankU64(v)) => v.iter().sum::<u64>(),
            _ => panic!("missing net.intra_bytes"),
        };
        let inter = match flat.metrics.get("net.inter_bytes") {
            Some(obs::MetricValue::PerRankU64(v)) => v.iter().sum::<u64>(),
            _ => panic!("missing net.inter_bytes"),
        };
        assert_eq!(intra, 0);
        assert_eq!(inter, 20);
    }
}
