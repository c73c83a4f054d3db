//! Cluster runner: executes one closure per rank and collects results, clocks
//! and traffic — on the event engine, or on the thread oracle when a test asks
//! for it (see [`Engine`]).

use crate::comm::{
    Backend, BarrierState, Comm, PoolBudget, SimMetrics, POOL_BUDGET_DEFAULT_BYTES,
    RECV_DEADLOCK_DEFAULT,
};
use crate::cost::CostModel;
use crate::engine::{Cascade, Engine, EngineMetrics, EventCore, SchedEvent, SchedMode};
use crate::envelope::Envelope;
use crate::ledger::{Ledger, LedgerSnapshot};
use chaos::{ChaosPlan, ChaosView, CompiledChaos};
use crossbeam_channel::unbounded;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use topo::Topology;

/// A simulated cluster of `size` ranks governed by one [`CostModel`].
///
/// `Cluster` is cheap to construct; each [`run`](Self::run) spawns fresh rank threads,
/// a fresh traffic ledger and fresh clocks, so runs are independent and deterministic.
///
/// Runs execute on [`Engine::Event`]. [`with_engine`](Self::with_engine) selects
/// the thread engine instead, which produces bit-identical results, clocks and
/// ledgers for the same inputs and exists as the oracle tests compare against.
pub struct Cluster {
    size: usize,
    cost: CostModel,
    /// Stack size for rank threads. Training loops keep their state on the heap, but a
    /// little headroom avoids surprises with deep call chains in debug builds.
    stack_bytes: usize,
    /// Wall-clock recv deadline. Thread engine only — the event engine detects
    /// deadlocks exactly without any wall-clock deadline.
    recv_timeout: Duration,
    /// Fault/perturbation schedule applied to every run; `None` is the clean model.
    chaos: Option<ChaosPlan>,
    engine: Engine,
    /// Event-engine run-token count.
    workers: usize,
    /// Idle-pool byte budget.
    pool_budget_bytes: usize,
    /// Whether runs record metrics.
    obs: bool,
    /// Record event-engine scheduler decisions for trace export.
    sched_trace: bool,
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
    /// Virtual-class entries are bit-identical across engines.
    pub metrics: obs::MetricsSnapshot,
    /// Event-engine scheduler decisions; non-empty only when
    /// [`Cluster::with_sched_trace`] was on and the run used [`Engine::Event`].
    pub sched: Vec<SchedEvent>,
}

impl<T> SimReport<T> {
    /// The modeled makespan: the time the slowest rank finished.
    pub fn makespan(&self) -> f64 {
        self.times.iter().copied().fold(0.0, f64::max)
    }
}

impl Cluster {
    /// A cluster of `size` ranks under the given cost model, on the event
    /// engine.
    pub fn new(size: usize, cost: CostModel) -> Self {
        assert!(size >= 1, "cluster needs at least one rank");
        Self {
            size,
            cost,
            stack_bytes: 8 << 20,
            recv_timeout: RECV_DEADLOCK_DEFAULT,
            chaos: None,
            engine: Engine::default(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_budget_bytes: POOL_BUDGET_DEFAULT_BYTES,
            obs: true,
            sched_trace: false,
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
    /// same seed ⇒ bit-identical results and virtual-time trajectories, on
    /// either engine.
    ///
    /// # Panics
    /// [`run`](Self::run) panics if the plan names a rank `>= size`.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Override the wall-clock deadline after which a blocking thread-engine
    /// `recv` (or barrier wait) declares the simulation deadlocked (default
    /// 600 s). Tests that *expect* a deadlock set this low to fail fast; long
    /// sweeps on oversubscribed machines raise it. The event engine ignores it
    /// — detection there is exact and instant.
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        assert!(timeout > Duration::ZERO, "recv timeout must be positive");
        self.recv_timeout = timeout;
        self
    }

    /// Select the execution engine. The only reason to is
    /// `with_engine(Engine::Thread)`: running the differential oracle.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Bound the number of concurrently-runnable rank continuations under the
    /// event engine (default: available parallelism). Results never depend on
    /// this value.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Set the per-rank thread stack size (default 8 MiB). Large-P event-engine
    /// sweeps shrink this: 2048 ranks × 8 MiB reserves 16 GiB of address space
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

    /// Record the event engine's scheduler decisions (token grants, parks,
    /// finishes) for export to the Chrome-trace scheduler track. No effect on
    /// the thread engine, which has no scheduler of its own.
    pub fn with_sched_trace(mut self, on: bool) -> Self {
        self.sched_trace = on;
        self
    }

    /// No-op: the event engine has one dispatch path. Kept only because
    /// `benchmark/src/runner.rs:45` (frozen outside this crate) calls it; goes
    /// with [`SchedMode`] when a benchmark PR drops that call.
    pub fn with_sched(self, _mode: SchedMode) -> Self {
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

    /// The engine this cluster runs on.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Run `f` on every rank concurrently and gather results.
    ///
    /// `f` receives a mutable [`Comm`]; its return value, the rank's final virtual
    /// time and the global traffic ledger are collected into a [`SimReport`].
    ///
    /// # Panics
    /// Propagates the *originating* rank's panic after all rank threads have
    /// stopped; ranks aborted as casualties of another rank's fault unwind
    /// quietly and are never the reported failure. An exact deadlock detected
    /// by the event engine panics with the full blocked-rank report.
    pub fn run<T, F>(&self, f: F) -> SimReport<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        let ledger = Arc::new(Ledger::new());
        let compiled = self.chaos.as_ref().map(|plan| Arc::new(plan.compile(self.size)));
        let budget = Arc::new(PoolBudget::new(self.pool_budget_bytes));
        let registry = Arc::new(obs::Registry::with_ranks(self.size, self.obs));
        let metrics = SimMetrics::new(&registry);
        let wall_start = std::time::Instant::now();
        let (slots, panics, fault, sched) = match self.engine {
            Engine::Thread => self.run_threaded(&f, &ledger, compiled, budget, metrics),
            Engine::Event => self.run_event(&f, &ledger, compiled, budget, metrics, &registry),
        };
        if !panics.is_empty() {
            resolve_panics(panics, fault);
        }
        let mut results = Vec::with_capacity(self.size);
        let mut times = Vec::with_capacity(self.size);
        for slot in slots {
            let (r, t) = slot.expect("rank produced no result");
            results.push(r);
            times.push(t);
        }
        // Host-class wall time of the whole run: the simulator-overhead side
        // of the modeled-vs-host split the spans expose per phase.
        registry
            .fcounter("sim.host_wall_ns", obs::Class::Host)
            .add(wall_start.elapsed().as_nanos() as f64);
        registry.counter("sim.runs", obs::Class::Host).inc();
        let metrics = registry.snapshot();
        if self.obs {
            // Fold the finished run into the process-global registry so bench
            // headers can embed one cumulative snapshot.
            obs::global().absorb(&metrics);
        }
        SimReport { results, times, ledger: ledger.snapshot(), metrics, sched }
    }

    /// Thread engine: one kernel-scheduled OS thread per rank, channels for
    /// transport, condvar barrier, wall-clock watchdogs. A rank panic sets the
    /// shared poisoned flag so every blocked peer cascades within one watchdog
    /// poll instead of waiting out its deadline.
    #[allow(clippy::type_complexity)]
    fn run_threaded<T, F>(
        &self,
        f: &F,
        ledger: &Arc<Ledger>,
        compiled: Option<Arc<CompiledChaos>>,
        budget: Arc<PoolBudget>,
        metrics: SimMetrics,
    ) -> RunOut<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        let barrier = Arc::new(BarrierState::new());
        let poisoned = Arc::new(AtomicBool::new(false));
        let recv_deadline = self.recv_timeout;
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..self.size).map(|_| unbounded::<Envelope>()).unzip();

        let mut slots: Vec<Option<(T, f64)>> = Vec::with_capacity(self.size);
        slots.resize_with(self.size, || None);
        let mut panics: Vec<Box<dyn Any + Send>> = Vec::new();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.size);
            for (rank, inbox) in receivers.into_iter().enumerate() {
                let senders = senders.clone();
                let ledger = Arc::clone(ledger);
                let barrier = Arc::clone(&barrier);
                let budget = Arc::clone(&budget);
                let metrics = metrics.clone();
                let poisoned = Arc::clone(&poisoned);
                let view = compiled.as_ref().map(|c| ChaosView::new(Arc::clone(c), rank));
                let topo = self.topo.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(self.stack_bytes)
                    .spawn_scoped(scope, move || {
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let mut comm = Comm::new(
                                rank,
                                self.size,
                                self.cost,
                                ledger,
                                Backend::Thread {
                                    senders,
                                    inbox,
                                    barrier,
                                    recv_deadline,
                                    poisoned: Arc::clone(&poisoned),
                                },
                                budget,
                                view,
                                metrics,
                                topo,
                            );
                            let r = f(&mut comm);
                            (r, comm.local_finish_time())
                        }));
                        if result.is_err() {
                            poisoned.store(true, Ordering::Relaxed);
                        }
                        result
                    })
                    .expect("failed to spawn rank thread");
                handles.push(handle);
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                match handle.join().unwrap_or_else(Err) {
                    Ok(pair) => slots[rank] = Some(pair),
                    Err(payload) => panics.push(payload),
                }
            }
        });
        (slots, panics, None, Vec::new())
    }

    /// Discrete-event engine: one parked continuation per rank, run tokens
    /// granted in virtual-time order by the shared [`EventCore`], exact
    /// deadlock detection. See [`crate::engine`] for the design.
    #[allow(clippy::type_complexity)]
    fn run_event<T, F>(
        &self,
        f: &F,
        ledger: &Arc<Ledger>,
        compiled: Option<Arc<CompiledChaos>>,
        budget: Arc<PoolBudget>,
        metrics: SimMetrics,
        registry: &obs::Registry,
    ) -> RunOut<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        let core = Arc::new(EventCore::new(
            self.size,
            self.workers,
            Some(EngineMetrics::new(registry)),
            self.sched_trace,
        ));

        let mut slots: Vec<Option<(T, f64)>> = Vec::with_capacity(self.size);
        slots.resize_with(self.size, || None);
        let mut panics: Vec<Box<dyn Any + Send>> = Vec::new();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.size);
            for rank in 0..self.size {
                let core = Arc::clone(&core);
                let ledger = Arc::clone(ledger);
                let budget = Arc::clone(&budget);
                let metrics = metrics.clone();
                let view = compiled.as_ref().map(|c| ChaosView::new(Arc::clone(c), rank));
                let topo = self.topo.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(self.stack_bytes)
                    .spawn_scoped(scope, move || {
                        core.start(rank);
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let mut comm = Comm::new(
                                rank,
                                self.size,
                                self.cost,
                                ledger,
                                Backend::Event { core: Arc::clone(&core) },
                                budget,
                                view,
                                metrics,
                                topo,
                            );
                            let r = f(&mut comm);
                            (r, comm.local_finish_time())
                        }));
                        match result {
                            Ok(pair) => {
                                core.finish(rank);
                                Ok(pair)
                            }
                            Err(payload) => {
                                core.rank_panicked(rank);
                                Err(payload)
                            }
                        }
                    })
                    .expect("failed to spawn rank thread");
                handles.push(handle);
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                match handle.join().unwrap_or_else(Err) {
                    Ok(pair) => slots[rank] = Some(pair),
                    Err(payload) => panics.push(payload),
                }
            }
        });
        let fault = core.fault_message();
        let sched = core.take_sched();
        (slots, panics, fault, sched)
    }
}

/// What an engine run hands back to [`Cluster::run`]: per-rank result slots,
/// panic payloads, the core's fault report (event engine), and the scheduler
/// event log (event engine with [`Cluster::with_sched_trace`]).
type RunOut<T> = (Vec<Option<(T, f64)>>, Vec<Box<dyn Any + Send>>, Option<String>, Vec<SchedEvent>);

/// Report a failed run: re-raise the first *originating* panic (in rank
/// order), never a quiet [`Cascade`] casualty. If every payload is a cascade
/// — the event engine detected a deadlock and no rank panicked on its own —
/// panic with the core's fault report instead.
fn resolve_panics(panics: Vec<Box<dyn Any + Send>>, fault: Option<String>) -> ! {
    let mut cascades = Vec::new();
    for payload in panics {
        if payload.is::<Cascade>() {
            cascades.push(payload);
        } else {
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
        // …but its finish time includes the injection port occupancy β·L.
        assert!((report.times[0] - 1.0f64.min(1.0) * 1.0).abs() < 1e-12 || report.times[0] > 0.0);
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
    fn short_recv_timeout_turns_deadlock_into_fast_panic() {
        // A recv with no matching send is a deadlock; with the per-cluster timeout
        // lowered the thread engine's watchdog must surface it as a panic within
        // the timeout, not after 600 s. (The event engine has no deadline:
        // detection is exact and immediate, see tests/engines.rs.)
        let start = std::time::Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            Cluster::new(2, CostModel::free())
                .with_engine(Engine::Thread)
                .with_recv_timeout(Duration::from_millis(100))
                .run(|comm| {
                    if comm.rank() == 0 {
                        let _: Vec<f32> = comm.recv(1, 0); // never sent
                    }
                })
        }));
        assert!(result.is_err(), "missing send must panic");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "timeout did not take effect: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn rank_panic_propagates_to_caller() {
        // On the oracle; tests/engines.rs holds the event engine to the same.
        let result = catch_unwind(AssertUnwindSafe(|| {
            Cluster::new(3, CostModel::free()).with_engine(Engine::Thread).run(|comm| {
                if comm.rank() == 1 {
                    panic!("injected failure on rank 1");
                }
                comm.rank()
            })
        }));
        let payload = match result {
            Ok(_) => panic!("a rank's panic must fail the whole run"),
            Err(payload) => payload,
        };
        // The *originating* panic is what propagates, not a quiet cascade.
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("injected failure"), "got panic payload: {msg:?}");
    }

    #[test]
    fn peer_death_cascades_blocked_recv_quickly() {
        // Rank 1 dies; rank 0 is blocked receiving from it. The thread engine's
        // poisoned-flag watchdog must fail the run in ~one poll interval — no
        // hard-coded sleeps, and nowhere near the 600 s default recv deadline.
        // (The event engine's fault broadcast is covered in tests/engines.rs.)
        let start = std::time::Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            Cluster::new(2, CostModel::free()).with_engine(Engine::Thread).run(|comm| {
                if comm.rank() == 1 {
                    panic!("early exit");
                }
                let _: Vec<f32> = comm.recv(1, 0); // rank 1 never sends
            })
        }));
        assert!(result.is_err(), "peer death must fail the run");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "peer death took too long to cascade: {:?}",
            start.elapsed()
        );
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
        use chaos::ChaosPlan;
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
