//! End-to-end simulation driver.
//!
//! Owns the whole world — cluster hardware, file system, server runtimes,
//! rank programs — and advances it with `simkit`'s event loop. Every byte of
//! request data takes the full path the paper describes:
//!
//! ```text
//! rank ──request──► data server queue ──► disk read ──┬─► kernel (storage CPU)──► result flow ─► client
//!                                                     └─► data flow ───────────► client CPU ──► done
//!                       ▲          CE probe/policy ───┘   (demote / interrupt anywhere left of send)
//! ```
//!
//! The driver charges time against [`cluster`] resources (processor-sharing
//! CPUs, FIFO disks, max-min fair fabric). With `data_plane` enabled it also
//! moves *real bytes* through [`pfs::MemoryStore`] and runs *real kernels*,
//! so different schemes can be checked for bit-identical results.
//!
//! # Architecture
//!
//! The driver's handlers are split over modules (see DESIGN.md §7). Each
//! module is an `impl Driver` block plus, where it has one, a state struct
//! embedded in [`Driver`]; [`World::handle`] is one exhaustive `match` on
//! [`Ev`] that calls the handler directly. Handlers interact by direct
//! method calls inside the same dispatch, so the split does not change the
//! event schedule (proven by `tests/golden_metrics.rs`). Each resource's
//! completions resolve through one owner table: `IoPath::flows` for the
//! fabric, `Servers::disk_work` for disks, `Servers::cpu_work` for CPUs.
//!
//! The driver borrows the [`Workload`] it runs: a rank holds a reference to
//! its program, and a request borrows its op name and kernel parameters
//! from the program that issued it, so per-rank driver state is one small
//! `RankState` and no step copies an op. Tenants are read from the
//! workload in place, and what outlives a request (R's row, the record,
//! the autopsy) clones the program's shared op name, not its text.
//!
//! | module        | state       | handled events                         |
//! |---------------|-------------|----------------------------------------|
//! | [`ranks`]     | `Ranks`     | `RankStep`                             |
//! | [`io_path`]   | `IoPath`    | `Arrive`, `NetTick`, `Deliver`         |
//! | [`server`]    | `Servers`   | `DiskTick`, `CpuTick`                  |
//! | [`control`]   | `Control`   | `Probe`, `ProbeRetry`, `PolicyArrive`  |
//! | [`faults`]    | —           | `Fault`                                |
//! | [`telemetry`] | `Telemetry` | `Sample`                               |

pub mod autopsy;
pub mod metrics;

mod control;
mod faults;
mod io_path;
mod ranks;
mod server;
mod telemetry;

pub use autopsy::{
    AutopsyReport, CauseWait, CpSegment, CriticalPath, NodeWait, ReqHop, ReqStage, RequestAutopsy,
    TenantWait, WaitCause,
};
pub use metrics::{
    AppIoRecord, PolicyLogEntry, PolicyStats, RunMetrics, TenantReport, TenantSloOutcome,
    TenantStats,
};

use crate::config::{DosasConfig, OpRates, Scheme};
use crate::estimator::CeSupervisor;
use crate::policy::PolicyContext;
use crate::runtime::ActiveIoRuntime;
use crate::workload::{LayoutSpec, Workload};
use cluster::{ClusterConfig, ClusterState, NodeId};
use control::Control;
use io_path::IoPath;
use kernels::calibrate::synthetic_f64_stream;
use kernels::{KernelParams, KernelRegistry};
use mpiio::program::Op;
use pfs::{MemoryStore, MetadataServer, RequestId, StripeLayout};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use ranks::Ranks;
use server::{KernelSlots, Servers};
use simkit::{
    ExecProfile, FaultPlan, RngFactory, Scheduler, SimSpan, SimTime, Simulation, Timer, World,
};
use std::collections::BTreeMap;
use telemetry::Telemetry;

/// Everything a run needs besides the workload.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    pub cluster: ClusterConfig,
    pub scheme: Scheme,
    pub rates: OpRates,
    pub seed: u64,
    /// Move real bytes and run real kernels (small workloads only).
    pub data_plane: bool,
    /// Record a per-stage execution timeline (RunMetrics::trace,
    /// exportable to chrome://tracing via [`obs::chrome_trace_json`]).
    pub trace: bool,
    /// Deterministic fault schedule applied during the run (empty = no
    /// faults). Node indices are cluster node ids; see [`simkit::fault`].
    pub fault_plan: FaultPlan,
    /// Observability: metrics registry, structured event log and periodic
    /// timeline sampling (see [`obs`]). Disabled by default; when disabled
    /// the driver allocates no observer state and formats no messages.
    pub obs: obs::ObsConfig,
    /// Per-tenant service-level objectives, verified against the end-of-run
    /// tenant aggregates (no mid-run enforcement). Only meaningful when the
    /// workload carries tenant labels.
    pub slos: Vec<crate::config::TenantSlo>,
    /// Request autopsy: record per-request causal span chains and attach
    /// an [`AutopsyReport`] (per-request additive latency breakdowns,
    /// wait-cause attribution, the run's critical path) to the metrics.
    /// Purely observational — enabling it never changes scheme results —
    /// and zero-cost when off (no chains are allocated, `RunMetrics`
    /// serializes without the report, so golden snapshots are unchanged).
    pub autopsy: bool,
}

impl DriverConfig {
    /// The paper's testbed with a given scheme.
    pub fn paper(scheme: Scheme) -> Self {
        DriverConfig {
            cluster: ClusterConfig::discfarm(),
            scheme,
            rates: OpRates::paper(),
            seed: 42,
            data_plane: false,
            trace: false,
            fault_plan: FaultPlan::default(),
            obs: obs::ObsConfig::default(),
            slos: Vec::new(),
            autopsy: false,
        }
    }
}

/// Simulation events.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Rank executes its next program step.
    RankStep(usize),
    /// Request message reached its data server.
    Arrive(RequestId),
    /// The disk with this storage ordinal reaches its next completion.
    DiskTick(usize),
    /// This node's CPU reaches its next task completion.
    CpuTick(usize),
    /// The fabric reaches its next flow completion.
    NetTick,
    /// A transfer's payload reached the client (flow + latency).
    Deliver(RequestId),
    /// Contention Estimator periodic probe.
    Probe(NodeId),
    /// A fault window opens or closes: re-evaluate the fault plan.
    Fault,
    /// Retry of a lost/stale probe (outside the periodic cadence).
    ProbeRetry(NodeId),
    /// A delayed probe's policy finally reaches the runtime.
    PolicyArrive(u64),
    /// Periodic observability sample; reads a consistent world state
    /// between two dispatches.
    Sample,
}

/// The simulation world: shared resources plus one state struct per
/// handler module (see the module-level architecture table). It borrows
/// the workload it runs for `'w`.
pub struct Driver<'w> {
    cfg: DriverConfig,
    dosas: Option<DosasConfig>,
    cluster: ClusterState,
    registry: KernelRegistry,
    cpu_jitter_rng: ChaCha8Rng,
    ranks: Ranks<'w>,
    io: IoPath<'w>,
    server: Servers,
    control: Control,
    telemetry: Telemetry,
}

impl<'w> Driver<'w> {
    /// Build the world for a workload. Compute nodes are auto-expanded so
    /// every rank gets a dedicated core (the paper's one-process-per-core
    /// placement).
    ///
    /// # Panics
    ///
    /// If the cluster config is invalid, or the workload requests a kernel
    /// the registry cannot build (an unknown op or missing parameters).
    pub fn new(mut cfg: DriverConfig, workload: &'w Workload) -> Self {
        let ranks_needed = workload.rank_count();
        let cores = cfg.cluster.cores_per_compute.max(1);
        let min_nodes = ranks_needed.div_ceil(cores);
        if cfg.cluster.compute_nodes < min_nodes {
            cfg.cluster.compute_nodes = min_nodes;
        }
        cfg.cluster.validate().expect("invalid cluster config");

        let rng = RngFactory::new(cfg.seed);
        let cluster = ClusterState::build(cfg.cluster.clone(), &rng);

        let mut meta = MetadataServer::new();
        let mut store = MemoryStore::new();
        for file in &workload.files {
            let layout = match &file.layout {
                LayoutSpec::OneServer(ord) => StripeLayout::contiguous(cluster.storage_node(*ord)),
                LayoutSpec::StripedAll { stripe_size } => {
                    StripeLayout::striped(cluster.storage_ids().collect())
                        .with_stripe_size(*stripe_size)
                }
            };
            let fh = meta
                .create(&file.path, file.bytes, layout)
                .expect("workload file creation");
            if cfg.data_plane {
                let content = file
                    .content
                    .clone()
                    .unwrap_or_else(|| synthetic_f64_stream(file.bytes as usize));
                assert_eq!(
                    content.len() as u64,
                    file.bytes,
                    "file content must match declared size"
                );
                store.put(fh, content);
            }
        }

        let caches: BTreeMap<NodeId, pfs::BlockCache> = if cfg.cluster.server_cache_bytes > 0.0 {
            cluster
                .storage_ids()
                .map(|n| {
                    (
                        n,
                        pfs::BlockCache::new(1 << 20, cfg.cluster.server_cache_bytes as u64),
                    )
                })
                .collect()
        } else {
            BTreeMap::new()
        };
        let runtimes = cluster
            .storage_ids()
            .map(|n| (n, ActiveIoRuntime::new()))
            .collect();

        let dosas = match &cfg.scheme {
            Scheme::Dosas(d) => Some(d.clone()),
            _ => None,
        };
        let supervisors: BTreeMap<NodeId, CeSupervisor> = match &dosas {
            Some(d) => cluster
                .storage_ids()
                .map(|n| (n, CeSupervisor::new(d.probe.clone())))
                .collect(),
            None => BTreeMap::new(),
        };
        // Partial offload runs kernels from a FIFO work queue.
        let fifo_kernels = dosas.as_ref().is_some_and(|d| d.partial_offload);
        let policy = dosas.as_ref().map(|d| {
            d.policy.build(&PolicyContext {
                rates: &cfg.rates,
                kernel_cores: cfg.cluster.storage_kernel_cores() as f64,
                client_cores: 1.0,
                nominal_bw: cfg.cluster.nic_bandwidth,
                memory_capacity: cfg.cluster.storage_memory,
                partial_offload: d.partial_offload,
                slos: &cfg.slos,
                rank_tenants: &workload.tenants,
            })
        });
        let policy_name = policy.as_ref().map_or("none", |p| p.name());

        let ranks = Ranks::new(
            &workload.programs,
            &workload.tenants,
            cfg.cluster.compute_nodes,
        );

        let registry = KernelRegistry::with_defaults();
        let io_ops = check_kernels_and_count_io(workload, &registry);
        let disk_timers = cluster.disks.iter().map(|_| Timer::default()).collect();
        let cpu_timers = cluster.cpus.iter().map(|_| Timer::default()).collect();
        Driver {
            dosas,
            cluster,
            registry,
            cpu_jitter_rng: rng.stream("cpu-jitter"),
            ranks,
            io: IoPath {
                meta,
                store,
                reqs: BTreeMap::new(),
                apps: BTreeMap::new(),
                flows: BTreeMap::new(),
                caches,
                next_req: 0,
                next_app: 0,
                results: BTreeMap::new(),
                net_timer: Timer::default(),
                rank_caps: BTreeMap::new(),
                rate_caps_applied: 0,
            },
            server: Servers {
                runtimes,
                disk_work: BTreeMap::new(),
                cpu_work: BTreeMap::new(),
                slots: KernelSlots::new(fifo_kernels),
                disk_timers,
                cpu_timers,
            },
            control: Control {
                policy,
                policy_name,
                supervisors,
                pending_policies: BTreeMap::new(),
                next_policy_token: 0,
                bw_estimate: BTreeMap::new(),
                telemetry: crate::policy::PolicyTelemetry::default(),
            },
            telemetry: Telemetry::new(&cfg.obs, io_ops, cfg.autopsy.then(|| workload.rank_count())),
            cfg,
        }
    }

    /// Kernel-execution cost with the configured system-variation jitter:
    /// calibrated rates are maxima; real runs are up to a few percent
    /// slower (paper §IV-B2, "system variation").
    fn cpu_cost(&mut self, core_seconds: f64) -> f64 {
        match self.cfg.cluster.cpu_time_jitter {
            Some((lo, hi)) => core_seconds * self.cpu_jitter_rng.random_range(lo..=hi),
            None => core_seconds,
        }
    }

    /// Run a workload to completion on the serial [`Simulation`] and
    /// report metrics. Runs are deterministic: the same config and workload
    /// give byte-identical [`RunMetrics`].
    pub fn run(cfg: DriverConfig, workload: &Workload) -> RunMetrics {
        Self::execute(cfg, workload, false).0
    }

    /// Like [`Driver::run`], but with wall-clock profiling enabled: a
    /// per-subsystem dispatch breakdown. Profiling is purely observational —
    /// the returned [`RunMetrics`] are bit-identical to an unprofiled run.
    /// `ExecMode` has one variant; the parameter stays only for the
    /// `benchmark/` package, which passes `ExecMode::Serial`.
    pub fn run_profiled(
        cfg: DriverConfig,
        workload: &Workload,
        _mode: ExecMode,
    ) -> (RunMetrics, ExecProfile) {
        let (metrics, profile) = Self::execute(cfg, workload, true);
        (metrics, profile.expect("profiling enabled"))
    }

    fn execute(
        cfg: DriverConfig,
        workload: &Workload,
        profile: bool,
    ) -> (RunMetrics, Option<ExecProfile>) {
        let scheme_name = cfg.scheme.name().to_string();
        let total_bytes = workload.total_request_bytes() as f64;
        let driver = Driver::new(cfg, workload);
        let seed = driver.seed_plan();
        let mut sim = Simulation::new(driver);
        if profile {
            sim.enable_profiling(Self::profile_label);
        }
        seed.apply(sim.scheduler());
        let end = sim.run();
        let events = sim.scheduler().dispatched_count();
        let scheduled = sim.scheduler().scheduled_count();
        let cancelled = sim.scheduler().cancelled_count();
        let profile = sim.take_profile();
        let metrics =
            sim.world
                .collect_metrics(scheme_name, total_bytes, end, events, scheduled, cancelled);
        (metrics, profile)
    }

    /// The initial event schedule, captured before the world moves into the
    /// [`Simulation`].
    fn seed_plan(&self) -> SeedPlan {
        SeedPlan {
            fault_times: self.cfg.fault_plan.transition_times(),
            ranks: self.ranks.len(),
            probes: self.dosas.as_ref().map(|d| {
                (
                    d.probe_period,
                    self.cluster.storage_ids().collect::<Vec<_>>(),
                )
            }),
            sample: (self.cfg.obs.enabled && self.cfg.obs.sample_period > SimSpan::ZERO)
                .then_some(self.cfg.obs.sample_period),
        }
    }

    /// Profiling label: the handler module an event belongs to. The
    /// `benchmark/` package reads these six names as per-layer metrics.
    fn profile_label(ev: &Ev) -> &'static str {
        match ev {
            Ev::RankStep(_) => "ranks",
            Ev::Arrive(_) | Ev::NetTick | Ev::Deliver(_) => "io_path",
            Ev::DiskTick(_) | Ev::CpuTick(_) => "server",
            Ev::Probe(_) | Ev::ProbeRetry(_) | Ev::PolicyArrive(_) => "control",
            Ev::Fault => "faults",
            Ev::Sample => "telemetry",
        }
    }
}

/// The executor that drives a run. [`Simulation`] is the only one; the enum
/// stays only because the `benchmark/` package passes `ExecMode::Serial` to
/// [`Driver::run_profiled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One event at a time over the event heap ([`Simulation`]).
    Serial,
}

/// The initial events of a run: fault transitions first, so same-time fault
/// effects precede the rank steps and probes they degrade (FIFO among equal
/// timestamps), then one `RankStep` per rank, then the CE probe cadence.
struct SeedPlan {
    fault_times: Vec<SimTime>,
    ranks: usize,
    probes: Option<(SimSpan, Vec<NodeId>)>,
    sample: Option<SimSpan>,
}

impl SeedPlan {
    fn apply(&self, sched: &mut Scheduler<Ev>) {
        for &t in &self.fault_times {
            sched.at(t, Ev::Fault);
        }
        for rank in 0..self.ranks {
            sched.at(SimTime::ZERO, Ev::RankStep(rank));
        }
        if let Some((period, storage)) = &self.probes {
            for &s in storage {
                sched.at(SimTime::ZERO + *period, Ev::Probe(s));
            }
        }
        if let Some(period) = self.sample {
            sched.at(SimTime::ZERO + period, Ev::Sample);
        }
    }
}

/// Check every kernel the workload requests, server- or client-side,
/// against `registry` (once per distinct op and parameters), and count its
/// I/O ops, one [`AppIoRecord`] each. The timing plane builds no kernel, so
/// this check is what rejects an unknown op or missing parameters there.
fn check_kernels_and_count_io(workload: &Workload, registry: &KernelRegistry) -> usize {
    let mut io_ops = 0;
    let mut checked: Vec<(&str, &KernelParams)> = Vec::new();
    for op in workload.programs.iter().flat_map(|p| &p.ops) {
        let kernel = match op {
            Op::ReadEx {
                operation, params, ..
            } => Some((&**operation, &**params)),
            Op::Read { client_op, .. } => client_op.as_ref().map(|(op, p)| (&**op, &**p)),
            Op::Write { .. } => None,
            _ => continue,
        };
        io_ops += 1;
        if let Some((op, params)) = kernel.filter(|k| !checked.contains(k)) {
            if let Err(e) = registry.create(op, params) {
                panic!("workload requests kernel {op:?} the registry cannot build: {e}");
            }
            checked.push((op, params));
        }
    }
    io_ops
}

impl World for Driver<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::RankStep(rank) => self.rank_step(rank, now, sched),
            Ev::Arrive(id) => self.on_arrive(id, now, sched),
            Ev::NetTick => self.on_net_tick(now, sched),
            Ev::Deliver(id) => self.on_deliver(id, now, sched),
            Ev::DiskTick(ordinal) => self.on_disk_tick(ordinal, now, sched),
            Ev::CpuTick(node) => self.on_cpu_tick(node, now, sched),
            Ev::Probe(server) => self.on_probe(server, now, sched),
            Ev::ProbeRetry(server) => self.on_probe_retry(server, now, sched),
            Ev::PolicyArrive(token) => self.on_policy_arrive(token, now, sched),
            Ev::Fault => self.apply_faults(now, sched),
            Ev::Sample => self.on_sample(now, sched),
        }
    }
}

#[cfg(test)]
mod tests;
