//! The four benchmark workloads.
//!
//! Each is a closed or open loop at thousands of ranks, chosen so that a
//! different layer of the simulator dominates host time; see `README.md`
//! for the measurements behind each choice. A workload is built from a
//! seed, which reaches the driver's RNG streams (flow bandwidth and
//! CPU-time jitter) and the open-loop arrival process (arrival times,
//! sizes, tenants, servers). The fault storm is part of the workload's
//! definition and stays fixed. `scale` divides the workload's size; the
//! benchmark always runs at scale 1, tests run smaller.

use cluster::{ClusterConfig, TopologySpec};
use dosas::policy::TokenBucketConfig;
use dosas::{DriverConfig, OpenLoopSpec, PolicyConfig, Scheme, Workload};
use kernels::KernelParams;
use simkit::{FaultPlan, RngFactory, SimSpan, SimTime};

const MIB: u64 = 1024 * 1024;

/// A named workload: how to build it and why it is in the benchmark.
pub struct WorkloadDef {
    pub name: &'static str,
    /// One line: which layer it stresses.
    pub why: &'static str,
    /// Rough host seconds of one untraced run at scale 1 (for `--list`).
    pub rough_host_s: f64,
    build: fn(seed: u64, scale: usize) -> (DriverConfig, Workload),
}

impl WorkloadDef {
    /// The driver configuration and generated workload for `seed`, with
    /// every size divided by `scale` (at least 1).
    pub fn build(&self, seed: u64, scale: usize) -> (DriverConfig, Workload) {
        (self.build)(seed, scale.max(1))
    }
}

/// Every workload, in benchmark order.
pub const ALL: &[WorkloadDef] = &[
    WorkloadDef {
        name: "ts-fanin",
        why: "closed loop, 8192 TS ranks read 8 MiB each on a 16-server star: ~4k bulk flows in flight, so host time sits in the fabric (cluster::net)",
        rough_host_s: 3.1,
        build: ts_fanin,
    },
    WorkloadDef {
        name: "as-fanin",
        why: "closed loop, 16384 AS ranks on the same star: kernels processor-share the storage CPUs (cluster::cpu, simkit::share) and the fabric idles",
        rough_host_s: 2.2,
        build: as_fanin,
    },
    WorkloadDef {
        name: "dosas-fattree-observed",
        why: "closed loop, 6144 ranks under the paper's CE on 256 servers of a k=16 fat-tree, obs sampling and autopsy on: control, multi-hop fills, telemetry",
        rough_host_s: 1.8,
        build: dosas_fattree_observed,
    },
    WorkloadDef {
        name: "open-loop-faults",
        why: "open loop, ~96k Poisson arrivals at 200/s under token-bucket caps and a storage fault storm: per-event overhead, largest set-up and memory",
        rough_host_s: 3.4,
        build: open_loop_faults,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static WorkloadDef> {
    ALL.iter().find(|w| w.name == name)
}

/// The paper's testbed with `storage_nodes` servers and exactly enough
/// compute nodes for `ranks` (one core per rank). Sizing the compute side
/// here, rather than leaving it to `Driver::new`, keeps storage node ids
/// known before the run and lets the benchmark time `ClusterState::build`
/// on the cluster the driver will build.
fn discfarm(storage_nodes: usize, ranks: usize) -> ClusterConfig {
    let base = ClusterConfig::discfarm();
    ClusterConfig {
        storage_nodes,
        compute_nodes: ranks.div_ceil(base.cores_per_compute),
        ..base
    }
}

fn driver_config(cluster: ClusterConfig, scheme: Scheme, seed: u64) -> DriverConfig {
    DriverConfig {
        cluster,
        seed,
        ..DriverConfig::paper(scheme)
    }
}

/// Every rank issues one 8 MiB Gaussian-filter read at t = 0, 16 servers.
fn fanin(scheme: Scheme, per_server: usize, seed: u64) -> (DriverConfig, Workload) {
    let w = Workload::uniform_active(
        per_server,
        16,
        8 * MIB,
        "gaussian2d",
        KernelParams::with_width(4096),
    );
    let cfg = driver_config(discfarm(16, w.rank_count()), scheme, seed);
    (cfg, w)
}

fn ts_fanin(seed: u64, scale: usize) -> (DriverConfig, Workload) {
    fanin(Scheme::Traditional, (512 / scale).max(1), seed)
}

fn as_fanin(seed: u64, scale: usize) -> (DriverConfig, Workload) {
    fanin(Scheme::ActiveStorage, (1024 / scale).max(1), seed)
}

fn dosas_fattree_observed(seed: u64, scale: usize) -> (DriverConfig, Workload) {
    let storage = (256 / scale).max(2);
    let w = Workload::uniform_active(
        24,
        storage,
        8 * MIB,
        "gaussian2d",
        KernelParams::with_width(1024),
    );
    let mut cluster = discfarm(storage, w.rank_count());
    // The smallest fat-tree that holds every host: k = 16 (1024 hosts) at
    // scale 1, with 768 compute and 256 storage hosts.
    let hosts = cluster.total_nodes();
    let k = (4..)
        .step_by(2)
        .find(|k| k * k * k / 4 >= hosts)
        .expect("some fat-tree holds every host");
    cluster.topology = TopologySpec::FatTree { k };
    let mut cfg = driver_config(cluster, Scheme::dosas_default(), seed);
    cfg.obs = obs::ObsConfig::enabled();
    cfg.obs.sample_period = SimSpan::from_millis(10);
    cfg.autopsy = true;
    (cfg, w)
}

fn open_loop_faults(seed: u64, scale: usize) -> (DriverConfig, Workload) {
    const STORAGE: usize = 8;
    const STORM_WINDOWS: u64 = 24;
    const STORM_SEED: u64 = 2012;
    // 200 arrivals/s keeps the storage CPUs clear of saturation. At 300/s
    // (the same ~96k requests over 320 s) cpu-share wait is 3.5 times the
    // fault stalls and the mean server queue 16 deep, and p50 latency
    // moves with each seed's load: 0.076–0.112 s over 30 seeds, 14%
    // interquartile over median. At 200/s the two waits are on a par, the
    // queue is 4 deep, and p50 and p99 spread by 3%.
    let horizon = SimSpan::from_secs_f64(480.0 / scale as f64);
    let full_gaussian = KernelParams {
        width: Some(1024),
        full_output: true,
        ..KernelParams::default()
    };
    let w = Workload::open_loop(&OpenLoopSpec {
        arrival_rate: 200.0,
        horizon,
        max_requests: usize::MAX,
        size_min: MIB,
        size_max: 64 * MIB,
        alpha: 1.3,
        tenants: vec![
            ("gaussian2d".into(), full_gaussian, 2.0),
            ("sum".into(), KernelParams::default(), 1.0),
            ("grep".into(), KernelParams::with_pattern(b"needle"), 1.0),
        ],
        storage_nodes: STORAGE,
        seed,
    });
    let cluster = discfarm(STORAGE, w.rank_count());
    // Storage node ids follow the compute nodes, so the storm can only be
    // drawn once the compute side is sized for this workload's ranks.
    let storage_ids: Vec<usize> = (0..STORAGE).map(|s| cluster.compute_nodes + s).collect();
    // One storm per window, each fault lasting at most a quarter of its
    // window (5 s at scale 1). A single storm over the whole horizon allows
    // disk stalls of a quarter of it whose backlog never drains: at 300/s
    // over 320 s, p99 reached ~90 s and host time grew sixfold, so the loop
    // was no longer below saturation. The storm's seed is fixed: at 300/s,
    // drawn from the run's seed, it moved p50 by 12% (interquartile over
    // ten seeds) against 6% for arrivals alone.
    let mut rng = RngFactory::new(STORM_SEED).stream("benchmark-storm");
    let window_ns = horizon.as_nanos() / STORM_WINDOWS;
    let mut storm = FaultPlan::new();
    for i in 0..STORM_WINDOWS {
        let start = SimTime::from_nanos(window_ns * i);
        let window = SimSpan::from_nanos(window_ns);
        let part = FaultPlan::random_storm(&mut rng, &storage_ids, start, window, 1);
        for e in part.events() {
            storm = storm.inject(e.node, e.kind.clone(), e.start, e.end - e.start);
        }
    }
    let mut cfg = driver_config(
        cluster,
        Scheme::dosas_with_policy(PolicyConfig::TokenBucket(TokenBucketConfig::default())),
        seed,
    );
    cfg.fault_plan = storm;
    (cfg, w)
}
