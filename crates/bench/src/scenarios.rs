//! Named multi-tenant / elastic / failure-rich scenarios.
//!
//! Each scenario is a fully deterministic `(DriverConfig, Workload)` pair:
//! fixed seed, deterministic cluster (no jitter), and a fault plan that is
//! either empty or rebuilt from a fixed seed. They back three consumers:
//!
//! * `tests/tenant_scenarios.rs` — every scenario has a golden
//!   `RunMetrics` snapshot (`tests/golden/scenario-<name>.json`) that every
//!   run must reproduce byte for byte.
//! * the `scenario` binary — run one by name and print its metrics.
//! * `bench_baseline` — the scenario sweep is a benchmark point, so the
//!   cost of the failure-rich multi-tenant regime is tracked over time.
//!
//! Naming: tenants are indices into the workload's mix (tenant 0, 1, …);
//! storage ordinals are positions in the storage pool, with plain node id
//! `compute_nodes + ordinal`.

use cluster::{ClusterConfig, TopologySpec};
use dosas::config::TenantSlo;
use dosas::{DriverConfig, OpRates, OpenLoopSpec, Scheme, Workload};
use kernels::KernelParams;
use simkit::{FaultKind, FaultPlan, RngFactory, SimSpan, SimTime};

const MIB: u64 = 1024 * 1024;

/// A named, deterministic driver setup.
pub struct Scenario {
    pub name: &'static str,
    /// One-line description (shown by `scenario --list`).
    pub summary: &'static str,
    pub cfg: DriverConfig,
    pub workload: Workload,
}

impl Scenario {
    /// Run to completion (see [`dosas::Driver::run`]).
    pub fn run(&self) -> dosas::RunMetrics {
        dosas::Driver::run(self.cfg.clone(), &self.workload)
    }

    /// Like [`run`](Self::run), but also returns the per-subsystem
    /// wall-clock dispatch profile (`scenario --obs-out` ships it as
    /// `profile.json`).
    pub fn run_profiled(&self) -> (dosas::RunMetrics, simkit::ExecProfile) {
        dosas::Driver::run_profiled(self.cfg.clone(), &self.workload, dosas::ExecMode::Serial)
    }
}

/// Deterministic base config: no jitter, fixed seed, `storage_nodes`-wide
/// storage pool.
fn base_cfg(storage_nodes: usize, fault_plan: FaultPlan, slos: Vec<TenantSlo>) -> DriverConfig {
    DriverConfig {
        cluster: ClusterConfig {
            storage_nodes,
            ..ClusterConfig::deterministic()
        },
        scheme: Scheme::dosas_default(),
        rates: OpRates::paper(),
        seed: 2012,
        data_plane: false,
        trace: false,
        fault_plan,
        slos,
        obs: obs::ObsConfig::default(),
        autopsy: false,
    }
}

/// Plain node id of storage ordinal `s` on the deterministic testbed
/// (storage ids follow the 8 compute nodes).
fn storage_node(s: usize) -> usize {
    ClusterConfig::deterministic().compute_nodes + s
}

/// Two tenants with distinct kernels contending over `storage_nodes`
/// servers: tenant 0 runs Gaussian filters, tenant 1 runs sums.
fn two_tenant_workload(storage_nodes: usize, ranks: usize, mb: u64) -> Workload {
    Workload::multi_tenant(
        &[
            (
                "gaussian2d".into(),
                KernelParams::with_width(1024),
                mb * MIB,
                ranks,
            ),
            ("sum".into(), KernelParams::default(), mb * MIB / 2, ranks),
        ],
        storage_nodes,
    )
}

/// A seeded random fault storm over every node while two tenants contend:
/// slowdowns, stalls, dips, probe loss/delay and checkpoint failures all at
/// once. Nothing may wedge, and the whole mess must replay bit-identically.
pub fn fault_storm() -> Scenario {
    let cluster = ClusterConfig {
        storage_nodes: 2,
        ..ClusterConfig::deterministic()
    };
    let nodes: Vec<usize> = (0..cluster.total_nodes()).collect();
    let mut rng = RngFactory::new(2012).stream("scenario-storm");
    let plan = FaultPlan::random_storm(
        &mut rng,
        &nodes,
        SimTime::ZERO,
        SimSpan::from_secs_f64(4.0),
        2,
    );
    Scenario {
        name: "fault-storm",
        summary: "seeded random storm over every node under a two-tenant mix",
        cfg: base_cfg(2, plan, vec![]),
        workload: two_tenant_workload(2, 3, 64),
    }
}

/// One storage node is a straggler for the whole run: quarter CPU, half
/// NIC. Both tenants stripe over the pool, so the slow node stretches both
/// of their tails — fairness should survive even though throughput drops.
pub fn straggler() -> Scenario {
    let slow = storage_node(1);
    let plan = FaultPlan::new()
        .inject(
            slow,
            FaultKind::CpuSlowdown { factor: 0.25 },
            SimTime::ZERO,
            SimSpan::from_secs_f64(10_000.0),
        )
        .inject(
            slow,
            FaultKind::NetBandwidthDip { factor: 0.5 },
            SimTime::ZERO,
            SimSpan::from_secs_f64(10_000.0),
        );
    Scenario {
        name: "straggler",
        summary: "one straggling storage node (1/4 CPU, 1/2 NIC) for the whole run",
        cfg: base_cfg(3, plan, vec![]),
        workload: two_tenant_workload(3, 3, 64),
    }
}

/// Elastic pool membership: storage ordinal 2 only joins the pool at
/// t = 0.8 s (offline from time zero), and ordinal 0 leaves mid-transfer
/// over [0.4 s, 1.2 s) before rejoining. Flows on the absent node park at
/// rate zero and resume on rejoin; the CE re-probes recovered nodes.
pub fn join_leave() -> Scenario {
    let plan = FaultPlan::new()
        .node_join(storage_node(2), SimTime::from_secs_f64(0.8))
        .node_leave(
            storage_node(0),
            SimTime::from_secs_f64(0.4),
            SimSpan::from_secs_f64(0.8),
        );
    Scenario {
        name: "join-leave",
        summary: "a late-joining storage node plus a mid-transfer leave/rejoin",
        cfg: base_cfg(3, plan, vec![]),
        workload: two_tenant_workload(3, 3, 64),
    }
}

/// Heterogeneous node capabilities: a full-speed node, a 0.6× node and a
/// 0.3×-CPU / 0.5×-NIC node, modelled as whole-run degradation windows.
/// Tenants interleave over all three tiers.
pub fn heterogeneous() -> Scenario {
    let run = SimSpan::from_secs_f64(10_000.0);
    let plan = FaultPlan::new()
        .inject(
            storage_node(1),
            FaultKind::CpuSlowdown { factor: 0.6 },
            SimTime::ZERO,
            run,
        )
        .inject(
            storage_node(2),
            FaultKind::CpuSlowdown { factor: 0.3 },
            SimTime::ZERO,
            run,
        )
        .inject(
            storage_node(2),
            FaultKind::NetBandwidthDip { factor: 0.5 },
            SimTime::ZERO,
            run,
        );
    Scenario {
        name: "heterogeneous",
        summary: "three capability tiers of storage node (1.0 / 0.6 / 0.3 CPU)",
        cfg: base_cfg(3, plan, vec![]),
        workload: two_tenant_workload(3, 3, 64),
    }
}

/// Two tenants with declared SLOs: the throughput tenant wants an aggregate
/// bandwidth floor, the latency tenant a p95 ceiling. The bounds are set so
/// a healthy run meets both — the golden snapshot locks the verdicts in.
pub fn two_tenant_slo() -> Scenario {
    let slos = vec![
        TenantSlo::for_tenant(0).min_bandwidth(10.0 * MIB as f64),
        TenantSlo::for_tenant(1).max_p95_latency_secs(30.0),
    ];
    Scenario {
        name: "two-tenant-slo",
        summary: "bandwidth-floor and p95-ceiling SLOs verified end of run",
        cfg: base_cfg(2, FaultPlan::new(), slos),
        workload: two_tenant_workload(2, 3, 64),
    }
}

/// Long-horizon soak: three tenants, four servers, a storm *and* a
/// leave/rejoin, with observability sampling every 25 ms. Callers point
/// `cfg.obs.stream_path` at a file — the timeline streams to disk as JSONL
/// at record time and the in-memory rings stay empty, so memory stays O(1)
/// in run length.
pub fn soak() -> Scenario {
    let cluster = ClusterConfig {
        storage_nodes: 4,
        ..ClusterConfig::deterministic()
    };
    let storage: Vec<usize> = (0..4).map(storage_node).collect();
    let mut rng = RngFactory::new(2012).stream("scenario-soak");
    let plan = FaultPlan::random_storm(
        &mut rng,
        &storage,
        SimTime::from_secs_f64(1.0),
        SimSpan::from_secs_f64(6.0),
        2,
    )
    .node_leave(
        storage_node(3),
        SimTime::from_secs_f64(2.0),
        SimSpan::from_secs_f64(1.5),
    );
    let mut cfg = base_cfg(4, plan, vec![]);
    cfg.cluster = cluster;
    cfg.obs = obs::ObsConfig::enabled();
    cfg.obs.sample_period = SimSpan::from_millis(25);
    Scenario {
        name: "soak",
        summary: "long-horizon 3-tenant soak with storm + leave, obs streamed to disk",
        cfg,
        workload: Workload::multi_tenant(
            &[
                (
                    "gaussian2d".into(),
                    KernelParams::with_width(1024),
                    512 * MIB,
                    4,
                ),
                ("sum".into(), KernelParams::default(), 384 * MIB, 4),
                (
                    "grep".into(),
                    KernelParams::with_pattern(b"needle"),
                    256 * MIB,
                    4,
                ),
            ],
            4,
        ),
    }
}

/// Open-loop Poisson burst well past the pool's service rate: arrivals
/// pile up tens deep on two servers, so the run is queue-dominated rather
/// than admission-dominated. Tenant 0 runs full-output Gaussian filters —
/// its results ship at input size, so its traffic is network-heavy and
/// per-tenant rate caps (token-bucket, PI) bind on real data flows.
/// Capping it measurably moves makespan, which `tests/policy_arena.rs`
/// locks in against the default CE policy.
pub fn open_loop_burst() -> Scenario {
    let full_gaussian = KernelParams {
        width: Some(1024),
        full_output: true,
        ..KernelParams::default()
    };
    Scenario {
        name: "open-loop-burst",
        summary: "Poisson burst piles deep queues on 2 servers; rate caps bind",
        cfg: base_cfg(2, FaultPlan::new(), vec![]),
        workload: Workload::open_loop(&OpenLoopSpec {
            arrival_rate: 60.0,
            horizon: SimSpan::from_secs_f64(1.5),
            max_requests: 256,
            size_min: 4 * MIB,
            size_max: 64 * MIB,
            alpha: 1.3,
            tenants: vec![
                ("gaussian2d".into(), full_gaussian, 2.0),
                ("sum".into(), KernelParams::default(), 1.0),
            ],
            storage_nodes: 2,
            seed: 2012,
        }),
    }
}

/// Two tenants on a k=4 fat-tree: 8 compute hosts fill pods 0–1 and the
/// 8 storage hosts fill pods 2–3, so every transfer crosses the core layer
/// and flows share edge/aggregation/core links, not just host NICs. The
/// golden pins the multi-hop max-min fill end to end.
pub fn fat_tree() -> Scenario {
    let mut cfg = base_cfg(8, FaultPlan::new(), vec![]);
    cfg.cluster.topology = TopologySpec::FatTree { k: 4 };
    Scenario {
        name: "fat-tree",
        summary: "two tenants on a k=4 fat-tree; all transfers cross core links",
        cfg,
        workload: two_tenant_workload(8, 4, 32),
    }
}

/// Every scenario, in suite order.
pub fn all() -> Vec<Scenario> {
    vec![
        fault_storm(),
        straggler(),
        join_leave(),
        heterogeneous(),
        two_tenant_slo(),
        soak(),
        open_loop_burst(),
        fat_tree(),
    ]
}

/// Look a scenario up by its `name`.
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        let scenarios = all();
        assert_eq!(scenarios.len(), 8);
        for s in &scenarios {
            assert_eq!(by_name(s.name).unwrap().name, s.name);
            assert!(
                s.workload.tenant_count() >= 2,
                "{}: scenarios are multi-tenant",
                s.name
            );
            s.cfg.cluster.validate().unwrap();
        }
        let mut names: Vec<_> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "duplicate scenario name");
    }

    #[test]
    fn constructors_are_reproducible() {
        // The storm-backed plans must rebuild identically from their seeds.
        assert_eq!(fault_storm().cfg.fault_plan, fault_storm().cfg.fault_plan);
        assert_eq!(soak().cfg.fault_plan, soak().cfg.fault_plan);
    }
}
