//! Request-autopsy invariants (DESIGN.md §14).
//!
//! The causal-span layer promises an *exact additive* decomposition: every
//! request's hop services and waits sum to its end-to-end latency (within
//! 1e-9 relative — pure float summation error, no model slack), every
//! attribution partition (cause / tenant / node) sums to the aggregate
//! wait, and the critical path tiles `[0, last rank finish]`. Because hops
//! are recorded inside event handlers, which the executor dispatches in one
//! deterministic total order, the report is also byte-identical across
//! replays — checked on the rendered text, the artifact
//! `dosas-sim --autopsy` ships.

use dosas_repro::prelude::*;

const MIB: u64 = 1024 * 1024;

/// Discfarm's first storage node (8 compute nodes come first).
const STORAGE_NODE: usize = 8;

/// Relative additivity tolerance: float summation error only.
const REL_TOL: f64 = 1e-9;

fn faulted_plan() -> FaultPlan {
    // Windows sized to overlap a sub-second contended run: the disk stall
    // catches the first wave of reads, the CPU slowdown the kernels.
    FaultPlan::new()
        .inject(
            STORAGE_NODE,
            FaultKind::CpuSlowdown { factor: 0.4 },
            SimTime::from_secs_f64(0.05),
            SimSpan::from_secs_f64(0.5),
        )
        .inject(
            STORAGE_NODE,
            FaultKind::DiskStall,
            SimTime::from_secs_f64(0.01),
            SimSpan::from_secs_f64(0.2),
        )
        .inject(
            STORAGE_NODE + 1,
            FaultKind::NetBandwidthDip { factor: 0.5 },
            SimTime::from_secs_f64(0.0),
            SimSpan::from_secs_f64(1.0),
        )
}

/// Two tenants contending over two storage nodes, faults on.
fn tenant_cfg(scheme: Scheme, seed: u64) -> DriverConfig {
    DriverConfig {
        cluster: ClusterConfig {
            storage_nodes: 2,
            ..ClusterConfig::discfarm()
        },
        scheme,
        rates: OpRates::paper(),
        seed,
        data_plane: false,
        trace: false,
        fault_plan: faulted_plan(),
        slos: Vec::new(),
        obs: ObsConfig::default(),
        autopsy: true,
    }
}

fn tenant_workload() -> Workload {
    Workload::multi_tenant(
        &[
            (
                "gaussian2d".into(),
                KernelParams::with_width(1024),
                24 * MIB,
                3,
            ),
            ("sum".into(), KernelParams::default(), 12 * MIB, 3),
        ],
        2,
    )
}

fn assert_additive(report: &AutopsyReport) {
    assert!(!report.requests.is_empty(), "autopsy recorded no requests");
    for r in &report.requests {
        let lat = r.latency_secs();
        let sum = r.service_secs() + r.wait_secs();
        assert!(
            (sum - lat).abs() <= REL_TOL * lat.max(1.0),
            "app {}: hops sum to {sum} but end-to-end is {lat}",
            r.app
        );
        for pair in r.hops.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "app {}: hop gap", r.app);
        }
    }
    let total = report.total_wait_secs;
    for (name, part) in [
        (
            "cause",
            report
                .wait_by_cause
                .iter()
                .map(|c| c.wait_secs)
                .sum::<f64>(),
        ),
        (
            "tenant",
            report.per_tenant.iter().map(|t| t.wait_secs).sum::<f64>(),
        ),
        (
            "node",
            report.per_node.iter().map(|n| n.wait_secs).sum::<f64>(),
        ),
    ] {
        assert!(
            (part - total).abs() <= REL_TOL * total.max(1.0),
            "per-{name} waits sum to {part}, aggregate is {total}"
        );
    }
    let cp = &report.critical_path;
    let sum = cp.service_secs + cp.wait_secs;
    assert!(
        (sum - cp.finish_secs).abs() <= REL_TOL * cp.finish_secs.max(1.0),
        "critical path sums to {sum}, rank finished at {}",
        cp.finish_secs
    );
    assert!(!cp.segments.is_empty(), "critical path has no segments");
    for pair in cp.segments.windows(2) {
        assert_eq!(pair[0].end, pair[1].start, "critical-path segment gap");
    }
}

/// Faulted two-tenant DOSAS run: every additivity invariant holds, both
/// tenants appear in the attribution, and at least one fault-window wait
/// was classified as such.
#[test]
fn faulted_tenant_run_decomposes_exactly() {
    for scheme in [
        Scheme::dosas_default(),
        Scheme::ActiveStorage,
        Scheme::Traditional,
    ] {
        let m = Driver::run(tenant_cfg(scheme.clone(), 11), &tenant_workload());
        let report = m.autopsy.as_ref().expect("autopsy on");
        assert_additive(report);
        assert!(
            report.total_wait_secs > 0.0,
            "scheme {scheme:?}: a contended faulted run must wait somewhere"
        );
        let tenants: Vec<Option<usize>> = report.per_tenant.iter().map(|t| t.tenant).collect();
        assert!(
            tenants.contains(&Some(0)) && tenants.contains(&Some(1)),
            "scheme {scheme:?}: both tenants should accumulate wait, got {tenants:?}"
        );
        assert!(
            report
                .wait_by_cause
                .iter()
                .any(|c| c.cause == "fault-stall"),
            "scheme {scheme:?}: fault windows should surface as fault-stall waits"
        );
    }
}

/// The rendered report — the byte-for-byte artifact `dosas-sim --autopsy`
/// writes — is identical across replays, and so is the full serialized
/// `RunMetrics` carrying it.
#[test]
fn autopsy_is_bit_identical_across_replays() {
    let run = || {
        let m = Driver::run(tenant_cfg(Scheme::dosas_default(), 7), &tenant_workload());
        let rendered = m.autopsy.as_ref().expect("autopsy on").render(5);
        let json = serde_json::to_string_pretty(&m).expect("RunMetrics serializes");
        (rendered, json)
    };
    let (first_txt, first_json) = run();
    assert!(first_txt.contains("# request autopsy"));
    let (replay_txt, replay_json) = run();
    assert_eq!(first_txt, replay_txt, "replayed render diverged");
    assert_eq!(first_json, replay_json, "replayed metrics diverged");
}

/// The autopsy is observational: switching it on changes no simulated
/// outcome, and switching it off leaves no trace in the serialized metrics
/// (the goldens' byte-identity guarantee).
#[test]
fn autopsy_is_zero_cost_when_off_and_observational_when_on() {
    let mut cfg_off = tenant_cfg(Scheme::dosas_default(), 7);
    cfg_off.autopsy = false;
    let off = Driver::run(cfg_off, &tenant_workload());
    let on = Driver::run(tenant_cfg(Scheme::dosas_default(), 7), &tenant_workload());
    assert!(off.autopsy.is_none());
    assert_eq!(
        off.makespan_secs, on.makespan_secs,
        "autopsy changed timing"
    );
    assert_eq!(off.events, on.events, "autopsy changed the event stream");
    let json = serde_json::to_string_pretty(&off).expect("serializes");
    assert!(
        !json.contains("\"autopsy\""),
        "disabled autopsy must not appear in serialized metrics"
    );
}

/// Randomized additivity: arbitrary small workloads (scheme, fan-out,
/// request size, optional faults) keep every request's decomposition exact
/// and every partition summing to the aggregate.
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn random_runs_decompose_exactly(
            seed in 0u64..1_000,
            per_server in 1usize..4,
            storage in 1usize..3,
            mib in 1u64..8,
            scheme_ix in 0usize..3,
            fault in (0u8..2).prop_map(|b| b == 1),
        ) {
            let scheme = match scheme_ix {
                0 => Scheme::Traditional,
                1 => Scheme::ActiveStorage,
                _ => Scheme::dosas_default(),
            };
            let mut cfg = tenant_cfg(scheme, seed);
            cfg.cluster = ClusterConfig {
                storage_nodes: storage,
                ..ClusterConfig::discfarm()
            };
            if !fault {
                cfg.fault_plan = FaultPlan::new();
            }
            let workload = Workload::uniform_active(
                per_server,
                storage,
                mib * MIB,
                "gaussian2d",
                KernelParams::with_width(1024),
            );
            let m = Driver::run(cfg, &workload);
            let report = m.autopsy.as_ref().expect("autopsy on");
            assert_additive(report);
        }
    }
}
