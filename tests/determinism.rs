//! Determinism of the serial executor.
//!
//! The contract: a `DriverConfig` (seed included) and a `Workload` fix a run
//! exactly, so running the same pair twice serializes `RunMetrics` to the
//! same bytes. The goldens pin that for a fixed matrix; here it is checked
//! for random workloads, and shown not to be vacuous (different seeds give
//! different runs).
//!
//! The scenario deliberately stacks the order-sensitive machinery: DOSAS
//! demote/interrupt decisions, per-flow bandwidth jitter, CPU jitter RNG
//! draws, and a mid-run storage-node CPU fault window.

use dosas_repro::prelude::*;

const MIB: u64 = 1024 * 1024;

/// Discfarm's storage node (8 compute nodes come first).
const STORAGE_NODE: usize = 8;

fn contended_cfg(scheme: Scheme, seed: u64) -> DriverConfig {
    DriverConfig {
        cluster: ClusterConfig::discfarm(),
        scheme,
        rates: OpRates::paper(),
        seed,
        data_plane: false,
        trace: false,
        fault_plan: FaultPlan::new().inject(
            STORAGE_NODE,
            FaultKind::CpuSlowdown { factor: 0.4 },
            SimTime::from_secs_f64(1.0),
            SimSpan::from_secs_f64(2.0),
        ),
        slos: Vec::new(),
        obs: ObsConfig::default(),
        autopsy: false,
    }
}

fn contended_workload() -> Workload {
    Workload::uniform_active(6, 1, 48 * MIB, "gaussian2d", KernelParams::with_width(1024))
}

fn run_json(cfg: DriverConfig, workload: &Workload) -> String {
    serde_json::to_string_pretty(&Driver::run(cfg, workload)).expect("RunMetrics serializes")
}

/// Different seeds produce different runs (replay equality is not vacuous:
/// jitter is on and actually consumed).
#[test]
fn runs_distinguish_seeds() {
    let a = run_json(
        contended_cfg(Scheme::dosas_default(), 7),
        &contended_workload(),
    );
    let b = run_json(
        contended_cfg(Scheme::dosas_default(), 8),
        &contended_workload(),
    );
    assert_ne!(a, b, "seeds 7 and 8 produced identical metrics");
}

/// Scheduled-vs-dispatched accounting: a run-to-drain simulation dispatches
/// every event it ever scheduled except the superseded disk, CPU and fabric
/// ticks the resource timers cancelled before they could fire.
#[test]
fn run_to_drain_dispatches_every_scheduled_event() {
    let metrics = Driver::run(
        contended_cfg(Scheme::dosas_default(), 3),
        &contended_workload(),
    );
    assert_eq!(
        metrics.events_scheduled,
        metrics.events + metrics.events_cancelled,
        "drained run should leave no pending events"
    );
    assert!(metrics.events > 0);
    assert!(
        metrics.events_cancelled > 0,
        "a contended workload must supersede at least one tick"
    );
}

/// Randomized replay: for arbitrary small workloads (cluster size, rank
/// fan-out, request size, scheme, optional mid-run fault) a second run of
/// the same config serializes `RunMetrics` to exactly the bytes of the
/// first.
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn random_cfg(scheme: Scheme, seed: u64, storage: usize, fault: bool) -> DriverConfig {
        let mut cfg = contended_cfg(scheme, seed);
        cfg.cluster = ClusterConfig {
            storage_nodes: storage,
            ..ClusterConfig::discfarm()
        };
        if !fault {
            cfg.fault_plan = FaultPlan::new();
        }
        cfg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn random_workloads_replay_byte_identically(
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
            let workload = Workload::uniform_active(
                per_server,
                storage,
                mib * MIB,
                "gaussian2d",
                KernelParams::with_width(1024),
            );
            let first = run_json(random_cfg(scheme.clone(), seed, storage, fault), &workload);
            let second = run_json(random_cfg(scheme.clone(), seed, storage, fault), &workload);
            prop_assert_eq!(
                &first, &second,
                "scheme {:?} seed {}: replay diverged",
                scheme, seed
            );
        }
    }
}
