//! Golden `RunMetrics` snapshots: the behaviour-preservation harness.
//!
//! Every scheme (TS / AS / DOSAS / DOSAS-partial) runs a fixed workload on
//! the paper's jittered testbed across three seeds; the full serialized
//! `RunMetrics` (records, counters, policy log, event counts) must match the
//! committed snapshot byte for byte, in a model and an engine-counter tier
//! (`tests/common`). Any change to event ordering, resource
//! accounting, or RNG stream consumption anywhere in the stack shows up
//! here — which is exactly what lets refactors prove themselves
//! behaviour-preserving (the same determinism discipline as
//! `tests/failure_scenarios.rs`).
//!
//! Regenerate after an *intentional* change with
//! `UPDATE_GOLDEN=1 cargo test --test golden_metrics` (see `tests/common`).

mod common;

use dosas_repro::prelude::*;

const MIB: u64 = 1024 * 1024;

/// The paper's testbed (jitter on, so seeds genuinely differ), fixed rates.
fn cfg(scheme: Scheme, seed: u64) -> DriverConfig {
    DriverConfig {
        cluster: ClusterConfig::discfarm(),
        scheme,
        rates: OpRates::paper(),
        seed,
        data_plane: false,
        trace: false,
        fault_plan: FaultPlan::default(),
        slos: Vec::new(),
        obs: ObsConfig::default(),
        autopsy: false,
    }
}

/// Enough concurrent Gaussians to make DOSAS demote/interrupt (the
/// contention regime where the schemes actually diverge).
fn workload() -> Workload {
    Workload::uniform_active(6, 1, 64 * MIB, "gaussian2d", KernelParams::with_width(1024))
}

fn schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("ts", Scheme::Traditional),
        ("as", Scheme::ActiveStorage),
        ("dosas", Scheme::dosas_default()),
        ("dosas-partial", Scheme::dosas_partial()),
    ]
}

#[test]
fn golden_run_metrics_are_bit_identical() {
    for (key, scheme) in schemes() {
        for seed in [1u64, 2, 3] {
            let metrics = Driver::run(cfg(scheme.clone(), seed), &workload());
            common::check_golden(&format!("{key}-seed{seed}"), &metrics);
        }
    }
}

/// Deep sharing: 512 kernels fan in on one single-core storage node, so its
/// CPU time-slices hundreds of kernels at once (the goldens above put at
/// most six on a core), under a CPU fault that halves the node's capacity at
/// 1.0 s, stalls it at factor 0 from 1.7 s and restores it at 2.1 s. AS runs
/// every kernel on the shared core; DOSAS deciding only at its 800 ms probes
/// first admits every kernel, then interrupts the running ones (over a
/// hundred at the first probe) and ships their residue; partial offload
/// splits every request.
#[test]
fn deep_sharing_golden_is_bit_identical() {
    let w = Workload::uniform_active(
        512,
        1,
        2 * MIB,
        "gaussian2d",
        KernelParams::with_width(1024),
    );
    let storage = ClusterConfig::discfarm().compute_nodes;
    let plan = FaultPlan::new()
        .inject(
            storage,
            FaultKind::CpuSlowdown { factor: 0.5 },
            SimTime::from_secs_f64(1.0),
            SimSpan::from_millis(700),
        )
        .inject(
            storage,
            FaultKind::CpuSlowdown { factor: 0.0 },
            SimTime::from_secs_f64(1.7),
            SimSpan::from_millis(400),
        );
    let periodic = DosasConfig {
        decide_on_arrival: false,
        probe_period: SimSpan::from_millis(800),
        ..DosasConfig::default()
    };
    for (key, scheme) in [
        ("as", Scheme::ActiveStorage),
        ("dosas-periodic", Scheme::Dosas(periodic)),
        ("dosas-partial", Scheme::dosas_partial()),
    ] {
        let c = DriverConfig {
            fault_plan: plan.clone(),
            ..cfg(scheme, 1)
        };
        let m = Driver::run(c, &w);
        assert_eq!(m.records.len(), 512, "{key}: every request completes");
        match key {
            "as" => assert_eq!(m.runtime.completed_active, 512),
            "dosas-periodic" => assert!(m.runtime.interrupted > 100, "{:?}", m.runtime),
            _ => assert_eq!(m.runtime.split, 512),
        }
        common::check_golden(&format!("deep-sharing-{key}"), &m);
    }
}

/// The snapshots themselves must be reproducible: running a scheme twice
/// with the same seed yields the same serialized metrics.
#[test]
fn golden_runs_are_deterministic() {
    let c = cfg(Scheme::dosas_default(), 2);
    let w = workload();
    let a = serde_json::to_string(&Driver::run(c.clone(), &w)).unwrap();
    let b = serde_json::to_string(&Driver::run(c, &w)).unwrap();
    assert_eq!(a, b);
}
