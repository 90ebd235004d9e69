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
