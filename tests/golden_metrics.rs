//! Golden `RunMetrics` snapshots: the behaviour-preservation harness.
//!
//! Every scheme (TS / AS / DOSAS / DOSAS-partial) runs a fixed workload on
//! the paper's jittered testbed across three seeds; the full serialized
//! `RunMetrics` (records, counters, policy log, event count) must match the
//! committed snapshot byte for byte. Any change to event ordering, resource
//! accounting, or RNG stream consumption anywhere in the stack shows up
//! here — which is exactly what lets refactors prove themselves
//! behaviour-preserving (the same determinism discipline as
//! `tests/failure_scenarios.rs`).
//!
//! Regenerating after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_metrics
//! git diff tests/golden/   # review every changed number before committing
//! ```

use dosas_repro::prelude::*;
use std::fs;
use std::path::PathBuf;

const MIB: u64 = 1024 * 1024;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

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
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
    }
    for (key, scheme) in schemes() {
        for seed in [1u64, 2, 3] {
            let metrics = Driver::run(cfg(scheme.clone(), seed), &workload());
            let mut json = serde_json::to_string_pretty(&metrics).expect("RunMetrics serializes");
            json.push('\n');
            let path = golden_dir().join(format!("{key}-seed{seed}.json"));
            if update {
                fs::write(&path, &json).expect("write golden snapshot");
                continue;
            }
            let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden snapshot {path:?} ({e}); regenerate with \
                     UPDATE_GOLDEN=1 cargo test --test golden_metrics"
                )
            });
            assert_eq!(
                json, expected,
                "{key} seed {seed}: RunMetrics diverged from {path:?}; if the \
                 change is intentional, regenerate with UPDATE_GOLDEN=1 and \
                 review the diff"
            );
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
