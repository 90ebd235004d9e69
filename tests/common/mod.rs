//! Golden `RunMetrics` snapshots (`tests/golden/<name>.json`), shared by
//! `golden_metrics`, `tenant_scenarios` and `policy_arena`.
//!
//! A snapshot is compared in two tiers, each with its own failure message:
//!
//! * *model*: every field except the engine counters, byte for byte — what
//!   the simulated system did;
//! * *engine counters*: `events`, `events_scheduled` and `events_cancelled`
//!   — how many events the engine scheduled, dispatched and cancelled to
//!   get there. A change to how the engine schedules work alone moves only
//!   this tier.
//!
//! Regenerating after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test <golden_metrics|tenant_scenarios|policy_arena>
//! git diff tests/golden/   # review every changed number before committing
//! ```

use dosas_repro::prelude::RunMetrics;
use std::fs;
use std::path::PathBuf;

const ENGINE_COUNTERS: [&str; 3] = ["events", "events_scheduled", "events_cancelled"];

/// The snapshot text of `metrics`: pretty JSON plus a trailing newline.
pub fn snapshot_json(metrics: &RunMetrics) -> String {
    let mut json = serde_json::to_string_pretty(metrics).expect("RunMetrics serializes");
    json.push('\n');
    json
}

/// Split snapshot text into its (model, engine-counter) lines. The engine
/// counters are top-level fields, so their lines sit at a two-space indent.
fn tiers(json: &str) -> (String, String) {
    let keys: Vec<String> = ENGINE_COUNTERS
        .iter()
        .map(|k| format!("  \"{k}\": "))
        .collect();
    let (engine, model): (Vec<&str>, Vec<&str>) = json
        .lines()
        .partition(|line| keys.iter().any(|k| line.starts_with(k)));
    (model.join("\n"), engine.join("\n"))
}

/// Check `metrics` against `tests/golden/<name>.json`, tier by tier, or
/// rewrite the snapshot when `UPDATE_GOLDEN` is set.
pub fn check_golden(name: &str, metrics: &RunMetrics) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let path = dir.join(format!("{name}.json"));
    let json = snapshot_json(metrics);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(&dir).expect("create tests/golden");
        fs::write(&path, &json).expect("write golden snapshot");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {path:?} ({e}); regenerate with UPDATE_GOLDEN=1")
    });
    let (model, engine) = tiers(&json);
    let (want_model, want_engine) = tiers(&expected);
    assert_eq!(
        model, want_model,
        "{name}: model outputs diverged from {path:?}; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
    assert_eq!(
        engine, want_engine,
        "{name}: engine counters diverged from {path:?} while every model \
         output held: the engine now schedules, dispatches or cancels a \
         different number of events; if intended, regenerate with \
         UPDATE_GOLDEN=1"
    );
}
