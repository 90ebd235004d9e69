//! The policy arena: every competitor contention-control policy from
//! `dosas::policy` — straggler-aware re-striping, the PADLL-style
//! per-tenant token bucket, and the PI queue-depth governor — runs the
//! multi-tenant scenario suite deterministically, pins golden `RunMetrics`
//! snapshots for representative (policy, scenario) cells, and replays
//! every cell byte for byte.
//!
//! (The default CE policy's own snapshots live in `tests/golden/` under
//! the pre-existing `golden_metrics` / `tenant_scenarios` tests — this
//! file covers the policies the refactor made pluggable.)
//!
//! Regenerating after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test policy_arena
//! git diff tests/golden/   # review every changed number before committing
//! ```

use bench::policy_matrix;
use bench::scenarios;
use dosas::policy::PolicyConfig;
use dosas_repro::prelude::*;
use std::fs;
use std::path::PathBuf;

/// The pinned cells: policies paired with the scenario that exercises
/// their decision machinery (restripe demotes the straggler's kernels,
/// the token bucket polices the SLO tenants, PI throttles the storm).
const PINNED: &[(&str, &str)] = &[
    ("restripe", "straggler"),
    ("token-bucket", "two-tenant-slo"),
    ("pi", "fault-storm"),
];

fn golden_path(policy: &str, scenario: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("policy-{policy}-{scenario}.json"))
}

fn run_json(policy: &str, scenario: &str) -> String {
    let s = scenarios::by_name(scenario).expect("pinned scenario exists");
    let p = PolicyConfig::by_name(policy).expect("pinned policy exists");
    let cfg = policy_matrix::with_policy(&s.cfg, p);
    let m = Driver::run(cfg, &s.workload);
    let mut json = serde_json::to_string_pretty(&m).expect("RunMetrics serializes");
    json.push('\n');
    json
}

/// Golden snapshots, one per pinned (policy, scenario) cell.
#[test]
fn pinned_policy_cells_match_golden_snapshots() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for &(policy, scenario) in PINNED {
        let json = run_json(policy, scenario);
        let path = golden_path(policy, scenario);
        if update {
            fs::write(&path, &json).expect("write golden snapshot");
            continue;
        }
        let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {path:?} ({e}); regenerate with \
                 UPDATE_GOLDEN=1 cargo test --test policy_arena"
            )
        });
        assert_eq!(
            json, expected,
            "{policy} x {scenario}: RunMetrics diverged from {path:?}; if \
             the change is intentional, regenerate with UPDATE_GOLDEN=1 and \
             review the diff"
        );
    }
}

/// Every non-CE policy replays every scenario byte-identically — the full
/// arena, not just the pinned cells.
#[test]
fn every_policy_replays_every_scenario_byte_identically() {
    for name in PolicyConfig::all_names() {
        if *name == "ce" {
            continue; // pinned by the pre-existing scenario goldens
        }
        for scenario in scenarios::all() {
            let run = || {
                let p = PolicyConfig::by_name(name).unwrap();
                let cfg = policy_matrix::with_policy(&scenario.cfg, p);
                serde_json::to_string(&Driver::run(cfg, &scenario.workload)).unwrap()
            };
            assert_eq!(
                run(),
                run(),
                "{} x {}: replay must be byte-identical",
                name,
                scenario.name
            );
        }
    }
}

/// Each competitor's decision machinery genuinely engages on its pinned
/// scenario — the goldens are not pinning noop runs.
#[test]
fn competitor_policies_act_on_their_pinned_scenarios() {
    // Restripe notices the straggler's latency and re-stripes its kernel
    // work to the client, beating the CE's analytic plan on makespan.
    let s = scenarios::by_name("straggler").unwrap();
    let ce = Driver::run(s.cfg.clone(), &s.workload);
    let cfg = policy_matrix::with_policy(&s.cfg, PolicyConfig::by_name("restripe").unwrap());
    let m = Driver::run(cfg, &s.workload);
    assert!(
        m.runtime.demoted + m.runtime.interrupted > 0,
        "restripe must demote or interrupt on the straggler scenario"
    );
    assert!(
        m.makespan_secs < ce.makespan_secs,
        "re-striping away from a 4x-slow node must beat keeping its kernels \
         ({} vs {} s)",
        m.makespan_secs,
        ce.makespan_secs
    );
    let stats = m.policy.as_ref().expect("non-CE runs report PolicyStats");
    assert_eq!(stats.name, "restripe");

    // The token bucket charges the SLO tenants' completions and caps their
    // ranks at the fabric — without breaking either declared SLO.
    let s = scenarios::by_name("two-tenant-slo").unwrap();
    let cfg = policy_matrix::with_policy(&s.cfg, PolicyConfig::by_name("token-bucket").unwrap());
    let m = Driver::run(cfg, &s.workload);
    let stats = m.policy.as_ref().expect("non-CE runs report PolicyStats");
    assert_eq!(stats.name, "token-bucket");
    assert!(
        stats.rate_caps_applied > 0,
        "the token bucket must cap the contending tenants"
    );
    assert!(
        m.tenants.as_ref().unwrap().all_slos_met(),
        "enforcement headroom must keep the declared SLOs intact"
    );

    // The PI governor sees storm-deepened queues and throttles the ranks
    // feeding them.
    let s = scenarios::by_name("fault-storm").unwrap();
    let cfg = policy_matrix::with_policy(&s.cfg, PolicyConfig::by_name("pi").unwrap());
    let m = Driver::run(cfg, &s.workload);
    let stats = m.policy.as_ref().expect("non-CE runs report PolicyStats");
    assert_eq!(stats.name, "pi");
    assert!(
        stats.rate_caps_applied > 0,
        "the PI governor must throttle storm-deepened queues"
    );
}

/// On the deep-queue open-loop burst the admission policies genuinely
/// bind: tenant 0's full-output Gaussian results ship at input size, so
/// per-rank fabric caps sit on real data flows and move the makespan by a
/// measurable margin relative to the CE baseline (not just emit caps that
/// the max-min fill ignores).
#[test]
fn rate_caps_move_makespan_on_the_open_loop_burst() {
    let s = scenarios::by_name("open-loop-burst").unwrap();
    let ce = Driver::run(s.cfg.clone(), &s.workload);
    for policy in ["token-bucket", "pi"] {
        let cfg = policy_matrix::with_policy(&s.cfg, PolicyConfig::by_name(policy).unwrap());
        let m = Driver::run(cfg, &s.workload);
        let stats = m.policy.as_ref().expect("non-CE runs report PolicyStats");
        assert!(
            stats.rate_caps_applied > 0,
            "{policy} must cap the over-budget tenant on the burst"
        );
        let shift = (m.makespan_secs - ce.makespan_secs).abs() / ce.makespan_secs;
        assert!(
            shift > 0.05,
            "{policy} caps must move makespan by >5% on the deep-queue burst \
             (ce {} s vs {} s)",
            ce.makespan_secs,
            m.makespan_secs
        );
    }
}

/// The default-policy runs serialize without a `policy` section, so every
/// pre-existing golden snapshot is untouched by the refactor.
#[test]
fn default_policy_reports_no_policy_stats() {
    let s = scenarios::by_name("two-tenant-slo").unwrap();
    let m = Driver::run(s.cfg.clone(), &s.workload);
    assert!(m.policy.is_none(), "CE runs must not grow a policy section");
    let json = serde_json::to_string(&m).unwrap();
    assert!(!json.contains("\"policy\":"));
}

/// The full arena runs end to end and differentiates the field: at least
/// one cell departs from the CE baseline on makespan or rate-cap activity.
#[test]
fn matrix_covers_every_policy_and_scenario() {
    let cells = policy_matrix::run_matrix();
    let n_policies = PolicyConfig::all_names().len();
    let n_scenarios = scenarios::all().len();
    assert_eq!(cells.len(), n_policies * n_scenarios);
    for scenario in scenarios::all() {
        for policy in PolicyConfig::all_names() {
            assert!(
                cells
                    .iter()
                    .any(|c| c.scenario == scenario.name && c.policy == *policy),
                "missing cell {policy} x {}",
                scenario.name
            );
        }
    }
    let ce_straggler = cells
        .iter()
        .find(|c| c.policy == "ce" && c.scenario == "straggler")
        .unwrap();
    let restripe_straggler = cells
        .iter()
        .find(|c| c.policy == "restripe" && c.scenario == "straggler")
        .unwrap();
    assert!(
        restripe_straggler.makespan_secs < ce_straggler.makespan_secs,
        "the arena must show restripe beating the CE on the straggler"
    );
    assert!(
        cells.iter().any(|c| c.rate_caps > 0),
        "some policy must exercise the rate-cap path"
    );
}
