//! The multi-tenant scenario suite: every named scenario from
//! `bench::scenarios` — fault storm, straggler, elastic join/leave,
//! heterogeneous capability tiers, declared SLOs, the long-horizon soak,
//! the deep-queue open-loop burst, and the k=4 fat-tree — runs
//! deterministically, pins a golden `RunMetrics` snapshot, and replays it
//! byte for byte.
//!
//! Regenerate after an *intentional* change with
//! `UPDATE_GOLDEN=1 cargo test --test tenant_scenarios` (see `tests/common`).

mod common;

use bench::scenarios;
use dosas_repro::prelude::*;
use std::fs;

fn run_json(s: &scenarios::Scenario) -> String {
    common::snapshot_json(&Driver::run(s.cfg.clone(), &s.workload))
}

/// Golden snapshots: one per scenario, byte-for-byte.
#[test]
fn scenario_metrics_match_golden_snapshots() {
    for s in scenarios::all() {
        let m = Driver::run(s.cfg.clone(), &s.workload);
        common::check_golden(&format!("scenario-{}", s.name), &m);
    }
}

/// The fat-tree scenario's multi-hop max-min fills replay byte-identically:
/// a second run reproduces the first exactly.
#[test]
fn fat_tree_scenario_replays_byte_identically() {
    let s = scenarios::by_name("fat-tree").unwrap();
    assert_eq!(
        run_json(&s),
        run_json(&s),
        "fat-tree: the replay diverged from the first run"
    );
}

/// Cross-cutting tenant invariants every scenario must satisfy: all
/// requests complete, per-tenant shares partition the aggregate exactly,
/// and the fairness index is well-formed.
#[test]
fn scenario_tenant_accounting_is_conserved() {
    for s in scenarios::all() {
        let m = Driver::run(s.cfg.clone(), &s.workload);
        assert_eq!(
            m.records.len(),
            s.workload.rank_count(),
            "{}: every request completes",
            s.name
        );
        let t = m.tenants.as_ref().unwrap_or_else(|| {
            panic!("{}: tenanted workloads must produce a TenantReport", s.name)
        });
        assert_eq!(t.per_tenant.len(), s.workload.tenant_count());
        let share_sum: f64 = t.per_tenant.iter().map(|p| p.achieved_bandwidth).sum();
        assert!(
            (share_sum - m.achieved_bandwidth).abs() <= 1e-9 * m.achieved_bandwidth,
            "{}: tenant shares must sum to the aggregate ({share_sum} vs {})",
            s.name,
            m.achieved_bandwidth
        );
        let demand = s.workload.tenant_request_bytes();
        for p in &t.per_tenant {
            assert!(
                p.bytes <= demand[p.tenant] as f64 + 1e-6,
                "{}: tenant {} completed more than it asked for",
                s.name,
                p.tenant
            );
        }
        assert!(
            t.jain_fairness > 0.0 && t.jain_fairness <= 1.0 + 1e-12,
            "{}: Jain index out of range: {}",
            s.name,
            t.jain_fairness
        );
    }
}

/// The declared SLOs of the `two-tenant-slo` scenario hold on the healthy
/// run — and the verdicts are part of the golden snapshot, so a regression
/// that slows a tenant below its floor shows up twice.
#[test]
fn declared_slos_are_met_and_verdicts_recorded() {
    let s = scenarios::by_name("two-tenant-slo").unwrap();
    let m = Driver::run(s.cfg.clone(), &s.workload);
    let t = m.tenants.as_ref().unwrap();
    assert_eq!(t.slos.len(), 2, "both declared SLOs get a verdict");
    assert!(
        t.all_slos_met(),
        "healthy run must meet its SLOs: {:?}",
        t.slos
    );
    // Tighten the floor beyond physical capacity and the verdict flips.
    let mut strict = s.cfg.clone();
    strict.slos = vec![TenantSlo::for_tenant(0).min_bandwidth(10e9)];
    let m = Driver::run(strict, &s.workload);
    let t = m.tenants.as_ref().unwrap();
    assert!(!t.all_slos_met(), "an impossible floor must be violated");
    assert!(!t.slos[0].violations.is_empty());
}

/// Elasticity: the join/leave scenario genuinely exercises the membership
/// machinery — probes of absent nodes are lost, the CE recovers after each
/// rejoin, and nothing wedges.
#[test]
fn join_leave_recovers_probes_and_completes() {
    let s = scenarios::by_name("join-leave").unwrap();
    let m = Driver::run(s.cfg.clone(), &s.workload);
    assert_eq!(m.records.len(), s.workload.rank_count());
    assert!(m.ce.probes_lost > 0, "absent nodes must lose probes");
    assert!(
        m.ce.recoveries >= 2,
        "the CE must recover once per returning node: {:?}",
        m.ce
    );
}

/// The soak scenario streams its timeline to disk: the JSONL file carries
/// every record (rings stay empty), each line parses back, and two runs
/// stream byte-identical files.
#[test]
fn soak_streams_timeline_to_disk_deterministically() {
    let dir = std::env::temp_dir().join(format!("dosas-soak-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create temp dir");
    let mut paths = Vec::new();
    for tag in ["first", "replay"] {
        let s = scenarios::by_name("soak").unwrap();
        let path = dir.join(format!("soak-{tag}.jsonl"));
        let mut cfg = s.cfg.clone();
        cfg.obs.stream_path = Some(path.to_str().unwrap().to_string());
        let m = Driver::run(cfg, &s.workload);
        let report = m.obs.as_ref().expect("soak runs with obs enabled");
        assert!(
            report.samples.is_empty() && report.events.is_empty(),
            "streaming must divert records from the in-memory rings"
        );
        assert!(report.records_streamed > 100, "a soak streams many records");
        let text = fs::read_to_string(&path).expect("stream file written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, report.records_streamed);
        for line in &lines {
            let rec: TimelineRecord = serde_json::from_str(line).expect("line parses");
            assert_eq!(serde_json::to_string(&rec).unwrap(), *line);
        }
        paths.push(path);
    }
    let first = fs::read(&paths[0]).unwrap();
    let replay = fs::read(&paths[1]).unwrap();
    assert_eq!(
        first, replay,
        "streamed timelines must be byte-identical across runs"
    );
    fs::remove_dir_all(&dir).ok();
}

/// Per-tenant gauges flow through the obs registry: the Prometheus
/// snapshot of a tenanted run carries `{tenant="..."}` series for every
/// tenant, plus the fairness gauge.
#[test]
fn tenant_gauges_reach_the_prometheus_snapshot() {
    let s = scenarios::by_name("two-tenant-slo").unwrap();
    let mut cfg = s.cfg.clone();
    cfg.obs = ObsConfig::enabled();
    let m = Driver::run(cfg, &s.workload);
    let prom = m.obs.as_ref().unwrap().to_prometheus();
    obs::validate_prometheus(&prom).expect("snapshot parses");
    for t in 0..s.workload.tenant_count() {
        assert!(
            prom.contains(&format!(
                "dosas_tenant_achieved_bandwidth_bytes_per_sec{{tenant=\"{t}\"}}"
            )),
            "missing per-tenant bandwidth gauge for tenant {t}:\n{prom}"
        );
        assert!(prom.contains(&format!("dosas_tenant_slo_met{{tenant=\"{t}\"}}")));
    }
    assert!(prom.contains("dosas_tenant_jain_fairness"));
}
