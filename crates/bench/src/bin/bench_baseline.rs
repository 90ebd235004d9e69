//! Emits `BENCH_simulator.json` — the committed machine-readable baseline
//! for the simulation engine's fill, scenario and policy measurements.
//!
//! Sections, all wall-clock `Instant` timings (best of three):
//!
//! 1. `fabric_churn` — the churn-heavy flow schedule of
//!    [`bench::fabric_churn`] under the incremental water-filling fill vs
//!    the pre-incremental full-recompute baseline (`FillMode::FullRescan`),
//!    at 64 / 1024 / 8192 flows.
//! 2. `topology` — the fat-tree fill-scaling schedule of
//!    [`bench::topology_churn`] at the acceptance points (k = 16 / 1 024
//!    hosts and k = 34 / 9 826 hosts, the latter with 100k+ flows in
//!    flight): seconds of fill work per churn event under the incremental
//!    graph fill vs `FillMode::FullRescan`, and their ratio. The 10k-host
//!    full rescan is measured over a single churn event — every mutation
//!    re-fills all ~108k flows, so one event already costs two global
//!    fills and more would only repeat the figure.
//! 3. `incremental_fabric` — stale-`NetTick` suppression and fill-reuse
//!    counters from an observability-enabled standard DOSAS run: the ticks
//!    the incremental fabric proved redundant and never dispatched.
//! 4. `scenarios` — the multi-tenant scenario suite of
//!    [`bench::scenarios`] (storm, straggler, join/leave, heterogeneous,
//!    SLO, soak, open-loop burst, fat-tree): events/sec per scenario plus
//!    the fairness outcome, so the cost of the failure-rich multi-tenant
//!    regime is tracked.
//! 5. `policies` — the policy arena of [`bench::policy_matrix`]: every
//!    contention-control policy (`ce`, `restripe`, `token-bucket`, `pi`)
//!    run against every scenario, recording makespan, bandwidth, Jain
//!    fairness, SLO verdicts, demotions/interrupts and rate-cap activity
//!    per cell.
//!
//! Plus a `profile` section: the simkit executor's wall-clock dispatch
//! breakdown (per-subsystem event counts and handler time) for the paper
//! driver run, via `Driver::run_profiled`.
//!
//! ```text
//! cargo run -p bench --release --bin bench_baseline [out.json]
//! ```
//!
//! Run via `scripts/bench.sh`, which regenerates the committed file at the
//! repository root.

use bench::{fabric_churn, topology_churn};
use cluster::FillMode;
use dosas::{Driver, DriverConfig, ExecMode, RunMetrics, Scheme, Workload};
use kernels::KernelParams;
use obs::Label;
use std::path::PathBuf;
use std::time::Instant;

const MIB: u64 = 1024 * 1024;

fn paper_cfg() -> DriverConfig {
    let mut cfg = DriverConfig::paper(Scheme::dosas_default());
    cfg.seed = 42;
    cfg
}

fn paper_workload() -> Workload {
    Workload::uniform_active(
        64,
        1,
        256 * MIB,
        "gaussian2d",
        KernelParams::with_width(1024),
    )
}

/// Time the multi-tenant scenario suite: every scenario from
/// [`bench::scenarios`] (whose metrics `tests/tenant_scenarios.rs` pins in
/// golden snapshots), recording events/sec plus the per-tenant fairness
/// outcome.
fn scenario_section() -> serde_json::Value {
    let points: Vec<serde_json::Value> = bench::scenarios::all()
        .iter()
        .map(|s| {
            let m = Driver::run(s.cfg.clone(), &s.workload);
            let secs = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(Driver::run(s.cfg.clone(), &s.workload));
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            let t = m.tenants.as_ref().expect("scenarios are tenanted");
            serde_json::json!({
                "name": s.name,
                "summary": s.summary,
                "events": m.events,
                "secs": secs,
                "events_per_sec": m.events as f64 / secs,
                "makespan_secs": m.makespan_secs,
                "jain_fairness": t.jain_fairness,
                "tenants": t.per_tenant.len(),
                "slos_met": t.all_slos_met(),
            })
        })
        .collect();
    serde_json::json!({ "points": points })
}

/// Stale-tick and fill-reuse counters from an obs-enabled standard run.
fn incremental_fabric_section(metrics: &RunMetrics) -> serde_json::Value {
    let report = metrics.obs.as_ref().expect("obs-enabled run has a report");
    let counter = |subsystem, name| report.metrics.counter_value(subsystem, name, Label::None);
    serde_json::json!({
        "workload": "standard DOSAS workload (64 ranks x 256 MiB gaussian2d, paper testbed)",
        "net_ticks_suppressed": counter("fabric", "net_ticks_suppressed"),
        "net_ticks_deduped": counter("fabric", "net_ticks_deduped"),
        "net_ticks_avoided": counter("fabric", "net_ticks_avoided"),
        "events_cancelled": metrics.events_cancelled,
        "fabric_fills": counter("fabric", "fills"),
        "fabric_churn_ops": counter("fabric", "churn_ops"),
        "fabric_flows_refilled": counter("fabric", "flows_refilled"),
        "fabric_flows_reused": counter("fabric", "flows_reused"),
        "cpu_share_fills": counter("cpu", "share_fills"),
        "cpu_share_churn_ops": counter("cpu", "share_churn_ops"),
    })
}

fn main() {
    let out: PathBuf = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_simulator.json")
        });

    eprintln!("timing fabric_churn schedule (incremental vs full rescan)...");
    let churn_points: Vec<serde_json::Value> = fabric_churn::FLOW_POINTS
        .iter()
        .map(|&flows| {
            let full_secs = fabric_churn::churn_secs(flows, FillMode::FullRescan, 3);
            let inc_secs = fabric_churn::churn_secs(flows, FillMode::Incremental, 3);
            let c = fabric_churn::incremental_counters(flows);
            serde_json::json!({
                "flows": flows,
                "full_rescan_secs": full_secs,
                "incremental_secs": inc_secs,
                "speedup": full_secs / inc_secs,
                "churn_ops": c.churn_ops,
                "fills": c.fills,
                "flows_refilled": c.flows_refilled,
                "flows_reused": c.flows_reused,
            })
        })
        .collect();

    eprintln!(
        "timing topology_churn fat-tree fills (1k + 10k hosts; the 10k full \
         rescan alone costs two global fills of ~108k flows)..."
    );
    let topology_points: Vec<serde_json::Value> = topology_churn::POINTS
        .iter()
        .map(|p| {
            // At the 10k-host point one full-rescan churn event already
            // pays two global fills (~minutes of fill work); measure a
            // single event there and the usual one-tick burst elsewhere.
            let big = p.hosts() > 2048;
            let (full_ops, reps) = if big {
                (1, 1)
            } else {
                (topology_churn::OPS_PER_TICK, 3)
            };
            let inc = topology_churn::churn_event_secs(
                p,
                FillMode::Incremental,
                topology_churn::TICKS,
                topology_churn::OPS_PER_TICK,
                reps,
            );
            let full = topology_churn::churn_event_secs(p, FillMode::FullRescan, 1, full_ops, reps);
            let c = topology_churn::incremental_counters(p, topology_churn::TICKS);
            let ratio = full / inc;
            if p.hosts() >= 9000 {
                assert!(
                    ratio >= 20.0,
                    "acceptance: incremental fill must beat full rescan >= 20x \
                     on the 10k-host churn bench (got {ratio:.1}x)"
                );
            }
            eprintln!(
                "  topology k={} ({} hosts, {} flows): inc {:.6}s/event  \
                 full {:.4}s/event  ({ratio:.0}x)",
                p.k,
                p.hosts(),
                p.flows(),
                inc,
                full,
            );
            serde_json::json!({
                "k": p.k,
                "hosts": p.hosts(),
                "flows_in_flight": p.flows(),
                "incremental_fill_secs_per_churn_event": inc,
                "full_rescan_secs_per_churn_event": full,
                "incremental_vs_full_ratio": ratio,
                "full_rescan_events_measured": full_ops,
                "churn_ops": c.churn_ops,
                "fills": c.fills,
                "flows_refilled": c.flows_refilled,
                "flows_reused": c.flows_reused,
            })
        })
        .collect();

    eprintln!("timing the multi-tenant scenario suite...");
    let scenario_points = scenario_section();

    eprintln!("running the policy arena (every policy x every scenario)...");
    let policy_cells = bench::policy_matrix::run_matrix();
    let policy_section = serde_json::json!({
        "policies": dosas::policy::PolicyConfig::all_names(),
        "cells": policy_cells,
    });

    eprintln!("counting stale-NetTick suppression on the standard workload...");
    let mut obs_cfg = paper_cfg();
    obs_cfg.obs = obs::ObsConfig::enabled();
    let obs_run = Driver::run(obs_cfg, &paper_workload());
    let incremental_fabric = incremental_fabric_section(&obs_run);

    eprintln!("profiling dispatch breakdown...");
    let (_, serial_profile) =
        Driver::run_profiled(paper_cfg(), &paper_workload(), ExecMode::Serial);

    let churn_section = serde_json::json!({
        "schedule": format!(
            "{} ticks x {} same-tick replace ops over {} disjoint pairs, one completion query per tick",
            fabric_churn::TICKS,
            fabric_churn::OPS_PER_TICK,
            fabric_churn::PAIRS,
        ),
        "points": churn_points,
    });
    // Wall-clock dispatch breakdown (simkit executor profiling hooks):
    // per-subsystem event counts and handler time. Observational only —
    // collecting it does not change the event stream.
    let profile_section = serde_json::json!({ "serial": serial_profile });
    let topology_section = serde_json::json!({
        "schedule": format!(
            "{} ticks x {} same-tick intra-pod replace ops, one pod per tick, \
             one completion query per tick (full rescan measured on a reduced \
             schedule at the 10k-host point)",
            topology_churn::TICKS,
            topology_churn::OPS_PER_TICK,
        ),
        "points": topology_points,
    });
    let report = serde_json::json!({
        "schema": "dosas-bench-baseline/v8",
        "host_threads": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "fabric_churn": churn_section,
        "topology": topology_section,
        "incremental_fabric": incremental_fabric,
        "scenarios": scenario_points,
        "policies": policy_section,
        "profile": profile_section,
    });
    let mut json = serde_json::to_string_pretty(&report).expect("report serializes");
    json.push('\n');
    std::fs::write(&out, json).expect("write baseline");
    println!("wrote {}", out.display());
    for p in report["fabric_churn"]["points"].as_array().unwrap() {
        println!(
            "  fabric_churn {:>4} flows: full {:.4}s  incremental {:.4}s  ({:.2}x)",
            p["flows"],
            p["full_rescan_secs"].as_f64().unwrap_or(f64::NAN),
            p["incremental_secs"].as_f64().unwrap_or(f64::NAN),
            p["speedup"].as_f64().unwrap_or(f64::NAN),
        );
    }
    for p in report["topology"]["points"].as_array().unwrap() {
        println!(
            "  topology k={} ({} hosts, {} flows): inc {:.6}s/event  full {:.4}s/event  ({:.0}x)",
            p["k"],
            p["hosts"],
            p["flows_in_flight"],
            p["incremental_fill_secs_per_churn_event"]
                .as_f64()
                .unwrap_or(f64::NAN),
            p["full_rescan_secs_per_churn_event"]
                .as_f64()
                .unwrap_or(f64::NAN),
            p["incremental_vs_full_ratio"].as_f64().unwrap_or(f64::NAN),
        );
    }
    println!(
        "  net_ticks_avoided on standard workload: {}",
        report["incremental_fabric"]["net_ticks_avoided"]
    );
    println!(
        "  policy arena: {} cells ({} policies x {} scenarios)",
        report["policies"]["cells"].as_array().unwrap().len(),
        report["policies"]["policies"].as_array().unwrap().len(),
        bench::scenarios::all().len(),
    );
}
