//! The benchmark at reduced size: every workload passes its checks, prints
//! exactly the catalogue of `BENCHMARK.json`, repeats exactly on one seed,
//! and changes with the seed. The checker catches a lost record.

use benchmark::check::check_run;
use benchmark::compare::load_bounds;
use benchmark::measure::{measure, Metric, Options, Report};
use benchmark::metrics::{self, Better, MetricDef};
use benchmark::workloads;
use dosas::Driver;
use serde_json::Value;

/// Size divisor: small enough for a debug build, large enough that every
/// layer still does work.
const SCALE: usize = 64;

fn run(name: &str, seed: u64) -> Report {
    let def = workloads::by_name(name).expect("known workload");
    let report = measure(
        def,
        &Options {
            seed,
            seconds: 0.0,
            trace: false,
            scale: SCALE,
        },
    );
    assert!(
        report.verdict.ok(),
        "{name} seed {seed}: {:?}",
        report.verdict.problems
    );
    assert_eq!(report.fail_ratio(), 0.0);
    report
}

fn metrics_of(r: &Report) -> impl Iterator<Item = &Metric> {
    r.end_to_end.iter().chain(&r.per_layer)
}

fn is_deterministic(m: &Metric) -> bool {
    metrics::find(m.name).is_some_and(|d| d.deterministic)
}

fn exercise(name: &str) {
    let first = run(name, 1);
    let again = run(name, 1);
    let other = run(name, 2);

    let names = |ms: &[Metric]| ms.iter().map(|m| m.name).collect::<Vec<_>>();
    let catalogue = |ds: &[MetricDef]| ds.iter().map(|d| d.name).collect::<Vec<_>>();
    assert_eq!(names(&first.end_to_end), catalogue(metrics::END_TO_END));
    assert_eq!(names(&first.per_layer), catalogue(metrics::PER_LAYER));

    for (a, b) in metrics_of(&first).zip(metrics_of(&again)) {
        if is_deterministic(a) {
            assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "{name}: {} differs between two runs of seed 1",
                a.name
            );
        }
    }
    for (a, b) in first.end_to_end.iter().zip(&other.end_to_end) {
        if a.name.starts_with("sim_") {
            assert_ne!(a.value, b.value, "{name}: {} ignores the seed", a.name);
        }
    }
}

#[test]
fn ts_fanin() {
    exercise("ts-fanin");
}

#[test]
fn as_fanin() {
    exercise("as-fanin");
}

#[test]
fn dosas_fattree_observed() {
    exercise("dosas-fattree-observed");
}

#[test]
fn open_loop_faults() {
    exercise("open-loop-faults");
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    for (key, defs) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        let listed: Vec<(&str, &str, Better)> = doc[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|e| {
                let better = e["better"].as_str().and_then(Better::parse);
                (
                    e["name"].as_str().expect("name"),
                    e["unit"].as_str().expect("unit"),
                    better.expect("better is lower or higher"),
                )
            })
            .collect();
        let ours: Vec<_> = defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
        assert_eq!(listed, ours, "{key} in BENCHMARK.json");
    }
    let workloads: Vec<(&str, &str)> = doc["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| {
            let name = w["name"].as_str().expect("name");
            (name, w["why"].as_str().expect("why"))
        })
        .collect();
    let ours: Vec<(&str, &str)> = workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, ours);

    // Set-up time carries the largest bound, so work moved into set-up
    // cannot hide inside a tighter end-to-end bound.
    let bounds = load_bounds(&text).expect("bounds parse");
    let setup = bounds["setup_s"].1;
    assert!(bounds.values().all(|&(_, b)| b <= setup));
}

#[test]
fn checker_flags_a_missing_record() {
    let (cfg, w) = workloads::by_name("ts-fanin")
        .expect("known workload")
        .build(1, SCALE);
    let mut m = Driver::run(cfg, &w);
    assert!(check_run(&w, &m).ok());
    m.records.pop();
    let v = check_run(&w, &m);
    assert!(!v.ok());
    assert!(v.failed >= 1);
    assert_eq!(v.attempted, w.rank_count() as u64);
}
