//! Observability determinism: the obs layer is part of the simulation's
//! deterministic surface.
//!
//! Contracts under test (DESIGN.md §9):
//!
//! * the merged `timeline.jsonl` document (samples + structured events) is
//!   **byte-identical** across two runs of a faulted, contended workload —
//!   sampling rides the event stream (a `Sample` event), so nothing outside
//!   the simulation may leak into it;
//! * the Prometheus snapshot validates against the text-exposition format
//!   and is likewise byte-identical across runs;
//! * every timeline line round-trips through serde unchanged;
//! * the sampled cumulative queue-depth integrals reproduce
//!   `RunMetrics::mean_queue_depth` to within 1e-9 (same float operations
//!   as the driver's own time-weighted accumulator).

use dosas_repro::prelude::*;

const MIB: u64 = 1024 * 1024;

/// Discfarm's storage node (8 compute nodes come first).
const STORAGE_NODE: usize = 8;

/// Contended + faulted: the same order-sensitive scenario the determinism
/// suite uses, now with observability enabled.
fn obs_cfg(scheme: Scheme) -> DriverConfig {
    let mut cfg = DriverConfig {
        cluster: ClusterConfig::discfarm(),
        scheme,
        rates: OpRates::paper(),
        seed: 7,
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
    };
    cfg.obs = ObsConfig::enabled();
    cfg
}

fn workload() -> Workload {
    Workload::uniform_active(6, 1, 48 * MIB, "gaussian2d", KernelParams::with_width(1024))
}

fn run(scheme: Scheme) -> RunMetrics {
    Driver::run(obs_cfg(scheme), &workload())
}

#[test]
fn timeline_is_byte_identical_across_replays() {
    for scheme in [Scheme::dosas_default(), Scheme::ActiveStorage] {
        let first = run(scheme.clone());
        let reference = first.obs.as_ref().expect("obs enabled").timeline_jsonl();
        assert!(
            reference.lines().count() > 10,
            "scenario must actually produce a timeline"
        );
        let replay = run(scheme.clone());
        let candidate = replay.obs.as_ref().expect("obs enabled").timeline_jsonl();
        assert_eq!(
            reference, candidate,
            "scheme {scheme:?}: replayed timeline diverged"
        );
    }
}

#[test]
fn prometheus_snapshot_validates_and_replays_byte_identically() {
    let first = run(Scheme::dosas_default());
    let prom = first.obs.as_ref().unwrap().to_prometheus();
    let samples = obs::validate_prometheus(&prom).expect("snapshot parses");
    assert!(
        samples > 20,
        "expected a real metric surface, got {samples}"
    );
    let replay = run(Scheme::dosas_default());
    assert_eq!(prom, replay.obs.as_ref().unwrap().to_prometheus());
}

#[test]
fn timeline_round_trips_through_serde() {
    let m = run(Scheme::dosas_default());
    let jsonl = m.obs.as_ref().unwrap().timeline_jsonl();
    for (i, line) in jsonl.lines().enumerate() {
        let rec: TimelineRecord =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        let again = serde_json::to_string(&rec).expect("record serializes");
        assert_eq!(line, again, "line {} did not round-trip", i + 1);
    }
}

#[test]
fn sampled_queue_depth_integrals_reproduce_mean_queue_depth() {
    let m = run(Scheme::dosas_default());
    let report = m.obs.as_ref().unwrap();
    // The final sample is taken at the run's end time inside metric
    // collection, so its cumulative integrals cover the whole run.
    let last = report.samples.last().expect("run produced samples");
    let end_secs = last.t.as_secs_f64();
    assert!(end_secs > 0.0);
    let mean_from_samples = last
        .servers
        .iter()
        .map(|s| s.queue_depth_integral / end_secs)
        .sum::<f64>()
        / last.servers.len() as f64;
    assert!(
        (mean_from_samples - m.mean_queue_depth).abs() < 1e-9,
        "sampled {mean_from_samples} vs driver {} (diff {})",
        m.mean_queue_depth,
        (mean_from_samples - m.mean_queue_depth).abs()
    );
}

/// Satellite regression: a run with no I/O at all must report zeroed — not
/// NaN — bandwidth and queue-depth aggregates.
#[test]
fn empty_workload_yields_finite_metrics() {
    let w = Workload {
        files: vec![],
        programs: vec![],
        tenants: vec![],
    };
    for scheme in [Scheme::Traditional, Scheme::dosas_default()] {
        let m = Driver::run(obs_cfg(scheme), &w);
        assert_eq!(m.achieved_bandwidth, 0.0, "no bytes, no bandwidth");
        assert!(m.mean_queue_depth.is_finite());
        assert!(m.makespan_secs.is_finite());
    }
}
