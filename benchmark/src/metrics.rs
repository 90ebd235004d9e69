//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` repeats the catalogue and adds the
//! regression bound of each end-to-end metric; a test keeps the two equal.
//!
//! Units: `s` is host wall time, `sim_s` and `sim_MiB/s` are simulated
//! time and bandwidth (deterministic per seed), `count` and `ratio` are
//! deterministic work counters unless the name says otherwise.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats exactly for a given seed and simulator model, so any change
    /// between two commits is drift rather than noise.
    pub deterministic: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        deterministic: false,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        deterministic: true,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    host("host_s", "s", Lower),
    host("reqs_per_s", "req/s", Higher),
    host("setup_s", "s", Lower),
    host("peak_rss_mb", "MiB", Lower),
    sim("sim_makespan_s", "sim_s", Lower),
    sim("sim_bw_mibps", "sim_MiB/s", Higher),
    sim("sim_lat_p50_s", "sim_s", Lower),
    sim("sim_lat_p99_s", "sim_s", Lower),
];

/// Requests without a correct record over requests attempted. Printed as a
/// record for `compare`, and carried in the summary line as `failed` and
/// `attempted` rather than as a metric, because it is 0 on a healthy run.
pub const FAIL_RATIO: MetricDef = sim("fail_ratio", "ratio", Lower);

/// The simulator's subsystems as `ExecProfile` labels them, with the
/// metrics of their dispatch time and event count.
pub(crate) const SUBSYSTEMS: [(&str, &str, &str); 6] = [
    ("ranks", "driver.ranks_s", "driver.ranks_events"),
    ("io_path", "driver.io_path_s", "driver.io_path_events"),
    ("server", "driver.server_s", "driver.server_events"),
    ("control", "driver.control_s", "driver.control_events"),
    ("faults", "driver.faults_s", "driver.faults_events"),
    ("telemetry", "driver.telemetry_s", "driver.telemetry_events"),
];

/// The autopsy's wait causes, with the metric each one reports as. The
/// `kernel-slot` and `collective-barrier` causes are left out: no workload
/// waits on them.
pub(crate) const WAIT_CAUSES: [(&str, &str); 5] = [
    ("disk-queue", "wait.disk_queue_s"),
    ("cpu-share", "wait.cpu_share_s"),
    ("fabric-share", "wait.fabric_share_s"),
    ("rate-cap", "wait.rate_cap_s"),
    ("fault-stall", "wait.fault_stall_s"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // Set-up: each public call the benchmark makes, timed on its own.
    host("workload.gen_s", "s", Lower),
    host("cluster.build_s", "s", Lower),
    host("driver.new_s", "s", Lower),
    // simkit: executor and event queue.
    sim("simkit.events", "count", Lower),
    sim("simkit.events_scheduled", "count", Lower),
    sim("simkit.events_cancelled", "count", Lower),
    sim("simkit.cancel_ratio", "ratio", Lower),
    host("simkit.events_per_s", "1/s", Higher),
    host("simkit.loop_other_s", "s", Lower),
    // dosas::driver subsystems, from ExecProfile.
    host("driver.ranks_s", "s", Lower),
    host("driver.io_path_s", "s", Lower),
    host("driver.server_s", "s", Lower),
    host("driver.control_s", "s", Lower),
    host("driver.faults_s", "s", Lower),
    host("driver.telemetry_s", "s", Lower),
    sim("driver.ranks_events", "count", Lower),
    sim("driver.io_path_events", "count", Lower),
    sim("driver.server_events", "count", Lower),
    sim("driver.control_events", "count", Lower),
    sim("driver.faults_events", "count", Lower),
    sim("driver.telemetry_events", "count", Lower),
    sim("driver.requests", "count", Higher),
    // cluster::net, the max-min fair fabric.
    sim("net.fills", "count", Lower),
    sim("net.churn_ops", "count", Lower),
    sim("net.flows_refilled", "count", Lower),
    sim("net.flows_reused", "count", Higher),
    sim("net.reuse_ratio", "ratio", Higher),
    sim("net.ticks_suppressed", "count", Higher),
    sim("net.ticks_deduped", "count", Higher),
    // cluster::cpu over simkit::share.
    sim("cpu.share_fills", "count", Lower),
    sim("cpu.share_churn_ops", "count", Lower),
    // Control: CE probing, the active I/O runtime, the policy. Kernel
    // interruptions and checkpoint failures are left out: no workload has
    // any.
    sim("ce.probes_sent", "count", Lower),
    sim("ce.probes_lost", "count", Lower),
    sim("ce.retries", "count", Lower),
    sim("ce.fallback_entries", "count", Lower),
    sim("runtime.admitted", "count", Higher),
    sim("runtime.demoted", "count", Lower),
    sim("policy.rate_caps_applied", "count", Lower),
    // Server queues.
    sim("server.mean_queue_depth", "count", Lower),
    sim("server.peak_queue_depth", "count", Lower),
    // Model waits from the request autopsy, in simulated seconds.
    sim("wait.disk_queue_s", "sim_s", Lower),
    sim("wait.cpu_share_s", "sim_s", Lower),
    sim("wait.fabric_share_s", "sim_s", Lower),
    sim("wait.rate_cap_s", "sim_s", Lower),
    sim("wait.fault_stall_s", "sim_s", Lower),
    sim("service_s", "sim_s", Lower),
    // Tracing itself.
    host("traced.host_s", "s", Lower),
    host("traced.overhead_ratio", "ratio", Lower),
    host("traced.peak_rss_mb", "MiB", Lower),
];

/// Look a metric up by name in either table (or `fail_ratio`).
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(std::iter::once(&FAIL_RATIO))
        .find(|m| m.name == name)
}
