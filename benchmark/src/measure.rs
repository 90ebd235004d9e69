//! One benchmark invocation on one workload, in three phases:
//!
//! 1. **Set-up**: build the workload and `Driver::new` [`SETUP_REPEATS`]
//!    times, each dropped before anything is run; the median is `setup_s`.
//! 2. **Untraced**: `Driver::run`, repeated. Gives every end-to-end metric.
//!    The binary unsets `DOSAS_EXEC`, so this is the serial executor.
//! 3. **Traced**: `Driver::run_profiled` with observability and the request
//!    autopsy on. Gives the per-layer metrics and the tracing overhead.
//!
//! Phase 2 or phase 3 repeats for the requested seconds (the other runs
//! once). Whole-run host times are the fastest run's, per-subsystem times
//! medians over the repeats. Every run is checked ([`crate::check`]), and
//! every run of a seed must report the same outcome, traced or not.

use crate::check::{self, Verdict};
use crate::metrics::{self, SUBSYSTEMS, WAIT_CAUSES};
use crate::stats::{median, nearest_rank};
use crate::workloads::WorkloadDef;
use cluster::ClusterState;
use dosas::{Driver, ExecMode, RunMetrics};
use obs::Label;
use simkit::{ExecProfile, RngFactory, SimSpan};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up builds per invocation; `setup_s` is their median. The first one
/// or two builds of a process run on a cold heap and take two to four
/// times as long as the rest. With five builds the median over ten seeds
/// moved by up to 26% between two passes; with 21, by up to 11%.
pub(crate) const SETUP_REPEATS: usize = 21;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Host seconds over which the measured phase repeats its runs.
    pub seconds: f64,
    /// Repeat the traced phase (per-layer metrics) instead of the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// Size divisor of the workload (tests only; the benchmark uses 1).
    pub scale: usize,
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one invocation measured and checked. The metric lists are
/// empty when a run panicked.
#[derive(Debug)]
pub struct Report {
    pub verdict: Verdict,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// `failed / attempted`, 1 when nothing could be attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.verdict.attempted == 0 {
            1.0
        } else {
            self.verdict.failed as f64 / self.verdict.attempted as f64
        }
    }
}

/// One untraced run.
struct Untraced {
    gen_s: f64,
    run_s: f64,
    makespan_s: f64,
    bw_mibps: f64,
    lat_p50_s: f64,
    lat_p99_s: f64,
    requests: f64,
    events: f64,
}

/// One traced run: its host timings and its per-layer values.
struct Traced {
    host_s: f64,
    run_s: f64,
    layers: BTreeMap<&'static str, f64>,
}

/// Run `def` as `opts` asks and check every run.
pub fn measure(def: &WorkloadDef, opts: &Options) -> Report {
    let mut verdict = Verdict::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| phases(def, opts, &mut verdict)));
    match outcome {
        Ok((end_to_end, per_layer)) => Report {
            verdict,
            end_to_end,
            per_layer,
        },
        Err(_) => {
            // The panic message is already on stderr. The run that panicked
            // had requests too, so count at least one failure.
            verdict.attempted = verdict.attempted.max(1);
            verdict.fail_all(format!("{}: a run panicked", def.name));
            Report {
                verdict,
                end_to_end: Vec::new(),
                per_layer: Vec::new(),
            }
        }
    }
}

fn phases(def: &WorkloadDef, opts: &Options, verdict: &mut Verdict) -> (Vec<Metric>, Vec<Metric>) {
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let (untraced_budget, traced_budget) = if opts.trace {
        (Duration::ZERO, budget)
    } else {
        (budget, Duration::ZERO)
    };

    // Phase 1: set-up.
    let mut gen_s = Vec::new();
    let mut new_s = Vec::new();
    let mut build_s = Vec::new();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (cfg, w) = def.build(opts.seed, opts.scale);
        let generated = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let driver = Driver::new(cfg.clone(), &w);
        let built = t.elapsed().as_secs_f64();
        drop(black_box(driver));
        let t = Instant::now();
        let cluster = ClusterState::build(cfg.cluster.clone(), &RngFactory::new(cfg.seed));
        build_s.push(t.elapsed().as_secs_f64());
        drop(black_box(cluster));
        gen_s.push(generated);
        new_s.push(built);
        setup_s.push(generated + built);
    }

    // Phase 2: untraced runs.
    let mut reference: Option<u64> = None;
    let mut untraced: Vec<Untraced> = Vec::new();
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed() < untraced_budget {
        let t = Instant::now();
        let (cfg, w) = def.build(opts.seed, opts.scale);
        let gen = t.elapsed().as_secs_f64();
        let m = Driver::run(cfg, &w);
        let host = t.elapsed().as_secs_f64();
        let mut v = check::check_run(&w, &m);
        let sample = Untraced {
            gen_s: gen,
            run_s: host - gen,
            makespan_s: m.makespan_secs,
            bw_mibps: m.bandwidth_mb_per_s(),
            lat_p50_s: latency_percentile(&m, 0.50),
            lat_p99_s: latency_percentile(&m, 0.99),
            requests: m.records.len() as f64,
            events: m.events as f64,
        };
        agree(
            &mut reference,
            check::fingerprint(m),
            &mut v,
            "untraced repeat",
        );
        verdict.absorb(v);
        untraced.push(sample);
    }
    let untraced_peak_rss_mb = peak_rss_mb();

    // Phase 3: traced runs.
    let mut traced: Vec<Traced> = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < traced_budget {
        let t = Instant::now();
        let (mut cfg, w) = def.build(opts.seed, opts.scale);
        let gen = t.elapsed().as_secs_f64();
        if !cfg.obs.enabled {
            // Counters only: no Sample events unless the workload samples.
            cfg.obs = obs::ObsConfig {
                sample_period: SimSpan::ZERO,
                ..obs::ObsConfig::enabled()
            };
        }
        cfg.autopsy = true;
        let t_run = Instant::now();
        let (m, profile) = Driver::run_profiled(cfg, &w, ExecMode::Serial);
        let run_s = t_run.elapsed().as_secs_f64();
        let mut v = check::check_run(&w, &m);
        if m.autopsy.is_none() || m.obs.is_none() {
            v.fail_all("traced run carries no autopsy or obs report".into());
        }
        let layers = layer_values(&m, &profile);
        agree(&mut reference, check::fingerprint(m), &mut v, "traced run");
        verdict.absorb(v);
        traced.push(Traced {
            host_s: gen + run_s,
            run_s,
            layers,
        });
    }
    let traced_peak_rss_mb = peak_rss_mb();

    // End-to-end metrics. The sim_* values are identical across repeats
    // (checked above), so the first run's stand for all. Host time is the
    // fastest run's: interference from the rest of the machine only ever
    // slows a run, and over ten invocations spread over minutes the fastest
    // run of each varied about half as much as the median run.
    let first = &untraced[0];
    let host_s = fastest(untraced.iter().map(|u| u.gen_s + u.run_s));
    let end_to_end = assemble(
        metrics::END_TO_END,
        &BTreeMap::from([
            ("host_s", host_s),
            ("reqs_per_s", first.requests / host_s),
            ("setup_s", median(&setup_s)),
            ("peak_rss_mb", untraced_peak_rss_mb),
            ("sim_makespan_s", first.makespan_s),
            ("sim_bw_mibps", first.bw_mibps),
            ("sim_lat_p50_s", first.lat_p50_s),
            ("sim_lat_p99_s", first.lat_p99_s),
        ]),
    );

    // Per-layer metrics: counters from the first traced run, per-subsystem
    // host times as medians over the traced runs.
    let mut layers = traced[0].layers.clone();
    let driver_new_s = median(&new_s);
    for name in layers.keys().copied().collect::<Vec<_>>() {
        if !metrics::find(name).is_some_and(|d| d.deterministic) {
            let samples: Vec<f64> = traced.iter().map(|t| t.layers[name]).collect();
            layers.insert(name, median(&samples));
        }
    }
    let traced_host_s = fastest(traced.iter().map(|t| t.host_s));
    let untraced_run_s = fastest(untraced.iter().map(|u| u.run_s));
    let loop_other_s = median(
        &traced
            .iter()
            .map(|t| {
                let dispatch_s: f64 = SUBSYSTEMS.iter().map(|(_, time, _)| t.layers[time]).sum();
                t.run_s - driver_new_s - dispatch_s
            })
            .collect::<Vec<_>>(),
    );
    layers.extend([
        ("workload.gen_s", median(&gen_s)),
        ("cluster.build_s", median(&build_s)),
        ("driver.new_s", driver_new_s),
        ("simkit.events_per_s", first.events / untraced_run_s),
        ("simkit.loop_other_s", loop_other_s),
        ("traced.host_s", traced_host_s),
        ("traced.overhead_ratio", traced_host_s / host_s),
        ("traced.peak_rss_mb", traced_peak_rss_mb),
    ]);
    let per_layer = assemble(metrics::PER_LAYER, &layers);
    (end_to_end, per_layer)
}

/// The smallest of `xs` (infinite when empty).
fn fastest(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::INFINITY, f64::min)
}

/// Record `fp` as the seed's outcome, or fail `v` if it differs from the
/// outcome already recorded.
fn agree(reference: &mut Option<u64>, fp: u64, v: &mut Verdict, what: &str) {
    match *reference {
        None => *reference = Some(fp),
        Some(r) if r != fp => v.fail_all(format!("{what} reports a different outcome")),
        Some(_) => {}
    }
}

/// Nearest-rank percentile of request latency (`completed_at − issued_at`).
fn latency_percentile(m: &RunMetrics, q: f64) -> f64 {
    let mut lat: Vec<f64> = m.records.iter().map(|r| r.latency_secs()).collect();
    lat.sort_by(f64::total_cmp);
    nearest_rank(&lat, q)
}

/// The per-layer values one traced run yields.
fn layer_values(m: &RunMetrics, profile: &ExecProfile) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let counter = |subsystem, name| {
        m.obs
            .as_ref()
            .map_or(0, |o| o.metrics.counter_value(subsystem, name, Label::None)) as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let scheduled = m.events_scheduled as f64;
    let cancelled = m.events_cancelled as f64;
    out.extend([
        ("simkit.events", m.events as f64),
        ("simkit.events_scheduled", scheduled),
        ("simkit.events_cancelled", cancelled),
        ("simkit.cancel_ratio", ratio(cancelled, scheduled)),
    ]);

    for (label, time, events) in SUBSYSTEMS {
        let stat = profile.dispatch.get(label).cloned().unwrap_or_default();
        out.insert(time, stat.wall_secs);
        out.insert(events, stat.events as f64);
    }
    out.insert("driver.requests", m.records.len() as f64);

    let refilled = counter("fabric", "flows_refilled");
    let reused = counter("fabric", "flows_reused");
    out.extend([
        ("net.fills", counter("fabric", "fills")),
        ("net.churn_ops", counter("fabric", "churn_ops")),
        ("net.flows_refilled", refilled),
        ("net.flows_reused", reused),
        ("net.reuse_ratio", ratio(reused, reused + refilled)),
        (
            "net.ticks_suppressed",
            counter("fabric", "net_ticks_suppressed"),
        ),
        ("net.ticks_deduped", counter("fabric", "net_ticks_deduped")),
        ("cpu.share_fills", counter("cpu", "share_fills")),
        ("cpu.share_churn_ops", counter("cpu", "share_churn_ops")),
    ]);

    out.extend([
        ("ce.probes_sent", m.ce.probes_sent as f64),
        ("ce.probes_lost", m.ce.probes_lost as f64),
        ("ce.retries", m.ce.retries as f64),
        ("ce.fallback_entries", m.ce.fallback_entries as f64),
        ("runtime.admitted", m.runtime.admitted as f64),
        ("runtime.demoted", m.runtime.demoted as f64),
        (
            "policy.rate_caps_applied",
            m.policy.as_ref().map_or(0, |p| p.rate_caps_applied) as f64,
        ),
        ("server.mean_queue_depth", m.mean_queue_depth),
        ("server.peak_queue_depth", m.peak_queue_depth),
    ]);

    let autopsy = m.autopsy.as_ref();
    for (cause, name) in WAIT_CAUSES {
        let wait = autopsy
            .and_then(|a| a.wait_by_cause.iter().find(|c| c.cause == cause))
            .map_or(0.0, |c| c.wait_secs);
        out.insert(name, wait);
    }
    let service: f64 = autopsy.map_or(0.0, |a| a.requests.iter().map(|r| r.service_secs()).sum());
    out.insert("service_s", service);
    out
}

/// The catalogue's metrics, in catalogue order, from `values`.
fn assemble(defs: &[metrics::MetricDef], values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    defs.iter()
        .map(|d| Metric {
            name: d.name,
            unit: d.unit,
            value: *values
                .get(d.name)
                .unwrap_or_else(|| panic!("no value measured for {}", d.name)),
        })
        .collect()
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
