//! `telemetry` subsystem: observation without participation.
//!
//! Owns everything the simulation records but never reads back: per-app
//! I/O records, the CE policy log, the optional per-stage execution
//! timeline, and the [`obs::Observer`] behind `DriverConfig::obs`. Also
//! assembles the final [`RunMetrics`] from the drained world.
//!
//! Unlike the other subsystems the telemetry component handles exactly one
//! routed event, the periodic [`Ev::Sample`] tick. It is dispatched in the
//! run's one total event order, so it reads a consistent world state and
//! the timeline is byte-identical across replays of a run. The handler only *reads* simulated state (queues, slots, supervisors,
//! runtimes, fabric) and only *writes* observer state, which no simulated
//! path reads back, so enabling observability never changes scheme results.

use super::autopsy::{AutopsyReport, RankChain, RequestAutopsy, WaitCause};
use super::metrics::{AppIoRecord, PolicyLogEntry, RunMetrics, TenantReport};
use super::trace::TraceEvent;
use super::{Driver, Ev, Subsystem};
use crate::estimator::CeStats;
use crate::runtime::RuntimeCounters;
use obs::{Label, ObsConfig, Observer, ServerSample, Severity};
use simkit::{Component, Scheduler, SimTime};

/// Telemetry state embedded in [`Driver`].
#[derive(Default)]
pub(super) struct Telemetry {
    pub(super) records: Vec<AppIoRecord>,
    pub(super) policy_log: Vec<PolicyLogEntry>,
    pub(super) trace: Vec<TraceEvent>,
    /// Live observability state; `None` when `DriverConfig::obs` is
    /// disabled, keeping every instrumentation call a branch on an Option.
    pub(super) obs: Option<Observer>,
    /// Completed request breakdowns (`DriverConfig::autopsy` only).
    pub(super) autopsies: Vec<RequestAutopsy>,
    /// One program-level span chain per rank; empty when the autopsy is
    /// off — non-emptiness is the handlers' "autopsy on" test for
    /// rank-level recording.
    pub(super) rank_chains: Vec<RankChain>,
}

impl Telemetry {
    pub(super) fn new(cfg: &ObsConfig, autopsy_ranks: Option<usize>) -> Self {
        Telemetry {
            obs: cfg.enabled.then(|| Observer::new(cfg.clone())),
            rank_chains: autopsy_ranks
                .map(|n| vec![RankChain::start(SimTime::ZERO); n])
                .unwrap_or_default(),
            ..Telemetry::default()
        }
    }
}

/// The telemetry component: periodic observability sampling.
pub(super) struct TelemetryComponent;

impl Component<Driver> for TelemetryComponent {
    const ROUTE: Subsystem = Subsystem::Telemetry;
    const NAME: &'static str = "telemetry";

    fn handle(world: &mut Driver, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Sample => world.on_sample(now, sched),
            other => unreachable!("telemetry got unrouted event {other:?}"),
        }
    }
}

impl Driver {
    /// Record one timeline span (the name closure only runs when tracing is
    /// on, so disabled runs pay no formatting or allocation). `tenant`
    /// labels the span's issuing tenant and `wait` attaches the hop's
    /// recorded wait time and cause (autopsy runs only); both surface as
    /// Perfetto `args` together with the active policy name. The argument
    /// count mirrors the span tuple itself — splitting it into a struct
    /// would just move the same fields one level down at every call site.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn trace_span(
        &mut self,
        name: impl FnOnce() -> String,
        cat: &'static str,
        start: SimTime,
        end: SimTime,
        node: usize,
        track: u64,
        tenant: Option<usize>,
        wait: Option<(f64, WaitCause)>,
    ) {
        if self.cfg.trace {
            let policy =
                (self.control.policy_name != "none").then(|| self.control.policy_name.to_string());
            let args =
                (tenant.is_some() || policy.is_some() || wait.is_some()).then(|| obs::SpanArgs {
                    tenant,
                    policy,
                    wait_us: wait.map(|(w, _)| w * 1e6),
                    cause: wait.map(|(_, c)| c.as_str().to_string()),
                });
            self.telemetry.trace.push(
                TraceEvent::new(
                    name(),
                    cat,
                    start.as_secs_f64(),
                    end.as_secs_f64(),
                    node,
                    track,
                )
                .with_args(args),
            );
        }
    }

    /// Increment an observability counter (no-op when obs is disabled).
    #[inline]
    pub(super) fn obs_inc(&mut self, subsystem: &'static str, name: &'static str, label: Label) {
        self.obs_add(subsystem, name, label, 1);
    }

    /// Increment an observability counter by `by` (no-op when obs is
    /// disabled).
    #[inline]
    pub(super) fn obs_add(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        label: Label,
        by: u64,
    ) {
        if let Some(o) = self.telemetry.obs.as_mut() {
            o.registry_mut().add(subsystem, name, label, by);
        }
    }

    /// Record a histogram observation (no-op when obs is disabled).
    #[inline]
    pub(super) fn obs_observe(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        label: Label,
        v: f64,
    ) {
        if let Some(o) = self.telemetry.obs.as_mut() {
            o.registry_mut().observe(subsystem, name, label, v);
        }
    }

    /// Append a structured log record; the message closure only runs when
    /// obs is enabled, so disabled runs pay no formatting.
    #[inline]
    pub(super) fn obs_event(
        &mut self,
        t: SimTime,
        severity: Severity,
        subsystem: &'static str,
        node: Option<usize>,
        message: impl FnOnce() -> String,
    ) {
        if let Some(o) = self.telemetry.obs.as_mut() {
            o.log(t, severity, subsystem, node, message());
        }
    }

    /// Handle the periodic `Sample` tick: capture one timeline row and
    /// re-arm while ranks are still running.
    fn on_sample(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        self.take_sample(now);
        if let Some(o) = self.telemetry.obs.as_ref() {
            if !self.all_ranks_done() {
                sched.after(o.config().sample_period, Ev::Sample);
            }
        }
    }

    /// Capture one per-server sample row set at `now` into the observer.
    ///
    /// Read-only with respect to simulated state: queue depths and their
    /// cumulative time-weighted integrals, kernel-slot occupancy, CE probe
    /// age, demotion totals and fabric utilization are all pure queries.
    pub(super) fn take_sample(&mut self, now: SimTime) {
        if self.telemetry.obs.is_none() {
            return;
        }
        // Fabric utilization needs `&mut` (it may flush a pending coalesced
        // fill), so compute it for every node before borrowing the rest of
        // the world for the row closure.
        let storage: Vec<_> = self.cluster.storage_ids().collect();
        let tx_utils: Vec<f64> = storage
            .iter()
            .map(|&node| self.cluster.fabric.tx_utilization(node))
            .collect();
        let rows: Vec<ServerSample> = storage
            .iter()
            .zip(tx_utils)
            .map(|(&node, net_tx_util)| {
                let ds = &self.server.servers[&node];
                let kernels_running = self
                    .server
                    .cpu_work
                    .iter()
                    .filter(|((n, _), w)| {
                        *n == node.0 && matches!(w, super::server::CpuWork::Kernel(_))
                    })
                    .count();
                let probe_age_secs = self
                    .control
                    .supervisors
                    .get(&node)
                    .map_or(-1.0, |sup| sup.probe_age_secs(now));
                ServerSample {
                    node: node.0,
                    queue_depth: ds.current_depth(),
                    queue_depth_integral: ds.depth_integral_at(now),
                    kernels_running,
                    probe_age_secs,
                    demoted_total: self.server.runtimes[&node].demoted_total(),
                    net_tx_util,
                }
            })
            .collect();
        let active_faults = self.cfg.fault_plan.active_count(now);
        let o = self.telemetry.obs.as_mut().expect("checked above");
        o.registry_mut().inc("telemetry", "samples", Label::None);
        o.registry_mut().set_gauge(
            "faults",
            "active_windows",
            Label::None,
            active_faults as f64,
        );
        o.record_sample(now, rows);
    }

    /// Fold the drained world into the run's final metrics: makespan over
    /// rank finish times, aggregated runtime/CE counters, time-weighted
    /// queue depths, and the recorded logs. When observability is on, a
    /// final sample is taken at `end` so the timeline's cumulative
    /// queue-depth integrals reconcile exactly with `mean_queue_depth`.
    pub(super) fn collect_metrics(
        self,
        scheme: String,
        total_bytes: f64,
        end: SimTime,
        events: u64,
        events_scheduled: u64,
        events_cancelled: u64,
    ) -> RunMetrics {
        let mut w = self;
        assert_eq!(
            w.ranks.finished,
            w.ranks.len(),
            "simulation drained with unfinished ranks — deadlocked workload?"
        );

        let makespan = w
            .ranks
            .states
            .iter()
            .filter_map(|r| r.finished)
            .fold(SimTime::ZERO, SimTime::max);
        let makespan_secs = makespan.as_secs_f64();

        let mut runtime = RuntimeCounters::default();
        for rt in w.server.runtimes.values() {
            runtime.absorb(&rt.counters);
        }
        let mut ce = CeStats::default();
        for sup in w.control.supervisors.values() {
            ce.absorb(&sup.stats);
        }
        let n_servers = w.server.servers.len().max(1) as f64;
        let mean_queue_depth = w
            .server
            .servers
            .values()
            .map(|s| s.mean_depth(end))
            .sum::<f64>()
            / n_servers;
        let peak_queue_depth = w
            .server
            .servers
            .values()
            .map(|s| s.peak_depth())
            .fold(0.0, f64::max);
        // Zero-duration guard: an empty workload finishes at t = 0 with no
        // bytes moved; every derived rate must come out 0, never NaN.
        let achieved_bandwidth = if makespan_secs > 0.0 && total_bytes > 0.0 {
            total_bytes / makespan_secs
        } else {
            0.0
        };
        let mean_queue_depth = if mean_queue_depth.is_finite() {
            mean_queue_depth
        } else {
            0.0
        };
        let min_bw_samples = w.dosas.as_ref().map_or(3, |d| d.probe.min_bw_samples);

        // Per-tenant aggregates, fairness, and SLO verdicts (tenanted
        // workloads only — `compute` returns None otherwise).
        let tenants = TenantReport::compute(&w.telemetry.records, makespan_secs, &w.cfg.slos);

        // Policy activity surface, for non-default policies only: the
        // default CE serializes without it so pre-refactor goldens hold.
        let policy = w.dosas.as_ref().and_then(|d| {
            (!matches!(d.policy, crate::policy::PolicyConfig::Ce { .. })).then(|| {
                super::metrics::PolicyStats {
                    name: d.policy.name().to_string(),
                    rate_caps_applied: w.io.rate_caps_applied,
                }
            })
        });

        // Request autopsy: fold the recorded chains into per-request
        // breakdowns, wait attribution and the critical path. Consumes the
        // chains; computed before the obs close-out so the attribution can
        // surface as `dosas_attr_*` gauges.
        let autopsy = (!w.telemetry.rank_chains.is_empty()).then(|| {
            let rank_tenants: Vec<Option<usize>> =
                w.ranks.states.iter().map(|r| r.tenant).collect();
            AutopsyReport::compute(
                std::mem::take(&mut w.telemetry.autopsies),
                std::mem::take(&mut w.telemetry.rank_chains),
                &rank_tenants,
                w.control.policy_name,
            )
        });

        // Close out the observability run: one last sample at the final sim
        // time plus end-of-run summary gauges, then freeze the report.
        if w.telemetry.obs.is_some() {
            w.take_sample(end);
            let o = w.telemetry.obs.as_mut().expect("checked above");
            let r = o.registry_mut();
            r.set_gauge("driver", "makespan_secs", Label::None, makespan_secs);
            r.set_gauge(
                "driver",
                "achieved_bandwidth_bytes_per_sec",
                Label::None,
                achieved_bandwidth,
            );
            r.set_gauge("driver", "mean_queue_depth", Label::None, mean_queue_depth);
            r.add("driver", "events_dispatched", Label::None, events);
            r.add("driver", "events_scheduled", Label::None, events_scheduled);
            r.add("driver", "events_cancelled", Label::None, events_cancelled);
            // Incremental-fabric effectiveness: NetTicks that never hit the
            // dispatch loop, and how much of each water-filling pass was
            // reused. `ticks_avoided` is the headline "work not done" count.
            let nfc = w.cluster.fabric.fill_counters();
            r.add(
                "fabric",
                "net_ticks_suppressed",
                Label::None,
                w.io.net_ticks_suppressed,
            );
            r.add(
                "fabric",
                "net_ticks_deduped",
                Label::None,
                w.io.net_ticks_deduped,
            );
            r.add(
                "fabric",
                "net_ticks_avoided",
                Label::None,
                w.io.net_ticks_suppressed + w.io.net_ticks_deduped,
            );
            r.add("fabric", "fills", Label::None, nfc.fills);
            r.add("fabric", "churn_ops", Label::None, nfc.churn_ops);
            r.add("fabric", "flows_refilled", Label::None, nfc.flows_refilled);
            r.add("fabric", "flows_reused", Label::None, nfc.flows_reused);
            let (cpu_fills, cpu_churn) = w
                .cluster
                .cpus
                .iter()
                .map(|c| c.fill_counters())
                .fold((0, 0), |(f, ch), c| (f + c.fills, ch + c.churn_ops));
            r.add("cpu", "share_fills", Label::None, cpu_fills);
            r.add("cpu", "share_churn_ops", Label::None, cpu_churn);
            // Per-tenant SLO/fairness surface: achieved bandwidth, p95
            // latency and SLO verdicts per tenant, Jain index globally.
            if let Some(rep) = &tenants {
                r.set_gauge("tenant", "jain_fairness", Label::None, rep.jain_fairness);
                for s in &rep.per_tenant {
                    let label = Label::Tenant(s.tenant);
                    r.set_gauge(
                        "tenant",
                        "achieved_bandwidth_bytes_per_sec",
                        label,
                        s.achieved_bandwidth,
                    );
                    r.set_gauge("tenant", "bytes_completed", label, s.bytes);
                    r.set_gauge("tenant", "p95_latency_secs", label, s.p95_latency_secs);
                }
                for outcome in &rep.slos {
                    r.set_gauge(
                        "tenant",
                        "slo_met",
                        Label::Tenant(outcome.tenant),
                        if outcome.met { 1.0 } else { 0.0 },
                    );
                }
            }
            // Contention attribution (`dosas_attr_*`): the autopsy's wait
            // partitions by cause / tenant / node, plus the critical-path
            // split and a per-policy total.
            if let Some(rep) = &autopsy {
                r.set_gauge(
                    "attr",
                    "total_wait_seconds",
                    Label::None,
                    rep.total_wait_secs,
                );
                r.set_gauge(
                    "attr",
                    "total_service_seconds",
                    Label::None,
                    rep.total_service_secs,
                );
                r.set_gauge(
                    "attr",
                    "critical_path_wait_seconds",
                    Label::None,
                    rep.critical_path.wait_secs,
                );
                for c in &rep.wait_by_cause {
                    r.set_gauge(
                        "attr",
                        "cause_wait_seconds",
                        Label::Str(c.cause),
                        c.wait_secs,
                    );
                }
                for t in &rep.per_tenant {
                    if let Some(tenant) = t.tenant {
                        r.set_gauge(
                            "attr",
                            "tenant_wait_seconds",
                            Label::Tenant(tenant),
                            t.wait_secs,
                        );
                    }
                }
                for n in &rep.per_node {
                    r.set_gauge(
                        "attr",
                        "node_wait_seconds",
                        Label::Node(n.node),
                        n.wait_secs,
                    );
                }
                if w.control.policy_name != "none" {
                    r.set_gauge(
                        "attr",
                        "policy_wait_seconds",
                        Label::Policy(w.control.policy_name),
                        rep.total_wait_secs,
                    );
                }
            }
        }
        let obs = w.telemetry.obs.take().map(Observer::into_report);

        RunMetrics {
            scheme,
            makespan_secs,
            total_requested_bytes: total_bytes,
            achieved_bandwidth,
            records: w.telemetry.records,
            runtime,
            ce,
            mean_queue_depth,
            peak_queue_depth,
            policy_log: w.telemetry.policy_log,
            estimated_bandwidth: w
                .control
                .bw_estimate
                .iter()
                .filter(|(_, (_, n))| *n >= min_bw_samples)
                .map(|(node, (bw, _))| (node.0, *bw))
                .collect(),
            tenants,
            policy,
            results: w.io.results,
            trace: if w.cfg.trace {
                Some(w.telemetry.trace)
            } else {
                None
            },
            events,
            events_scheduled,
            events_cancelled,
            obs,
            autopsy,
        }
    }
}
