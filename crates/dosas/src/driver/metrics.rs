//! Run metrics: everything the paper's figures and tables are built from.

use crate::estimator::CeStats;
use crate::runtime::RuntimeCounters;
use mpiio::status::ExecutionSite;
use serde::Serialize;
use simkit::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One application-level I/O (one `Read`/`ReadEx` call of one rank).
#[derive(Debug, Clone, Serialize)]
pub struct AppIoRecord {
    pub app: u64,
    pub rank: usize,
    /// Tenant of the issuing rank; omitted from the serialized form for
    /// untenanted workloads so existing golden snapshots are unchanged.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenant: Option<usize>,
    pub bytes: f64,
    /// The op the I/O requested, shared with the workload's program.
    pub op: Option<Arc<str>>,
    pub issued_at: SimTime,
    pub completed_at: SimTime,
    pub site: ExecutionSite,
}

impl AppIoRecord {
    pub fn latency_secs(&self) -> f64 {
        (self.completed_at - self.issued_at).as_secs_f64()
    }
}

/// Per-tenant aggregates over one run (ordered by tenant id).
#[derive(Debug, Clone, Serialize)]
pub struct TenantStats {
    pub tenant: usize,
    /// App I/Os the tenant completed.
    pub requests: u64,
    /// Bytes the tenant completed.
    pub bytes: f64,
    /// `bytes / makespan` — the tenant's share of the run's aggregate
    /// bandwidth (per-tenant shares sum to `achieved_bandwidth` exactly,
    /// because every completed byte belongs to exactly one tenant).
    pub achieved_bandwidth: f64,
    pub mean_latency_secs: f64,
    pub p95_latency_secs: f64,
}

/// End-of-run verdict for one declared [`TenantSlo`](crate::config::TenantSlo).
#[derive(Debug, Clone, Serialize)]
pub struct TenantSloOutcome {
    pub tenant: usize,
    pub met: bool,
    /// One line per violated bound (empty when met).
    pub violations: Vec<String>,
}

/// Multi-tenant summary attached to [`RunMetrics`] for tenanted workloads.
#[derive(Debug, Clone, Serialize)]
pub struct TenantReport {
    pub per_tenant: Vec<TenantStats>,
    /// Jain fairness index `(Σx)² / (n·Σx²)` over per-tenant achieved
    /// bandwidth: 1.0 = perfectly even shares, → 1/n as one tenant
    /// monopolizes. Defined as 1.0 when nothing moved.
    pub jain_fairness: f64,
    pub slos: Vec<TenantSloOutcome>,
}

impl TenantReport {
    /// Aggregate `records` per tenant and verify `slos`. `None` when no
    /// record carries a tenant label (untenanted run).
    pub fn compute(
        records: &[AppIoRecord],
        makespan_secs: f64,
        slos: &[crate::config::TenantSlo],
    ) -> Option<TenantReport> {
        let n = records.iter().filter_map(|r| r.tenant).max()? + 1;
        let mut per_tenant: Vec<TenantStats> = (0..n)
            .map(|t| TenantStats {
                tenant: t,
                requests: 0,
                bytes: 0.0,
                achieved_bandwidth: 0.0,
                mean_latency_secs: 0.0,
                p95_latency_secs: 0.0,
            })
            .collect();
        let mut latencies: Vec<simkit::stats::Quantiles> = (0..n)
            .map(|_| simkit::stats::Quantiles::default())
            .collect();
        let mut latency_sum = vec![0.0f64; n];
        for r in records {
            let Some(t) = r.tenant else { continue };
            per_tenant[t].requests += 1;
            per_tenant[t].bytes += r.bytes;
            latency_sum[t] += r.latency_secs();
            latencies[t].record(r.latency_secs());
        }
        for (t, s) in per_tenant.iter_mut().enumerate() {
            s.achieved_bandwidth = if makespan_secs > 0.0 {
                s.bytes / makespan_secs
            } else {
                0.0
            };
            s.mean_latency_secs = if s.requests > 0 {
                latency_sum[t] / s.requests as f64
            } else {
                0.0
            };
            s.p95_latency_secs = latencies[t].quantile(0.95).unwrap_or(0.0);
        }
        let sum: f64 = per_tenant.iter().map(|s| s.achieved_bandwidth).sum();
        let sum_sq: f64 = per_tenant
            .iter()
            .map(|s| s.achieved_bandwidth * s.achieved_bandwidth)
            .sum();
        let jain_fairness = if sum_sq > 0.0 {
            (sum * sum) / (n as f64 * sum_sq)
        } else {
            1.0
        };
        let slos = slos
            .iter()
            .map(|slo| {
                let mut violations = Vec::new();
                let stats = per_tenant.get(slo.tenant);
                let bw = stats.map_or(0.0, |s| s.achieved_bandwidth);
                let p95 = stats.map_or(0.0, |s| s.p95_latency_secs);
                if let Some(min) = slo.min_bandwidth {
                    if bw < min {
                        violations.push(format!(
                            "achieved bandwidth {bw:.3} B/s below SLO minimum {min:.3} B/s"
                        ));
                    }
                }
                if let Some(max) = slo.max_p95_latency_secs {
                    if p95 > max {
                        violations
                            .push(format!("p95 latency {p95:.6}s above SLO maximum {max:.6}s"));
                    }
                }
                TenantSloOutcome {
                    tenant: slo.tenant,
                    met: violations.is_empty(),
                    violations,
                }
            })
            .collect();
        Some(TenantReport {
            per_tenant,
            jain_fairness,
            slos,
        })
    }

    /// Were all declared SLOs met?
    pub fn all_slos_met(&self) -> bool {
        self.slos.iter().all(|s| s.met)
    }
}

/// Contention-policy activity over one run.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyStats {
    /// The policy's stable name (see [`crate::policy::PolicyConfig`]).
    pub name: String,
    /// Rate-cap directives that changed some rank's cap (sets, updates and
    /// lifts all count; directives restating the current cap do not).
    pub rate_caps_applied: u64,
}

/// One Contention Estimator policy generation.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyLogEntry {
    pub time: SimTime,
    pub server: usize,
    /// `k`: active requests considered.
    pub k: usize,
    pub kept_active: usize,
    pub demoted: usize,
    pub predicted_time: f64,
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct RunMetrics {
    pub scheme: String,
    /// Total execution time of all I/O requests (the paper's metric).
    pub makespan_secs: f64,
    pub total_requested_bytes: f64,
    /// Application-perceived aggregate bandwidth:
    /// `total requested bytes / makespan` (Figures 11–12).
    pub achieved_bandwidth: f64,
    pub records: Vec<AppIoRecord>,
    pub runtime: RuntimeCounters,
    /// Contention Estimator probe health, aggregated over all storage
    /// nodes (probe losses, retries, fallback entries under faults).
    pub ce: CeStats,
    /// Time-weighted mean I/O queue depth over all storage nodes: each
    /// server's depth integrated over `[0, end]` and divided by `end`, where
    /// `end` is the clock of the run's last dispatched event (not the
    /// makespan). No superseded resource tick is ever dispatched, so `end`
    /// is the time of the last event that did work.
    pub mean_queue_depth: f64,
    pub peak_queue_depth: f64,
    pub policy_log: Vec<PolicyLogEntry>,
    /// Final per-storage-node bandwidth estimates (bytes/s), when the
    /// online estimator was enabled.
    pub estimated_bandwidth: BTreeMap<usize, f64>,
    /// Per-tenant aggregates, fairness and SLO verdicts; present only for
    /// tenanted workloads (omitted from the serialized form otherwise, so
    /// single-tenant golden snapshots are unchanged).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenants: Option<TenantReport>,
    /// Which contention-control policy drove the run and how much it
    /// rate-capped. Present only for non-default policies — the default CE
    /// (and non-DOSAS schemes) serialize without it, so pre-existing golden
    /// snapshots are unchanged.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub policy: Option<PolicyStats>,
    /// Final kernel results per app I/O (data-plane runs only).
    #[serde(skip)]
    pub results: BTreeMap<u64, Vec<u8>>,
    /// Execution timeline when `DriverConfig::trace` was set; serialize
    /// with [`obs::chrome_trace_json`] for chrome://tracing / Perfetto.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<Vec<obs::TraceSpan>>,
    /// Simulation events dispatched (engine throughput accounting).
    pub events: u64,
    /// Simulation events ever scheduled. `events_scheduled - events -
    /// events_cancelled` is the queue residue: zero for run-to-drain, the
    /// still-pending backlog for deadline-bounded runs.
    pub events_scheduled: u64,
    /// Events revoked before dispatch: disk, CPU and fabric ticks a
    /// resource timer cancelled because a change superseded them.
    pub events_cancelled: u64,
    /// Observability report (metrics registry, event log, timeline samples)
    /// when `DriverConfig::obs` was enabled. Excluded from the serialized
    /// form so golden snapshots stay stable; export it explicitly via
    /// [`obs::ObsReport::to_prometheus`] / `timeline_jsonl`.
    #[serde(skip)]
    pub obs: Option<obs::ObsReport>,
    /// Request autopsy (per-request additive latency breakdowns, wait
    /// attribution, critical path) when `DriverConfig::autopsy` was set.
    /// Omitted from the serialized form otherwise, so pre-existing golden
    /// snapshots are unchanged.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub autopsy: Option<crate::driver::autopsy::AutopsyReport>,
}

impl RunMetrics {
    /// Mean per-request latency in seconds.
    pub fn mean_latency_secs(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(AppIoRecord::latency_secs)
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// How many app I/Os ended on each execution site.
    pub fn site_histogram(&self) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for r in &self.records {
            *h.entry(format!("{:?}", r.site)).or_insert(0) += 1;
        }
        h
    }

    /// Achieved bandwidth in MB/s (MiB/s, the paper's unit).
    pub fn bandwidth_mb_per_s(&self) -> f64 {
        self.achieved_bandwidth / (1024.0 * 1024.0)
    }

    /// Latency quantile over all app I/Os (`q` in 0.0–1.0), seconds.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        let mut sketch = simkit::stats::Quantiles::default();
        for r in &self.records {
            sketch.record(r.latency_secs());
        }
        sketch.quantile(q)
    }

    /// p50/p95/p99 latency summary in seconds.
    pub fn latency_percentiles(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.latency_quantile(0.5)?,
            self.latency_quantile(0.95)?,
            self.latency_quantile(0.99)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_latency() {
        let r = AppIoRecord {
            app: 0,
            rank: 0,
            tenant: None,
            bytes: 1.0,
            op: None,
            issued_at: SimTime::from_secs_f64(1.0),
            completed_at: SimTime::from_secs_f64(3.5),
            site: ExecutionSite::Storage,
        };
        assert!((r.latency_secs() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn metrics_aggregates() {
        let mk = |lat: f64, site| AppIoRecord {
            app: 0,
            rank: 0,
            tenant: None,
            bytes: 1.0,
            op: Some("sum".into()),
            issued_at: SimTime::ZERO,
            completed_at: SimTime::from_secs_f64(lat),
            site,
        };
        let m = RunMetrics {
            scheme: "AS".into(),
            makespan_secs: 4.0,
            total_requested_bytes: 8.0 * 1024.0 * 1024.0,
            achieved_bandwidth: 2.0 * 1024.0 * 1024.0,
            records: vec![
                mk(2.0, ExecutionSite::Storage),
                mk(4.0, ExecutionSite::Compute),
                mk(3.0, ExecutionSite::Storage),
            ],
            runtime: RuntimeCounters::default(),
            ce: CeStats::default(),
            mean_queue_depth: 0.0,
            peak_queue_depth: 0.0,
            policy_log: vec![],
            estimated_bandwidth: BTreeMap::new(),
            tenants: None,
            policy: None,
            results: BTreeMap::new(),
            trace: None,
            events: 0,
            events_scheduled: 0,
            events_cancelled: 0,
            obs: None,
            autopsy: None,
        };
        assert!((m.mean_latency_secs() - 3.0).abs() < 1e-9);
        assert_eq!(m.site_histogram()["Storage"], 2);
        assert!((m.bandwidth_mb_per_s() - 2.0).abs() < 1e-9);
        let (p50, p95, p99) = m.latency_percentiles().unwrap();
        assert_eq!(p50, 3.0);
        assert_eq!(p95, 4.0);
        assert_eq!(p99, 4.0);
    }

    #[test]
    fn tenant_report_aggregates_and_checks_slos() {
        use crate::config::TenantSlo;
        let mk = |tenant: usize, bytes: f64, lat: f64| AppIoRecord {
            app: 0,
            rank: 0,
            tenant: Some(tenant),
            bytes,
            op: Some("sum".into()),
            issued_at: SimTime::ZERO,
            completed_at: SimTime::from_secs_f64(lat),
            site: ExecutionSite::Storage,
        };
        // Tenant 0: 300 bytes over 4s; tenant 1: 100 bytes.
        let records = vec![mk(0, 200.0, 1.0), mk(0, 100.0, 3.0), mk(1, 100.0, 4.0)];
        let slos = vec![
            TenantSlo::for_tenant(0)
                .min_bandwidth(50.0)
                .max_p95_latency_secs(3.5),
            TenantSlo::for_tenant(1).min_bandwidth(50.0),
        ];
        let rep = TenantReport::compute(&records, 4.0, &slos).unwrap();
        assert_eq!(rep.per_tenant.len(), 2);
        assert!((rep.per_tenant[0].achieved_bandwidth - 75.0).abs() < 1e-9);
        assert!((rep.per_tenant[1].achieved_bandwidth - 25.0).abs() < 1e-9);
        assert!((rep.per_tenant[0].mean_latency_secs - 2.0).abs() < 1e-9);
        // Shares conserve the aggregate.
        let sum: f64 = rep.per_tenant.iter().map(|t| t.achieved_bandwidth).sum();
        assert!((sum - 400.0 / 4.0).abs() < 1e-9);
        // Jain for shares (75, 25): 100² / (2 · (75² + 25²)) = 0.8.
        assert!((rep.jain_fairness - 0.8).abs() < 1e-9);
        assert!(rep.slos[0].met, "{:?}", rep.slos[0].violations);
        assert!(!rep.slos[1].met, "25 B/s misses the 50 B/s floor");
        assert!(!rep.all_slos_met());
        // Untenanted records yield no report.
        let plain = vec![AppIoRecord {
            tenant: None,
            ..mk(0, 1.0, 1.0)
        }];
        assert!(TenantReport::compute(&plain, 1.0, &[]).is_none());
    }
}
