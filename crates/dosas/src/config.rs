//! Operation rates and scheme configuration.

use crate::cost::ResultModel;
use crate::policy::PolicyConfig;
use serde::{Deserialize, Serialize};
use simkit::SimSpan;
use std::collections::BTreeMap;

/// Bytes in a mebibyte (the paper's "MB").
const MIB: f64 = 1024.0 * 1024.0;

/// Per-core processing rate and result-size model for one operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpRate {
    /// Bytes/second one core sustains for this op (paper Table III).
    pub per_core: f64,
    /// The paper's `h(x)`: result size as a function of input size.
    pub result: ResultModel,
}

/// Rate table for all known operations.
///
/// The Contention Estimator derives `S_{C,op}` (storage capability) and
/// `C_{C,op}` (compute capability) from these per-core rates and the node
/// core counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpRates {
    rates: BTreeMap<String, OpRate>,
}

impl OpRates {
    pub fn empty() -> Self {
        OpRates {
            rates: BTreeMap::new(),
        }
    }

    /// The paper's measured rates (Table III): SUM 860 MB/s/core, 2-D
    /// Gaussian 80 MB/s/core — plus plausible rates for the extension
    /// kernels (not in the paper; calibrate on your host with
    /// `bench/calibrate` for real numbers).
    pub fn paper() -> Self {
        let mut r = Self::empty();
        r.set("sum", 860.0 * MIB, ResultModel::fixed(16));
        r.set("gaussian2d", 80.0 * MIB, ResultModel::fixed(32));
        r.set("stats", 700.0 * MIB, ResultModel::fixed(40));
        r.set("grep", 900.0 * MIB, ResultModel::fixed(8));
        r.set("histogram", 1100.0 * MIB, ResultModel::fixed(2048));
        r.set("kmeans1d", 250.0 * MIB, ResultModel::fixed(72));
        r.set("smooth1d", 500.0 * MIB, ResultModel::fixed(32));
        r
    }

    pub fn set(&mut self, op: &str, per_core: f64, result: ResultModel) {
        assert!(per_core.is_finite() && per_core > 0.0);
        self.rates
            .insert(op.to_string(), OpRate { per_core, result });
    }

    pub fn get(&self, op: &str) -> Option<&OpRate> {
        self.rates.get(op)
    }

    /// Per-core rate for `op`; panics on unknown ops (a config error).
    pub fn per_core(&self, op: &str) -> f64 {
        self.rates
            .get(op)
            .unwrap_or_else(|| panic!("no rate configured for op {op:?}"))
            .per_core
    }

    pub fn result_model(&self, op: &str) -> ResultModel {
        self.rates
            .get(op)
            .unwrap_or_else(|| panic!("no rate configured for op {op:?}"))
            .result
    }

    pub fn ops(&self) -> impl Iterator<Item = &str> {
        self.rates.keys().map(|s| s.as_str())
    }
}

/// The three evaluated schemes (paper §IV-A3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// Traditional Storage: servers only move bytes; kernels run at clients.
    Traditional,
    /// Normal Active Storage: kernels always run server-side.
    ActiveStorage,
    /// Dynamic Operation Scheduling Active Storage.
    Dosas(DosasConfig),
}

impl Scheme {
    pub fn dosas_default() -> Self {
        Scheme::Dosas(DosasConfig::default())
    }

    /// DOSAS with a non-default contention-control policy (see
    /// [`crate::policy`]); everything else stays at the defaults.
    pub fn dosas_with_policy(policy: PolicyConfig) -> Self {
        Scheme::Dosas(DosasConfig {
            policy,
            ..Default::default()
        })
    }

    /// DOSAS with fractional (partial-offload) scheduling — the
    /// future-work extension; see [`crate::schedule::fractional`].
    pub fn dosas_partial() -> Self {
        Scheme::Dosas(DosasConfig {
            partial_offload: true,
            ..Default::default()
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Traditional => "TS",
            Scheme::ActiveStorage => "AS",
            Scheme::Dosas(_) => "DOSAS",
        }
    }
}

/// Tunables of the DOSAS scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DosasConfig {
    /// Which contention-control policy drives offload/demotion and rate-cap
    /// decisions (see [`crate::policy`]). Default: the paper's Contention
    /// Estimator solving Eq. 8 with the exact O(k log k) threshold solver
    /// (the paper itself enumerates all 2^k assignments).
    pub policy: PolicyConfig,
    /// How often the CE re-probes the system and refreshes the policy.
    pub probe_period: SimSpan,
    /// Whether the runtime may interrupt kernels that are already running
    /// (paper §III-C: it may; disable for ablation).
    pub allow_interrupt: bool,
    /// Also re-evaluate the policy on every request arrival (the "on the
    /// fly" scheduling of §II), not only at probe ticks.
    pub decide_on_arrival: bool,
    /// Extension beyond the paper: split each active request fractionally
    /// between the storage node and the client (planned mid-kernel
    /// migration) instead of the binary offload/demote decision. See
    /// [`crate::schedule::fractional`].
    ///
    /// Partial offload also runs kernels from a FIFO work queue (one per
    /// kernel core) instead of processor-sharing all admitted kernels: FIFO
    /// pipelines each request's result/residue transfer behind the next
    /// kernel, which is what realizes the partial-offload overlap.
    /// Processor sharing is the paper's (and the binary mode's) behaviour.
    pub partial_offload: bool,
    /// Plan with an online bandwidth estimate (EWMA over the storage
    /// node's observed saturated-link throughput) instead of the nominal
    /// bandwidth. Extension: addresses the paper's first misjudgment cause
    /// ("the network bandwidth is not always fixed in practice"). The
    /// estimate is trusted from [`MIN_BW_SAMPLES`] observations on.
    pub estimate_bandwidth: bool,
    /// Probe robustness: timeout/retry/staleness handling for the CE's
    /// probe loop (fault-injection extension; no effect when probes never
    /// fail).
    #[serde(default)]
    pub probe: ProbeConfig,
}

/// Robustness knobs for the Contention Estimator's probe loop.
///
/// The paper assumes probes always succeed; under injected faults (probe
/// loss, delays) the CE needs a failure policy. A probe unanswered after
/// `timeout` is retried with exponential backoff (`retry_backoff`,
/// `max_retries`); once retries are exhausted the CE enters **fallback**:
/// it stops issuing demotions/interruptions, so every request is served as
/// requested — the static all-Active (traditional active storage) policy.
/// A policy that arrives more than `staleness_bound` after it was generated
/// is discarded rather than acted on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeConfig {
    /// A probe with no reply after this long is presumed lost.
    pub timeout: SimSpan,
    /// Retries of a lost probe before the CE gives up and falls back.
    /// `0` means a single loss triggers fallback immediately.
    pub max_retries: u32,
    /// Base retry backoff; attempt `k` waits `timeout + backoff · 2^k`
    /// after its probe was sent.
    pub retry_backoff: SimSpan,
    /// Maximum age (`now - generated_at`) at which a policy may still be
    /// applied; exactly at the bound is still usable.
    pub staleness_bound: SimSpan,
}

/// Minimum per-node observation count before an online bandwidth estimate
/// ([`DosasConfig::estimate_bandwidth`]) is trusted, by the CE's planning
/// and by the end-of-run `estimated_bandwidth` report. Below it the
/// estimate is treated as absent.
pub const MIN_BW_SAMPLES: u32 = 3;

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            timeout: SimSpan::from_millis(20),
            max_retries: 2,
            retry_backoff: SimSpan::from_millis(20),
            staleness_bound: SimSpan::from_millis(300),
        }
    }
}

/// A per-tenant service-level objective, verified at the end of a run.
///
/// SLOs are declarative: the driver does not act on them mid-run (DOSAS's
/// contention control is tenant-blind, as in the paper); they are checked
/// against the per-tenant aggregates in `RunMetrics::tenants` and exported
/// through the obs registry so scenario tests and dashboards can assert
/// them. Unset bounds are unconstrained.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSlo {
    /// Tenant this objective applies to (an index into `Workload::tenants`).
    pub tenant: usize,
    /// Minimum acceptable achieved bandwidth, bytes/second over the run.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub min_bandwidth: Option<f64>,
    /// Maximum acceptable p95 request latency, seconds.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_p95_latency_secs: Option<f64>,
}

impl TenantSlo {
    /// An objective with no bounds (always met) — a starting point for
    /// builder-style tightening.
    pub fn for_tenant(tenant: usize) -> Self {
        TenantSlo {
            tenant,
            min_bandwidth: None,
            max_p95_latency_secs: None,
        }
    }

    /// Require at least `bytes_per_sec` achieved bandwidth.
    pub fn min_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec.is_finite() && bytes_per_sec >= 0.0);
        self.min_bandwidth = Some(bytes_per_sec);
        self
    }

    /// Require p95 request latency at or below `secs`.
    pub fn max_p95_latency_secs(mut self, secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0);
        self.max_p95_latency_secs = Some(secs);
        self
    }
}

impl Default for DosasConfig {
    fn default() -> Self {
        DosasConfig {
            policy: PolicyConfig::default(),
            probe_period: SimSpan::from_millis(100),
            allow_interrupt: true,
            decide_on_arrival: true,
            partial_offload: false,
            estimate_bandwidth: false,
            probe: ProbeConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rates_match_table_iii() {
        let r = OpRates::paper();
        assert!((r.per_core("sum") / MIB - 860.0).abs() < 1e-9);
        assert!((r.per_core("gaussian2d") / MIB - 80.0).abs() < 1e-9);
        assert_eq!(r.result_model("sum").bytes(128.0 * MIB), 16.0);
    }

    #[test]
    fn ops_enumerates_sorted() {
        let r = OpRates::paper();
        let ops: Vec<&str> = r.ops().collect();
        assert!(ops.contains(&"sum"));
        assert!(ops.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "no rate configured")]
    fn unknown_op_panics() {
        OpRates::empty().per_core("sum");
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Traditional.name(), "TS");
        assert_eq!(Scheme::ActiveStorage.name(), "AS");
        assert_eq!(Scheme::dosas_default().name(), "DOSAS");
    }

    #[test]
    fn dosas_defaults() {
        let c = DosasConfig::default();
        assert!(c.allow_interrupt);
        assert!(c.decide_on_arrival);
        assert!(!c.partial_offload);
        assert_eq!(c.policy, PolicyConfig::Ce);
    }

    #[test]
    fn partial_constructor_sets_flag() {
        match Scheme::dosas_partial() {
            Scheme::Dosas(c) => {
                assert!(c.partial_offload);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn probe_defaults_are_sane() {
        let p = ProbeConfig::default();
        assert!(p.timeout > SimSpan::ZERO);
        assert!(p.staleness_bound >= DosasConfig::default().probe_period);
        assert_eq!(p.max_retries, 2);
    }

    #[test]
    fn set_replaces_rate() {
        let mut r = OpRates::paper();
        r.set("sum", 1.0, ResultModel::fixed(1));
        assert_eq!(r.per_core("sum"), 1.0);
    }
}
