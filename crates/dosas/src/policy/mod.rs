//! Pluggable contention-control policies.
//!
//! DOSAS's Contention Estimator is one point in a design space the
//! literature kept exploring: PADLL enforces per-job QoS rate limits
//! application-agnostically, Tavakoli et al. re-stripe requests away from
//! straggling servers, and Collignon et al. govern shared-storage
//! congestion with a PI controller. This module lifts the CE's hard-wired
//! solver into a [`ContentionPolicy`] trait so those competitors run as
//! first-class schemes over the same simulated cluster, probed queues and
//! telemetry — making the repo a policy benchmark rather than a single
//! reproduction (see DESIGN.md §12 and `bench::policy_matrix`).
//!
//! # Contract
//!
//! A policy is a deterministic function of its construction-time
//! [`PolicyContext`] and the sequence of [`PolicyInput`]s it has observed.
//! It must not consult wall clocks, random sources or iteration orders
//! outside `BTreeMap`/`BTreeSet` — the driver replays the same input
//! sequence on every run and pins the resulting
//! [`RunMetrics`](crate::driver::RunMetrics) byte-identically
//! (`tests/policy_arena.rs`).
//!
//! Each decision round observes exactly what the paper's CE sees — the
//! probed server's re-plannable queue plus the driver's passive telemetry —
//! and emits a [`PolicyOutput`]: an optional offload/demotion
//! [`Policy`](crate::estimator::Policy) (executed by the Active I/O
//! Runtime, demotions and interrupts included) and any number of per-rank
//! [`RateCap`]s (applied to the rank's current and future data flows by the
//! io_path; see `Fabric::set_flow_cap`). Probe-robustness machinery
//! (loss/retry/fallback, delayed-policy staleness) stays in the driver and
//! wraps every policy uniformly.

pub mod ce;
pub mod pi;
pub mod restripe;
pub mod token_bucket;

pub use ce::CePolicy;
pub use pi::{PiConfig, PiGovernor};
pub use restripe::{RestripeConfig, RestripePolicy};
pub use token_bucket::{TokenBucketConfig, TokenBucketPolicy};

use crate::config::{OpRates, TenantSlo};
use crate::estimator::Policy;
use cluster::NodeId;
use pfs::QueueSnapshot;
use serde::{Deserialize, Serialize};
use simkit::SimTime;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// EWMA smoothing factor for the driver-maintained per-server latency
/// estimate (matches the CE's online bandwidth EWMA).
const LATENCY_EWMA_ALPHA: f64 = 0.3;

/// Rank/tenant identity of one probed queue row, index-aligned with
/// `PolicyInput::queue.requests`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqMeta {
    /// Issuing rank (an index into the workload's programs).
    pub rank: usize,
    /// The rank's tenant, when the workload is tenanted.
    pub tenant: Option<usize>,
}

/// Per-server completed-request latency estimate (EWMA + sample count).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyEstimate {
    /// EWMA of request latency (arrival at the server → delivery), seconds.
    pub ewma_secs: f64,
    pub samples: u64,
}

/// Passive cross-request telemetry the driver maintains for every run and
/// exposes to policies read-only. Updated on request delivery and app
/// completion — pure state folds with no events, RNG draws or feedback into
/// the default scheme, so maintaining it never perturbs existing goldens.
#[derive(Debug, Clone, Default)]
pub struct PolicyTelemetry {
    /// Per-storage-node latency estimate, keyed by cluster node id.
    pub server_latency: BTreeMap<usize, LatencyEstimate>,
    /// Cumulative bytes completed per tenant (app-level, like
    /// `TenantStats::bytes`).
    pub tenant_bytes: BTreeMap<usize, f64>,
}

impl PolicyTelemetry {
    /// Fold one delivered request into the per-server latency EWMA.
    pub fn note_delivery(&mut self, server: usize, latency_secs: f64) {
        let e = self.server_latency.entry(server).or_default();
        if e.samples == 0 {
            e.ewma_secs = latency_secs;
        } else {
            e.ewma_secs =
                LATENCY_EWMA_ALPHA * latency_secs + (1.0 - LATENCY_EWMA_ALPHA) * e.ewma_secs;
        }
        e.samples += 1;
    }

    /// Fold one completed app I/O into its tenant's byte counter.
    pub fn note_app_complete(&mut self, tenant: Option<usize>, bytes: f64) {
        if let Some(t) = tenant {
            *self.tenant_bytes.entry(t).or_insert(0.0) += bytes;
        }
    }
}

/// Everything a policy may observe in one decision round.
#[derive(Debug)]
pub struct PolicyInput<'a> {
    /// The probed storage node.
    pub server: NodeId,
    pub now: SimTime,
    /// The server's re-plannable queue (queued-at-disk or running-kernel
    /// requests only) — exactly the snapshot the paper's CE plans over.
    pub queue: &'a QueueSnapshot,
    /// Rank/tenant identity of `queue.requests[i]`, index-aligned.
    pub meta: &'a [ReqMeta],
    /// Online outbound-bandwidth estimate for the server, when the EWMA
    /// sampler has enough observations (`None` = plan with nominal).
    pub bandwidth_estimate: Option<f64>,
    /// Driver-maintained passive telemetry (latency EWMAs, tenant bytes).
    pub telemetry: &'a PolicyTelemetry,
}

/// A per-rank bandwidth cap directive. `f64::INFINITY` lifts the cap;
/// finite values are floored at 1 B/s by the driver (the fabric rejects
/// non-positive caps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateCap {
    pub rank: usize,
    pub bytes_per_sec: f64,
}

impl RateCap {
    pub fn limit(rank: usize, bytes_per_sec: f64) -> Self {
        RateCap {
            rank,
            bytes_per_sec,
        }
    }

    /// Remove any cap on `rank`'s flows.
    pub fn lift(rank: usize) -> Self {
        RateCap {
            rank,
            bytes_per_sec: f64::INFINITY,
        }
    }
}

/// One decision round's output.
#[derive(Debug, Clone, Default)]
pub struct PolicyOutput {
    /// Offload/demotion decisions for the probed queue, executed by the
    /// Active I/O Runtime (demote queued requests, interrupt running
    /// kernels). `None` leaves the runtime untouched this round.
    pub offload: Option<Policy>,
    /// Per-rank rate caps applied to current and future data flows.
    pub rate_caps: Vec<RateCap>,
    /// When the round's inputs were observed — delayed outputs older than
    /// the supervisor's staleness bound are discarded, like CE policies.
    pub generated_at: SimTime,
}

impl PolicyOutput {
    /// A round that changes nothing (still subject to delay/staleness).
    pub fn noop(now: SimTime) -> Self {
        PolicyOutput {
            offload: None,
            rate_caps: Vec::new(),
            generated_at: now,
        }
    }
}

/// A pluggable contention-control policy. See the module docs for the
/// determinism contract and the observation/actuation surface.
pub trait ContentionPolicy: Debug + Send {
    /// Stable identifier used in config parsing, obs labels and the
    /// benchmark matrix.
    fn name(&self) -> &'static str;

    /// One decision round for one probed server.
    fn decide(&mut self, input: &PolicyInput<'_>) -> PolicyOutput;
}

/// World constants available to a policy at construction time.
#[derive(Debug)]
pub struct PolicyContext<'a> {
    pub rates: &'a OpRates,
    /// Kernel-usable cores on each storage node.
    pub kernel_cores: f64,
    /// Cores one client process can apply to a demoted request.
    pub client_cores: f64,
    /// Nominal NIC bandwidth, bytes/second.
    pub nominal_bw: f64,
    /// Storage-node memory available for kernel buffers, bytes.
    pub memory_capacity: f64,
    /// Plan fractional splits instead of binary offload/demote.
    pub partial_offload: bool,
    /// Declared per-tenant objectives (token-bucket rates honor these).
    pub slos: &'a [TenantSlo],
    /// Tenant of each rank (index = rank), read in place from
    /// [`Workload::tenants`](crate::Workload::tenants); empty when the
    /// workload is untenanted.
    pub rank_tenants: &'a [usize],
}

/// Serde-configurable policy selection, embedded in
/// [`DosasConfig::policy`](crate::config::DosasConfig::policy).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum PolicyConfig {
    /// The paper's Contention Estimator solving Eq. 8 with the exact
    /// O(k log k) threshold solver; the default.
    #[default]
    Ce,
    /// Straggler-aware re-striping: demote every active request queued on
    /// a server whose latency EWMA lags the fleet.
    Restripe(RestripeConfig),
    /// PADLL-style per-tenant token-bucket rate enforcement honoring
    /// [`TenantSlo`] bandwidth floors.
    TokenBucket(TokenBucketConfig),
    /// PI-controller congestion governor targeting a queue-depth setpoint.
    Pi(PiConfig),
}

impl PolicyConfig {
    /// Stable name, matching the built policy's
    /// [`ContentionPolicy::name`].
    pub fn name(&self) -> &'static str {
        match self {
            PolicyConfig::Ce => "ce",
            PolicyConfig::Restripe(_) => "restripe",
            PolicyConfig::TokenBucket(_) => "token-bucket",
            PolicyConfig::Pi(_) => "pi",
        }
    }

    /// Every selectable policy name (CLI `--list`, benchmark matrix).
    pub fn all_names() -> &'static [&'static str] {
        &["ce", "restripe", "token-bucket", "pi"]
    }

    /// A default-parameterized config for `name`, `None` if unknown.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "ce" => Some(PolicyConfig::default()),
            "restripe" => Some(PolicyConfig::Restripe(RestripeConfig::default())),
            "token-bucket" => Some(PolicyConfig::TokenBucket(TokenBucketConfig::default())),
            "pi" => Some(PolicyConfig::Pi(PiConfig::default())),
            _ => None,
        }
    }

    /// Instantiate the policy for a concrete world.
    pub fn build(&self, ctx: &PolicyContext<'_>) -> Box<dyn ContentionPolicy> {
        match self {
            PolicyConfig::Ce => Box::new(CePolicy::new(ctx)),
            PolicyConfig::Restripe(c) => Box::new(RestripePolicy::new(c.clone())),
            PolicyConfig::TokenBucket(c) => Box::new(TokenBucketPolicy::new(c.clone(), ctx)),
            PolicyConfig::Pi(c) => Box::new(PiGovernor::new(c.clone(), ctx)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_fixture(rates: &OpRates) -> PolicyContext<'_> {
        PolicyContext {
            rates,
            kernel_cores: 2.0,
            client_cores: 1.0,
            nominal_bw: 100.0 * 1024.0 * 1024.0,
            memory_capacity: 1024.0 * 1024.0 * 1024.0,
            partial_offload: false,
            slos: &[],
            rank_tenants: &[],
        }
    }

    #[test]
    fn config_names_round_trip() {
        for &name in PolicyConfig::all_names() {
            let cfg = PolicyConfig::by_name(name).expect("listed name resolves");
            assert_eq!(cfg.name(), name);
        }
        assert!(PolicyConfig::by_name("nope").is_none());
        assert_eq!(PolicyConfig::default().name(), "ce");
    }

    #[test]
    fn built_policy_names_match_config() {
        let rates = OpRates::paper();
        let ctx = ctx_fixture(&rates);
        for &name in PolicyConfig::all_names() {
            let p = PolicyConfig::by_name(name).unwrap().build(&ctx);
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    fn config_serde_round_trips() {
        for &name in PolicyConfig::all_names() {
            let cfg = PolicyConfig::by_name(name).unwrap();
            let json = serde_json::to_string(&cfg).unwrap();
            let back: PolicyConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn telemetry_ewma_folds() {
        let mut t = PolicyTelemetry::default();
        t.note_delivery(3, 1.0);
        assert_eq!(t.server_latency[&3].samples, 1);
        assert!((t.server_latency[&3].ewma_secs - 1.0).abs() < 1e-12);
        t.note_delivery(3, 2.0);
        let e = t.server_latency[&3];
        assert_eq!(e.samples, 2);
        assert!((e.ewma_secs - (0.3 * 2.0 + 0.7 * 1.0)).abs() < 1e-12);
        t.note_app_complete(Some(1), 64.0);
        t.note_app_complete(Some(1), 36.0);
        t.note_app_complete(None, 1e9);
        assert_eq!(t.tenant_bytes.get(&1), Some(&100.0));
        assert!(!t.tenant_bytes.contains_key(&0));
    }

    #[test]
    fn rate_cap_constructors() {
        assert_eq!(RateCap::limit(2, 5.0).bytes_per_sec, 5.0);
        assert!(RateCap::lift(2).bytes_per_sec.is_infinite());
    }
}
