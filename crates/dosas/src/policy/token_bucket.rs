//! PADLL-style per-tenant token-bucket rate enforcement.
//!
//! Application-agnostic QoS: each tenant owns a token bucket refilled at
//! its provisioned rate — the [`TenantSlo`](crate::config::TenantSlo)
//! bandwidth floor scaled by `slo_headroom` when one is declared,
//! `default_rate` otherwise — and drained by the bytes the tenant actually
//! completes (from [`PolicyTelemetry`](super::PolicyTelemetry)). A tenant
//! that overdraws its bucket gets every one of its ranks capped to an even
//! share of the tenant rate until the bucket recovers past half its burst
//! capacity (hysteresis, so caps don't flap at the boundary). Makes no
//! offload/demotion decisions — contention control purely by admission at
//! the fabric, like PADLL's storage-middleware enforcement.

use super::{ContentionPolicy, PolicyContext, PolicyInput, PolicyOutput, RateCap};
use serde::{Deserialize, Serialize};
use simkit::SimTime;
use std::collections::BTreeMap;

/// Bucket recovery level (fraction of burst capacity) at which an
/// over-budget tenant's caps are lifted.
const RELEASE_FRACTION: f64 = 0.5;

/// Tunables for [`TokenBucketPolicy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TokenBucketConfig {
    /// Provisioned rate (bytes/s) for tenants without a declared
    /// bandwidth-floor SLO.
    pub default_rate: f64,
    /// Multiplier on a declared SLO bandwidth floor: the enforced rate
    /// leaves headroom above the floor so enforcement itself cannot cause
    /// the SLO verdict to fail.
    pub slo_headroom: f64,
    /// Bucket capacity, expressed in seconds of sustained rate (the burst
    /// a tenant may front-load before caps engage).
    pub burst_secs: f64,
    /// Floor for any per-rank cap, bytes/s (keeps capped ranks draining).
    pub min_rank_cap: f64,
}

impl Default for TokenBucketConfig {
    fn default() -> Self {
        const MIB: f64 = 1024.0 * 1024.0;
        TokenBucketConfig {
            default_rate: 64.0 * MIB,
            slo_headroom: 1.25,
            burst_secs: 0.5,
            min_rank_cap: MIB,
        }
    }
}

/// Per-tenant enforcement state.
#[derive(Debug, Clone)]
struct Bucket {
    /// Provisioned refill rate, bytes/s.
    rate: f64,
    /// Current balance, bytes; clamped to `[−burst, burst]` (bounded debt,
    /// so one burst can't mute enforcement forever after).
    tokens: f64,
    /// Tenant bytes already charged against the bucket.
    charged: f64,
    /// The tenant's ranks, for cap fan-out.
    ranks: Vec<usize>,
    capped: bool,
}

/// Enforce per-tenant sustained rates by capping rank flows.
#[derive(Debug)]
pub struct TokenBucketPolicy {
    cfg: TokenBucketConfig,
    buckets: BTreeMap<usize, Bucket>,
    last_refill: SimTime,
}

impl TokenBucketPolicy {
    pub fn new(cfg: TokenBucketConfig, ctx: &PolicyContext<'_>) -> Self {
        assert!(cfg.default_rate > 0.0 && cfg.slo_headroom > 0.0);
        assert!(cfg.burst_secs > 0.0 && cfg.min_rank_cap > 0.0);
        let mut buckets: BTreeMap<usize, Bucket> = BTreeMap::new();
        for (rank, t) in ctx.rank_tenants.iter().enumerate() {
            let rate = ctx
                .slos
                .iter()
                .find(|s| s.tenant == *t)
                .and_then(|s| s.min_bandwidth)
                .map(|floor| floor * cfg.slo_headroom)
                .unwrap_or(cfg.default_rate);
            let b = buckets.entry(*t).or_insert_with(|| Bucket {
                rate,
                tokens: rate * cfg.burst_secs,
                charged: 0.0,
                ranks: Vec::new(),
                capped: false,
            });
            b.ranks.push(rank);
        }
        TokenBucketPolicy {
            cfg,
            buckets,
            last_refill: SimTime::ZERO,
        }
    }
}

impl ContentionPolicy for TokenBucketPolicy {
    fn name(&self) -> &'static str {
        "token-bucket"
    }

    fn decide(&mut self, input: &PolicyInput<'_>) -> PolicyOutput {
        let dt = (input.now - self.last_refill).as_secs_f64();
        self.last_refill = input.now;
        let mut caps = Vec::new();
        for (tenant, b) in self.buckets.iter_mut() {
            let burst = b.rate * self.cfg.burst_secs;
            if dt > 0.0 {
                b.tokens = (b.tokens + b.rate * dt).min(burst);
            }
            // Charge bytes completed since the last round (any server's
            // probe advances every bucket — enforcement is global).
            let done = input
                .telemetry
                .tenant_bytes
                .get(tenant)
                .copied()
                .unwrap_or(0.0);
            let fresh = done - b.charged;
            if fresh > 0.0 {
                b.charged = done;
                b.tokens = (b.tokens - fresh).max(-burst);
            }
            if !b.capped && b.tokens < 0.0 {
                b.capped = true;
                let cap = (b.rate / b.ranks.len().max(1) as f64).max(self.cfg.min_rank_cap);
                caps.extend(b.ranks.iter().map(|&r| RateCap::limit(r, cap)));
            } else if b.capped && b.tokens >= RELEASE_FRACTION * burst {
                b.capped = false;
                caps.extend(b.ranks.iter().map(|&r| RateCap::lift(r)));
            }
        }
        PolicyOutput {
            offload: None,
            rate_caps: caps,
            generated_at: input.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OpRates, TenantSlo};
    use crate::policy::{PolicyTelemetry, ReqMeta};
    use cluster::NodeId;
    use pfs::QueueSnapshot;

    fn decide_at(p: &mut TokenBucketPolicy, now: f64, telemetry: &PolicyTelemetry) -> PolicyOutput {
        let queue = QueueSnapshot {
            n: 0,
            k: 0,
            d_active: 0.0,
            d_normal: 0.0,
            requests: vec![],
            taken_at: SimTime::from_secs_f64(now),
        };
        let meta: Vec<ReqMeta> = vec![];
        p.decide(&PolicyInput {
            server: NodeId(0),
            now: SimTime::from_secs_f64(now),
            queue: &queue,
            meta: &meta,
            bandwidth_estimate: None,
            telemetry,
        })
    }

    #[test]
    fn caps_overdrawn_tenant_then_releases() {
        let rates = OpRates::paper();
        let slos = vec![TenantSlo::for_tenant(0).min_bandwidth(100.0)];
        let rank_tenants = vec![0, 0, 1];
        let cfg = TokenBucketConfig {
            default_rate: 1000.0,
            slo_headroom: 1.0,
            burst_secs: 1.0,
            min_rank_cap: 1.0,
        };
        let ctx = PolicyContext {
            rates: &rates,
            kernel_cores: 1.0,
            client_cores: 1.0,
            nominal_bw: 1e6,
            memory_capacity: 1e6,
            partial_offload: false,
            slos: &slos,
            rank_tenants: &rank_tenants,
        };
        let mut p = TokenBucketPolicy::new(cfg, &ctx);
        // Tenant 0's rate honors its SLO floor; tenant 1 gets the default.
        assert_eq!(p.buckets[&0].rate, 100.0);
        assert_eq!(p.buckets[&0].ranks, vec![0, 1]);
        assert_eq!(p.buckets[&1].rate, 1000.0);

        // Tenant 0 completes 400 bytes in its first second — 4× its rate.
        let mut t = PolicyTelemetry::default();
        t.note_app_complete(Some(0), 400.0);
        let out = decide_at(&mut p, 1.0, &t);
        assert_eq!(out.rate_caps.len(), 2, "both tenant-0 ranks capped");
        assert!(out.rate_caps.iter().all(|c| c.rank == 0 || c.rank == 1));
        assert!((out.rate_caps[0].bytes_per_sec - 50.0).abs() < 1e-9);
        assert!(out.offload.is_none(), "token bucket never demotes");

        // No new bytes: the bucket refills; caps lift once it recovers to
        // half burst. Balance after charge: 100+100-400 = -200 (clamped to
        // -100); recovery to +50 needs 1.5 s.
        let quiet = decide_at(&mut p, 2.0, &t);
        assert!(quiet.rate_caps.is_empty(), "still in debt at t=2");
        let released = decide_at(&mut p, 2.6, &t);
        assert_eq!(released.rate_caps.len(), 2);
        assert!(released
            .rate_caps
            .iter()
            .all(|c| c.bytes_per_sec.is_infinite()));
    }

    #[test]
    fn untenanted_workload_is_a_noop() {
        let rates = OpRates::paper();
        let ctx = PolicyContext {
            rates: &rates,
            kernel_cores: 1.0,
            client_cores: 1.0,
            nominal_bw: 1e6,
            memory_capacity: 1e6,
            partial_offload: false,
            slos: &[],
            rank_tenants: &[],
        };
        let mut p = TokenBucketPolicy::new(TokenBucketConfig::default(), &ctx);
        let t = PolicyTelemetry::default();
        let out = decide_at(&mut p, 1.0, &t);
        assert!(out.rate_caps.is_empty() && out.offload.is_none());
    }
}
