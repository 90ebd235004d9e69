//! The paper's Contention Estimator as a [`ContentionPolicy`].
//!
//! The reference implementation: wraps [`ContentionEstimator`] (Eq. 8
//! solved by the exact threshold solver) behind the trait without
//! changing a single decision — the pre-refactor golden `RunMetrics`
//! matrix stays byte-identical under this policy (`tests/golden_metrics.rs`,
//! `tests/tenant_scenarios.rs`). Emits no rate caps.

use super::{ContentionPolicy, PolicyContext, PolicyInput, PolicyOutput};
use crate::estimator::{ContentionEstimator, SystemProbe};

/// Offload/demotion decisions from the paper's CE cost model.
#[derive(Debug)]
pub struct CePolicy {
    estimator: ContentionEstimator,
    /// Plan fractional splits (`generate_split_policy`) instead of binary
    /// offload/demote decisions.
    partial_offload: bool,
}

impl CePolicy {
    pub fn new(ctx: &PolicyContext<'_>) -> Self {
        CePolicy {
            estimator: ContentionEstimator::new(
                ctx.rates.clone(),
                ctx.kernel_cores,
                ctx.client_cores,
                ctx.nominal_bw,
                ctx.memory_capacity,
            ),
            partial_offload: ctx.partial_offload,
        }
    }
}

impl ContentionPolicy for CePolicy {
    fn name(&self) -> &'static str {
        "ce"
    }

    fn decide(&mut self, input: &PolicyInput<'_>) -> PolicyOutput {
        let probe = SystemProbe {
            queue: input.queue.clone(),
            background_cpu: 0.0,
            background_memory: 0.0,
            bandwidth_estimate: input.bandwidth_estimate,
        };
        let policy = if self.partial_offload {
            self.estimator.generate_split_policy(input.now, &probe)
        } else {
            self.estimator.generate_policy(input.now, &probe)
        };
        PolicyOutput {
            offload: Some(policy),
            rate_caps: Vec::new(),
            generated_at: input.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OpRates;
    use crate::estimator::Decision;
    use crate::policy::{PolicyTelemetry, ReqMeta};
    use cluster::NodeId;
    use pfs::{QueueSnapshot, RequestId, SnapshotRow};
    use simkit::SimTime;

    const MIB: f64 = 1024.0 * 1024.0;

    #[test]
    fn matches_direct_estimator_output() {
        let rates = OpRates::paper();
        let ctx = PolicyContext {
            rates: &rates,
            kernel_cores: 2.0,
            client_cores: 1.0,
            nominal_bw: 118.0 * MIB,
            memory_capacity: 1024.0 * MIB,
            partial_offload: false,
            slos: &[],
            rank_tenants: &[],
        };
        let rows: Vec<SnapshotRow> = (0..4)
            .map(|i| SnapshotRow {
                id: RequestId(i),
                op: Some("gaussian2d".into()),
                bytes: 128.0 * MIB,
            })
            .collect();
        let queue = QueueSnapshot {
            n: rows.len(),
            k: rows.len(),
            d_active: rows.iter().map(|r| r.bytes).sum(),
            d_normal: 0.0,
            requests: rows,
            taken_at: SimTime::ZERO,
        };
        let meta = vec![
            ReqMeta {
                rank: 0,
                tenant: None
            };
            4
        ];
        let telemetry = PolicyTelemetry::default();
        let input = PolicyInput {
            server: NodeId(0),
            now: SimTime::from_secs_f64(1.0),
            queue: &queue,
            meta: &meta,
            bandwidth_estimate: None,
            telemetry: &telemetry,
        };

        let mut policy = CePolicy::new(&ctx);
        let out = policy.decide(&input);
        assert!(out.rate_caps.is_empty(), "the CE never rate-caps");
        assert_eq!(out.generated_at, input.now);

        let direct = ContentionEstimator::new(rates.clone(), 2.0, 1.0, 118.0 * MIB, 1024.0 * MIB)
            .generate_policy(
                input.now,
                &SystemProbe {
                    queue: queue.clone(),
                    background_cpu: 0.0,
                    background_memory: 0.0,
                    bandwidth_estimate: None,
                },
            );
        let got = out.offload.expect("CE always emits a policy");
        assert_eq!(got, direct, "trait wrapper must not change decisions");
        assert!(got
            .decisions
            .values()
            .any(|&d| d == Decision::Active || d == Decision::Normal));
    }
}
