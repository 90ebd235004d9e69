//! The Contention Estimator (CE, paper §III-D).
//!
//! Periodically probes the storage node's state — CPU utilization, memory
//! use, and the I/O queue — and generates the scheduling policy for every
//! active I/O request in the queue by solving the binary optimization of
//! Eq. 8 over the probed state. The policy is handed to the Active I/O
//! Runtime for execution.
//!
//! `S_{C,op}` is estimated from its maximum value (per-core rate × kernel
//! cores, "achieved when a storage node is fully dedicated to executing the
//! op") scaled by the fraction of CPU not consumed by other duties, exactly
//! as the paper describes. The CE plans with the *nominal* network bandwidth
//! — it cannot observe per-flow jitter — which is one of the two reasons the
//! paper gives for its boundary misjudgments (Table IV).

use crate::config::{OpRates, ProbeConfig};
use crate::cost::{CostModel, RequestSpec};
use crate::schedule::{self, SolverKind};
use pfs::{QueueSnapshot, RequestId};
use serde::{Deserialize, Serialize};
use simkit::{SimSpan, SimTime};
use std::collections::BTreeMap;

/// Per-request scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Serve as requested: kernel runs on the storage node.
    Active,
    /// Serve as normal I/O: ship bytes, client computes.
    Normal,
}

/// The CE's output: one decision per queued active request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Policy {
    pub decisions: BTreeMap<RequestId, Decision>,
    /// Partial-offload extension: for requests decided `Active`, the
    /// fraction of the data to process on the storage node before a
    /// planned migration (absent or 1.0 = run to completion).
    pub fractions: BTreeMap<RequestId, f64>,
    /// The solver's predicted completion time for the batch.
    pub predicted_time: f64,
    pub generated_at: SimTime,
}

impl Policy {
    /// Decision for `id`; requests unknown to the policy default to Active
    /// (the runtime only acts on explicit demotions).
    pub fn decision(&self, id: RequestId) -> Decision {
        self.decisions.get(&id).copied().unwrap_or(Decision::Active)
    }

    /// Planned storage-side fraction for `id` (1.0 when not split).
    pub fn fraction(&self, id: RequestId) -> f64 {
        self.fractions.get(&id).copied().unwrap_or(1.0)
    }

    pub fn active_count(&self) -> usize {
        self.decisions
            .values()
            .filter(|&&d| d == Decision::Active)
            .count()
    }

    pub fn normal_count(&self) -> usize {
        self.decisions.len() - self.active_count()
    }
}

/// What the CE sees when it probes the node.
#[derive(Debug, Clone)]
pub struct SystemProbe {
    /// The data server's I/O queue (Table II's `n`, `k`, `d_i`, …).
    pub queue: QueueSnapshot,
    /// Fraction of storage CPU consumed by duties *other than* the queued
    /// kernels the CE is about to schedule (e.g. other applications).
    pub background_cpu: f64,
    /// Bytes of storage-node memory pinned by other tenants.
    pub background_memory: f64,
    /// Online estimate of the node's achievable outbound bandwidth
    /// (extension: EWMA over observed saturated-link throughput). `None`
    /// falls back to the nominal bandwidth, as in the paper — whose authors
    /// name the unobserved 111–120 MB/s variation as a misjudgment cause.
    pub bandwidth_estimate: Option<f64>,
}

/// The Contention Estimator.
#[derive(Debug, Clone)]
pub struct ContentionEstimator {
    rates: OpRates,
    /// Kernel-usable cores on the storage node.
    kernel_cores: f64,
    /// Cores one client process can apply to a demoted request.
    client_cores: f64,
    /// Nominal network bandwidth, bytes/second.
    nominal_bw: f64,
    /// Storage-node memory available for kernel buffers, bytes.
    memory_capacity: f64,
}

impl ContentionEstimator {
    pub fn new(
        rates: OpRates,
        kernel_cores: f64,
        client_cores: f64,
        nominal_bw: f64,
        memory_capacity: f64,
    ) -> Self {
        assert!(kernel_cores > 0.0 && client_cores > 0.0);
        assert!(nominal_bw > 0.0 && memory_capacity > 0.0);
        ContentionEstimator {
            rates,
            kernel_cores,
            client_cores,
            nominal_bw,
            memory_capacity,
        }
    }

    /// The cost model the CE plans with, given the probed load.
    pub fn cost_model(&self, probe: &SystemProbe) -> CostModel {
        let available = (1.0 - probe.background_cpu).clamp(0.05, 1.0);
        let bw = probe.bandwidth_estimate.unwrap_or(self.nominal_bw);
        CostModel::new(
            bw,
            self.kernel_cores * available,
            self.client_cores,
            self.rates.clone(),
        )
    }

    /// Generate the scheduling policy for the probed queue (paper Eq. 8).
    pub fn generate_policy(&self, now: SimTime, probe: &SystemProbe) -> Policy {
        // Active rows missing an op are malformed snapshot entries (possible
        // when a probe raced a demotion); skip them rather than panic.
        let rows: Vec<_> = probe
            .queue
            .requests
            .iter()
            .filter(|r| r.is_active() && r.op.is_some())
            .collect();
        if rows.is_empty() {
            return Policy {
                decisions: BTreeMap::new(),
                fractions: BTreeMap::new(),
                predicted_time: 0.0,
                generated_at: now,
            };
        }
        let specs: Vec<RequestSpec> = rows
            .iter()
            .map(|r| RequestSpec::new(r.bytes, r.op.clone().unwrap_or_default()))
            .collect();
        let model = self.cost_model(probe);
        let items = model.items(&specs);
        let mut assignment = schedule::solve(SolverKind::Threshold, &items);

        // Memory guard: active kernels pin roughly their request buffers;
        // demote the largest admitted requests until the working set fits.
        let budget = (self.memory_capacity - probe.background_memory).max(0.0);
        let mut admitted: Vec<usize> = (0..rows.len()).filter(|&i| assignment.active[i]).collect();
        let mut pinned: f64 = admitted.iter().map(|&i| rows[i].bytes).sum();
        if pinned > budget {
            admitted.sort_by(|&a, &b| {
                rows[b]
                    .bytes
                    .partial_cmp(&rows[a].bytes)
                    .expect("finite size")
            });
            for &i in &admitted {
                if pinned <= budget {
                    break;
                }
                assignment.active[i] = false;
                pinned -= rows[i].bytes;
            }
            assignment.time = schedule::assignment_time(&items, &assignment.active);
        }

        let decisions = rows
            .iter()
            .zip(&assignment.active)
            .map(|(row, &a)| {
                (
                    row.id,
                    if a {
                        Decision::Active
                    } else {
                        Decision::Normal
                    },
                )
            })
            .collect();
        Policy {
            decisions,
            fractions: BTreeMap::new(),
            predicted_time: assignment.time,
            generated_at: now,
        }
    }

    /// Partial-offload policy (extension): plan a storage-side fraction for
    /// every queued active request using the overlap-aware model of
    /// [`crate::schedule::fractional`]. `p = 0` becomes a plain demotion.
    pub fn generate_split_policy(&self, now: SimTime, probe: &SystemProbe) -> Policy {
        use crate::schedule::fractional::{solve, SplitItem};
        let rows: Vec<_> = probe
            .queue
            .requests
            .iter()
            .filter(|r| r.is_active() && r.op.is_some())
            .collect();
        if rows.is_empty() {
            return Policy {
                decisions: BTreeMap::new(),
                fractions: BTreeMap::new(),
                predicted_time: 0.0,
                generated_at: now,
            };
        }
        let model = self.cost_model(probe);
        let items: Vec<SplitItem> = rows
            .iter()
            .map(|r| {
                let op = r.op.as_deref().unwrap_or_default();
                SplitItem {
                    bytes: r.bytes,
                    storage_rate: model.storage_rate(op),
                    compute_rate: model.compute_rate(op),
                }
            })
            .collect();
        let bw = probe.bandwidth_estimate.unwrap_or(self.nominal_bw);
        let plan = solve(&items, bw);

        let mut decisions = BTreeMap::new();
        let mut fractions = BTreeMap::new();
        for (row, &p) in rows.iter().zip(&plan.fractions) {
            if p <= 1e-9 {
                decisions.insert(row.id, Decision::Normal);
            } else {
                decisions.insert(row.id, Decision::Active);
                if p < 1.0 - 1e-9 {
                    fractions.insert(row.id, p);
                }
            }
        }
        Policy {
            decisions,
            fractions,
            predicted_time: plan.predicted,
            generated_at: now,
        }
    }

    /// Static comparison of the two pure schemes for one homogeneous batch —
    /// this is the "Algorithm Decision" column of Table IV.
    pub fn static_decision(&self, op: &str, bytes: f64, n_requests: usize) -> Decision {
        let model = CostModel::new(
            self.nominal_bw,
            self.kernel_cores,
            self.client_cores,
            self.rates.clone(),
        );
        let sizes = vec![bytes; n_requests];
        let t_active = model.t_all_active(op, bytes * n_requests as f64, 0.0);
        let t_normal = model.t_all_normal(op, &sizes);
        if t_active <= t_normal {
            Decision::Active
        } else {
            Decision::Normal
        }
    }
}

/// What the CE should do after a probe failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeVerdict {
    /// Send another probe `after` this long (measured from the time the
    /// failure was observed — send time for losses, arrival time for stale
    /// policies).
    Retry { after: SimSpan },
    /// Retries exhausted: stop acting on policies. The runtime serves every
    /// request as requested (static all-Active, the traditional
    /// active-storage behaviour) until a probe succeeds again.
    Fallback,
}

/// Counters of the CE's probe-robustness machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CeStats {
    pub probes_sent: u64,
    pub probes_lost: u64,
    /// Retry verdicts issued (the driver may not schedule all of them;
    /// arrival-triggered probes don't spawn their own retries).
    pub retries: u64,
    /// Policies discarded because they arrived past the staleness bound.
    pub stale_discards: u64,
    pub fallback_entries: u64,
    pub recoveries: u64,
}

impl CeStats {
    /// Fold another supervisor's counters into this aggregate.
    pub fn absorb(&mut self, other: &CeStats) {
        self.probes_sent += other.probes_sent;
        self.probes_lost += other.probes_lost;
        self.retries += other.retries;
        self.stale_discards += other.stale_discards;
        self.fallback_entries += other.fallback_entries;
        self.recoveries += other.recoveries;
    }
}

/// Supervises one storage node's probe loop: bounded retry with exponential
/// backoff on probe loss, staleness checks on delayed policies, and the
/// fallback/recovery state machine. Pure (no scheduling, no I/O): callers
/// feed it probe outcomes and act on the verdicts, which keeps every
/// transition unit-testable.
#[derive(Debug, Clone)]
pub struct CeSupervisor {
    cfg: ProbeConfig,
    /// Consecutive failures in the current outage (resets on success).
    failures: u32,
    fallback: bool,
    last_success: Option<SimTime>,
    pub stats: CeStats,
}

impl CeSupervisor {
    pub fn new(cfg: ProbeConfig) -> Self {
        CeSupervisor {
            cfg,
            failures: 0,
            fallback: false,
            last_success: None,
            stats: CeStats::default(),
        }
    }

    pub fn config(&self) -> &ProbeConfig {
        &self.cfg
    }

    /// Is the CE currently fallen back to the static all-Active policy?
    pub fn in_fallback(&self) -> bool {
        self.fallback
    }

    /// Time of the last successfully applied probe, if any.
    pub fn last_success(&self) -> Option<SimTime> {
        self.last_success
    }

    /// Age of the CE's knowledge at `now`, in seconds: time since the last
    /// successfully applied probe, or `-1.0` if none succeeded yet. This is
    /// the staleness signal the observability sampler exports per server.
    pub fn probe_age_secs(&self, now: SimTime) -> f64 {
        self.last_success.map_or(-1.0, |t| (now - t).as_secs_f64())
    }

    /// A probe was sent (accounting only).
    pub fn on_probe_sent(&mut self) {
        self.stats.probes_sent += 1;
    }

    /// The probe sent at `sent` got no reply within the timeout. Returns
    /// `Retry { after }` with `after` measured from `sent` (the CE only
    /// *notices* the loss at `sent + timeout`, so the k-th retry goes out
    /// at `sent + timeout + backoff · 2^k`), or `Fallback` once the retry
    /// budget is spent.
    pub fn on_probe_lost(&mut self, _sent: SimTime) -> ProbeVerdict {
        self.stats.probes_lost += 1;
        self.register_failure(self.cfg.timeout)
    }

    /// A delayed policy arrived at `now` but was older than the staleness
    /// bound and was discarded. Counts as a failure; any retry delay is
    /// measured from `now` (the timeout has implicitly already passed).
    pub fn on_stale_policy(&mut self, _now: SimTime) -> ProbeVerdict {
        self.stats.stale_discards += 1;
        self.register_failure(SimSpan::ZERO)
    }

    /// A probe round-trip completed and its policy was fresh enough to act
    /// on: reset the failure budget and leave fallback if active.
    pub fn on_probe_success(&mut self, now: SimTime) {
        self.failures = 0;
        self.last_success = Some(now);
        if self.fallback {
            self.fallback = false;
            self.stats.recoveries += 1;
        }
    }

    /// May a policy generated at `generated_at` still be applied at `now`?
    /// Exactly at the bound is still usable (`age <= staleness_bound`).
    pub fn policy_usable(&self, generated_at: SimTime, now: SimTime) -> bool {
        now.saturating_sub(generated_at) <= self.cfg.staleness_bound
    }

    fn register_failure(&mut self, base: SimSpan) -> ProbeVerdict {
        if self.failures >= self.cfg.max_retries {
            if !self.fallback {
                self.fallback = true;
                self.stats.fallback_entries += 1;
            }
            ProbeVerdict::Fallback
        } else {
            let shift = self.failures.min(16);
            let backoff =
                SimSpan::from_nanos(self.cfg.retry_backoff.as_nanos().saturating_mul(1 << shift));
            self.failures += 1;
            self.stats.retries += 1;
            ProbeVerdict::Retry {
                after: base + backoff,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ActiveIoRuntime;

    const MIB: f64 = 1024.0 * 1024.0;

    fn estimator() -> ContentionEstimator {
        ContentionEstimator::new(OpRates::paper(), 1.0, 1.0, 118.0 * MIB, 16.0 * 1024.0 * MIB)
    }

    /// A probe of one server whose queue holds `(id, op, bytes)` reads, all
    /// arrived (an empty `op` is a normal read).
    fn probe_with(reqs: &[(u64, &str, f64)]) -> SystemProbe {
        let mut runtime = ActiveIoRuntime::new();
        for &(id, op, bytes) in reqs {
            let op = (!op.is_empty()).then(|| op.into());
            runtime.track(RequestId(id), op, bytes);
            runtime.on_arrival(SimTime::ZERO, RequestId(id));
        }
        SystemProbe {
            queue: runtime.snapshot(SimTime::ZERO),
            background_cpu: 0.0,
            background_memory: 0.0,
            bandwidth_estimate: None,
        }
    }

    #[test]
    fn small_gaussian_batch_stays_active() {
        let ce = estimator();
        let probe = probe_with(&[
            (0, "gaussian2d", 128.0 * MIB),
            (1, "gaussian2d", 128.0 * MIB),
        ]);
        let p = ce.generate_policy(SimTime::ZERO, &probe);
        assert_eq!(p.decisions.len(), 2);
        assert_eq!(p.active_count(), 2);
    }

    #[test]
    fn large_gaussian_batch_is_demoted() {
        let ce = estimator();
        let reqs: Vec<(u64, &str, f64)> = (0..16).map(|i| (i, "gaussian2d", 128.0 * MIB)).collect();
        let p = ce.generate_policy(SimTime::ZERO, &probe_with(&reqs));
        assert_eq!(
            p.normal_count(),
            16,
            "16 concurrent Gaussians overload the node"
        );
    }

    #[test]
    fn sum_never_demoted() {
        let ce = estimator();
        let reqs: Vec<(u64, &str, f64)> = (0..64).map(|i| (i, "sum", 128.0 * MIB)).collect();
        let p = ce.generate_policy(SimTime::ZERO, &probe_with(&reqs));
        assert_eq!(
            p.active_count(),
            64,
            "860 MB/s/core >> network: always offload"
        );
    }

    #[test]
    fn normal_requests_are_ignored() {
        let ce = estimator();
        let p = ce.generate_policy(
            SimTime::ZERO,
            &probe_with(&[(0, "", 128.0 * MIB), (1, "sum", 64.0 * MIB)]),
        );
        assert_eq!(p.decisions.len(), 1);
        assert_eq!(p.decision(RequestId(1)), Decision::Active);
        // Unknown ids default to Active.
        assert_eq!(p.decision(RequestId(99)), Decision::Active);
    }

    #[test]
    fn background_cpu_shrinks_storage_capability() {
        let ce = estimator();
        let mut probe = probe_with(&[(0, "gaussian2d", 128.0 * MIB)]);
        probe.background_cpu = 0.9;
        let model = ce.cost_model(&probe);
        // 80 MB/s × 0.1 = 8 MB/s effective.
        assert!((model.storage_rate("gaussian2d") / MIB - 8.0).abs() < 1e-6);
        // With 90% of the CPU gone even one Gaussian is better demoted:
        // 128/8 = 16 s active vs 128/118 + 128/80 ≈ 2.7 s normal.
        let p = ce.generate_policy(SimTime::ZERO, &probe);
        assert_eq!(p.decision(RequestId(0)), Decision::Normal);
    }

    #[test]
    fn memory_pressure_demotes_largest_requests() {
        let ce = ContentionEstimator::new(
            OpRates::paper(),
            1.0,
            1.0,
            118.0 * MIB,
            300.0 * MIB, // tiny memory: fits ~2 of the 128 MB buffers
        );
        let reqs: Vec<(u64, &str, f64)> = (0..4).map(|i| (i, "sum", 128.0 * MIB)).collect();
        let p = ce.generate_policy(SimTime::ZERO, &probe_with(&reqs));
        assert_eq!(p.active_count(), 2, "only two buffers fit in memory");
    }

    #[test]
    fn static_decision_matches_figure_2_crossover() {
        let ce = estimator();
        assert_eq!(
            ce.static_decision("gaussian2d", 128.0 * MIB, 2),
            Decision::Active
        );
        assert_eq!(
            ce.static_decision("gaussian2d", 128.0 * MIB, 16),
            Decision::Normal
        );
        assert_eq!(ce.static_decision("sum", 128.0 * MIB, 64), Decision::Active);
    }

    #[test]
    fn empty_queue_yields_empty_policy() {
        let ce = estimator();
        let p = ce.generate_policy(SimTime::ZERO, &probe_with(&[]));
        assert!(p.decisions.is_empty());
        assert_eq!(p.predicted_time, 0.0);
    }

    #[test]
    fn split_policy_balances_mid_contention() {
        let ce = estimator();
        let reqs: Vec<(u64, &str, f64)> = (0..8).map(|i| (i, "gaussian2d", 128.0 * MIB)).collect();
        let p = ce.generate_split_policy(SimTime::ZERO, &probe_with(&reqs));
        assert_eq!(p.decisions.len(), 8);
        assert_eq!(p.active_count(), 8, "split mode keeps requests active");
        // Every request gets a genuine interior fraction.
        for i in 0..8 {
            let f = p.fraction(RequestId(i));
            assert!(f > 0.2 && f < 0.8, "fraction {f}");
        }
        // Predicted time beats both endpoints' analytic times.
        assert!(p.predicted_time < 8.0 * 1.6);
    }

    #[test]
    fn split_policy_keeps_cheap_kernels_whole() {
        let ce = estimator();
        let p = ce.generate_split_policy(SimTime::ZERO, &probe_with(&[(0, "sum", 128.0 * MIB)]));
        assert_eq!(p.fraction(RequestId(0)), 1.0, "sum never splits");
        assert!(p.fractions.is_empty());
    }

    #[test]
    fn split_policy_bandwidth_estimate_shifts_balance() {
        let ce = estimator();
        let mut probe = probe_with(&[(0, "gaussian2d", 128.0 * MIB); 1]);
        // Re-id the request properly (probe_with used id 0).
        let base = ce.generate_split_policy(SimTime::ZERO, &probe);
        probe.bandwidth_estimate = Some(40.0 * MIB); // network collapsed
        let degraded = ce.generate_split_policy(SimTime::ZERO, &probe);
        // With a slow network, more of the work should stay on storage.
        assert!(
            degraded.fraction(RequestId(0)) >= base.fraction(RequestId(0)),
            "slower wire must not shrink the storage share"
        );
    }

    #[test]
    fn policy_fraction_defaults_to_one() {
        let p = Policy {
            decisions: BTreeMap::new(),
            fractions: BTreeMap::new(),
            predicted_time: 0.0,
            generated_at: SimTime::ZERO,
        };
        assert_eq!(p.fraction(RequestId(9)), 1.0);
    }

    // ----- CeSupervisor (probe robustness) -----

    fn probe_cfg() -> ProbeConfig {
        ProbeConfig {
            timeout: SimSpan::from_millis(20),
            max_retries: 2,
            retry_backoff: SimSpan::from_millis(10),
            staleness_bound: SimSpan::from_millis(300),
        }
    }

    #[test]
    fn retries_back_off_exponentially_then_fall_back() {
        let mut sup = CeSupervisor::new(probe_cfg());
        let t = SimTime::ZERO;
        // Attempt 0 lost → retry after timeout + backoff·2^0.
        assert_eq!(
            sup.on_probe_lost(t),
            ProbeVerdict::Retry {
                after: SimSpan::from_millis(30)
            }
        );
        // Attempt 1 lost → timeout + backoff·2^1.
        assert_eq!(
            sup.on_probe_lost(t),
            ProbeVerdict::Retry {
                after: SimSpan::from_millis(40)
            }
        );
        // Retry budget (2) spent: the third loss falls back.
        assert_eq!(sup.on_probe_lost(t), ProbeVerdict::Fallback);
        assert!(sup.in_fallback());
        assert_eq!(sup.stats.probes_lost, 3);
        assert_eq!(sup.stats.retries, 2);
        assert_eq!(sup.stats.fallback_entries, 1);
        // Staying lost does not re-enter fallback (no double counting).
        assert_eq!(sup.on_probe_lost(t), ProbeVerdict::Fallback);
        assert_eq!(sup.stats.fallback_entries, 1);
    }

    #[test]
    fn zero_retry_config_falls_back_on_first_loss() {
        let mut sup = CeSupervisor::new(ProbeConfig {
            max_retries: 0,
            ..probe_cfg()
        });
        assert_eq!(sup.on_probe_lost(SimTime::ZERO), ProbeVerdict::Fallback);
        assert!(sup.in_fallback());
        assert_eq!(sup.stats.retries, 0);
    }

    #[test]
    fn policy_exactly_at_staleness_deadline_is_usable() {
        let sup = CeSupervisor::new(probe_cfg());
        let generated = SimTime::from_secs_f64(1.0);
        let bound = probe_cfg().staleness_bound;
        assert!(sup.policy_usable(generated, generated));
        assert!(
            sup.policy_usable(generated, generated + bound),
            "age == bound is usable"
        );
        assert!(
            !sup.policy_usable(generated, generated + bound + SimSpan::from_nanos(1)),
            "one nanosecond past the bound is stale"
        );
    }

    #[test]
    fn fallback_then_recovery() {
        let mut sup = CeSupervisor::new(ProbeConfig {
            max_retries: 0,
            ..probe_cfg()
        });
        sup.on_probe_sent();
        assert_eq!(sup.on_probe_lost(SimTime::ZERO), ProbeVerdict::Fallback);
        assert!(sup.in_fallback());
        // The node answers again: the CE resumes dynamic scheduling.
        let t = SimTime::from_secs_f64(2.0);
        sup.on_probe_success(t);
        assert!(!sup.in_fallback());
        assert_eq!(sup.last_success(), Some(t));
        assert_eq!(sup.stats.recoveries, 1);
        // And the failure budget is fresh: the next loss is a fallback
        // again (zero retries), counted as a second entry.
        assert_eq!(sup.on_probe_lost(t), ProbeVerdict::Fallback);
        assert_eq!(sup.stats.fallback_entries, 2);
    }

    #[test]
    fn stale_policy_counts_and_retries_without_timeout() {
        let mut sup = CeSupervisor::new(probe_cfg());
        // Staleness is noticed at arrival: retry delay omits the timeout.
        assert_eq!(
            sup.on_stale_policy(SimTime::ZERO),
            ProbeVerdict::Retry {
                after: SimSpan::from_millis(10)
            }
        );
        assert_eq!(sup.stats.stale_discards, 1);
        assert_eq!(sup.stats.probes_lost, 0);
    }
}
