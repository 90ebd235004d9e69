//! Request autopsy: per-request causal spans and run-level contention
//! attribution (DESIGN.md §14).
//!
//! With `DriverConfig::autopsy` enabled, every request part carries a
//! [`SpanChain`](simkit::SpanChain) from issue to delivery and every rank
//! carries one across its whole program. The chains tile their intervals
//! exactly, so the per-hop service/wait split *is* an additive latency
//! breakdown — waits plus services sum to end-to-end latency to the
//! nanosecond, with every wait tagged by a typed [`WaitCause`].
//!
//! At the end of a run [`AutopsyReport::compute`] folds the chains into:
//!
//! * per-request breakdowns ([`RequestAutopsy`], one per app I/O, from the
//!   part whose delivery completed the I/O — the causal chain of the
//!   request's latency);
//! * aggregate wait attribution by cause, tenant and node (each partition
//!   of the same flat hop set, so every partition sums to the aggregate);
//! * the run's critical path ([`CriticalPath`]): the last-finishing rank's
//!   chain with its I/O segments spliced open into the request hops that
//!   produced them. Its segments tile `[0, makespan]`, so the critical
//!   path is itself an additive decomposition of the makespan.
//!
//! Everything here is recorded inside event handlers, which the executor
//! dispatches in one deterministic total order — the report is
//! byte-identical across replays of a run. With the flag off no chain is
//! allocated and no handler records anything.

use super::Driver;
use serde::Serialize;
use simkit::{FaultKind, Hop, SimTime, SpanChain};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why a hop waited. The taxonomy follows the contention channels the
/// DOSAS paper names, plus `CpuShare` for processor-sharing stretch on a
/// CPU (the paper folds it into "system variation"; the autopsy keeps it
/// distinct from fault-induced slowdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitCause {
    /// Queued behind other requests at the disk (FIFO service).
    DiskQueue,
    /// Waited for a FIFO kernel slot (or was cancelled while waiting).
    KernelSlot,
    /// Stretched by processor sharing on a busy CPU.
    CpuShare,
    /// Stretched by max-min fair sharing of a fabric link.
    FabricShare,
    /// Throttled by a policy rate cap on the issuing rank.
    RateCap,
    /// Overlapped a fault window on the resource's node (stall, slowdown,
    /// bandwidth dip or node departure).
    FaultStall,
    /// Waited for peers at a barrier or collective (including the
    /// collective's own transfer rounds).
    CollectiveBarrier,
}

impl WaitCause {
    pub fn as_str(&self) -> &'static str {
        match self {
            WaitCause::DiskQueue => "disk-queue",
            WaitCause::KernelSlot => "kernel-slot",
            WaitCause::CpuShare => "cpu-share",
            WaitCause::FabricShare => "fabric-share",
            WaitCause::RateCap => "rate-cap",
            WaitCause::FaultStall => "fault-stall",
            WaitCause::CollectiveBarrier => "collective-barrier",
        }
    }
}

impl Serialize for WaitCause {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

/// Pipeline stage of a request hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqStage {
    /// Request message client → server (fixed network latency).
    Submit,
    /// Disk queueing + platter service at the data server.
    Disk,
    /// Waiting for a FIFO kernel slot after the disk read.
    KernelWait,
    /// Storage-side kernel execution.
    Kernel,
    /// Fabric transfer (payload, result, or migrated data + checkpoint).
    Transfer,
    /// Delivery latency transfer-end → client (fixed network latency).
    Deliver,
    /// Client-side completion compute (demoted/migrated/TS residue).
    ClientCompute,
}

impl ReqStage {
    pub fn as_str(&self) -> &'static str {
        match self {
            ReqStage::Submit => "submit",
            ReqStage::Disk => "disk",
            ReqStage::KernelWait => "kernel-wait",
            ReqStage::Kernel => "kernel",
            ReqStage::Transfer => "transfer",
            ReqStage::Deliver => "deliver",
            ReqStage::ClientCompute => "client-compute",
        }
    }
}

impl Serialize for ReqStage {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

/// Segment of a rank's program-level chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankSeg {
    /// One application I/O (the carried id); spliced open into the
    /// request's hops when the rank is on the critical path.
    Io(u64),
    /// `Op::Compute` on the rank's node.
    Compute,
    /// `Op::Sleep`: pure delay, no CPU (open-loop arrival stagger).
    Sleep,
    /// Barrier arrival → release.
    Barrier,
    /// Collective arrival → release (transfer rounds included).
    Collective,
}

impl RankSeg {
    fn as_str(&self) -> &'static str {
        match self {
            RankSeg::Io(_) => "io",
            RankSeg::Compute => "rank-compute",
            RankSeg::Sleep => "sleep",
            RankSeg::Barrier => "barrier",
            RankSeg::Collective => "collective",
        }
    }
}

/// Request-level chain: one per in-flight part, carried on
/// [`Req`](super::io_path::Req).
pub type ReqChain = SpanChain<ReqStage, WaitCause>;
/// One recorded request hop.
pub type ReqHop = Hop<ReqStage, WaitCause>;
/// Rank-level chain tiling `[0, rank finish]`.
pub(super) type RankChain = SpanChain<RankSeg, WaitCause>;

/// The causal breakdown of one completed app I/O.
#[derive(Debug, Clone, Serialize)]
pub struct RequestAutopsy {
    pub app: u64,
    pub rank: usize,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenant: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub op: Option<Arc<str>>,
    pub bytes: f64,
    pub issued_at: SimTime,
    pub completed_at: SimTime,
    /// Contiguous hops tiling `[issued_at, completed_at]`.
    pub hops: Vec<ReqHop>,
}

impl RequestAutopsy {
    pub fn latency_secs(&self) -> f64 {
        (self.completed_at - self.issued_at).as_secs_f64()
    }

    pub fn service_secs(&self) -> f64 {
        self.hops.iter().map(|h| h.service_secs).sum()
    }

    pub fn wait_secs(&self) -> f64 {
        self.hops.iter().map(|h| h.wait_secs).sum()
    }

    /// The cause the request waited longest on, if it waited at all.
    pub fn dominant_cause(&self) -> Option<WaitCause> {
        let mut by_cause: BTreeMap<WaitCause, f64> = BTreeMap::new();
        for h in &self.hops {
            if let Some(c) = h.cause {
                *by_cause.entry(c).or_insert(0.0) += h.wait_secs;
            }
        }
        // Ties break toward the first cause in enum order (deterministic).
        let mut best: Option<(WaitCause, f64)> = None;
        for (c, w) in by_cause {
            if best.is_none_or(|(_, bw)| w > bw) {
                best = Some((c, w));
            }
        }
        best.map(|(c, _)| c)
    }
}

/// Wait attributed to one cause.
#[derive(Debug, Clone, Serialize)]
pub struct CauseWait {
    pub cause: &'static str,
    pub wait_secs: f64,
}

/// Wait attributed to one tenant (the `None` bucket collects untenanted
/// work, so the per-tenant rows always sum to the aggregate).
#[derive(Debug, Clone, Serialize)]
pub struct TenantWait {
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenant: Option<usize>,
    pub wait_secs: f64,
    pub causes: Vec<CauseWait>,
}

/// Wait attributed to one node (where the congested resource lives).
#[derive(Debug, Clone, Serialize)]
pub struct NodeWait {
    pub node: usize,
    pub wait_secs: f64,
    pub causes: Vec<CauseWait>,
}

/// One segment of the critical path.
#[derive(Debug, Clone, Serialize)]
pub struct CpSegment {
    pub stage: &'static str,
    pub node: usize,
    pub start: SimTime,
    pub end: SimTime,
    pub service_secs: f64,
    pub wait_secs: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cause: Option<&'static str>,
    /// App I/O the segment belongs to, for segments spliced from a
    /// request's chain.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub app: Option<u64>,
}

/// The run's critical path: the last-finishing rank's chain, I/O segments
/// spliced open into their request hops. Segments tile `[0, finish_secs]`,
/// so `service_secs + wait_secs == finish_secs` (the makespan).
#[derive(Debug, Clone, Serialize)]
pub struct CriticalPath {
    pub rank: usize,
    pub finish_secs: f64,
    pub service_secs: f64,
    pub wait_secs: f64,
    pub segments: Vec<CpSegment>,
}

/// End-of-run contention attribution, attached to
/// [`RunMetrics`](super::metrics::RunMetrics) when the autopsy ran.
#[derive(Debug, Clone, Serialize)]
pub struct AutopsyReport {
    /// Contention-control policy that drove the run (`"none"` without one).
    pub policy: String,
    pub total_service_secs: f64,
    pub total_wait_secs: f64,
    /// Aggregate wait per cause; sums to `total_wait_secs`.
    pub wait_by_cause: Vec<CauseWait>,
    /// Wait per tenant; sums to `total_wait_secs`.
    pub per_tenant: Vec<TenantWait>,
    /// Wait per node; sums to `total_wait_secs`.
    pub per_node: Vec<NodeWait>,
    pub critical_path: CriticalPath,
    /// One breakdown per completed app I/O, in completion order.
    pub requests: Vec<RequestAutopsy>,
}

/// Accumulates (tenant, node, cause, service, wait) tuples into the three
/// partitions; every partition sums to the same aggregate by construction.
#[derive(Default)]
struct Tally {
    total_service: f64,
    total_wait: f64,
    by_cause: BTreeMap<&'static str, f64>,
    by_tenant: BTreeMap<Option<usize>, BTreeMap<&'static str, f64>>,
    by_node: BTreeMap<usize, BTreeMap<&'static str, f64>>,
}

impl Tally {
    fn add(
        &mut self,
        tenant: Option<usize>,
        node: usize,
        service: f64,
        wait: f64,
        cause: Option<WaitCause>,
    ) {
        self.total_service += service;
        self.total_wait += wait;
        if wait <= 0.0 {
            return;
        }
        let cause = cause.map_or("unattributed", |c| c.as_str());
        *self.by_cause.entry(cause).or_insert(0.0) += wait;
        *self
            .by_tenant
            .entry(tenant)
            .or_default()
            .entry(cause)
            .or_insert(0.0) += wait;
        *self
            .by_node
            .entry(node)
            .or_default()
            .entry(cause)
            .or_insert(0.0) += wait;
    }
}

fn cause_rows(m: &BTreeMap<&'static str, f64>) -> (f64, Vec<CauseWait>) {
    let total = m.values().sum();
    let rows = m
        .iter()
        .map(|(&cause, &wait_secs)| CauseWait { cause, wait_secs })
        .collect();
    (total, rows)
}

impl AutopsyReport {
    /// Fold the recorded chains into the end-of-run report. Rank-chain
    /// `Io` segments are *not* tallied (their time is exactly the spliced
    /// request hops, which are); everything else — request hops plus rank
    /// compute/barrier/collective segments — is tallied once.
    pub(super) fn compute(
        requests: Vec<RequestAutopsy>,
        rank_chains: Vec<RankChain>,
        rank_tenants: &[usize],
        policy: &str,
    ) -> AutopsyReport {
        let mut tally = Tally::default();
        for r in &requests {
            debug_assert!(
                {
                    let lat = r.latency_secs();
                    (r.service_secs() + r.wait_secs() - lat).abs() <= 1e-9 * lat.max(1.0)
                },
                "request breakdown must be additive"
            );
            for h in &r.hops {
                tally.add(r.tenant, h.node, h.service_secs, h.wait_secs, h.cause);
            }
        }
        for (rank, ch) in rank_chains.iter().enumerate() {
            let tenant = rank_tenants.get(rank).copied();
            for h in ch.hops() {
                if matches!(h.kind, RankSeg::Io(_)) {
                    continue;
                }
                tally.add(tenant, h.node, h.service_secs, h.wait_secs, h.cause);
            }
        }

        let per_tenant = tally
            .by_tenant
            .iter()
            .map(|(&tenant, causes)| {
                let (wait_secs, causes) = cause_rows(causes);
                TenantWait {
                    tenant,
                    wait_secs,
                    causes,
                }
            })
            .collect();
        let per_node = tally
            .by_node
            .iter()
            .map(|(&node, causes)| {
                let (wait_secs, causes) = cause_rows(causes);
                NodeWait {
                    node,
                    wait_secs,
                    causes,
                }
            })
            .collect();
        let wait_by_cause = tally
            .by_cause
            .iter()
            .map(|(&cause, &wait_secs)| CauseWait { cause, wait_secs })
            .collect();

        let critical_path = Self::critical_path(&requests, &rank_chains);

        AutopsyReport {
            policy: policy.to_string(),
            total_service_secs: tally.total_service,
            total_wait_secs: tally.total_wait,
            wait_by_cause,
            per_tenant,
            per_node,
            critical_path,
            requests,
        }
    }

    /// The last-finishing rank's chain (ties break to the lowest rank),
    /// with `Io` segments replaced by the matching request's hops. The
    /// request chain tiles exactly the same interval as the `Io` segment
    /// it replaces (issue → completion), so the splice preserves the
    /// tiling of `[0, finish]`.
    fn critical_path(requests: &[RequestAutopsy], rank_chains: &[RankChain]) -> CriticalPath {
        let by_app: BTreeMap<u64, &RequestAutopsy> = requests.iter().map(|r| (r.app, r)).collect();
        let mut rank = 0usize;
        for (r, ch) in rank_chains.iter().enumerate() {
            if ch.cursor() > rank_chains[rank].cursor() {
                rank = r;
            }
        }
        let chain = &rank_chains[rank];
        let mut segments: Vec<CpSegment> = Vec::new();
        for h in chain.hops() {
            match h.kind {
                RankSeg::Io(app) => match by_app.get(&app) {
                    Some(req) => {
                        for rh in &req.hops {
                            segments.push(CpSegment {
                                stage: rh.kind.as_str(),
                                node: rh.node,
                                start: rh.start,
                                end: rh.end,
                                service_secs: rh.service_secs,
                                wait_secs: rh.wait_secs,
                                cause: rh.cause.map(|c| c.as_str()),
                                app: Some(app),
                            });
                        }
                    }
                    // Unmatched I/O (cannot happen in a drained run): keep
                    // the opaque segment so the tiling still holds.
                    None => segments.push(CpSegment {
                        stage: h.kind.as_str(),
                        node: h.node,
                        start: h.start,
                        end: h.end,
                        service_secs: h.service_secs,
                        wait_secs: h.wait_secs,
                        cause: h.cause.map(|c| c.as_str()),
                        app: Some(app),
                    }),
                },
                _ => segments.push(CpSegment {
                    stage: h.kind.as_str(),
                    node: h.node,
                    start: h.start,
                    end: h.end,
                    service_secs: h.service_secs,
                    wait_secs: h.wait_secs,
                    cause: h.cause.map(|c| c.as_str()),
                    app: None,
                }),
            }
        }
        CriticalPath {
            rank,
            finish_secs: chain.end_to_end_secs(),
            service_secs: segments.iter().map(|s| s.service_secs).sum(),
            wait_secs: segments.iter().map(|s| s.wait_secs).sum(),
            segments,
        }
    }

    /// Deterministic plain-text report: aggregate attribution, the
    /// critical path, and the `top_k` slowest requests with their full
    /// hop-by-hop breakdowns. Every number comes from bit-identical
    /// simulation state, so the rendering is byte-identical across replays.
    pub fn render(&self, top_k: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "# request autopsy (policy: {})", self.policy);
        let _ = writeln!(
            s,
            "{} requests · total service {:.6} s · total wait {:.6} s",
            self.requests.len(),
            self.total_service_secs,
            self.total_wait_secs
        );
        let _ = writeln!(s, "\n## wait by cause");
        for c in &self.wait_by_cause {
            let _ = writeln!(s, "  {:18} {:>14.6} s", c.cause, c.wait_secs);
        }
        if self.per_tenant.len() > 1 || self.per_tenant.iter().any(|t| t.tenant.is_some()) {
            let _ = writeln!(s, "\n## wait by tenant");
            for t in &self.per_tenant {
                let label = t
                    .tenant
                    .map_or("(none)".to_string(), |t| format!("tenant {t}"));
                let _ = writeln!(s, "  {:18} {:>14.6} s", label, t.wait_secs);
                for c in &t.causes {
                    let _ = writeln!(s, "    {:16} {:>14.6} s", c.cause, c.wait_secs);
                }
            }
        }
        let _ = writeln!(s, "\n## wait by node");
        for n in &self.per_node {
            let _ = writeln!(s, "  node {:13} {:>14.6} s", n.node, n.wait_secs);
            for c in &n.causes {
                let _ = writeln!(s, "    {:16} {:>14.6} s", c.cause, c.wait_secs);
            }
        }
        let cp = &self.critical_path;
        let _ = writeln!(
            s,
            "\n## critical path (rank {}, finish {:.6} s = service {:.6} s + wait {:.6} s)",
            cp.rank, cp.finish_secs, cp.service_secs, cp.wait_secs
        );
        let _ = writeln!(
            s,
            "  {:14} {:>4} {:>12} {:>12} {:>12} {:>12}  {:18} app",
            "stage", "node", "start", "end", "service", "wait", "cause"
        );
        for seg in &cp.segments {
            let _ = writeln!(
                s,
                "  {:14} {:>4} {:>12.6} {:>12.6} {:>12.6} {:>12.6}  {:18} {}",
                seg.stage,
                seg.node,
                seg.start.as_secs_f64(),
                seg.end.as_secs_f64(),
                seg.service_secs,
                seg.wait_secs,
                seg.cause.unwrap_or("-"),
                seg.app.map_or("-".to_string(), |a| a.to_string()),
            );
        }
        // Slowest requests: latency descending, app id ascending on ties.
        let mut slow: Vec<&RequestAutopsy> = self.requests.iter().collect();
        slow.sort_by(|a, b| {
            b.latency_secs()
                .partial_cmp(&a.latency_secs())
                .expect("latencies are finite")
                .then(a.app.cmp(&b.app))
        });
        let k = top_k.min(slow.len());
        let _ = writeln!(s, "\n## top {k} slowest requests");
        for r in &slow[..k] {
            let _ = writeln!(
                s,
                "  app {} rank {}{}: latency {:.6} s = service {:.6} s + wait {:.6} s{}",
                r.app,
                r.rank,
                r.tenant.map_or(String::new(), |t| format!(" tenant {t}")),
                r.latency_secs(),
                r.service_secs(),
                r.wait_secs(),
                r.dominant_cause()
                    .map_or(String::new(), |c| format!(" (dominated by {})", c.as_str())),
            );
            for h in &r.hops {
                let _ = writeln!(
                    s,
                    "    {:14} node {:>3} [{:>12.6}, {:>12.6}] service {:>12.6} wait {:>12.6}{}",
                    h.kind.as_str(),
                    h.node,
                    h.start.as_secs_f64(),
                    h.end.as_secs_f64(),
                    h.service_secs,
                    h.wait_secs,
                    h.cause
                        .map_or(String::new(), |c| format!(" ({})", c.as_str())),
                );
            }
        }
        s
    }
}

impl Driver<'_> {
    /// Classify a disk hop's wait on `node` over `[start, end)`: a
    /// disk-stall (or node-leave) fault window overlapping the hop owns
    /// the wait; otherwise it is plain queueing.
    pub(super) fn autopsy_cause_disk(
        &self,
        node: usize,
        start: SimTime,
        end: SimTime,
    ) -> WaitCause {
        let faulted = self
            .cfg
            .fault_plan
            .overlapping(start, end, node)
            .any(|e| matches!(e.kind, FaultKind::DiskStall | FaultKind::NodeLeave));
        if faulted {
            WaitCause::FaultStall
        } else {
            WaitCause::DiskQueue
        }
    }

    /// Classify a CPU hop's wait on `node`: a CPU-slowdown (or node-leave)
    /// window overlapping the hop owns it; otherwise processor sharing.
    pub(super) fn autopsy_cause_cpu(&self, node: usize, start: SimTime, end: SimTime) -> WaitCause {
        let faulted = self
            .cfg
            .fault_plan
            .overlapping(start, end, node)
            .any(|e| matches!(e.kind, FaultKind::CpuSlowdown { .. } | FaultKind::NodeLeave));
        if faulted {
            WaitCause::FaultStall
        } else {
            WaitCause::CpuShare
        }
    }

    /// Classify a transfer hop's wait: an active policy rate cap on the
    /// issuing rank owns it; else a bandwidth-dip (or node-leave) window
    /// on either endpoint; else fair sharing of the fabric.
    pub(super) fn autopsy_cause_net(
        &self,
        rank: usize,
        src: usize,
        dst: usize,
        start: SimTime,
        end: SimTime,
    ) -> WaitCause {
        if self.io.rank_caps.contains_key(&rank) {
            return WaitCause::RateCap;
        }
        let dipped = |node: usize| {
            self.cfg.fault_plan.overlapping(start, end, node).any(|e| {
                matches!(
                    e.kind,
                    FaultKind::NetBandwidthDip { .. } | FaultKind::NodeLeave
                )
            })
        };
        if dipped(src) || dipped(dst) {
            WaitCause::FaultStall
        } else {
            WaitCause::FabricShare
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn req(app: u64, tenant: Option<usize>, hops: Vec<ReqHop>) -> RequestAutopsy {
        let issued_at = hops.first().map_or(SimTime::ZERO, |h| h.start);
        let completed_at = hops.last().map_or(SimTime::ZERO, |h| h.end);
        RequestAutopsy {
            app,
            rank: 0,
            tenant,
            op: None,
            bytes: 1.0,
            issued_at,
            completed_at,
            hops,
        }
    }

    fn hop(
        kind: ReqStage,
        node: usize,
        s: f64,
        e: f64,
        service: f64,
        cause: Option<WaitCause>,
    ) -> ReqHop {
        let elapsed = e - s;
        ReqHop {
            kind,
            node,
            start: t(s),
            end: t(e),
            service_secs: service,
            wait_secs: elapsed - service,
            cause,
        }
    }

    /// Every attribution partition (cause / tenant / node) sums to the
    /// same aggregate wait, and the critical path splices the slowest
    /// rank's I/O open into request hops.
    #[test]
    fn partitions_sum_to_aggregate_and_critical_path_splices() {
        let r0 = req(
            0,
            Some(0),
            vec![
                hop(ReqStage::Disk, 2, 0.0, 1.0, 0.4, Some(WaitCause::DiskQueue)),
                hop(ReqStage::Transfer, 2, 1.0, 2.0, 1.0, None),
            ],
        );
        let r1 = req(
            1,
            Some(1),
            vec![hop(
                ReqStage::Kernel,
                3,
                0.0,
                3.0,
                2.0,
                Some(WaitCause::CpuShare),
            )],
        );
        let mut ch0 = RankChain::start(SimTime::ZERO);
        ch0.arm(f64::INFINITY);
        ch0.record(RankSeg::Io(0), 0, t(2.0), None);
        let mut ch1 = RankChain::start(SimTime::ZERO);
        ch1.arm(f64::INFINITY);
        ch1.record(RankSeg::Io(1), 1, t(3.0), None);
        ch1.arm(0.5);
        ch1.record(
            RankSeg::Barrier,
            1,
            t(4.0),
            Some(WaitCause::CollectiveBarrier),
        );

        let rep = AutopsyReport::compute(vec![r0, r1], vec![ch0, ch1], &[0, 1], "none");
        // Waits: 0.6 disk-queue + 1.0 cpu-share + 0.5 collective-barrier.
        assert!((rep.total_wait_secs - 2.1).abs() < 1e-12);
        let sum_cause: f64 = rep.wait_by_cause.iter().map(|c| c.wait_secs).sum();
        let sum_tenant: f64 = rep.per_tenant.iter().map(|t| t.wait_secs).sum();
        let sum_node: f64 = rep.per_node.iter().map(|n| n.wait_secs).sum();
        assert!((sum_cause - rep.total_wait_secs).abs() < 1e-12);
        assert!((sum_tenant - rep.total_wait_secs).abs() < 1e-12);
        assert!((sum_node - rep.total_wait_secs).abs() < 1e-12);

        // Rank 1 finishes last (4.0 s): its Io segment is spliced into the
        // kernel hop, followed by the barrier segment.
        let cp = &rep.critical_path;
        assert_eq!(cp.rank, 1);
        assert!((cp.finish_secs - 4.0).abs() < 1e-12);
        assert_eq!(cp.segments.len(), 2);
        assert_eq!(cp.segments[0].stage, "kernel");
        assert_eq!(cp.segments[0].app, Some(1));
        assert_eq!(cp.segments[1].stage, "barrier");
        // The splice preserves the tiling: service + wait == finish.
        assert!((cp.service_secs + cp.wait_secs - cp.finish_secs).abs() < 1e-12);
    }

    /// The report renders every section deterministically.
    #[test]
    fn render_includes_all_sections() {
        let r = req(
            7,
            Some(2),
            vec![hop(
                ReqStage::Disk,
                1,
                0.0,
                2.0,
                0.5,
                Some(WaitCause::FaultStall),
            )],
        );
        let mut ch = RankChain::start(SimTime::ZERO);
        ch.arm(f64::INFINITY);
        ch.record(RankSeg::Io(7), 0, t(2.0), None);
        let rep = AutopsyReport::compute(vec![r], vec![ch], &[2], "tenant-dwrr");
        let text = rep.render(5);
        for needle in [
            "# request autopsy (policy: tenant-dwrr)",
            "## wait by cause",
            "fault-stall",
            "## wait by tenant",
            "## wait by node",
            "## critical path (rank 0",
            "## top 1 slowest requests",
            "app 7 rank 0 tenant 2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    /// Dominant cause picks the largest accumulated wait.
    #[test]
    fn dominant_cause_is_largest_wait() {
        let r = req(
            0,
            None,
            vec![
                hop(ReqStage::Disk, 0, 0.0, 1.0, 0.8, Some(WaitCause::DiskQueue)),
                hop(
                    ReqStage::Transfer,
                    0,
                    1.0,
                    3.0,
                    0.5,
                    Some(WaitCause::FabricShare),
                ),
            ],
        );
        assert_eq!(r.dominant_cause(), Some(WaitCause::FabricShare));
        let quiet = req(1, None, vec![hop(ReqStage::Disk, 0, 0.0, 1.0, 1.0, None)]);
        assert_eq!(quiet.dominant_cause(), None);
    }
}
