//! The Active I/O Runtime (R, paper §III-C): the one per-storage-node
//! table of server-side request state.
//!
//! Each storage node has one [`ActiveIoRuntime`]. It holds every live read
//! in [`RequestId`] order (stage, service mode, requested operation and
//! size `d_i`), the time-weighted queue-depth statistic, and the counters
//! the evaluation reports. This table *is* the I/O queue the Contention
//! Estimator probes (paper §III-D): [`ActiveIoRuntime::snapshot`] yields
//! its still-plannable rows in the paper's Table II notation.
//!
//! R serves requests according to the CE's policy:
//!
//! * a queued active request decided `Normal` is **demoted** — it will be
//!   served as a plain read (`completed = 0`, empty status);
//! * a *running* kernel decided `Normal` is **interrupted** — its variables
//!   are checkpointed through the shared-memory channel and shipped with the
//!   unprocessed bytes (`completed = 0`, status = checkpoint);
//! * a completed kernel's result is returned with `completed = 1`.
//!
//! Every transition is one call here — arrival, demotion, interruption,
//! planned split, checkpoint failure, delivery — and the runtime validates
//! it; the simulation driver charges the actual disk/CPU/network time
//! against the `cluster` resources. Writes are not tracked (the paper's
//! active path only reads): they enter only the depth statistic, from
//! arrival to ack.

use pfs::{QueueSnapshot, RequestId, SnapshotRow};
use serde::{Deserialize, Serialize};
use simkit::stats::TimeWeighted;
use simkit::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Server-side lifecycle of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerStage {
    /// Request message en route to the server.
    InFlight,
    /// In the I/O queue, disk read not finished yet.
    QueuedDisk,
    /// Kernel executing on the storage CPU (active service).
    Running,
    /// Result bytes being sent to the client (`completed = 1`).
    SendingResult,
    /// Raw data (plus checkpoint for migrations) being sent
    /// (`completed = 0`).
    SendingData,
    /// Fully served.
    Done,
}

/// How the request is currently being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceMode {
    /// Kernel on the storage node (as requested).
    Active,
    /// Plain data shipping (normal I/O, or demoted before starting).
    Normal,
    /// Interrupted mid-kernel; residual data + checkpoint shipping.
    Migrated,
}

/// Actions the runtime instructs the driver to take after a policy update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeAction {
    /// Change a queued active request to normal service.
    Demote(RequestId),
    /// Stop a running kernel, checkpoint it, ship residue + state.
    Interrupt(RequestId),
}

/// Typed errors for runtime transitions that faults can make reachable.
///
/// Ordinary (fault-free) transition bugs are still programming errors and
/// assert; these variants cover paths a fault plan can legitimately drive —
/// most notably checkpoint-ship failures, where a transfer the runtime
/// believed in flight dies out from under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeError {
    /// The request is not (or no longer) tracked by this runtime.
    NotTracked(RequestId),
    /// The request exists but is not in a stage/mode the operation accepts.
    InvalidTransition {
        id: RequestId,
        stage: ServerStage,
        mode: ServiceMode,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::NotTracked(id) => write!(f, "request {id:?} not tracked"),
            RuntimeError::InvalidTransition { id, stage, mode } => {
                write!(f, "request {id:?} in invalid state {stage:?}/{mode:?}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

#[derive(Debug, Clone)]
struct Tracked {
    stage: ServerStage,
    mode: ServiceMode,
    /// Requested operation; `None` for a plain read.
    op: Option<Arc<str>>,
    /// Requested size `d_i` in bytes.
    bytes: f64,
}

/// Counters the evaluation reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeCounters {
    pub admitted: u64,
    pub demoted: u64,
    pub interrupted: u64,
    /// Planned partial-offload migrations (extension).
    pub split: u64,
    pub completed_active: u64,
    pub completed_normal: u64,
    pub completed_migrated: u64,
    /// Checkpoint shipments that failed in flight and were re-queued as
    /// normal reads (fault-injection extension).
    #[serde(default)]
    pub checkpoint_failures: u64,
}

impl RuntimeCounters {
    /// Fold another node's counters into this aggregate.
    pub fn absorb(&mut self, other: &RuntimeCounters) {
        self.admitted += other.admitted;
        self.demoted += other.demoted;
        self.interrupted += other.interrupted;
        self.split += other.split;
        self.completed_active += other.completed_active;
        self.completed_normal += other.completed_normal;
        self.completed_migrated += other.completed_migrated;
        self.checkpoint_failures += other.checkpoint_failures;
    }
}

/// One storage node's Active I/O Runtime: its request table, queue depth
/// and counters.
#[derive(Debug, Clone)]
pub struct ActiveIoRuntime {
    requests: BTreeMap<RequestId, Tracked>,
    /// Requests at the server: +1 at arrival, −1 at delivery or write ack.
    depth: TimeWeighted,
    pub counters: RuntimeCounters,
}

impl Default for ActiveIoRuntime {
    fn default() -> Self {
        ActiveIoRuntime {
            requests: BTreeMap::new(),
            depth: TimeWeighted::new(SimTime::ZERO, 0.0),
            counters: RuntimeCounters::default(),
        }
    }
}

impl ActiveIoRuntime {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a read the moment the client sends it: `op` is the
    /// requested kernel (`None` for a plain read), `bytes` its size `d_i`.
    pub fn track(&mut self, id: RequestId, op: Option<Arc<str>>, bytes: f64) {
        let active = op.is_some();
        let prev = self.requests.insert(
            id,
            Tracked {
                stage: ServerStage::InFlight,
                mode: if active {
                    ServiceMode::Active
                } else {
                    ServiceMode::Normal
                },
                op,
                bytes,
            },
        );
        assert!(prev.is_none(), "request {id:?} tracked twice");
        if active {
            self.counters.admitted += 1;
        }
    }

    pub fn stage(&self, id: RequestId) -> Option<ServerStage> {
        self.requests.get(&id).map(|t| t.stage)
    }

    fn tracked(&mut self, id: RequestId) -> &mut Tracked {
        self.requests
            .get_mut(&id)
            .unwrap_or_else(|| panic!("request {id:?} not tracked"))
    }

    /// Arrival at the server: the request joins the queue and its disk
    /// read is submitted.
    pub fn on_arrival(&mut self, now: SimTime, id: RequestId) {
        let t = self.tracked(id);
        assert_eq!(
            t.stage,
            ServerStage::InFlight,
            "request {id:?} already queued"
        );
        t.stage = ServerStage::QueuedDisk;
        self.depth.add(now, 1.0);
    }

    /// A write's payload stream began at the server: it counts toward the
    /// queue depth until [`on_write_acked`](Self::on_write_acked).
    pub fn on_write_arrival(&mut self, now: SimTime) {
        self.depth.add(now, 1.0);
    }

    /// A write's ack reached its client: it leaves the queue.
    pub fn on_write_acked(&mut self, now: SimTime) {
        self.depth.add(now, -1.0);
    }

    /// Disk read finished. Returns the service mode that must now proceed:
    /// `Active` → start the kernel; otherwise → ship the data.
    pub fn on_disk_done(&mut self, id: RequestId) -> ServiceMode {
        let t = self.tracked(id);
        assert_eq!(t.stage, ServerStage::QueuedDisk, "{id:?}");
        match t.mode {
            ServiceMode::Active => t.stage = ServerStage::Running,
            ServiceMode::Normal | ServiceMode::Migrated => t.stage = ServerStage::SendingData,
        }
        t.mode
    }

    /// Kernel finished; result transfer begins.
    pub fn on_kernel_done(&mut self, id: RequestId) {
        let t = self.tracked(id);
        assert_eq!(t.stage, ServerStage::Running, "{id:?}");
        t.stage = ServerStage::SendingResult;
    }

    /// Kernel reached its *planned* partial-offload point: checkpoint and
    /// ship residual data + state, exactly like an interruption but
    /// scheduled in advance (extension; see `schedule::fractional`).
    pub fn on_kernel_split(&mut self, id: RequestId) {
        let t = self.tracked(id);
        assert_eq!(t.stage, ServerStage::Running, "{id:?}");
        assert_eq!(t.mode, ServiceMode::Active, "{id:?}");
        t.mode = ServiceMode::Migrated;
        t.stage = ServerStage::SendingData;
        self.counters.split += 1;
    }

    /// Final transfer delivered; the request leaves the runtime.
    pub fn on_delivered(&mut self, now: SimTime, id: RequestId) -> ServiceMode {
        let t = self
            .requests
            .remove(&id)
            .unwrap_or_else(|| panic!("request {id:?} not tracked"));
        assert!(
            matches!(
                t.stage,
                ServerStage::SendingResult | ServerStage::SendingData
            ),
            "{id:?} delivered from stage {:?}",
            t.stage
        );
        self.depth.add(now, -1.0);
        match t.mode {
            ServiceMode::Active => self.counters.completed_active += 1,
            ServiceMode::Migrated => self.counters.completed_migrated += 1,
            // Plain reads aren't counted as active completions.
            ServiceMode::Normal if t.op.is_some() => self.counters.completed_normal += 1,
            ServiceMode::Normal => {}
        }
        t.mode
    }

    /// A migrated request's checkpoint shipment failed in flight (fault
    /// injection): the data + state never reached the client. The request
    /// falls back to plain data shipping — it re-enters the disk queue as a
    /// `Normal` request so the raw bytes can be re-read and re-shipped
    /// without kernel state. Any partial kernel progress is discarded by the
    /// caller (processed bytes reset).
    pub fn on_checkpoint_failed(&mut self, id: RequestId) -> Result<(), RuntimeError> {
        let t = self
            .requests
            .get_mut(&id)
            .ok_or(RuntimeError::NotTracked(id))?;
        if t.stage != ServerStage::SendingData || t.mode != ServiceMode::Migrated {
            return Err(RuntimeError::InvalidTransition {
                id,
                stage: t.stage,
                mode: t.mode,
            });
        }
        t.stage = ServerStage::QueuedDisk;
        t.mode = ServiceMode::Normal;
        self.counters.checkpoint_failures += 1;
        Ok(())
    }

    /// Apply a CE policy: which queued requests to demote and which running
    /// kernels to interrupt. `allow_interrupt = false` restricts R to acting
    /// on not-yet-started requests (ablation).
    pub fn apply_policy(
        &mut self,
        policy: &crate::estimator::Policy,
        allow_interrupt: bool,
    ) -> Vec<RuntimeAction> {
        use crate::estimator::Decision;
        let mut actions = Vec::new();
        for (&id, decision) in &policy.decisions {
            if *decision != Decision::Normal {
                continue;
            }
            let Some(t) = self.requests.get_mut(&id) else {
                continue; // completed since the probe
            };
            match (t.stage, t.mode) {
                (ServerStage::InFlight | ServerStage::QueuedDisk, ServiceMode::Active) => {
                    t.mode = ServiceMode::Normal;
                    self.counters.demoted += 1;
                    actions.push(RuntimeAction::Demote(id));
                }
                (ServerStage::Running, ServiceMode::Active) if allow_interrupt => {
                    t.mode = ServiceMode::Migrated;
                    t.stage = ServerStage::SendingData;
                    self.counters.interrupted += 1;
                    actions.push(RuntimeAction::Interrupt(id));
                }
                // Too late (already sending) or already normal: no-op.
                _ => {}
            }
        }
        actions
    }

    /// The probe payload: the requests R can still re-plan — queued at the
    /// disk or running a kernel — in id order, with the Table II totals.
    /// Requests in flight or already shipping are beyond decision. A
    /// demoted or migrated request lists as normal I/O.
    pub fn snapshot(&self, now: SimTime) -> QueueSnapshot {
        let rows: Vec<SnapshotRow> = self
            .requests
            .iter()
            .filter(|(_, t)| matches!(t.stage, ServerStage::QueuedDisk | ServerStage::Running))
            .map(|(&id, t)| SnapshotRow {
                id,
                op: if t.mode == ServiceMode::Active {
                    t.op.clone()
                } else {
                    None
                },
                bytes: t.bytes,
            })
            .collect();
        let k = rows.iter().filter(|r| r.is_active()).count();
        QueueSnapshot {
            n: rows.len(),
            k,
            d_active: rows.iter().filter(|r| r.is_active()).map(|r| r.bytes).sum(),
            d_normal: rows
                .iter()
                .filter(|r| !r.is_active())
                .map(|r| r.bytes)
                .sum(),
            requests: rows,
            taken_at: now,
        }
    }

    /// Instantaneous queue depth: reads from arrival to delivery plus
    /// writes from arrival to ack.
    pub fn current_depth(&self) -> f64 {
        self.depth.current()
    }

    /// Time-weighted mean queue depth since simulation start.
    pub fn mean_depth(&self, now: SimTime) -> f64 {
        self.depth.mean(now)
    }

    /// Cumulative time-weighted queue-depth integral ∫ depth dt since
    /// simulation start (requests·seconds). Sampled by the observability
    /// layer so the timeline reconciles exactly with [`mean_depth`]:
    /// `depth_integral_at(end) / end == mean_depth(end)` for `end > 0`.
    ///
    /// [`mean_depth`]: ActiveIoRuntime::mean_depth
    pub fn depth_integral_at(&self, now: SimTime) -> f64 {
        self.depth.integral_at(now)
    }

    /// Peak queue depth seen.
    pub fn peak_depth(&self) -> f64 {
        self.depth.peak()
    }

    /// Cumulative demotions this runtime has performed — the demotion-rate
    /// signal the observability sampler exports per server (a consumer can
    /// difference consecutive samples for a rate).
    pub fn demoted_total(&self) -> u64 {
        self.counters.demoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{Decision, Policy};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn policy(entries: &[(u64, Decision)]) -> Policy {
        Policy {
            decisions: entries
                .iter()
                .map(|&(id, d)| (RequestId(id), d))
                .collect::<BTreeMap<_, _>>(),
            fractions: BTreeMap::new(),
            predicted_time: 0.0,
            generated_at: SimTime::ZERO,
        }
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    const T0: SimTime = SimTime::ZERO;

    /// Track an active `sum` read of `bytes`.
    fn track_active(r: &mut ActiveIoRuntime, id: u64, bytes: f64) {
        r.track(RequestId(id), Some("sum".into()), bytes);
    }

    /// Track and arrive an active (`op` non-empty) or normal read at `T0`.
    fn queue(r: &mut ActiveIoRuntime, id: u64, op: &str, bytes: f64) {
        let op = (!op.is_empty()).then(|| Arc::from(op));
        r.track(RequestId(id), op, bytes);
        r.on_arrival(T0, RequestId(id));
    }

    fn mode(r: &ActiveIoRuntime, id: u64) -> ServiceMode {
        r.requests[&RequestId(id)].mode
    }

    #[test]
    fn active_request_happy_path() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "sum", 1.0);
        assert_eq!(r.on_disk_done(RequestId(0)), ServiceMode::Active);
        r.on_kernel_done(RequestId(0));
        assert_eq!(r.on_delivered(T0, RequestId(0)), ServiceMode::Active);
        assert_eq!(r.counters.completed_active, 1);
        assert!(r.requests.is_empty());
    }

    #[test]
    fn normal_request_skips_kernel() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 1, "", 1.0);
        assert_eq!(r.on_disk_done(RequestId(1)), ServiceMode::Normal);
        assert_eq!(r.stage(RequestId(1)), Some(ServerStage::SendingData));
        r.on_delivered(T0, RequestId(1));
        assert_eq!(r.counters.completed_active, 0);
        assert_eq!(r.counters.admitted, 0, "plain reads are not admitted");
    }

    #[test]
    fn demotion_before_disk_read() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "sum", 1.0);
        let actions = r.apply_policy(&policy(&[(0, Decision::Normal)]), true);
        assert_eq!(actions, vec![RuntimeAction::Demote(RequestId(0))]);
        assert_eq!(r.counters.demoted, 1);
        // Disk completion now routes to data shipping.
        assert_eq!(r.on_disk_done(RequestId(0)), ServiceMode::Normal);
        assert_eq!(r.on_delivered(T0, RequestId(0)), ServiceMode::Normal);
        assert_eq!(r.counters.completed_normal, 1);
    }

    #[test]
    fn interruption_of_running_kernel() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "sum", 1.0);
        r.on_disk_done(RequestId(0));
        assert_eq!(r.stage(RequestId(0)), Some(ServerStage::Running));
        let actions = r.apply_policy(&policy(&[(0, Decision::Normal)]), true);
        assert_eq!(actions, vec![RuntimeAction::Interrupt(RequestId(0))]);
        assert_eq!(mode(&r, 0), ServiceMode::Migrated);
        assert_eq!(r.on_delivered(T0, RequestId(0)), ServiceMode::Migrated);
        assert_eq!(r.counters.interrupted, 1);
        assert_eq!(r.counters.completed_migrated, 1);
    }

    #[test]
    fn planned_split_transitions_like_interruption() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "sum", 1.0);
        r.on_disk_done(RequestId(0));
        r.on_kernel_split(RequestId(0));
        assert_eq!(r.stage(RequestId(0)), Some(ServerStage::SendingData));
        assert_eq!(mode(&r, 0), ServiceMode::Migrated);
        assert_eq!(r.counters.split, 1);
        assert_eq!(r.on_delivered(T0, RequestId(0)), ServiceMode::Migrated);
    }

    #[test]
    fn interruption_disabled_leaves_kernel_running() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "sum", 1.0);
        r.on_disk_done(RequestId(0));
        let actions = r.apply_policy(&policy(&[(0, Decision::Normal)]), false);
        assert!(actions.is_empty());
        assert_eq!(r.stage(RequestId(0)), Some(ServerStage::Running));
    }

    #[test]
    fn active_decision_is_noop() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "sum", 1.0);
        let actions = r.apply_policy(&policy(&[(0, Decision::Active)]), true);
        assert!(actions.is_empty());
    }

    #[test]
    fn policy_for_unknown_request_is_ignored() {
        let mut r = ActiveIoRuntime::new();
        let actions = r.apply_policy(&policy(&[(42, Decision::Normal)]), true);
        assert!(actions.is_empty());
        assert_eq!(r.counters.demoted, 0);
    }

    #[test]
    fn double_demotion_is_idempotent() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "sum", 1.0);
        r.apply_policy(&policy(&[(0, Decision::Normal)]), true);
        let again = r.apply_policy(&policy(&[(0, Decision::Normal)]), true);
        assert!(again.is_empty());
        assert_eq!(r.counters.demoted, 1);
    }

    #[test]
    #[should_panic(expected = "tracked twice")]
    fn double_track_panics() {
        let mut r = ActiveIoRuntime::new();
        track_active(&mut r, 0, 1.0);
        track_active(&mut r, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "not tracked")]
    fn transition_without_tracking_panics() {
        let mut r = ActiveIoRuntime::new();
        r.on_arrival(T0, RequestId(5));
    }

    #[test]
    #[should_panic(expected = "already queued")]
    fn duplicate_arrival_panics() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "", 1.0);
        r.on_arrival(T0, RequestId(0));
    }

    #[test]
    fn checkpoint_failure_requeues_as_normal() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "sum", 1.0);
        r.on_disk_done(RequestId(0));
        r.apply_policy(&policy(&[(0, Decision::Normal)]), true);
        assert_eq!(mode(&r, 0), ServiceMode::Migrated);
        // The checkpoint shipment dies in flight.
        r.on_checkpoint_failed(RequestId(0)).unwrap();
        assert_eq!(r.stage(RequestId(0)), Some(ServerStage::QueuedDisk));
        assert_eq!(mode(&r, 0), ServiceMode::Normal);
        assert_eq!(r.counters.checkpoint_failures, 1);
        // Back in the plannable queue, as normal I/O.
        let s = r.snapshot(T0);
        assert_eq!((s.n, s.k), (1, 0));
        // The re-read then ships plain data to completion.
        assert_eq!(r.on_disk_done(RequestId(0)), ServiceMode::Normal);
        assert_eq!(r.on_delivered(T0, RequestId(0)), ServiceMode::Normal);
        assert_eq!(r.counters.completed_normal, 1);
    }

    #[test]
    fn checkpoint_failure_rejects_wrong_states() {
        let mut r = ActiveIoRuntime::new();
        assert_eq!(
            r.on_checkpoint_failed(RequestId(3)),
            Err(RuntimeError::NotTracked(RequestId(3)))
        );
        queue(&mut r, 0, "sum", 1.0);
        // QueuedDisk/Active is not a failable shipment.
        assert_eq!(
            r.on_checkpoint_failed(RequestId(0)),
            Err(RuntimeError::InvalidTransition {
                id: RequestId(0),
                stage: ServerStage::QueuedDisk,
                mode: ServiceMode::Active,
            })
        );
        // Neither is a plain demoted data shipment (no checkpoint aboard).
        r.apply_policy(&policy(&[(0, Decision::Normal)]), true);
        r.on_disk_done(RequestId(0));
        assert!(r.on_checkpoint_failed(RequestId(0)).is_err());
        assert_eq!(r.counters.checkpoint_failures, 0);
    }

    // ----- The one table: probe snapshot and queue depth -----

    #[test]
    fn snapshot_matches_table_ii_notation() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "sum", 100.0);
        queue(&mut r, 1, "sum", 200.0);
        queue(&mut r, 2, "", 50.0);
        let s = r.snapshot(T0);
        assert_eq!(s.n, 3);
        assert_eq!(s.k, 2);
        assert_eq!(s.d_active, 300.0);
        assert_eq!(s.d_normal, 50.0);
        assert_eq!(s.d_total(), 350.0);
        assert_eq!(s.requests.len(), 3);
    }

    #[test]
    fn demotion_shows_as_normal_io_in_the_snapshot() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "sum", 100.0);
        r.apply_policy(&policy(&[(0, Decision::Normal)]), true);
        let s = r.snapshot(secs(0.5));
        assert_eq!(s.k, 0);
        assert_eq!(s.d_normal, 100.0);
        assert_eq!(s.requests[0].op, None);
    }

    #[test]
    fn delivery_removes_the_request_from_the_table() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "", 100.0);
        r.on_disk_done(RequestId(0));
        r.on_delivered(secs(1.0), RequestId(0));
        assert_eq!(r.stage(RequestId(0)), None);
        assert_eq!(r.current_depth(), 0.0);
        assert_eq!(r.snapshot(secs(1.0)).n, 0);
    }

    #[test]
    fn depth_statistics_are_time_weighted() {
        let mut r = ActiveIoRuntime::new();
        queue(&mut r, 0, "", 1.0);
        queue(&mut r, 1, "", 1.0);
        r.on_disk_done(RequestId(0));
        r.on_disk_done(RequestId(1));
        r.on_delivered(secs(1.0), RequestId(0));
        r.on_delivered(secs(2.0), RequestId(1));
        // Depth 2 for 1 s, 1 for 1 s => mean 1.5 at t=2.
        assert!((r.mean_depth(secs(2.0)) - 1.5).abs() < 1e-9);
        assert_eq!(r.peak_depth(), 2.0);
    }

    /// One server holding every kind of request at once: the snapshot lists
    /// exactly the queued and running reads in id order with Table II
    /// totals that are the row sums, while the depth statistic also counts
    /// the write and the request shipping data, until their delivery.
    #[test]
    fn one_table_snapshots_plannable_reads_and_counts_every_arrival() {
        let mut r = ActiveIoRuntime::new();
        track_active(&mut r, 0, 10.0); // in flight: tracked, not arrived
        queue(&mut r, 1, "gaussian2d", 100.0); // queued active
        queue(&mut r, 2, "sum", 200.0); // queued active
        queue(&mut r, 3, "", 50.0); // queued normal
        queue(&mut r, 4, "sum", 400.0); // will run its kernel
        assert_eq!(r.on_disk_done(RequestId(4)), ServiceMode::Active);
        queue(&mut r, 5, "", 800.0); // will ship its data
        assert_eq!(r.on_disk_done(RequestId(5)), ServiceMode::Normal);
        assert_eq!(r.current_depth(), 5.0, "the in-flight read is not queued");
        r.on_write_arrival(secs(1.0));
        assert_eq!(r.current_depth(), 6.0);

        let s = r.snapshot(secs(1.0));
        let ids: Vec<u64> = s.requests.iter().map(|row| row.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        let ops: Vec<Option<&str>> = s.requests.iter().map(|row| row.op.as_deref()).collect();
        assert_eq!(
            ops,
            vec![Some("gaussian2d"), Some("sum"), None, Some("sum")]
        );
        let active = s.requests.iter().filter(|row| row.is_active());
        let normal = s.requests.iter().filter(|row| !row.is_active());
        assert_eq!(s.n, s.requests.len());
        assert_eq!(s.k, active.clone().count());
        assert_eq!(s.d_active, active.map(|row| row.bytes).sum::<f64>());
        assert_eq!(s.d_normal, normal.map(|row| row.bytes).sum::<f64>());
        assert_eq!((s.n, s.k, s.d_active, s.d_normal), (4, 3, 700.0, 50.0));
        assert_eq!(s.taken_at, secs(1.0));

        r.on_delivered(secs(2.0), RequestId(5));
        assert_eq!(r.current_depth(), 5.0);
        r.on_write_acked(secs(3.0));
        assert_eq!(r.current_depth(), 4.0);
        // Depth 5 over [0,1), 6 over [1,2), 5 over [2,3), 4 over [3,4):
        // ∫ = 20 request·s, mean 5 at t = 4; peak 6 while the write was in.
        assert_eq!(r.depth_integral_at(secs(4.0)), 20.0);
        assert_eq!(r.mean_depth(secs(4.0)), 5.0);
        assert_eq!(r.peak_depth(), 6.0);
        assert_eq!(r.counters.admitted, 4, "admitted at issue, reads only");
        assert_eq!(r.counters.completed_normal, 0, "plain reads not counted");
    }

    // ----- State-machine property (fault-interleaving robustness) -----

    /// The set of (stage, mode) pairs the runtime may legally occupy.
    fn state_is_legal(stage: ServerStage, mode: ServiceMode) -> bool {
        matches!(
            (stage, mode),
            (
                ServerStage::InFlight,
                ServiceMode::Active | ServiceMode::Normal
            ) | (
                ServerStage::QueuedDisk,
                ServiceMode::Active | ServiceMode::Normal
            ) | (ServerStage::Running, ServiceMode::Active)
                | (ServerStage::SendingResult, ServiceMode::Active)
                | (
                    ServerStage::SendingData,
                    ServiceMode::Normal | ServiceMode::Migrated
                )
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        /// Drive one tracked read through an arbitrary interleaving of
        /// driver events, policy updates, injected checkpoint failures and
        /// write traffic on the same server. The runtime must never reach
        /// an illegal (stage, mode) pair, never accept
        /// `on_checkpoint_failed` outside Migrated shipment, list the read
        /// in its snapshot exactly while it is plannable, keep the depth at
        /// arrivals minus deliveries, and keep its counters consistent with
        /// observed completions.
        #[test]
        fn arbitrary_interleavings_never_reach_invalid_state(
            active in 0u8..2,
            cmds in proptest::collection::vec(0u8..9, 1..60),
        ) {
            let mut r = ActiveIoRuntime::new();
            let id = RequestId(0);
            r.track(id, (active == 1).then(|| "sum".into()), 64.0);
            let mut delivered = false;
            let (mut arrived, mut done, mut writes) = (0u64, 0u64, 0u64);
            for (step, cmd) in cmds.into_iter().enumerate() {
                let now = SimTime::from_nanos(step as u64 * 1_000);
                let state = r.requests.get(&id).map(|t| (t.stage, t.mode));
                match (cmd, state) {
                    (0, Some((ServerStage::InFlight, _))) => {
                        r.on_arrival(now, id);
                        arrived += 1;
                    }
                    (1, Some((ServerStage::QueuedDisk, mode))) => {
                        let served = r.on_disk_done(id);
                        prop_assert_eq!(served, mode);
                    }
                    (2, Some((ServerStage::Running, _))) => r.on_kernel_done(id),
                    (3, Some((ServerStage::Running, ServiceMode::Active))) => {
                        r.on_kernel_split(id)
                    }
                    (4, Some((stage, _))) => {
                        // Policy flips to Normal; interruption is allowed
                        // unless the result is already being sent.
                        let allow = stage != ServerStage::SendingResult;
                        r.apply_policy(&policy(&[(0, Decision::Normal)]), allow);
                    }
                    (5, Some((stage, mode))) => {
                        let failable = stage == ServerStage::SendingData
                            && mode == ServiceMode::Migrated;
                        let res = r.on_checkpoint_failed(id);
                        prop_assert_eq!(res.is_ok(), failable);
                    }
                    (
                        6,
                        Some((ServerStage::SendingResult | ServerStage::SendingData, _)),
                    ) => {
                        r.on_delivered(now, id);
                        delivered = true;
                        done += 1;
                    }
                    (7, _) => {
                        r.on_write_arrival(now);
                        arrived += 1;
                        writes += 1;
                    }
                    (8, _) if writes > 0 => {
                        r.on_write_acked(now);
                        writes -= 1;
                        done += 1;
                    }
                    _ => {} // command not applicable in this state: skip
                }
                prop_assert_eq!(r.current_depth(), (arrived - done) as f64);
                let snap = r.snapshot(now);
                for row in &snap.requests {
                    let t = &r.requests[&row.id];
                    prop_assert!(
                        matches!(t.stage, ServerStage::QueuedDisk | ServerStage::Running),
                        "snapshot lists {:?} in stage {:?}",
                        row.id,
                        t.stage
                    );
                    prop_assert_eq!(row.is_active(), t.mode == ServiceMode::Active);
                }
                if let Some(t) = r.requests.get(&id) {
                    prop_assert!(
                        state_is_legal(t.stage, t.mode),
                        "illegal state {:?}/{:?} after cmd {}",
                        t.stage,
                        t.mode,
                        cmd
                    );
                    let plannable =
                        matches!(t.stage, ServerStage::QueuedDisk | ServerStage::Running);
                    prop_assert_eq!(snap.n, usize::from(plannable));
                }
            }
            let c = r.counters;
            // A single tracked request can be demoted/interrupted at most
            // once each, and interruption + planned split are exclusive.
            prop_assert!(c.demoted <= 1 && c.interrupted <= 1 && c.split <= 1);
            prop_assert!(c.interrupted + c.split <= 1);
            let completions = c.completed_active + c.completed_normal + c.completed_migrated;
            prop_assert!(completions <= 1);
            if delivered {
                prop_assert!(r.requests.is_empty());
            }
        }
    }
}
