//! `io_path` subsystem: the data path of every byte.
//!
//! Owns the file-system face of the simulation (metadata + in-memory
//! store), the per-part request table, the app-I/O assembly state, and the
//! flow bookkeeping for transfers in flight. Covers issue → stripe →
//! arrive → deliver for reads, the client → server → disk → ack write
//! path, server buffer caches, and client-side result assembly (data
//! plane). Routed events: [`Ev::Arrive`](super::Ev::Arrive),
//! [`Ev::NetTick`](super::Ev::NetTick), [`Ev::Deliver`](super::Ev::Deliver).
//!
//! Split into [`types`] (request/app state) and [`assembly`] (pure
//! data-plane helpers); the handlers live here. Disk and kernel service
//! between arrival and delivery belongs to the [`server`](super::server)
//! subsystem; demote/interrupt decisions to [`control`](super::control).

mod assembly;
mod issue;
mod types;

pub(super) use types::{AppIo, AppIoId, FileSpan, IssueKind, Piece, Req};

use super::autopsy::ReqStage;
use super::server::CpuWork;
use super::{Driver, Ev, Subsystem};
use crate::asc::ClientAction;
use crate::runtime::ServiceMode;
use assembly::{assemble_result, cache_miss_bytes};
use cluster::{FlowId, NodeId};
use mpiio::file::ResultBuf;
use mpiio::status::ExecutionSite;
use pfs::{BlockCache, IoKind, MemoryStore, MetadataServer, QueuedRequest, RequestId};
use simkit::component::Component;
use simkit::{EventHandle, Scheduler, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Wire-size estimate for a kernel checkpoint when the data plane is off
/// (with real kernels the actual [`kernels::KernelState::wire_size`] is
/// used).
const STATE_SIZE_ESTIMATE: f64 = 256.0;

/// I/O-path state embedded in [`Driver`].
pub(super) struct IoPath {
    pub(super) meta: MetadataServer,
    pub(super) store: MemoryStore,
    pub(super) ascs: BTreeMap<NodeId, crate::asc::ActiveStorageClient>,
    pub(super) reqs: BTreeMap<RequestId, Req>,
    pub(super) apps: BTreeMap<AppIoId, AppIo>,
    pub(super) flow_req: BTreeMap<FlowId, RequestId>,
    /// Migrated-data flows doomed by an active checkpoint-ship fault.
    pub(super) doomed_flows: BTreeSet<FlowId>,
    /// Optional per-storage-node buffer caches (ClusterConfig knob).
    pub(super) caches: BTreeMap<NodeId, BlockCache>,
    pub(super) next_req: u64,
    pub(super) next_app: u64,
    /// Final kernel results per app I/O (data-plane runs only).
    pub(super) results: BTreeMap<u64, Vec<u8>>,
    /// The one armed `NetTick`: its (time, fabric epoch, queue handle).
    /// Cleared the instant it fires; superseded entries are cancelled in
    /// the queue (when still in the future) before a replacement is armed.
    pub(super) net_armed: Option<(SimTime, u64, EventHandle)>,
    /// NetTick arms skipped because a tick with the identical (time,
    /// epoch) was already pending — a recompute left the earliest
    /// completion unchanged, so no replacement is scheduled.
    pub(super) net_ticks_deduped: u64,
    /// Stale NetTicks suppressed before dispatch: superseded future ticks
    /// revoked from the queue once a recompute moved the earliest
    /// completion.
    pub(super) net_ticks_suppressed: u64,
    /// Per-rank policy rate caps, bytes/s (absent = uncapped). Written by
    /// the control subsystem's rate-cap directives; read at flow launch so
    /// every new request flow of a capped rank starts capped.
    pub(super) rank_caps: BTreeMap<usize, f64>,
    /// Rate-cap directives that changed a rank's cap (policy activity
    /// accounting, surfaced via `RunMetrics::policy`).
    pub(super) rate_caps_applied: u64,
}

/// Routed-event entry point for the subsystem.
pub(super) struct IoPathComponent;

impl Component<Driver> for IoPathComponent {
    const ROUTE: Subsystem = Subsystem::IoPath;
    const NAME: &'static str = "io_path";

    fn handle(world: &mut Driver, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Arrive(id) => world.on_arrive(id, now, sched),
            Ev::NetTick { epoch } => world.on_net_tick(epoch, now, sched),
            Ev::Deliver(id) => world.on_deliver(id, now, sched),
            _ => unreachable!("non-I/O event routed to io_path"),
        }
    }
}

impl Driver {
    /// (Re)arm the fabric's completion tick, keeping at most one `NetTick`
    /// pending. A call that lands on the identical (time, epoch) as the
    /// armed tick is deduplicated outright; a superseded tick armed for a
    /// *future* instant is suppressed (cancelled in the queue before it can
    /// dispatch). A superseded tick armed
    /// for the *current* instant is left to fire and go stale instead; the
    /// goldens pin that event stream, including the stale dispatches in
    /// their event counters.
    pub(super) fn schedule_net(&mut self, sched: &mut Scheduler<Ev>) {
        let next = self.cluster.fabric.next_completion();
        let epoch = self.cluster.fabric.epoch();
        let Some(t) = next.map(|t| t.max(sched.now())) else {
            // Nothing will complete (idle fabric or all flows stalled at
            // rate 0): drop the armed tick rather than let it fire stale.
            if let Some((at, _, h)) = self.io.net_armed.take() {
                if at > sched.now() {
                    sched.cancel(h);
                    self.io.net_ticks_suppressed += 1;
                }
            }
            return;
        };
        if let Some((at, e, h)) = self.io.net_armed {
            if at == t && e == epoch {
                self.io.net_ticks_deduped += 1;
                return;
            }
            self.io.net_armed = None;
            if at > sched.now() {
                sched.cancel(h);
                self.io.net_ticks_suppressed += 1;
            }
        }
        let handle = sched.at_cancellable(t, Ev::NetTick { epoch });
        self.io.net_armed = Some((t, epoch, handle));
    }

    // ----- request pipeline -----

    fn on_arrive(&mut self, id: RequestId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let (server, kind, bytes, client, is_write) = {
            let r = &self.io.reqs[&id];
            let kind = match &r.op {
                Some(op) => IoKind::Active { op: op.clone() },
                None => IoKind::Normal,
            };
            (r.server, kind, r.bytes, r.client, r.is_write)
        };
        {
            let r = self.io.reqs.get_mut(&id).expect("req");
            r.t_arrive = now;
            // Autopsy: the submit hop is the fixed request-message latency.
            if let Some(ch) = r.chain.as_mut() {
                ch.record_service(ReqStage::Submit, client.0, now);
            }
        }
        self.obs_inc("io_path", "requests_arrived", obs::Label::Node(server.0));
        self.server
            .servers
            .get_mut(&server)
            .expect("server exists")
            .arrive(
                now,
                QueuedRequest {
                    id,
                    kind,
                    bytes,
                    client,
                    arrived: now,
                },
            );
        if is_write {
            // Write path: data streams client → server first; the disk
            // write happens when the payload has fully arrived.
            self.launch_flow(id, client, server, bytes, now, sched);
            return;
        }
        self.server
            .runtimes
            .get_mut(&server)
            .expect("server runtime")
            .on_arrival(id);
        self.submit_disk_read(server, id, bytes, now, sched);

        let decide = self.dosas.as_ref().is_some_and(|d| d.decide_on_arrival)
            && self.io.reqs[&id].op.is_some();
        if decide {
            // Arrival-triggered decisions go through the same fault checks
            // as periodic probes but never spawn retries (the probe loop
            // owns the retry schedule).
            self.handle_probe(server, now, false, sched);
        }
    }

    /// Start a transfer belonging to request `id` and index it for
    /// completion handling — the one way any subsystem puts a request's
    /// bytes on the wire.
    pub(super) fn launch_flow(
        &mut self,
        id: RequestId,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) -> FlowId {
        let flow = self.cluster.fabric.start_flow(now, src, dst, bytes);
        self.io.flow_req.insert(flow, id);
        {
            let nominal = self.cfg.cluster.nic_bandwidth;
            let r = self.io.reqs.get_mut(&id).expect("req");
            r.t_flow_start = now;
            // Autopsy: the transfer's ideal is a solo run of the nominal
            // link; the hop closes when the flow completes.
            if let Some(ch) = r.chain.as_mut() {
                ch.arm(bytes / nominal);
            }
        }
        // A policy rate cap on the issuing rank applies from the first byte.
        if !self.io.rank_caps.is_empty() {
            let rank = self.io.apps[&self.io.reqs[&id].app].rank;
            if let Some(&cap) = self.io.rank_caps.get(&rank) {
                self.cluster.fabric.set_flow_cap(now, flow, cap);
            }
        }
        self.schedule_net(sched);
        flow
    }

    /// Ship raw data (plus checkpoint for migrations) to the client.
    pub(super) fn start_data_flow(
        &mut self,
        id: RequestId,
        migrated: bool,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let (src, dst, ship) = {
            let r = &self.io.reqs[&id];
            let residual = (r.bytes - r.processed_bytes).max(0.0);
            let state_bytes = if migrated && r.processed_bytes > 0.0 {
                r.ship_state
                    .as_ref()
                    .map(|s| s.wire_size() as f64)
                    .unwrap_or(STATE_SIZE_ESTIMATE)
            } else {
                0.0
            };
            (r.server, r.client, residual + state_bytes)
        };
        let flow = self.launch_flow(id, src, dst, ship, now, sched);
        // A checkpoint-ship fault active on the source dooms migrated
        // shipments launched under it: the transfer runs its course and
        // then fails instead of delivering (see `on_checkpoint_ship_failed`).
        if migrated && self.cfg.fault_plan.checkpoint_ship_fails(now, src.0) {
            self.io.doomed_flows.insert(flow);
        }
    }

    /// A doomed migrated shipment finished transferring but its payload
    /// (data + checkpoint) is lost. The request gives up on the checkpoint:
    /// it re-queues at the disk as a plain normal read — partial kernel
    /// progress is discarded — and ships raw bytes on the second attempt.
    /// The re-ship is a `Normal` (not `Migrated`) flow, so it cannot be
    /// doomed again and the request terminates.
    fn on_checkpoint_ship_failed(
        &mut self,
        id: RequestId,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let server = self.io.reqs[&id].server;
        if let Err(e) = self
            .server
            .runtimes
            .get_mut(&server)
            .expect("server runtime")
            .on_checkpoint_failed(id)
        {
            // The request is no longer a failable migrated shipment (it
            // raced out of that state); deliver the transfer normally
            // instead of wedging it.
            debug_assert!(false, "doomed flow in unexpected state: {e}");
            sched.after(self.cfg.cluster.net_latency, Ev::Deliver(id));
            return;
        }
        let bytes = {
            let r = self.io.reqs.get_mut(&id).expect("req");
            r.processed_bytes = 0.0;
            r.ship_state = None;
            r.split = None;
            r.kernel = None;
            r.bytes
        };
        self.obs_inc(
            "io_path",
            "checkpoint_ship_failures",
            obs::Label::Node(server.0),
        );
        self.obs_event(now, obs::Severity::Warn, "io_path", Some(server.0), || {
            "checkpoint shipment lost; re-reading as normal I/O".to_string()
        });
        self.submit_disk_read(server, id, bytes, now, sched);
    }

    fn on_net_tick(&mut self, epoch: u64, now: SimTime, sched: &mut Scheduler<Ev>) {
        // If this firing is the armed tick, it is past the point of
        // cancellation — forget its handle before anything else can try.
        // (A stale same-instant leftover never matches the memo: re-arming
        // always moves the epoch forward.)
        if self
            .io
            .net_armed
            .is_some_and(|(at, e, _)| at == now && e == epoch)
        {
            self.io.net_armed = None;
        }
        if self.cluster.fabric.epoch() != epoch {
            return;
        }
        self.sample_bandwidth(now);
        let completions = self.cluster.fabric.take_completed(now);
        for c in completions {
            if self.ranks.flow_coll.remove(&c.id) {
                let run = self.ranks.collective.as_mut().expect("collective running");
                if run.on_flow_done() {
                    if run.done() {
                        self.finish_collective(now, sched);
                    } else {
                        self.launch_collective_round(now, sched);
                    }
                }
                continue;
            }
            let id = self
                .io
                .flow_req
                .remove(&c.id)
                .expect("flow completion maps to a request");
            // Autopsy: close the transfer hop (doomed shipments included —
            // their lost transfer is part of the request's causal chain).
            // Writes stream client → server; every read-side flow streams
            // server → client.
            if self.io.reqs[&id].chain.is_some() {
                let (rank, src, dst, start) = {
                    let r = &self.io.reqs[&id];
                    let (src, dst) = if r.is_write {
                        (r.client, r.server)
                    } else {
                        (r.server, r.client)
                    };
                    let rank = self.io.apps[&r.app].rank;
                    (rank, src, dst, r.chain.as_ref().expect("checked").cursor())
                };
                let cause = self.autopsy_cause_net(rank, src.0, dst.0, start, now);
                let r = self.io.reqs.get_mut(&id).expect("req");
                r.chain.as_mut().expect("checked").record(
                    ReqStage::Transfer,
                    src.0,
                    now,
                    Some(cause),
                );
            }
            if self.io.doomed_flows.remove(&c.id) {
                self.on_checkpoint_ship_failed(id, now, sched);
                continue;
            }
            if self.io.reqs[&id].is_write {
                // Payload arrived at the server: queue the disk write.
                let server = self.io.reqs[&id].server;
                let bytes = self.io.reqs[&id].bytes;
                let ordinal = self.cluster.storage_ordinal(server);
                let disk_id = self.cluster.disks[ordinal].submit_write(now, bytes);
                self.server.disk_req.insert((ordinal, disk_id), id);
                // Autopsy: arm the disk hop with the write's solo service
                // time; the hop closes at disk completion.
                let ideal = self.cluster.disks[ordinal]
                    .service_time(bytes)
                    .as_secs_f64();
                if let Some(ch) = self.io.reqs.get_mut(&id).expect("req").chain.as_mut() {
                    ch.arm(ideal);
                }
                self.schedule_disk(ordinal, sched);
                continue;
            }
            sched.after(self.cfg.cluster.net_latency, Ev::Deliver(id));
        }
        self.schedule_net(sched);
    }

    fn on_deliver(&mut self, id: RequestId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let server = self.io.reqs[&id].server;
        // Per-server latency telemetry for contention policies (pure state,
        // no events — scheme behavior under the default policy is
        // untouched).
        let observed = (now - self.io.reqs[&id].t_arrive).as_secs_f64();
        self.note_delivery_telemetry(server, observed);
        // Autopsy: the delivery hop is the fixed transfer-end → client
        // latency; recorded before the trace span so the span can carry
        // the transfer hop's wait/cause as Perfetto args.
        {
            let client = self.io.reqs[&id].client;
            if let Some(ch) = self.io.reqs.get_mut(&id).expect("req").chain.as_mut() {
                ch.record_service(ReqStage::Deliver, client.0, now);
            }
        }
        {
            let (start, track, write, tenant, wait) = {
                let r = &self.io.reqs[&id];
                let wait = r.chain.as_ref().and_then(|ch| {
                    ch.hops()
                        .iter()
                        .rev()
                        .find(|h| matches!(h.kind, ReqStage::Transfer))
                        .and_then(|h| h.cause.map(|c| (h.wait_secs, c)))
                });
                let tenant = self.io.apps[&r.app].tenant;
                (r.t_flow_start, r.app.0, r.is_write, tenant, wait)
            };
            let name = if write { "write-xfer+disk" } else { "transfer" };
            self.trace_span(
                || name.into(),
                "net",
                start,
                now,
                server.0,
                track,
                tenant,
                wait,
            );
        }
        if self.io.reqs[&id].is_write {
            // Ack received: the write is durable and the request is done.
            self.server
                .servers
                .get_mut(&server)
                .expect("server")
                .complete(now, id)
                .expect("request was queued");
            let mut r = self.io.reqs.remove(&id).expect("req");
            let app = self.io.apps.get_mut(&r.app).expect("app");
            app.parts_pending -= 1;
            if app.parts_pending == 0 {
                // The part that completed the write carries its causal chain.
                app.chain = r.chain.take();
                self.finish_app(r.app, now, sched);
            }
            return;
        }
        let mode = self
            .server
            .runtimes
            .get_mut(&server)
            .expect("server runtime")
            .on_delivered(id);
        self.server
            .servers
            .get_mut(&server)
            .expect("server")
            .complete(now, id)
            .expect("request was queued");

        let mut r = self.io.reqs.remove(&id).expect("req");
        let app_id = r.app;
        match mode {
            ServiceMode::Active => {
                let result = r.result.take().unwrap_or_default();
                let rb = ResultBuf::completed(result, r.fh, r.bytes as u64);
                let action = self
                    .io
                    .ascs
                    .get_mut(&r.client)
                    .expect("asc")
                    .handle_result(id, &rb)
                    .expect("completed results never fail");
                let app = self.io.apps.get_mut(&app_id).expect("app");
                app.any_active_completed = true;
                if let ClientAction::Deliver(bytes) = action {
                    if self.cfg.data_plane {
                        app.pieces.push((r.part_index, Piece::Ready(bytes)));
                    }
                }
            }
            ServiceMode::Normal | ServiceMode::Migrated => {
                if r.op.is_some() {
                    // Demoted or migrated active request: the ASC finishes it.
                    let state = r.ship_state.take();
                    let rb = ResultBuf::uncompleted(state, r.fh, r.processed_bytes.floor() as u64);
                    let action = self
                        .io
                        .ascs
                        .get_mut(&r.client)
                        .expect("asc")
                        .handle_result(id, &rb)
                        .expect("registered ops restore");
                    let app = self.io.apps.get_mut(&app_id).expect("app");
                    match action {
                        ClientAction::FinishLocally {
                            remaining_bytes,
                            kernel,
                        } => {
                            app.client_bytes += remaining_bytes as f64;
                            app.rate_op = r.op.clone();
                            if mode == ServiceMode::Migrated {
                                app.any_migrated = true;
                            } else {
                                app.any_demoted = true;
                            }
                            if self.cfg.data_plane {
                                let tail = r
                                    .data
                                    .as_ref()
                                    .map(|d| d[r.processed_bytes.floor() as usize..].to_vec())
                                    .expect("data-plane bytes");
                                app.pieces.push((r.part_index, Piece::Finish(kernel, tail)));
                            }
                        }
                        ClientAction::Deliver(_) => {
                            unreachable!("uncompleted results never deliver directly")
                        }
                    }
                } else {
                    // Plain read part.
                    let app = self.io.apps.get_mut(&app_id).expect("app");
                    if app.client_op.is_some() {
                        app.client_bytes += r.bytes;
                        app.rate_op = app.client_op.as_ref().map(|(op, _)| op.clone());
                    }
                    if self.cfg.data_plane {
                        let data = r.data.take().expect("data-plane bytes");
                        // Slice the concatenated server payload back into
                        // its file extents so the client can reassemble
                        // file order across servers.
                        let mut chunks = Vec::with_capacity(r.extents.len());
                        let mut pos = 0usize;
                        for &(offset, len) in &r.extents {
                            chunks.push((offset, data[pos..pos + len as usize].to_vec()));
                            pos += len as usize;
                        }
                        app.pieces.push((r.part_index, Piece::Raw(chunks)));
                    }
                }
            }
        }

        let app = self.io.apps.get_mut(&app_id).expect("app");
        app.parts_pending -= 1;
        if app.parts_pending == 0 {
            // The part whose delivery completed the I/O carries its chain
            // forward as the app's causal chain.
            app.chain = r.chain.take();
            if app.client_bytes > 0.0 {
                let op = app
                    .rate_op
                    .clone()
                    .expect("client compute has an operation");
                let client_bytes = app.client_bytes;
                let rank = app.rank;
                app.t_client_start = now;
                let core_seconds = self.cpu_cost(client_bytes / self.cfg.rates.per_core(&op));
                // Autopsy: the client compute's ideal is its solo run.
                if let Some(ch) = self.io.apps.get_mut(&app_id).expect("app").chain.as_mut() {
                    ch.arm(core_seconds);
                }
                let node = self.ranks.states[rank].node.0;
                let task = self.cluster.cpus[node].submit(now, core_seconds);
                self.server
                    .cpu_work
                    .insert((node, task), CpuWork::ClientCompute(app_id));
                self.schedule_cpu(node, sched);
            } else {
                self.finish_app(app_id, now, sched);
            }
        }
    }

    /// Assemble the final result, record metrics, resume the rank.
    pub(super) fn finish_app(&mut self, app_id: AppIoId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let mut app = self.io.apps.remove(&app_id).expect("app");
        self.control
            .telemetry
            .note_app_complete(app.tenant, app.total_bytes);
        // Autopsy: close the client-compute hop (if any), freeze the
        // request's breakdown, and stamp the whole I/O onto the issuing
        // rank's program-level chain.
        let mut chain = app.chain.take();
        if let Some(ch) = chain.as_mut() {
            if app.client_bytes > 0.0 {
                let node = self.ranks.states[app.rank].node.0;
                let cause = self.autopsy_cause_cpu(node, ch.cursor(), now);
                ch.record(ReqStage::ClientCompute, node, now, Some(cause));
            }
        }
        if app.client_bytes > 0.0 {
            let node = self.ranks.states[app.rank].node.0;
            let start = app.t_client_start;
            let op = app.rate_op.clone().unwrap_or_default();
            let tenant = app.tenant;
            let wait = chain.as_ref().and_then(|ch| {
                ch.hops()
                    .iter()
                    .rev()
                    .find(|h| matches!(h.kind, ReqStage::ClientCompute))
                    .and_then(|h| h.cause.map(|c| (h.wait_secs, c)))
            });
            self.trace_span(
                || format!("client-compute({op})"),
                "cpu",
                start,
                now,
                node,
                app_id.0,
                tenant,
                wait,
            );
        }
        if let Some(ch) = chain {
            self.telemetry
                .autopsies
                .push(super::autopsy::RequestAutopsy {
                    app: app_id.0,
                    rank: app.rank,
                    tenant: app.tenant,
                    op: app
                        .op
                        .clone()
                        .or_else(|| app.client_op.as_ref().map(|(op, _)| op.clone())),
                    bytes: app.total_bytes,
                    issued_at: app.issued_at,
                    completed_at: now,
                    hops: ch.into_hops(),
                });
            let node = self.ranks.states[app.rank].node.0;
            self.telemetry.rank_chains[app.rank].record_service(
                super::autopsy::RankSeg::Io(app_id.0),
                node,
                now,
            );
        }
        if self.cfg.data_plane {
            if let Some(result) = assemble_result(&mut app, &self.registry) {
                self.io.results.insert(app_id.0, result);
            }
        }

        let site = if app.any_migrated {
            ExecutionSite::Migrated
        } else if app.any_demoted || app.client_op.is_some() {
            ExecutionSite::Compute
        } else if app.any_active_completed {
            ExecutionSite::Storage
        } else {
            ExecutionSite::None
        };
        self.obs_inc("io_path", "app_ios_completed", obs::Label::None);
        self.obs_observe(
            "io_path",
            "app_latency_seconds",
            obs::Label::None,
            (now - app.issued_at).as_secs_f64(),
        );
        if let Some(t) = app.tenant {
            self.obs_inc("io_path", "app_ios_completed", obs::Label::Tenant(t));
            self.obs_observe(
                "io_path",
                "app_latency_seconds",
                obs::Label::Tenant(t),
                (now - app.issued_at).as_secs_f64(),
            );
        }
        self.telemetry.records.push(super::metrics::AppIoRecord {
            app: app_id.0,
            rank: app.rank,
            tenant: app.tenant,
            bytes: app.total_bytes,
            op: app
                .op
                .clone()
                .or_else(|| app.client_op.as_ref().map(|(op, _)| op.clone())),
            issued_at: app.issued_at,
            completed_at: now,
            site,
        });
        self.ranks.states[app.rank].pc += 1;
        sched.immediately(Ev::RankStep(app.rank));
    }

    /// How many bytes of a read must actually touch the disk, after the
    /// server's buffer cache (whole request still pays the per-request
    /// overhead via the disk submission).
    pub(super) fn cache_filter_read(&mut self, server: NodeId, id: RequestId, bytes: f64) -> f64 {
        if !self.io.caches.contains_key(&server) {
            return bytes;
        }
        let (fh, extents) = {
            let r = &self.io.reqs[&id];
            (r.fh, r.extents.clone())
        };
        let cache = self.io.caches.get_mut(&server).expect("cache");
        cache_miss_bytes(cache, fh, &extents, bytes)
    }
}
