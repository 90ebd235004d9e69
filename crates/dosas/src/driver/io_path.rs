//! `io_path` subsystem: the data path of every byte.
//!
//! Owns the file-system face of the simulation (metadata + in-memory
//! store), the per-part request table, the app-I/O assembly state, and the
//! fabric's owner table ([`FlowWork`]) for transfers in flight. Covers
//! issue → stripe → arrive → deliver for reads, the client → server →
//! disk → ack write path, server buffer caches, and client-side result
//! assembly (data plane). Handled events: [`Ev::Arrive`](super::Ev::Arrive),
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
use super::server::{CpuWork, DiskWork};
use super::{Driver, Ev};
use crate::asc::{self, ClientAction};
use crate::runtime::ServiceMode;
use assembly::{assemble_result, cache_miss_bytes};
use cluster::{FlowId, NodeId};
use mpiio::file::ResultBuf;
use mpiio::status::ExecutionSite;
use pfs::{BlockCache, MemoryStore, MetadataServer, RequestId};
use simkit::{Scheduler, SimTime, Timer};
use std::collections::BTreeMap;

/// Wire-size estimate for a kernel checkpoint when the data plane is off
/// (with real kernels the actual [`kernels::KernelState::wire_size`] is
/// used).
const STATE_SIZE_ESTIMATE: f64 = 256.0;

/// What a fabric flow in flight carries.
#[derive(Debug, Clone, Copy)]
pub(super) enum FlowWork {
    /// A request's bytes: write payload, raw read data, or kernel result.
    Request(RequestId),
    /// A migrated shipment launched under a checkpoint-ship fault: it runs
    /// its course and is then lost (see `on_checkpoint_ship_failed`).
    Doomed(RequestId),
    /// A message of the running MPI collective.
    Collective,
}

/// I/O-path state embedded in [`Driver`].
pub(super) struct IoPath<'w> {
    pub(super) meta: MetadataServer,
    pub(super) store: MemoryStore,
    pub(super) reqs: BTreeMap<RequestId, Req<'w>>,
    pub(super) apps: BTreeMap<AppIoId, AppIo<'w>>,
    /// Owner of every fabric flow in flight.
    pub(super) flows: BTreeMap<FlowId, FlowWork>,
    /// Optional per-storage-node buffer caches (ClusterConfig knob).
    pub(super) caches: BTreeMap<NodeId, BlockCache>,
    pub(super) next_req: u64,
    pub(super) next_app: u64,
    /// Final kernel results per app I/O (data-plane runs only).
    pub(super) results: BTreeMap<u64, Vec<u8>>,
    /// The fabric's completion timer: the one pending `NetTick`.
    pub(super) net_timer: Timer,
    /// Per-rank policy rate caps, bytes/s (absent = uncapped). Written by
    /// the control subsystem's rate-cap directives; read at flow launch so
    /// every new request flow of a capped rank starts capped.
    pub(super) rank_caps: BTreeMap<usize, f64>,
    /// Rate-cap directives that changed a rank's cap (policy activity
    /// accounting, surfaced via `RunMetrics::policy`).
    pub(super) rate_caps_applied: u64,
}

impl Driver<'_> {
    /// Re-arm the fabric's completion timer after a fabric change.
    pub(super) fn schedule_net(&mut self, sched: &mut Scheduler<Ev>) {
        let next = self.cluster.fabric.next_completion();
        let epoch = self.cluster.fabric.epoch();
        self.io.net_timer.arm(sched, next, epoch, Ev::NetTick);
    }

    // ----- request pipeline -----

    pub(super) fn on_arrive(&mut self, id: RequestId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let (server, bytes, client, is_write) = {
            let r = &self.io.reqs[&id];
            (r.server, r.bytes, r.client, r.is_write)
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
        let runtime = self
            .server
            .runtimes
            .get_mut(&server)
            .expect("server runtime");
        if is_write {
            // Write path: data streams client → server first; the disk
            // write happens when the payload has fully arrived.
            runtime.on_write_arrival(now);
            self.launch_flow(id, client, server, bytes, now, sched);
            return;
        }
        runtime.on_arrival(now, id);
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
        self.io.flows.insert(flow, FlowWork::Request(id));
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
            self.io.flows.insert(flow, FlowWork::Doomed(id));
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

    pub(super) fn on_net_tick(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let armed = self.io.net_timer.fired();
        debug_assert_eq!(
            armed,
            self.cluster.fabric.epoch(),
            "fabric changed without re-arming its tick"
        );
        self.sample_bandwidth(now);
        let completions = self.cluster.fabric.take_completed(now);
        for c in completions {
            let work = self
                .io
                .flows
                .remove(&c.id)
                .expect("flow completion maps to work");
            let (id, doomed) = match work {
                FlowWork::Request(id) => (id, false),
                FlowWork::Doomed(id) => (id, true),
                FlowWork::Collective => {
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
            };
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
            if doomed {
                self.on_checkpoint_ship_failed(id, now, sched);
                continue;
            }
            if self.io.reqs[&id].is_write {
                // Payload arrived at the server: queue the disk write.
                let server = self.io.reqs[&id].server;
                let bytes = self.io.reqs[&id].bytes;
                let ordinal = self.cluster.storage_ordinal(server);
                let disk_id = self.cluster.disks[ordinal].submit_write(now, bytes);
                self.server
                    .disk_work
                    .insert((ordinal, disk_id), DiskWork::Request(id));
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

    pub(super) fn on_deliver(&mut self, id: RequestId, now: SimTime, sched: &mut Scheduler<Ev>) {
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
                .runtimes
                .get_mut(&server)
                .expect("server runtime")
                .on_write_acked(now);
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
            .on_delivered(now, id);

        let mut r = self.io.reqs.remove(&id).expect("req");
        let app_id = r.app;
        // The request record is the ASC's registration: the requested op,
        // its parameters (per app I/O) and the part's size.
        let io_bytes = r.bytes as u64;
        match mode {
            ServiceMode::Active => {
                let result = r.result.take().unwrap_or_default();
                let rb = ResultBuf::completed(result, r.fh, io_bytes);
                let action = asc::handle_result(io_bytes, rb);
                let app = self.io.apps.get_mut(&app_id).expect("app");
                app.any_active_completed = true;
                if let ClientAction::Deliver(bytes) = action {
                    if self.cfg.data_plane {
                        app.pieces.push((r.part_index, Piece::Ready(bytes)));
                    }
                }
            }
            ServiceMode::Normal | ServiceMode::Migrated => {
                if let Some(op) = r.op {
                    // Demoted or migrated active request: the ASC finishes it.
                    let state = r.ship_state.take();
                    let rb = ResultBuf::uncompleted(state, r.fh, r.processed_bytes.floor() as u64);
                    let action = asc::handle_result(io_bytes, rb);
                    let app = self.io.apps.get_mut(&app_id).expect("app");
                    match action {
                        ClientAction::FinishLocally {
                            remaining_bytes,
                            state,
                        } => {
                            app.client_bytes += remaining_bytes as f64;
                            app.rate_op = Some(op);
                            if mode == ServiceMode::Migrated {
                                app.any_migrated = true;
                            } else {
                                app.any_demoted = true;
                            }
                            // Only the data plane runs the client's kernel,
                            // so only it builds one (as `start_kernel` does
                            // on the storage side).
                            if self.cfg.data_plane {
                                let kernel = asc::client_kernel(
                                    &self.registry,
                                    op,
                                    app.params,
                                    state.as_ref(),
                                )
                                .expect("registered ops restore");
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
                        app.rate_op = app.client_op.map(|(op, _)| op);
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
                let op = app.rate_op.expect("client compute has an operation");
                let client_bytes = app.client_bytes;
                let rank = app.rank;
                app.t_client_start = now;
                let core_seconds = self.cpu_cost(client_bytes / self.cfg.rates.per_core(op));
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
            let op = app.rate_op.map_or("", |op| &**op);
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
                    op: app.op_name(),
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
            op: app.op_name(),
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
