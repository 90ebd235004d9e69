//! `server` subsystem: storage-node service — disks, kernels, CPU ticks.
//!
//! Owns the per-node [`ActiveIoRuntime`] tables (each server's request
//! queue, its depth statistic and counters), the disk and CPU owner tables,
//! and the FIFO kernel slot accounting ([`KernelSlots`]). Drives a request
//! from disk completion into either a storage-side kernel (active service)
//! or a data flow back to the client (normal/migrated service). Handled
//! events: [`Ev::DiskTick`](super::Ev::DiskTick),
//! [`Ev::CpuTick`](super::Ev::CpuTick).
//!
//! Disk completions are demultiplexed through [`DiskWork`]: request reads
//! and writes continue here, injected fault stalls are dropped. CPU
//! completions are demultiplexed through [`CpuWork`]: storage kernels
//! finish here, client-side completion compute hands back to
//! [`io_path`](super::io_path), rank compute hands back to
//! [`ranks`](super::ranks).

use super::autopsy::{RankSeg, ReqStage, WaitCause};
use super::io_path::AppIoId;
use super::{Driver, Ev};
use crate::runtime::{ActiveIoRuntime, ServiceMode};
use cluster::NodeId;
use kernels::calibrate::synthetic_f64_stream;
use pfs::RequestId;
use simkit::fifo::ReqId as DiskReqId;
use simkit::{Scheduler, SimTime, TaskId, Timer};
use std::collections::{BTreeMap, VecDeque};

/// What a completed disk request was doing.
#[derive(Debug)]
pub(super) enum DiskWork {
    /// A request's read, or a write whose payload has arrived.
    Request(RequestId),
    /// A fault plan's disk stall: a blocking zero-byte request.
    Stall,
}

/// What a completed CPU task was doing.
#[derive(Debug)]
pub(super) enum CpuWork {
    /// Storage-side kernel for a request.
    Kernel(RequestId),
    /// Client-side completion compute for an app I/O.
    ClientCompute(AppIoId),
    /// A rank's `Op::Compute`.
    RankCompute(usize),
}

/// FIFO kernel admission per storage node (on under
/// `DosasConfig::partial_offload`).
///
/// With FIFO off every kernel starts immediately and shares the CPU; with
/// FIFO on at most `cores` kernels run per node and the rest wait in
/// arrival order. Pure accounting — the caller starts/interrupts the
/// actual CPU tasks — so the slot discipline is unit-testable on its own.
pub(super) struct KernelSlots {
    fifo: bool,
    queue: BTreeMap<NodeId, VecDeque<RequestId>>,
    running: BTreeMap<NodeId, usize>,
}

impl KernelSlots {
    pub(super) fn new(fifo: bool) -> Self {
        KernelSlots {
            fifo,
            queue: BTreeMap::new(),
            running: BTreeMap::new(),
        }
    }

    /// Admit a kernel on `server`: returns true when it may start now,
    /// false when it was queued behind `cores` running kernels.
    pub(super) fn admit(&mut self, server: NodeId, id: RequestId, cores: usize) -> bool {
        if !self.fifo {
            return true;
        }
        let running = self.running.entry(server).or_insert(0);
        if *running >= cores {
            self.queue.entry(server).or_default().push_back(id);
            false
        } else {
            *running += 1;
            true
        }
    }

    /// A running kernel finished or was interrupted: release its slot and
    /// hand out the next queued kernel (its slot already claimed), if any.
    pub(super) fn free(&mut self, server: NodeId) -> Option<RequestId> {
        if !self.fifo {
            return None;
        }
        let running = self.running.entry(server).or_insert(0);
        *running = running.saturating_sub(1);
        let next = self.queue.entry(server).or_default().pop_front();
        if next.is_some() {
            *self.running.entry(server).or_insert(0) += 1;
        }
        next
    }

    /// Drop a kernel that never started from the wait queue. Its slot was
    /// never claimed, so the running count is untouched.
    pub(super) fn cancel_queued(&mut self, server: NodeId, id: RequestId) {
        if let Some(q) = self.queue.get_mut(&server) {
            q.retain(|&qid| qid != id);
        }
    }
}

/// Storage-service state embedded in [`Driver`].
pub(super) struct Servers {
    /// One request table per storage node.
    pub(super) runtimes: BTreeMap<NodeId, ActiveIoRuntime>,
    /// Owner of every queued disk request, by (storage ordinal, disk id).
    pub(super) disk_work: BTreeMap<(usize, DiskReqId), DiskWork>,
    /// Owner of every running CPU task, by (node, task).
    pub(super) cpu_work: BTreeMap<(usize, TaskId), CpuWork>,
    pub(super) slots: KernelSlots,
    /// Completion timers: one per disk (by storage ordinal), one per CPU
    /// (by node).
    pub(super) disk_timers: Vec<Timer>,
    pub(super) cpu_timers: Vec<Timer>,
}

impl Driver<'_> {
    // ----- resource timers: re-armed after every change -----

    pub(super) fn schedule_disk(&mut self, ordinal: usize, sched: &mut Scheduler<Ev>) {
        let next = self.cluster.disks[ordinal].next_event();
        let epoch = self.cluster.disks[ordinal].epoch();
        self.server.disk_timers[ordinal].arm(sched, next, epoch, Ev::DiskTick(ordinal));
    }

    pub(super) fn schedule_cpu(&mut self, node: usize, sched: &mut Scheduler<Ev>) {
        let next = self.cluster.cpus[node].next_completion();
        let epoch = self.cluster.cpus[node].epoch();
        self.server.cpu_timers[node].arm(sched, next, epoch, Ev::CpuTick(node));
    }

    /// Queue a request's read at its server's disk, cache-filtered, and
    /// index the disk completion — the one way a read (or re-read after a
    /// failed checkpoint ship) reaches the platter.
    pub(super) fn submit_disk_read(
        &mut self,
        server: NodeId,
        id: RequestId,
        bytes: f64,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let ordinal = self.cluster.storage_ordinal(server);
        self.obs_inc("server", "disk_reads_submitted", obs::Label::Node(server.0));
        let disk_bytes = self.cache_filter_read(server, id, bytes);
        let disk_id = self.cluster.disks[ordinal].submit_read(now, disk_bytes);
        self.server
            .disk_work
            .insert((ordinal, disk_id), DiskWork::Request(id));
        // Autopsy: the solo service time for the bytes that actually hit
        // the platter is this hop's ideal; queueing beyond it is wait.
        let ideal = self.cluster.disks[ordinal]
            .service_time(disk_bytes)
            .as_secs_f64();
        if let Some(ch) = self.io.reqs.get_mut(&id).expect("req").chain.as_mut() {
            ch.arm(ideal);
        }
        self.schedule_disk(ordinal, sched);
    }

    pub(super) fn on_disk_tick(&mut self, ordinal: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        let armed = self.server.disk_timers[ordinal].fired();
        debug_assert_eq!(
            armed,
            self.cluster.disks[ordinal].epoch(),
            "disk {ordinal} changed without re-arming its tick"
        );
        for c in self.cluster.disks[ordinal].take_completed(now) {
            let work = self
                .server
                .disk_work
                .remove(&(ordinal, c.id))
                .expect("disk completion maps to work");
            match work {
                DiskWork::Request(id) => self.on_disk_done(id, now, sched),
                DiskWork::Stall => {} // injected stall draining
            }
        }
        self.schedule_disk(ordinal, sched);
    }

    fn on_disk_done(&mut self, id: RequestId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let server = self.io.reqs[&id].server;
        // Autopsy: close the disk hop — queueing (or a fault stall) beyond
        // the armed solo service time is this hop's wait.
        if self.io.reqs[&id].chain.is_some() {
            let start = self.io.reqs[&id].chain.as_ref().expect("checked").cursor();
            let cause = self.autopsy_cause_disk(server.0, start, now);
            self.io
                .reqs
                .get_mut(&id)
                .expect("req")
                .chain
                .as_mut()
                .expect("checked")
                .record(ReqStage::Disk, server.0, now, Some(cause));
        }
        if self.io.reqs[&id].is_write {
            // Disk write finished: invalidate cached blocks, persist the
            // payload (data plane) and return the ack.
            if self.io.caches.contains_key(&server) {
                let (fh, extents) = {
                    let r = &self.io.reqs[&id];
                    (r.fh, r.extents.clone())
                };
                let cache = self.io.caches.get_mut(&server).expect("cache");
                for (offset, len) in extents {
                    cache.invalidate(fh, offset, len);
                }
            }
            if self.cfg.data_plane {
                let (fh, extents, size) = {
                    let r = &self.io.reqs[&id];
                    let size = self.io.meta.stat(r.fh).expect("file exists").size;
                    (r.fh, r.extents.clone(), size)
                };
                // Writers produce a deterministic stream so that a reader
                // in the same run observes well-defined content.
                let payload = synthetic_f64_stream(size as usize);
                for (offset, len) in extents {
                    self.io.store.write_at(
                        fh,
                        offset,
                        &payload[offset as usize..(offset + len) as usize],
                    );
                }
            }
            sched.after(self.cfg.cluster.net_latency, Ev::Deliver(id));
            return;
        }
        if self.cfg.data_plane {
            let (fh, extents) = {
                let r = &self.io.reqs[&id];
                (r.fh, r.extents.clone())
            };
            let mut data = Vec::new();
            for (offset, len) in extents {
                data.extend_from_slice(
                    self.io
                        .store
                        .read_at(fh, offset, len)
                        .expect("data-plane file content present"),
                );
            }
            self.io.reqs.get_mut(&id).expect("req").data = Some(data);
        }
        {
            let (arrived, track, tenant, wait) = {
                let r = &self.io.reqs[&id];
                let wait = r.chain.as_ref().and_then(|ch| {
                    ch.hops()
                        .iter()
                        .rev()
                        .find(|h| matches!(h.kind, ReqStage::Disk))
                        .and_then(|h| h.cause.map(|c| (h.wait_secs, c)))
                });
                (r.t_arrive, r.app.0, self.io.apps[&r.app].tenant, wait)
            };
            self.trace_span(
                || "queue+disk".into(),
                "disk",
                arrived,
                now,
                server.0,
                track,
                tenant,
                wait,
            );
            self.obs_inc("server", "disk_reads_done", obs::Label::Node(server.0));
        }
        let mode = self
            .server
            .runtimes
            .get_mut(&server)
            .expect("server runtime")
            .on_disk_done(id);
        match mode {
            ServiceMode::Active => {
                let cores = self.cluster.cpus[server.0].cores();
                if self.server.slots.admit(server, id, cores) {
                    self.start_kernel(id, now, sched);
                }
            }
            ServiceMode::Normal | ServiceMode::Migrated => {
                self.start_data_flow(id, mode == ServiceMode::Migrated, now, sched);
            }
        }
    }

    /// Launch a request's kernel on its storage node's CPU.
    fn start_kernel(&mut self, id: RequestId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let (server, op, bytes, split) = {
            let r = &self.io.reqs[&id];
            (
                r.server,
                r.op.expect("active request has op"),
                r.bytes,
                r.split.unwrap_or(1.0),
            )
        };
        let core_seconds = self.cpu_cost(split * bytes / self.cfg.rates.per_core(op));
        self.obs_inc("server", "kernels_started", obs::Label::Node(server.0));
        let task = self.cluster.cpus[server.0].submit(now, core_seconds);
        self.server
            .cpu_work
            .insert((server.0, task), CpuWork::Kernel(id));
        let params = self.io.apps[&self.io.reqs[&id].app].params;
        let r = self.io.reqs.get_mut(&id).expect("req");
        r.cpu_task = Some(task);
        r.t_kernel_start = now;
        if let Some(ch) = r.chain.as_mut() {
            // Time between disk completion and this start is FIFO slot
            // queueing (dropped when the kernel was admitted immediately);
            // arm the solo compute cost for the kernel hop that follows.
            ch.record(
                ReqStage::KernelWait,
                server.0,
                now,
                Some(WaitCause::KernelSlot),
            );
            ch.arm(core_seconds);
        }
        if self.cfg.data_plane {
            r.kernel = Some(
                self.registry
                    .create(op, params)
                    .expect("registered op constructs"),
            );
        }
        self.schedule_cpu(server.0, sched);
    }

    /// A kernel slot freed on `server`: start the next queued kernel.
    pub(super) fn kernel_slot_freed(
        &mut self,
        server: NodeId,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        if let Some(next) = self.server.slots.free(server) {
            self.start_kernel(next, now, sched);
        }
    }

    pub(super) fn on_cpu_tick(&mut self, node: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        let armed = self.server.cpu_timers[node].fired();
        debug_assert_eq!(
            armed,
            self.cluster.cpus[node].epoch(),
            "CPU {node} changed without re-arming its tick"
        );
        for task in self.cluster.cpus[node].take_completed(now) {
            let work = self
                .server
                .cpu_work
                .remove(&(node, task))
                .expect("cpu completion maps to work");
            match work {
                CpuWork::Kernel(id) => self.on_kernel_done(id, now, sched),
                CpuWork::ClientCompute(app) => self.finish_app(app, now, sched),
                CpuWork::RankCompute(rank) => {
                    if !self.telemetry.rank_chains.is_empty() {
                        let start = self.telemetry.rank_chains[rank].cursor();
                        let cause = self.autopsy_cause_cpu(node, start, now);
                        self.telemetry.rank_chains[rank].record(
                            RankSeg::Compute,
                            node,
                            now,
                            Some(cause),
                        );
                    }
                    self.ranks.states[rank].pc += 1;
                    sched.immediately(Ev::RankStep(rank));
                }
            }
        }
        self.schedule_cpu(node, sched);
    }

    fn on_kernel_done(&mut self, id: RequestId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let server = self.io.reqs[&id].server;
        // Autopsy: close the kernel hop — processor-sharing stretch (or a
        // CPU fault) beyond the armed solo compute cost is wait.
        if self.io.reqs[&id].chain.is_some() {
            let start = self.io.reqs[&id].chain.as_ref().expect("checked").cursor();
            let cause = self.autopsy_cause_cpu(server.0, start, now);
            self.io
                .reqs
                .get_mut(&id)
                .expect("req")
                .chain
                .as_mut()
                .expect("checked")
                .record(ReqStage::Kernel, server.0, now, Some(cause));
        }
        {
            let (op, start, track, tenant, wait) = {
                let r = &self.io.reqs[&id];
                let wait = r.chain.as_ref().and_then(|ch| {
                    ch.hops()
                        .iter()
                        .rev()
                        .find(|h| matches!(h.kind, ReqStage::Kernel))
                        .and_then(|h| h.cause.map(|c| (h.wait_secs, c)))
                });
                (
                    r.op.map_or("", |op| &**op),
                    r.t_kernel_start,
                    r.app.0,
                    self.io.apps[&r.app].tenant,
                    wait,
                )
            };
            self.trace_span(
                || format!("kernel({op})"),
                "kernel",
                start,
                now,
                server.0,
                track,
                tenant,
                wait,
            );
            self.obs_observe(
                "server",
                "kernel_seconds",
                obs::Label::Node(server.0),
                (now - start).as_secs_f64(),
            );
        }
        self.obs_inc("server", "kernels_done", obs::Label::Node(server.0));
        self.kernel_slot_freed(server, now, sched);
        // Planned partial offload: the kernel was submitted with only its
        // storage-side fraction of the work; at this point it checkpoints
        // and the residue migrates to the client.
        let split = self.io.reqs[&id].split.unwrap_or(1.0);
        if split < 1.0 - 1e-12 {
            self.server
                .runtimes
                .get_mut(&server)
                .expect("server runtime")
                .on_kernel_split(id);
            {
                let r = self.io.reqs.get_mut(&id).expect("req");
                r.cpu_task = None;
                r.processed_bytes = split * r.bytes;
                if self.cfg.data_plane {
                    let mut kernel = r.kernel.take().expect("data-plane kernel");
                    let cut = (r.processed_bytes.floor() as usize)
                        .min(r.data.as_ref().map(|d| d.len()).unwrap_or(0));
                    r.processed_bytes = cut as f64;
                    kernel.process_chunk(&r.data.as_ref().expect("data")[..cut]);
                    r.ship_state = Some(kernel.checkpoint());
                }
            }
            self.start_data_flow(id, true, now, sched);
            return;
        }
        self.server
            .runtimes
            .get_mut(&server)
            .expect("server runtime")
            .on_kernel_done(id);
        let (op, bytes) = {
            let r = self.io.reqs.get_mut(&id).expect("req");
            r.cpu_task = None;
            r.processed_bytes = r.bytes;
            (r.op.expect("kernel has op"), r.bytes)
        };
        if self.cfg.data_plane {
            let r = self.io.reqs.get_mut(&id).expect("req");
            let mut kernel = r.kernel.take().expect("data-plane kernel");
            let data = r.data.as_deref().expect("data-plane bytes");
            kernel.process_chunk(data);
            r.result = Some(kernel.finalize());
        }
        let result_bytes = self.cfg.rates.result_model(op).bytes(bytes);
        let dst = self.io.reqs[&id].client;
        self.launch_flow(id, server, dst, result_bytes, now, sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }
    fn r(i: u64) -> RequestId {
        RequestId(i)
    }

    /// With FIFO off, everything starts immediately and frees are no-ops —
    /// kernels processor-share the node instead of queueing.
    #[test]
    fn shared_mode_admits_everything() {
        let mut slots = KernelSlots::new(false);
        for i in 0..8 {
            assert!(slots.admit(n(0), r(i), 2));
        }
        assert_eq!(slots.free(n(0)), None);
    }

    /// FIFO mode runs at most `cores` kernels; the rest start in arrival
    /// order as slots free up.
    #[test]
    fn fifo_mode_caps_running_and_releases_in_order() {
        let mut slots = KernelSlots::new(true);
        assert!(slots.admit(n(3), r(10), 2));
        assert!(slots.admit(n(3), r(11), 2));
        assert!(!slots.admit(n(3), r(12), 2), "third kernel waits");
        assert!(!slots.admit(n(3), r(13), 2));

        assert_eq!(slots.free(n(3)), Some(r(12)), "oldest waiter first");
        assert_eq!(slots.free(n(3)), Some(r(13)));
        assert_eq!(slots.free(n(3)), None, "queue drained");
        assert_eq!(slots.free(n(3)), None);
        // Both slots are open again.
        assert!(slots.admit(n(3), r(14), 2));
        assert!(slots.admit(n(3), r(15), 2));
        assert!(!slots.admit(n(3), r(16), 2));
    }

    /// Nodes are independent: saturating one does not queue another.
    #[test]
    fn slots_are_per_node() {
        let mut slots = KernelSlots::new(true);
        assert!(slots.admit(n(0), r(1), 1));
        assert!(!slots.admit(n(0), r(2), 1));
        assert!(slots.admit(n(1), r(3), 1), "other node has its own slot");
    }

    /// Cancelling a queued kernel removes it without releasing a slot:
    /// interrupting never-started work must not over-free capacity.
    #[test]
    fn cancel_queued_does_not_free_a_slot() {
        let mut slots = KernelSlots::new(true);
        assert!(slots.admit(n(0), r(1), 1));
        assert!(!slots.admit(n(0), r(2), 1));
        assert!(!slots.admit(n(0), r(3), 1));
        slots.cancel_queued(n(0), r(2));
        assert!(
            !slots.admit(n(0), r(4), 1),
            "the running kernel still holds the only slot"
        );
        assert_eq!(slots.free(n(0)), Some(r(3)), "cancelled kernel skipped");
        assert_eq!(slots.free(n(0)), Some(r(4)));
        assert_eq!(slots.free(n(0)), None);
    }
}
