//! `control` subsystem: the contention-control loop.
//!
//! Owns the pluggable [`ContentionPolicy`] (the paper's Contention
//! Estimator by default — see [`crate::policy`]), the per-server probe
//! supervisors (timeout / retry / fallback under probe faults), in-flight
//! delayed decision rounds, the driver-maintained policy telemetry, and
//! the online outbound-bandwidth estimate. Probes snapshot a server's
//! queue, the policy decides (the CE solves for the profit-maximising
//! active set, paper §III-C/D; competitors re-stripe or rate-cap), and the
//! resulting output drives the [`server`](super::server) runtime's demote /
//! interrupt actions plus the [`io_path`](super::io_path)'s per-rank rate
//! caps. Routed events: [`Ev::Probe`](super::Ev::Probe),
//! [`Ev::ProbeRetry`](super::Ev::ProbeRetry),
//! [`Ev::PolicyArrive`](super::Ev::PolicyArrive) — the periodic probe
//! cadence also re-arms itself here.

use super::autopsy::{ReqStage, WaitCause};
use super::{Driver, Ev, Subsystem};
use crate::estimator::{CeSupervisor, Policy, ProbeVerdict};
use crate::policy::{
    ContentionPolicy, PolicyInput, PolicyOutput, PolicyTelemetry, RateCap, ReqMeta,
};
use crate::runtime::{RuntimeAction, ServerStage};
use cluster::NodeId;
use pfs::{QueueSnapshot, RequestId, SnapshotRow};
use simkit::component::Component;
use simkit::{Scheduler, SimTime};
use std::collections::BTreeMap;

/// Control-loop state embedded in [`Driver`].
pub(super) struct Control {
    /// The contention-control policy; `None` outside DOSAS schemes. Taken
    /// out of the slot for the duration of a decision round so the round's
    /// input can borrow the rest of the driver.
    pub(super) policy: Option<Box<dyn ContentionPolicy>>,
    /// The policy's stable name (obs label; `"none"` outside DOSAS).
    pub(super) policy_name: &'static str,
    /// Per-storage-node probe supervision (timeout/retry/fallback).
    pub(super) supervisors: BTreeMap<NodeId, CeSupervisor>,
    /// Decision rounds generated by delayed probes, awaiting arrival.
    pub(super) pending_policies: BTreeMap<u64, (NodeId, PolicyOutput)>,
    pub(super) next_policy_token: u64,
    /// Online per-storage-node outbound bandwidth estimate (EWMA of
    /// saturated-link throughput samples); extension, see DosasConfig.
    pub(super) bw_estimate: BTreeMap<NodeId, (f64, u32)>,
    /// Passive telemetry policies may read (per-server latency EWMAs,
    /// per-tenant bytes). Maintained for every run — pure state folds on
    /// the delivery path, so it never perturbs scheme behavior.
    pub(super) telemetry: PolicyTelemetry,
}

/// Routed-event entry point for the subsystem.
pub(super) struct ControlComponent;

impl Component<Driver> for ControlComponent {
    const ROUTE: Subsystem = Subsystem::Control;
    const NAME: &'static str = "control";

    fn handle(world: &mut Driver, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Probe(server) => {
                world.handle_probe(server, now, true, sched);
                // The periodic cadence re-arms until the workload drains.
                if !world.all_ranks_done() {
                    if let Some(d) = &world.dosas {
                        sched.after(d.probe_period, Ev::Probe(server));
                    }
                }
            }
            Ev::ProbeRetry(server) => {
                if !world.all_ranks_done() {
                    world.handle_probe(server, now, true, sched);
                }
            }
            Ev::PolicyArrive(token) => world.on_policy_arrive(token, now, sched),
            _ => unreachable!("non-control event routed to control"),
        }
    }
}

impl Driver {
    // ----- DOSAS decision-making -----

    /// Probe the server, run one policy decision round, and execute its
    /// output (paper §III-C/D for the default CE policy).
    fn dosas_decide(&mut self, server: NodeId, now: SimTime, sched: &mut Scheduler<Ev>) {
        if let Some(out) = self.build_output(server, now) {
            self.apply_output(server, &out, now, sched);
        }
    }

    /// One CE probe of `server`, subject to the fault plan: the probe may be
    /// lost (supervisor decides retry vs fallback) or delayed (the policy is
    /// generated from the state *at send time* but applied only when it
    /// arrives, if still fresh). `allow_retry` is false for arrival-triggered
    /// decisions — the periodic probe loop owns the retry schedule.
    pub(super) fn handle_probe(
        &mut self,
        server: NodeId,
        now: SimTime,
        allow_retry: bool,
        sched: &mut Scheduler<Ev>,
    ) {
        if self.control.policy.is_none() {
            return;
        }
        if let Some(sup) = self.control.supervisors.get_mut(&server) {
            sup.on_probe_sent();
        }
        self.obs_inc("control", "probes_sent", obs::Label::Node(server.0));
        if self.cfg.fault_plan.probe_lost(now, server.0) {
            self.obs_inc("control", "probes_lost", obs::Label::Node(server.0));
            if let Some(sup) = self.control.supervisors.get_mut(&server) {
                // The loss is noticed `timeout` later; the verdict's delay
                // already accounts for that.
                match sup.on_probe_lost(now) {
                    ProbeVerdict::Retry { after } => {
                        if allow_retry {
                            sched.at(now + after, Ev::ProbeRetry(server));
                        }
                        self.obs_event(now, obs::Severity::Warn, "control", Some(server.0), || {
                            "probe lost; retry scheduled".to_string()
                        });
                    }
                    // Fallback: apply no policy — requests keep their
                    // requested (all-Active) service, the static degraded
                    // mode.
                    _ => {
                        self.obs_event(now, obs::Severity::Error, "control", Some(server.0), || {
                            "probe lost; CE entering fallback".to_string()
                        })
                    }
                }
            }
            return;
        }
        match self.cfg.fault_plan.probe_delay(now, server.0) {
            Some(delay) if !delay.is_zero() => {
                // Snapshot now; the policy travels for `delay` and may be
                // stale on arrival (checked in `Ev::PolicyArrive`).
                if let Some(out) = self.build_output(server, now) {
                    let token = self.control.next_policy_token;
                    self.control.next_policy_token += 1;
                    self.control.pending_policies.insert(token, (server, out));
                    sched.at(now + delay, Ev::PolicyArrive(token));
                    self.obs_inc("control", "probes_delayed", obs::Label::Node(server.0));
                }
            }
            _ => {
                if let Some(sup) = self.control.supervisors.get_mut(&server) {
                    sup.on_probe_success(now);
                }
                self.dosas_decide(server, now, sched);
            }
        }
    }

    /// A delayed policy reaches the runtime: apply it if still within the
    /// staleness bound, discard it (and maybe re-probe) otherwise.
    fn on_policy_arrive(&mut self, token: u64, now: SimTime, sched: &mut Scheduler<Ev>) {
        let Some((server, out)) = self.control.pending_policies.remove(&token) else {
            return;
        };
        let usable = self
            .control
            .supervisors
            .get(&server)
            .is_none_or(|s| s.policy_usable(out.generated_at, now));
        if usable {
            if let Some(sup) = self.control.supervisors.get_mut(&server) {
                sup.on_probe_success(now);
            }
            self.apply_output(server, &out, now, sched);
        } else {
            self.obs_inc("control", "policies_stale", obs::Label::Node(server.0));
            self.obs_event(now, obs::Severity::Warn, "control", Some(server.0), || {
                "stale delayed policy discarded".to_string()
            });
            if let Some(sup) = self.control.supervisors.get_mut(&server) {
                if let ProbeVerdict::Retry { after } = sup.on_stale_policy(now) {
                    sched.at(now + after, Ev::ProbeRetry(server));
                }
            }
        }
    }

    /// Run one decision round against the server's current queue state (the
    /// probe payload), without side effects on the simulated world. `None`
    /// when no contention policy is active (non-DOSAS schemes).
    fn build_output(&mut self, server: NodeId, now: SimTime) -> Option<PolicyOutput> {
        self.control.policy.as_ref()?;

        // Only requests that can still be re-planned: queued at disk or
        // running a kernel. Requests already shipping are beyond decision.
        let full = self.server.servers[&server].snapshot(now);
        let rt = &self.server.runtimes[&server];
        let rows: Vec<SnapshotRow> = full
            .requests
            .into_iter()
            .filter(|row| {
                matches!(
                    rt.stage(row.id),
                    Some(ServerStage::QueuedDisk | ServerStage::Running)
                )
            })
            .collect();
        // Rank/tenant identity per row (rows are live queued requests, so
        // their request and app records are always present).
        let meta: Vec<ReqMeta> = rows
            .iter()
            .map(|row| {
                let app = &self.io.apps[&self.io.reqs[&row.id].app];
                ReqMeta {
                    rank: app.rank,
                    tenant: app.tenant,
                }
            })
            .collect();
        let k = rows.iter().filter(|r| r.is_active()).count();
        let queue = QueueSnapshot {
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
        };
        let input = PolicyInput {
            server,
            now,
            queue: &queue,
            meta: &meta,
            bandwidth_estimate: self.bandwidth_estimate_for(server),
            telemetry: &self.control.telemetry,
        };
        // Take the policy out of its slot for the round so `input` may
        // borrow the driver; policies never re-enter the driver.
        let mut policy = self.control.policy.take().expect("checked above");
        let out = policy.decide(&input);
        self.control.policy = Some(policy);
        Some(out)
    }

    /// Execute one decision round's output: the offload/demotion policy
    /// against the server runtime, then any per-rank rate caps against the
    /// fabric.
    fn apply_output(
        &mut self,
        server: NodeId,
        out: &PolicyOutput,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        if let Some(policy) = &out.offload {
            self.apply_offload_policy(server, policy, now, sched);
        }
        self.apply_rate_caps(&out.rate_caps, now, sched);
    }

    /// Execute a generated offload policy: record planned fractions, log
    /// it, and drive the runtime's demote/interrupt actions.
    fn apply_offload_policy(
        &mut self,
        server: NodeId,
        policy: &Policy,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let dosas = self.dosas.clone().expect("policies only exist under dosas");
        // Record planned fractions on requests that have not started their
        // kernel yet (plans are re-tunable until the kernel launches).
        if dosas.partial_offload {
            for (&id, &p) in &policy.fractions {
                let still_plannable = matches!(
                    self.server.runtimes[&server].stage(id),
                    Some(ServerStage::InFlight | ServerStage::QueuedDisk)
                );
                if still_plannable {
                    if let Some(r) = self.io.reqs.get_mut(&id) {
                        r.split = Some(p);
                    }
                }
            }
        }
        if !policy.decisions.is_empty() {
            self.telemetry
                .policy_log
                .push(crate::driver::metrics::PolicyLogEntry {
                    time: now,
                    server: server.0,
                    k: policy.decisions.len(),
                    kept_active: policy.active_count(),
                    demoted: policy.normal_count(),
                    predicted_time: policy.predicted_time,
                });
            self.obs_inc("control", "policies_applied", obs::Label::Node(server.0));
            let pname = self.control.policy_name;
            self.obs_inc("control", "policies_applied", obs::Label::Policy(pname));
            let (k, kept, demoted) = (
                policy.decisions.len(),
                policy.active_count(),
                policy.normal_count(),
            );
            if demoted > 0 {
                self.obs_event(now, obs::Severity::Info, "control", Some(server.0), || {
                    format!("policy: k={k} kept_active={kept} demoted={demoted}")
                });
            }
        }

        let actions = self
            .server
            .runtimes
            .get_mut(&server)
            .expect("runtime")
            .apply_policy(policy, dosas.allow_interrupt);
        let pname = self.control.policy_name;
        for action in actions {
            match action {
                RuntimeAction::Demote(id) => {
                    self.obs_inc("control", "demotions", obs::Label::Policy(pname));
                    self.server
                        .servers
                        .get_mut(&server)
                        .expect("server")
                        .demote(now, id);
                }
                RuntimeAction::Interrupt(id) => {
                    self.obs_inc("control", "demotions", obs::Label::Policy(pname));
                    self.interrupt_kernel(id, now, sched)
                }
            }
        }
    }

    /// Apply per-rank rate-cap directives from a decision round: update the
    /// io_path's cap table (new flows pick caps up at launch) and re-cap
    /// the rank's request flows already in flight. Runs inside the control
    /// event that delivers the decision, in the run's one total event order,
    /// so replays stay byte-identical.
    fn apply_rate_caps(&mut self, caps: &[RateCap], now: SimTime, sched: &mut Scheduler<Ev>) {
        if caps.is_empty() {
            return;
        }
        let pname = self.control.policy_name;
        let mut affected: BTreeMap<usize, f64> = BTreeMap::new();
        for cap in caps {
            // The fabric rejects non-positive caps; floor directives at
            // 1 B/s so a policy emitting ~0 throttles instead of panicking.
            let rate = if cap.bytes_per_sec.is_finite() {
                cap.bytes_per_sec.max(1.0)
            } else {
                f64::INFINITY
            };
            let prev = if rate.is_finite() {
                self.io.rank_caps.insert(cap.rank, rate)
            } else {
                self.io.rank_caps.remove(&cap.rank)
            };
            let changed = match prev {
                Some(p) => p != rate,
                None => rate.is_finite(),
            };
            if changed {
                self.io.rate_caps_applied += 1;
                self.obs_inc("control", "rate_caps", obs::Label::Policy(pname));
            }
            // Last directive per rank wins within one round.
            affected.insert(cap.rank, rate);
        }
        // Re-target in-flight request flows of the affected ranks (the
        // collective's flows are not request flows and are never capped).
        let mut fabric_changed = false;
        for (&flow, &req) in &self.io.flow_req {
            let Some(r) = self.io.reqs.get(&req) else {
                continue;
            };
            let rank = self.io.apps[&r.app].rank;
            if let Some(&rate) = affected.get(&rank) {
                fabric_changed |= self.cluster.fabric.set_flow_cap(now, flow, rate);
            }
        }
        if fabric_changed {
            self.schedule_net(sched);
        }
    }

    /// Fold one delivered request into the policy telemetry: the server's
    /// latency EWMA, and (write acks excluded) nothing else — tenant bytes
    /// are folded at app completion in `finish_app`.
    pub(super) fn note_delivery_telemetry(&mut self, server: NodeId, latency_secs: f64) {
        self.control.telemetry.note_delivery(server.0, latency_secs);
    }

    /// Stop a running kernel: checkpoint its variables and ship the residual
    /// data plus state to the client (paper §III-C, "record and interrupt
    /// current active I/O being serviced").
    fn interrupt_kernel(&mut self, id: RequestId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let server = self.io.reqs[&id].server;
        self.obs_inc("control", "kernel_interrupts", obs::Label::Node(server.0));
        let task = self.io.reqs.get_mut(&id).expect("req").cpu_task.take();
        let Some(task) = task else {
            // FIFO mode: the kernel never launched — it is still in the
            // work queue. Remove it and ship the whole request (a fresh
            // demotion in migration clothing: zero progress, no state).
            self.server.slots.cancel_queued(server, id);
            // Autopsy: close the slot-queue hop — the kernel never ran, so
            // everything since disk completion is slot wait.
            let r = self.io.reqs.get_mut(&id).expect("req");
            r.kernel = None;
            if let Some(ch) = r.chain.as_mut() {
                ch.record(
                    ReqStage::KernelWait,
                    server.0,
                    now,
                    Some(WaitCause::KernelSlot),
                );
            }
            self.server
                .servers
                .get_mut(&server)
                .expect("server")
                .demote(now, id);
            self.start_data_flow(id, true, now, sched);
            return;
        };
        // Under fault-delayed policies the task may race to completion in
        // the same instant; treat a vanished task as fully processed rather
        // than panicking (the kernel's result simply ships as a migration
        // with zero residue).
        let progress = self.cluster.cpus[server.0]
            .interrupt(now, task)
            .map_or(1.0, |removed| removed.progress);
        self.server.cpu_work.remove(&(server.0, task));
        self.kernel_slot_freed(server, now, sched);
        self.schedule_cpu(server.0, sched);

        {
            let r = self.io.reqs.get_mut(&id).expect("req");
            r.processed_bytes = (progress * r.bytes).min(r.bytes);
            if self.cfg.data_plane {
                let mut kernel = r.kernel.take().expect("data-plane kernel");
                let cut = (r.processed_bytes.floor() as usize)
                    .min(r.data.as_ref().map(|d| d.len()).unwrap_or(0));
                r.processed_bytes = cut as f64;
                kernel.process_chunk(&r.data.as_ref().expect("data")[..cut]);
                r.ship_state = Some(kernel.checkpoint());
            }
        }
        // Autopsy: close the partial kernel hop at the interrupt point.
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
        self.server
            .servers
            .get_mut(&server)
            .expect("server")
            .demote(now, id);
        self.start_data_flow(id, true, now, sched);
    }

    // ----- bandwidth estimation (extension) -----

    /// Observe each storage node's aggregate outbound throughput whenever
    /// its transmit link is saturated (≥ 2 concurrent flows): that sum
    /// equals the link's true achievable bandwidth, which the nominal
    /// configuration only approximates (paper: 118 nominal, 111–120 real).
    pub(super) fn sample_bandwidth(&mut self, now: SimTime) {
        if !self.dosas.as_ref().is_some_and(|d| d.estimate_bandwidth) {
            return;
        }
        self.cluster.fabric.advance(now);
        let storage: Vec<NodeId> = self.cluster.storage_ids().collect();
        for server in storage {
            let (rate, flows) = self.cluster.fabric.tx_observation(server);
            if flows >= 2 {
                let entry = self.control.bw_estimate.entry(server).or_insert((rate, 0));
                const ALPHA: f64 = 0.3;
                entry.0 = ALPHA * rate + (1.0 - ALPHA) * entry.0;
                entry.1 += 1;
            }
        }
    }

    /// The CE's bandwidth input for `server`: the EWMA once it has enough
    /// samples (`ProbeConfig::min_bw_samples`), otherwise `None` (nominal).
    fn bandwidth_estimate_for(&self, server: NodeId) -> Option<f64> {
        let dosas = self.dosas.as_ref().filter(|d| d.estimate_bandwidth)?;
        let min = dosas.probe.min_bw_samples;
        self.control
            .bw_estimate
            .get(&server)
            .filter(|(_, n)| *n >= min)
            .map(|(bw, _)| *bw)
    }
}
