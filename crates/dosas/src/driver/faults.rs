//! `faults` subsystem: deterministic fault-window application.
//!
//! At each fault-plan transition boundary the driver re-derives the
//! absolute degradation state (CPU capacity factors, per-node link
//! factors) and pushes it into the cluster resources, and turns disk-stall
//! windows into blocking zero-byte disk requests owned by
//! [`DiskWork::Stall`] in the [`server`](super::server) disk table. Probe
//! loss/delay and checkpoint-ship failures are *not* applied here — they
//! are point lookups on the plan at the moment the affected action
//! happens, in [`control`](super::control) and
//! [`io_path`](super::io_path). Handled events:
//! [`Ev::Fault`](super::Ev::Fault). The module keeps no state of its own.

use super::server::DiskWork;
use super::{Driver, Ev};
use cluster::NodeId;
use simkit::{Scheduler, SimSpan, SimTime};

impl Driver<'_> {
    /// Re-evaluate the fault plan at a window boundary and push the current
    /// degradation state into the cluster resources. Factors are applied
    /// absolutely (not incrementally), so overlapping windows compose and
    /// closing the last window restores exactly the base capacity. A node's
    /// fault state only changes at its own window boundaries, so only the
    /// nodes the plan lists for `now` are visited, in ascending id order
    /// (the order `schedule_cpu` sequences its events in); ids beyond the
    /// cluster are ignored.
    pub(super) fn apply_faults(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let plan = &self.cfg.fault_plan;
        if plan.is_empty() {
            return;
        }
        let active = plan.active_count(now);
        let nodes: Vec<usize> = plan
            .nodes_changing_at(now)
            .iter()
            .copied()
            .take_while(|&node| node < self.cluster.cpus.len())
            .collect();
        self.obs_inc("faults", "transitions", obs::Label::None);
        self.obs_add(
            "faults",
            "nodes_touched",
            obs::Label::None,
            nodes.len() as u64,
        );
        self.obs_event(now, obs::Severity::Info, "faults", None, || {
            format!("fault-plan transition: {active} window(s) active")
        });
        for &node in &nodes {
            let plan = &self.cfg.fault_plan;
            let (cpu_f, net_f, online) = (
                plan.cpu_factor(now, node),
                plan.net_factor(now, node),
                !plan.offline(now, node),
            );
            if (cpu_f - self.cluster.cpus[node].capacity_factor()).abs() > f64::EPSILON {
                self.cluster.cpus[node].set_capacity_factor(now, cpu_f);
                self.schedule_cpu(node, sched);
            }
            if (net_f - self.cluster.fabric.link_factor(NodeId(node))).abs() > f64::EPSILON {
                self.cluster
                    .fabric
                    .set_link_factor(now, NodeId(node), net_f);
            }
            // Membership is tracked separately from link factors so a
            // fault-degraded factor survives a leave/rejoin cycle.
            if online != self.cluster.fabric.node_online(NodeId(node)) {
                self.cluster
                    .fabric
                    .set_node_online(now, NodeId(node), online);
            }
        }
        // Disk stalls opening at exactly this boundary become blocking
        // zero-byte requests; `on_disk_tick` drops their completions.
        let window_end = now + SimSpan::from_nanos(1);
        for &node in &nodes {
            let server = NodeId(node);
            if !self.cluster.is_storage(server) {
                continue;
            }
            let stalls: Vec<SimSpan> = self
                .cfg
                .fault_plan
                .disk_stalls_starting(now, window_end, node)
                .map(|e| e.end - e.start)
                .collect();
            let ordinal = self.cluster.storage_ordinal(server);
            for duration in stalls {
                let rid = self.cluster.disks[ordinal].inject_stall(now, duration);
                self.server
                    .disk_work
                    .insert((ordinal, rid), DiskWork::Stall);
                self.schedule_disk(ordinal, sched);
            }
        }
        self.schedule_net(sched);
    }
}
