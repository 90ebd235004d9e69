//! `ranks` subsystem: rank-program stepping and MPI collectives.
//!
//! Owns the per-rank interpreter state (program counter, barrier flags,
//! finish times) and the one-at-a-time collective execution (Bcast/Reduce/
//! Allreduce/Gather over binomial-tree plans). Handled events:
//! [`Ev::RankStep`](super::Ev::RankStep). I/O ops delegate to the
//! [`io_path`](super::io_path) subsystem; `Op::Compute` charges the rank's
//! node CPU via the [`server`](super::server) subsystem's work map.

use super::autopsy::{RankSeg, WaitCause};
use super::io_path::{FileSpan, FlowWork, IssueKind};
use super::server::CpuWork;
use super::{Driver, Ev};
use cluster::NodeId;
use mpiio::program::{Op, RankProgram};
use simkit::{Scheduler, SimTime};

/// One rank's interpreter state. The program is borrowed from the workload
/// the driver runs, so a rank costs this struct and nothing more.
pub(super) struct RankState<'w> {
    pub(super) node: NodeId,
    pub(super) program: &'w RankProgram,
    pub(super) pc: usize,
    pub(super) finished: Option<SimTime>,
    pub(super) at_barrier: bool,
}

/// Which collective is being executed.
#[derive(Debug, Clone, Copy)]
pub(super) enum CollectiveKind {
    Bcast { root: usize },
    Reduce { root: usize },
    Allreduce,
    Gather { root: usize },
}

/// An executing collective: the binomial-tree plan plus round progress.
///
/// The round state machine is pure (no resource access) so it can be unit
/// tested in isolation: [`round_messages`](CollectiveRun::round_messages)
/// resolves the current round's cross-node transfers against a rank → node
/// placement, [`advance_round`](CollectiveRun::advance_round) commits the
/// number started, and [`on_flow_done`](CollectiveRun::on_flow_done) counts
/// completions until the round drains.
pub(super) struct CollectiveRun {
    plan: Vec<mpiio::comm::PlannedMessage>,
    pub(super) bytes: f64,
    round: u32,
    max_round: u32,
    inflight: usize,
}

impl CollectiveRun {
    pub(super) fn new(plan: Vec<mpiio::comm::PlannedMessage>, bytes: f64) -> Self {
        let max_round = plan.iter().map(|m| m.round).max().unwrap_or(0);
        CollectiveRun {
            plan,
            bytes,
            round: 0,
            max_round,
            inflight: 0,
        }
    }

    /// All rounds launched?
    pub(super) fn done(&self) -> bool {
        self.round > self.max_round
    }

    /// The current round's messages that actually cross nodes, resolved
    /// against the rank placement (same-node messages are shared-memory
    /// deliveries and cost nothing).
    pub(super) fn round_messages(&self, placement: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        self.plan
            .iter()
            .filter(|m| m.round == self.round)
            .map(|m| (placement[m.src_rank], placement[m.dst_rank]))
            .filter(|(src, dst)| src != dst)
            .collect()
    }

    /// Commit the current round: `started` cross-node flows are in flight.
    pub(super) fn advance_round(&mut self, started: usize) {
        self.inflight = started;
        self.round += 1;
    }

    /// One of the round's flows finished; returns true when the round has
    /// fully drained.
    pub(super) fn on_flow_done(&mut self) -> bool {
        self.inflight -= 1;
        self.inflight == 0
    }
}

/// Rank-subsystem state embedded in [`Driver`].
pub(super) struct Ranks<'w> {
    pub(super) states: Vec<RankState<'w>>,
    /// Tenant of each rank, borrowed from the workload (empty when it is
    /// untenanted); stamped onto every application I/O the rank issues.
    pub(super) tenants: &'w [usize],
    pub(super) barrier_count: usize,
    pub(super) finished: usize,
    /// Ranks waiting at a collective plus its execution state once all
    /// have arrived. One collective at a time (aligned programs, like the
    /// barrier).
    pub(super) collective: Option<CollectiveRun>,
    pub(super) collective_waiting: usize,
}

impl<'w> Ranks<'w> {
    /// Place one rank per core, round-robin over compute nodes (the
    /// paper's one-process-per-core placement; nodes were pre-expanded by
    /// [`Driver::new`]).
    pub(super) fn new(
        programs: &'w [RankProgram],
        tenants: &'w [usize],
        compute_nodes: usize,
    ) -> Self {
        assert!(
            tenants.is_empty() || tenants.len() == programs.len(),
            "tenant labels must be absent or cover every rank \
             ({} labels for {} programs)",
            tenants.len(),
            programs.len()
        );
        Ranks {
            states: programs
                .iter()
                .enumerate()
                .map(|(i, p)| RankState {
                    node: NodeId(i % compute_nodes),
                    program: p,
                    pc: 0,
                    finished: None,
                    at_barrier: false,
                })
                .collect(),
            tenants,
            barrier_count: 0,
            finished: 0,
            collective: None,
            collective_waiting: 0,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.states.len()
    }

    /// Tenant of `rank` (`None` in untenanted workloads).
    pub(super) fn tenant(&self, rank: usize) -> Option<usize> {
        self.tenants.get(rank).copied()
    }

    /// The rank → node placement for collective planning.
    pub(super) fn placement(&self) -> Vec<NodeId> {
        self.states.iter().map(|r| r.node).collect()
    }
}

impl<'w> Driver<'w> {
    pub(super) fn rank_step(&mut self, rank: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        let state = &self.ranks.states[rank];
        let program: &'w RankProgram = state.program;
        let Some(op) = program.ops.get(state.pc) else {
            if self.ranks.states[rank].finished.is_none() {
                self.ranks.states[rank].finished = Some(now);
                self.ranks.finished += 1;
                self.obs_inc("ranks", "finished", obs::Label::None);
                let (done, total) = (self.ranks.finished, self.ranks.len());
                self.obs_event(now, obs::Severity::Info, "ranks", None, || {
                    format!("rank {rank} finished ({done}/{total})")
                });
            }
            return;
        };
        match op {
            Op::Read {
                path,
                offset,
                count,
                datatype,
                client_op,
            } => {
                let bytes = datatype.transfer_size(*count);
                let kind = IssueKind::Read {
                    active: None,
                    client_op: client_op.as_ref().map(|(op, p)| (op, &**p)),
                };
                let span = FileSpan {
                    path,
                    offset: *offset,
                    bytes,
                };
                self.issue(rank, span, kind, now, sched);
            }
            Op::ReadEx {
                path,
                offset,
                count,
                datatype,
                operation,
                params,
            } => {
                let bytes = datatype.transfer_size(*count);
                // Scheme transform: under Traditional Storage the enhanced
                // call degrades to a plain read + client-side kernel.
                let kernel = Some((operation, &**params));
                let (active, client_op) = match &self.cfg.scheme {
                    crate::config::Scheme::Traditional => (None, kernel),
                    _ => (kernel, None),
                };
                let kind = IssueKind::Read { active, client_op };
                let span = FileSpan {
                    path,
                    offset: *offset,
                    bytes,
                };
                self.issue(rank, span, kind, now, sched);
            }
            Op::Write {
                path,
                offset,
                count,
                datatype,
            } => {
                let bytes = datatype.transfer_size(*count);
                let span = FileSpan {
                    path,
                    offset: *offset,
                    bytes,
                };
                self.issue(rank, span, IssueKind::Write, now, sched);
            }
            Op::Compute { span } => {
                let node = self.ranks.states[rank].node.0;
                if !self.telemetry.rank_chains.is_empty() {
                    // The op's nominal duration is the ideal; processor-
                    // sharing stretch beyond it is attributed at completion.
                    self.telemetry.rank_chains[rank].arm(span.as_secs_f64());
                }
                let task = self.cluster.cpus[node].submit(now, span.as_secs_f64());
                self.server
                    .cpu_work
                    .insert((node, task), CpuWork::RankCompute(rank));
                self.schedule_cpu(node, sched);
            }
            Op::Sleep { span } => {
                // Pure delay: no CPU submission, so processor-sharing load
                // cannot stretch it — open-loop arrival schedules survive
                // contention intact.
                let node = self.ranks.states[rank].node.0;
                if !self.telemetry.rank_chains.is_empty() {
                    let ch = &mut self.telemetry.rank_chains[rank];
                    ch.arm(span.as_secs_f64());
                    ch.record(RankSeg::Sleep, node, now + *span, None);
                }
                self.ranks.states[rank].pc += 1;
                sched.after(*span, Ev::RankStep(rank));
            }
            Op::Bcast { root, bytes } => {
                let kind = CollectiveKind::Bcast { root: *root };
                self.join_collective(rank, kind, *bytes, now, sched);
            }
            Op::Reduce { root, bytes } => {
                let kind = CollectiveKind::Reduce { root: *root };
                self.join_collective(rank, kind, *bytes, now, sched);
            }
            Op::Allreduce { bytes } => {
                self.join_collective(rank, CollectiveKind::Allreduce, *bytes, now, sched);
            }
            Op::Gather { root, bytes } => {
                let kind = CollectiveKind::Gather { root: *root };
                self.join_collective(rank, kind, *bytes, now, sched);
            }
            Op::Barrier => {
                self.ranks.states[rank].at_barrier = true;
                self.ranks.barrier_count += 1;
                if self.ranks.barrier_count == self.ranks.len() {
                    self.ranks.barrier_count = 0;
                    let rounds = (self.ranks.len() as f64).log2().ceil().max(1.0) as u32;
                    let delay = simkit::SimSpan::from_nanos(
                        self.cfg.cluster.net_latency.as_nanos() * rounds as u64,
                    );
                    if !self.telemetry.rank_chains.is_empty() {
                        // Each rank's hop spans arrival → release: straggler
                        // wait beyond the tree's signalling delay is barrier
                        // time.
                        for r in 0..self.ranks.len() {
                            let node = self.ranks.states[r].node.0;
                            let ch = &mut self.telemetry.rank_chains[r];
                            ch.arm(delay.as_secs_f64());
                            ch.record(
                                RankSeg::Barrier,
                                node,
                                now + delay,
                                Some(WaitCause::CollectiveBarrier),
                            );
                        }
                    }
                    for r in 0..self.ranks.len() {
                        self.ranks.states[r].at_barrier = false;
                        self.ranks.states[r].pc += 1;
                        sched.after(delay, Ev::RankStep(r));
                    }
                }
            }
        }
    }

    // ----- collectives (Bcast / Reduce over binomial trees) -----

    fn join_collective(
        &mut self,
        rank: usize,
        kind: CollectiveKind,
        bytes: u64,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        self.ranks.states[rank].at_barrier = true;
        self.ranks.collective_waiting += 1;
        if self.ranks.collective_waiting < self.ranks.len() {
            return;
        }
        // Everyone arrived: build the tree plan over current placements.
        self.ranks.collective_waiting = 0;
        let comm = mpiio::Communicator::new(self.ranks.placement());
        let plan = match kind {
            CollectiveKind::Bcast { root } => comm.bcast_plan(root),
            CollectiveKind::Reduce { root } => comm.reduce_plan(root),
            CollectiveKind::Allreduce => comm.allreduce_plan(0),
            CollectiveKind::Gather { root } => comm.gather_plan(root),
        };
        self.ranks.collective = Some(CollectiveRun::new(plan, bytes as f64));
        self.launch_collective_round(now, sched);
    }

    /// Start every message of the current round; same-node messages are
    /// free. An empty round (all intra-node) advances immediately.
    pub(super) fn launch_collective_round(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        loop {
            let Some(run) = &self.ranks.collective else {
                return;
            };
            if run.done() {
                break;
            }
            let bytes = run.bytes;
            let msgs = run.round_messages(&self.ranks.placement());
            let mut started = 0;
            for (src, dst) in msgs {
                let flow = self.cluster.fabric.start_flow(now, src, dst, bytes);
                self.io.flows.insert(flow, FlowWork::Collective);
                started += 1;
            }
            let run = self.ranks.collective.as_mut().expect("collective running");
            run.advance_round(started);
            if started > 0 {
                self.schedule_net(sched);
                return;
            }
            // All messages were intra-node; fall through to the next round.
            if run.done() {
                break;
            }
        }
        self.finish_collective(now, sched);
    }

    pub(super) fn finish_collective(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        self.ranks.collective = None;
        let delay = self.cfg.cluster.net_latency;
        if !self.telemetry.rank_chains.is_empty() {
            // Arrival → release: tree transfers and straggler wait beyond
            // the final delivery latency count as collective time.
            for r in 0..self.ranks.len() {
                let node = self.ranks.states[r].node.0;
                let ch = &mut self.telemetry.rank_chains[r];
                ch.arm(delay.as_secs_f64());
                ch.record(
                    RankSeg::Collective,
                    node,
                    now + delay,
                    Some(WaitCause::CollectiveBarrier),
                );
            }
        }
        for r in 0..self.ranks.len() {
            self.ranks.states[r].at_barrier = false;
            self.ranks.states[r].pc += 1;
            sched.at(now + delay, Ev::RankStep(r));
        }
    }

    pub(super) fn all_ranks_done(&self) -> bool {
        self.ranks.finished == self.ranks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiio::Communicator;

    fn nodes(ids: &[usize]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    /// Four ranks on four nodes: a bcast tree needs two rounds, every
    /// message crosses nodes, and the run reports done only after both
    /// rounds drain.
    #[test]
    fn collective_round_machine_spreads_over_rounds() {
        let placement = nodes(&[0, 1, 2, 3]);
        let plan = Communicator::new(placement.clone()).bcast_plan(0);
        let mut run = CollectiveRun::new(plan, 1024.0);

        let round0 = run.round_messages(&placement);
        assert_eq!(round0.len(), 1, "root sends to one peer in round 0");
        run.advance_round(round0.len());
        assert!(!run.done());
        assert!(run.on_flow_done(), "single flow drains the round");

        let round1 = run.round_messages(&placement);
        assert_eq!(round1.len(), 2, "two senders in round 1");
        run.advance_round(round1.len());
        assert!(run.done(), "all rounds launched");
        assert!(!run.on_flow_done());
        assert!(run.on_flow_done(), "round drains after both flows");
    }

    /// Co-located ranks exchange through shared memory: their messages are
    /// filtered out, and a fully intra-node round starts zero flows.
    #[test]
    fn intra_node_messages_are_free() {
        // All four ranks on one node: every round is empty.
        let placement = nodes(&[5, 5, 5, 5]);
        let plan = Communicator::new(placement.clone()).bcast_plan(0);
        let mut run = CollectiveRun::new(plan, 64.0);
        while !run.done() {
            assert!(run.round_messages(&placement).is_empty());
            run.advance_round(0);
        }
    }

    /// An empty plan (single rank) is immediately done after one advance.
    #[test]
    fn single_rank_collective_is_trivial() {
        let placement = nodes(&[0]);
        let plan = Communicator::new(placement.clone()).bcast_plan(0);
        let mut run = CollectiveRun::new(plan, 8.0);
        assert!(run.round_messages(&placement).is_empty());
        run.advance_round(0);
        assert!(run.done());
    }

    #[test]
    fn placement_follows_round_robin() {
        let programs = vec![RankProgram { ops: vec![] }; 5];
        let ranks = Ranks::new(&programs, &[], 2);
        assert_eq!(
            ranks.placement(),
            nodes(&[0, 1, 0, 1, 0]),
            "one rank per core, round-robin over compute nodes"
        );
        assert_eq!(ranks.len(), 5);
    }
}
