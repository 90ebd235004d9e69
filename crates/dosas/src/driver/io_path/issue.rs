//! Request issue: one MPI-IO call becomes per-server request parts.

use super::types::{AppIo, AppIoId, FileSpan, IssueKind, Req, NO_PARAMS};
use crate::driver::{Driver, Ev};
use cluster::NodeId;
use pfs::{ReadPlan, RequestId};
use simkit::{Scheduler, SimTime};
use std::collections::BTreeMap;

impl<'w> Driver<'w> {
    /// Create an app I/O and its per-server parts, and launch the request
    /// messages toward their data servers. Reads register with the server
    /// runtime; writes are plain normal I/O — the paper's active path only
    /// reads.
    pub(in super::super) fn issue(
        &mut self,
        rank: usize,
        span: FileSpan<'_>,
        kind: IssueKind<'w>,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let FileSpan {
            path,
            offset,
            bytes,
        } = span;
        let fh = self.io.meta.lookup(path).expect("workload file exists");
        let file_meta = self.io.meta.stat(fh).expect("fresh handle");
        let plan = ReadPlan::new(file_meta, offset, bytes).expect("in-bounds access");
        let (active, client_op, is_write) = match kind {
            IssueKind::Read { active, client_op } => (active, client_op, false),
            IssueKind::Write => (None, None, true),
        };
        if !is_write {
            assert!(
                !plan.extents.is_empty(),
                "zero-byte reads are not meaningful workload steps"
            );
        }
        // PVFS issues one request per data server, covering all of that
        // server's stripes.
        let mut groups: BTreeMap<NodeId, Vec<(u64, u64)>> = BTreeMap::new();
        for extent in &plan.extents {
            groups
                .entry(extent.server)
                .or_default()
                .push((extent.offset, extent.len));
        }
        if self.cfg.data_plane && active.is_some() {
            assert_eq!(
                groups.len(),
                1,
                "data-plane active I/O supports single-server layouts only \
                 (striped active I/O runs in the timing plane; see DESIGN.md)"
            );
        }

        let app_id = AppIoId(self.io.next_app);
        self.io.next_app += 1;
        let client = self.ranks.states[rank].node;
        let (op_name, params) = match active {
            Some((op, p)) => (Some(op), p),
            None => (None, &NO_PARAMS),
        };

        self.io.apps.insert(
            app_id,
            AppIo {
                rank,
                tenant: self.ranks.tenant(rank),
                op: op_name,
                params,
                client_op,
                parts_pending: groups.len(),
                total_bytes: bytes as f64,
                issued_at: now,
                client_bytes: 0.0,
                rate_op: None,
                pieces: Vec::new(),
                any_active_completed: false,
                any_demoted: false,
                any_migrated: false,
                t_client_start: SimTime::ZERO,
                chain: None,
            },
        );

        for (part_index, (server, extents)) in groups.into_iter().enumerate() {
            let id = RequestId(self.io.next_req);
            self.io.next_req += 1;
            let total: u64 = extents.iter().map(|&(_, len)| len).sum();
            if !is_write {
                self.server
                    .runtimes
                    .get_mut(&server)
                    .expect("extent targets a storage node")
                    .track(id, op_name.cloned(), total as f64);
            }
            self.io.reqs.insert(
                id,
                Req {
                    app: app_id,
                    part_index,
                    client,
                    server,
                    bytes: total as f64,
                    is_write,
                    op: op_name,
                    fh,
                    cpu_task: None,
                    split: None,
                    processed_bytes: 0.0,
                    ship_state: None,
                    extents,
                    kernel: None,
                    data: None,
                    result: None,
                    t_arrive: SimTime::ZERO,
                    t_kernel_start: SimTime::ZERO,
                    t_flow_start: SimTime::ZERO,
                    chain: self
                        .cfg
                        .autopsy
                        .then(|| crate::driver::autopsy::ReqChain::start(now)),
                },
            );
            sched.after(self.cfg.cluster.net_latency, Ev::Arrive(id));
        }
    }
}
