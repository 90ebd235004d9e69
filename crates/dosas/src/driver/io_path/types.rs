//! Request and app-I/O data structures of the I/O path.
//!
//! Plain state shared by the [`io_path`](super) handlers and the
//! subsystems that service requests ([`server`](super::super::server),
//! [`control`](super::super::control)): one [`Req`] per data server part,
//! one [`AppIo`] per application-level read/write awaiting its parts. Both
//! borrow the op name and kernel parameters from the workload the driver
//! runs (lifetime `'w`) instead of copying them per request; what outlives
//! the request (R's row, the record, the autopsy) clones the workload's
//! shared op name, not its text.

use cluster::NodeId;
use kernels::{Kernel, KernelParams, KernelState};
use pfs::FileHandle;
use simkit::{SimTime, TaskId};
use std::sync::Arc;

/// The parameters of an app I/O that requests no server-side kernel.
pub(in super::super) static NO_PARAMS: KernelParams = KernelParams {
    width: None,
    pattern: None,
    centroids: None,
    full_output: false,
};

/// Application-level I/O identifier (one MPI-IO call; 1..n [`Req`] parts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(in super::super) struct AppIoId(pub(in super::super) u64);

/// Per-part (per data server) request state.
pub(in super::super) struct Req<'w> {
    pub(in super::super) app: AppIoId,
    pub(in super::super) part_index: usize,
    pub(in super::super) client: NodeId,
    pub(in super::super) server: NodeId,
    pub(in super::super) bytes: f64,
    /// This request writes data instead of reading it.
    pub(in super::super) is_write: bool,
    /// Active operation, `None` for plain reads.
    pub(in super::super) op: Option<&'w Arc<str>>,
    pub(in super::super) fh: FileHandle,
    pub(in super::super) cpu_task: Option<TaskId>,
    /// Planned partial-offload fraction (extension); `None` = run fully.
    pub(in super::super) split: Option<f64>,
    /// Bytes the storage-side kernel finished before completion/interrupt.
    pub(in super::super) processed_bytes: f64,
    pub(in super::super) ship_state: Option<KernelState>,
    /// The file extents this server holds for the request, `(offset, len)`
    /// in file order (PVFS issues one request per server covering all of
    /// its stripes).
    pub(in super::super) extents: Vec<(u64, u64)>,
    // Data plane:
    pub(in super::super) kernel: Option<Box<dyn Kernel>>,
    pub(in super::super) data: Option<Vec<u8>>,
    pub(in super::super) result: Option<Vec<u8>>,
    // Stage stamps, set on every run: they time the trace spans, and
    // `t_arrive` also feeds the per-server latency telemetry at delivery.
    pub(in super::super) t_arrive: SimTime,
    pub(in super::super) t_kernel_start: SimTime,
    pub(in super::super) t_flow_start: SimTime,
    /// Causal span chain from issue to delivery (`cfg.autopsy` only).
    pub(in super::super) chain: Option<crate::driver::autopsy::ReqChain>,
}

/// Piece of an app I/O awaiting client-side assembly (data plane).
pub(in super::super) enum Piece {
    /// Completed server-side result.
    Ready(Vec<u8>),
    /// Kernel (fresh or restored) plus the unprocessed data tail.
    Finish(Box<dyn Kernel>, Vec<u8>),
    /// Raw extents of a plain read, `(file offset, bytes)`.
    Raw(Vec<(u64, Vec<u8>)>),
}

/// One application-level I/O, assembled from its per-server parts.
pub(in super::super) struct AppIo<'w> {
    pub(in super::super) rank: usize,
    /// Issuing rank's tenant (`None` in untenanted workloads).
    pub(in super::super) tenant: Option<usize>,
    pub(in super::super) op: Option<&'w Arc<str>>,
    /// The active op's parameters ([`NO_PARAMS`] without one).
    pub(in super::super) params: &'w KernelParams,
    pub(in super::super) client_op: Option<(&'w Arc<str>, &'w KernelParams)>,
    pub(in super::super) parts_pending: usize,
    pub(in super::super) total_bytes: f64,
    pub(in super::super) issued_at: SimTime,
    /// Bytes the client must still process (rate per `rate_op`).
    pub(in super::super) client_bytes: f64,
    pub(in super::super) rate_op: Option<&'w Arc<str>>,
    pub(in super::super) pieces: Vec<(usize, Piece)>,
    pub(in super::super) any_active_completed: bool,
    pub(in super::super) any_demoted: bool,
    pub(in super::super) any_migrated: bool,
    pub(in super::super) t_client_start: SimTime,
    /// The chain of the part whose delivery completed the I/O — the causal
    /// chain of the app's latency (`cfg.autopsy` only).
    pub(in super::super) chain: Option<crate::driver::autopsy::ReqChain>,
}

impl AppIo<'_> {
    /// The op the I/O requested, server- or client-side, as the shared
    /// name its record and autopsy report.
    pub(in super::super) fn op_name(&self) -> Option<Arc<str>> {
        self.op.or(self.client_op.map(|(op, _)| op)).cloned()
    }
}

/// Byte span of one file targeted by an I/O call.
#[derive(Debug, Clone, Copy)]
pub(in super::super) struct FileSpan<'a> {
    pub(in super::super) path: &'a str,
    pub(in super::super) offset: u64,
    pub(in super::super) bytes: u64,
}

/// What a rank asks the I/O path to do.
pub(in super::super) enum IssueKind<'w> {
    Read {
        /// Server-side kernel request (`MPI_File_read_ex`).
        active: Option<(&'w Arc<str>, &'w KernelParams)>,
        /// Client-side kernel over the raw bytes (TS-degraded reads).
        client_op: Option<(&'w Arc<str>, &'w KernelParams)>,
    },
    Write,
}
