//! Request ids and the probe's view of a data server's I/O queue.
//!
//! The DOSAS Contention Estimator probes one I/O queue per data server
//! (paper §III-D): in Table II's notation, `n` requests of which `k` are
//! active, request sizes `d_i`, and the derived totals `D_A`, `D_N`, `D`.
//! The queue itself is owned by the server-side Active I/O Runtime in the
//! `dosas` crate, which emits a [`QueueSnapshot`] per probe; this module
//! holds only the shared vocabulary, so every policy reads the same types.

use serde::{Deserialize, Serialize};
use simkit::SimTime;
use std::sync::Arc;

/// Globally unique request id (assigned by the driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u64);

/// One row of a [`QueueSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotRow {
    pub id: RequestId,
    /// Operation name for active requests, `None` for normal I/O: the
    /// name the request was issued with, shared rather than copied.
    pub op: Option<Arc<str>>,
    /// `d_i` in bytes.
    pub bytes: f64,
}

impl SnapshotRow {
    pub fn is_active(&self) -> bool {
        self.op.is_some()
    }
}

/// Point-in-time view of the queue, in the paper's Table II notation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueSnapshot {
    /// `n` — number of I/O requests in the queue.
    pub n: usize,
    /// `k` — number of active I/O requests.
    pub k: usize,
    /// `D_A` — total bytes requested by active I/O.
    pub d_active: f64,
    /// `D_N` — total bytes requested by normal I/O.
    pub d_normal: f64,
    /// Per-request rows for the scheduler.
    pub requests: Vec<SnapshotRow>,
    pub taken_at: SimTime,
}

impl QueueSnapshot {
    /// `D = D_A + D_N` — total requested bytes.
    pub fn d_total(&self) -> f64 {
        self.d_active + self.d_normal
    }
}
