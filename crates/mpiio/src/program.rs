//! Rank programs: what each simulated application process does.
//!
//! The simulation driver interprets one [`RankProgram`] per rank. This is
//! the boundary between "application code" and the I/O stack: the paper's
//! benchmarks (SUM, 2-D Gaussian) are one `ReadEx` per process; richer
//! multi-application mixes (paper Figure 1) interleave `Read`, `ReadEx`,
//! `Compute` and `Barrier` steps.
//!
//! Generated programs are built at their exact length, `RankProgram { ops:
//! vec![..] }`, rather than grown with [`RankProgram::push`]: a vector's
//! first push reserves room for four [`Op`]s, and a workload holds one
//! program per rank for the whole run, so a workload of two-op programs
//! would carry half its program memory as spare capacity.

use crate::datatype::Datatype;
use kernels::KernelParams;
use serde::{Deserialize, Serialize};
use simkit::SimSpan;

/// One step of a rank's program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Traditional read of `count × datatype` bytes at `offset`; the
    /// application then processes the data itself if `client_op` is set
    /// (this is how the TS scheme runs kernels at the client).
    Read {
        path: String,
        offset: u64,
        count: u64,
        datatype: Datatype,
        client_op: Option<(String, KernelParams)>,
    },
    /// The DOSAS call: ask the storage side to run `operation` over the
    /// range and return its result (paper Table I).
    ReadEx {
        path: String,
        offset: u64,
        count: u64,
        datatype: Datatype,
        operation: String,
        params: KernelParams,
    },
    /// Write `count × datatype` bytes at `offset` (normal I/O; the
    /// active-storage paper only reads, but a credible parallel file
    /// system moves data both ways).
    Write {
        path: String,
        offset: u64,
        count: u64,
        datatype: Datatype,
    },
    /// Pure local computation for `span` of simulated time.
    Compute { span: SimSpan },
    /// Pure wall-clock delay for `span` of simulated time, consuming no
    /// CPU. Open-loop workloads use this to stagger Poisson arrivals:
    /// unlike [`Op::Compute`], a sleeping rank cannot be slowed by CPU
    /// contention, so the arrival process stays intact under load.
    Sleep { span: SimSpan },
    /// Synchronize with every other rank in the communicator.
    Barrier,
    /// Broadcast `bytes` from `root` to every rank (binomial tree).
    Bcast { root: usize, bytes: u64 },
    /// Reduce `bytes` from every rank to `root` (binomial tree).
    Reduce { root: usize, bytes: u64 },
    /// Allreduce `bytes` (reduce-to-root + broadcast).
    Allreduce { bytes: u64 },
    /// Gather `bytes` from every rank to `root` (direct sends).
    Gather { root: usize, bytes: u64 },
}

impl Op {
    /// Bytes of file data this step requests (0 for compute/barrier and
    /// collectives, which move memory, not file data).
    pub fn request_bytes(&self) -> u64 {
        match self {
            Op::Read {
                count, datatype, ..
            }
            | Op::ReadEx {
                count, datatype, ..
            }
            | Op::Write {
                count, datatype, ..
            } => datatype.transfer_size(*count),
            _ => 0,
        }
    }

    /// Whether this step writes file data.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write { .. })
    }

    /// Whether this step is an active I/O request.
    pub fn is_active_io(&self) -> bool {
        matches!(self, Op::ReadEx { .. })
    }
}

/// The full script of one rank.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RankProgram {
    pub ops: Vec<Op>,
}

impl RankProgram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(mut self, op: Op) -> Self {
        self.ops.push(op);
        self
    }

    /// Convenience: a single active read of `bytes` bytes (the paper's
    /// benchmark shape — each process requests one I/O at a time).
    pub fn single_read_ex(path: &str, bytes: u64, operation: &str, params: KernelParams) -> Self {
        RankProgram {
            ops: vec![Op::ReadEx {
                path: path.to_string(),
                offset: 0,
                count: bytes,
                datatype: Datatype::Byte,
                operation: operation.to_string(),
                params,
            }],
        }
    }

    /// Convenience: a single normal read plus client-side processing.
    pub fn single_read_with_client_op(
        path: &str,
        bytes: u64,
        operation: &str,
        params: KernelParams,
    ) -> Self {
        RankProgram {
            ops: vec![Op::Read {
                path: path.to_string(),
                offset: 0,
                count: bytes,
                datatype: Datatype::Byte,
                client_op: Some((operation.to_string(), params)),
            }],
        }
    }

    /// Total bytes this rank will request.
    pub fn total_request_bytes(&self) -> u64 {
        self.ops.iter().map(Op::request_bytes).sum()
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_read_ex_shape() {
        let p = RankProgram::single_read_ex("/f", 128 << 20, "sum", KernelParams::default());
        assert_eq!(p.len(), 1);
        assert_eq!(p.ops.capacity(), 1, "built at its exact length");
        assert!(p.ops[0].is_active_io());
        assert_eq!(p.total_request_bytes(), 128 << 20);
    }

    #[test]
    fn read_with_client_op_is_not_active() {
        let p =
            RankProgram::single_read_with_client_op("/f", 1024, "stats", KernelParams::default());
        assert!(!p.ops[0].is_active_io());
        assert_eq!(p.ops.capacity(), 1, "built at its exact length");
        assert_eq!(p.ops[0].request_bytes(), 1024);
    }

    #[test]
    fn compute_and_barrier_request_nothing() {
        assert_eq!(
            Op::Compute {
                span: SimSpan::from_secs(1)
            }
            .request_bytes(),
            0
        );
        assert_eq!(Op::Barrier.request_bytes(), 0);
        assert_eq!(
            Op::Sleep {
                span: SimSpan::from_secs(1)
            }
            .request_bytes(),
            0
        );
        assert_eq!(
            Op::Bcast {
                root: 0,
                bytes: 4096
            }
            .request_bytes(),
            0
        );
        assert_eq!(Op::Reduce { root: 1, bytes: 64 }.request_bytes(), 0);
    }

    #[test]
    fn write_requests_bytes() {
        let w = Op::Write {
            path: "/f".into(),
            offset: 0,
            count: 512,
            datatype: Datatype::Double,
        };
        assert!(w.is_write());
        assert!(!w.is_active_io());
        assert_eq!(w.request_bytes(), 4096);
    }

    #[test]
    fn builder_chains() {
        let p = RankProgram::new().push(Op::Barrier).push(Op::Compute {
            span: SimSpan::from_millis(10),
        });
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn datatype_sizing_flows_through() {
        let op = Op::ReadEx {
            path: "/f".into(),
            offset: 0,
            count: 1000,
            datatype: Datatype::Double,
            operation: "sum".into(),
            params: KernelParams::default(),
        };
        assert_eq!(op.request_bytes(), 8000);
    }
}
