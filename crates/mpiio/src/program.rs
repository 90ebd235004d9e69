//! Rank programs: what each simulated application process does.
//!
//! The simulation driver interprets one [`RankProgram`] per rank. This is
//! the boundary between "application code" and the I/O stack: the paper's
//! benchmarks (SUM, 2-D Gaussian) are one `ReadEx` per process; richer
//! multi-application mixes (paper Figure 1) interleave `Read`, `ReadEx`,
//! `Compute` and `Barrier` steps.
//!
//! What every request repeats is shared, not copied: an op's `path`, its
//! kernel `operation` name and its [`KernelParams`] are reference-counted,
//! so a generator builds one allocation per file and one per (operation,
//! parameters) and clones the handles into each rank, and the driver
//! carries the same handles down to the records it keeps. Generated
//! programs are also built at their exact length, `RankProgram { ops:
//! vec![..] }`, rather than grown with [`RankProgram::push`]: a vector's
//! first push reserves room for four [`Op`]s, and a workload holds one
//! program per rank for the whole run. A rank's program then costs its
//! ops and nothing per string or parameter set. Serialized, a shared field
//! reads exactly as an owned one.

use crate::datatype::Datatype;
use kernels::KernelParams;
use serde::{Deserialize, Serialize};
use simkit::SimSpan;
use std::sync::Arc;

/// One step of a rank's program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Traditional read of `count × datatype` bytes at `offset`; the
    /// application then processes the data itself if `client_op` is set
    /// (this is how the TS scheme runs kernels at the client).
    Read {
        path: Arc<str>,
        offset: u64,
        count: u64,
        datatype: Datatype,
        client_op: Option<(Arc<str>, Arc<KernelParams>)>,
    },
    /// The DOSAS call: ask the storage side to run `operation` over the
    /// range and return its result (paper Table I).
    ReadEx {
        path: Arc<str>,
        offset: u64,
        count: u64,
        datatype: Datatype,
        operation: Arc<str>,
        params: Arc<KernelParams>,
    },
    /// Write `count × datatype` bytes at `offset` (normal I/O; the
    /// active-storage paper only reads, but a credible parallel file
    /// system moves data both ways).
    Write {
        path: Arc<str>,
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
    /// benchmark shape — each process requests one I/O at a time). The
    /// handles are cloned, not their contents.
    pub fn single_read_ex(
        path: &Arc<str>,
        bytes: u64,
        operation: &Arc<str>,
        params: &Arc<KernelParams>,
    ) -> Self {
        RankProgram {
            ops: vec![Op::ReadEx {
                path: Arc::clone(path),
                offset: 0,
                count: bytes,
                datatype: Datatype::Byte,
                operation: Arc::clone(operation),
                params: Arc::clone(params),
            }],
        }
    }

    /// Convenience: a single normal read plus client-side processing.
    pub fn single_read_with_client_op(
        path: &Arc<str>,
        bytes: u64,
        operation: &Arc<str>,
        params: &Arc<KernelParams>,
    ) -> Self {
        RankProgram {
            ops: vec![Op::Read {
                path: Arc::clone(path),
                offset: 0,
                count: bytes,
                datatype: Datatype::Byte,
                client_op: Some((Arc::clone(operation), Arc::clone(params))),
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

    fn shared(path: &str, operation: &str) -> (Arc<str>, Arc<str>, Arc<KernelParams>) {
        (path.into(), operation.into(), Arc::default())
    }

    #[test]
    fn single_read_ex_shape() {
        let (path, op, params) = shared("/f", "sum");
        let p = RankProgram::single_read_ex(&path, 128 << 20, &op, &params);
        assert_eq!(p.len(), 1);
        assert_eq!(p.ops.capacity(), 1, "built at its exact length");
        assert!(p.ops[0].is_active_io());
        assert_eq!(p.total_request_bytes(), 128 << 20);
        let Op::ReadEx {
            path: p_path,
            operation,
            params: p_params,
            ..
        } = &p.ops[0]
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(p_path, &path), "the path is shared");
        assert!(Arc::ptr_eq(operation, &op), "the op name is shared");
        assert!(Arc::ptr_eq(p_params, &params), "the params are shared");
    }

    #[test]
    fn read_with_client_op_is_not_active() {
        let (path, op, params) = shared("/f", "stats");
        let p = RankProgram::single_read_with_client_op(&path, 1024, &op, &params);
        assert!(!p.ops[0].is_active_io());
        assert_eq!(p.ops.capacity(), 1, "built at its exact length");
        assert_eq!(p.ops[0].request_bytes(), 1024);
    }

    /// The owned-string `Op` that shared fields replaced, kept here only to
    /// pin the serialized form: externally tagged, so the enum's own name
    /// does not reach the JSON text.
    mod owned {
        use super::{Datatype, KernelParams};
        use serde::Serialize;

        #[derive(Serialize)]
        pub enum Op {
            Read {
                path: String,
                offset: u64,
                count: u64,
                datatype: Datatype,
                client_op: Option<(String, KernelParams)>,
            },
            ReadEx {
                path: String,
                offset: u64,
                count: u64,
                datatype: Datatype,
                operation: String,
                params: KernelParams,
            },
        }
    }

    #[test]
    fn shared_fields_serialize_as_owned_strings() {
        let params = KernelParams::with_width(1024);
        let (path, op, _) = shared("/data/f.dat", "gaussian2d");
        let shared_params = Arc::new(params.clone());
        let cases = [
            (
                RankProgram::single_read_ex(&path, 4096, &op, &shared_params).ops,
                owned::Op::ReadEx {
                    path: "/data/f.dat".into(),
                    offset: 0,
                    count: 4096,
                    datatype: Datatype::Byte,
                    operation: "gaussian2d".into(),
                    params: params.clone(),
                },
            ),
            (
                RankProgram::single_read_with_client_op(&path, 4096, &op, &shared_params).ops,
                owned::Op::Read {
                    path: "/data/f.dat".into(),
                    offset: 0,
                    count: 4096,
                    datatype: Datatype::Byte,
                    client_op: Some(("gaussian2d".into(), params.clone())),
                },
            ),
        ];
        for (ops, owned) in cases {
            let json = serde_json::to_string(&ops[0]).unwrap();
            assert_eq!(json, serde_json::to_string(&owned).unwrap());
            let back: Op = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ops[0]);
            assert_eq!(format!("{back:?}"), format!("{:?}", ops[0]));
        }
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
            params: Arc::default(),
        };
        assert_eq!(op.request_bytes(), 8000);
    }
}
