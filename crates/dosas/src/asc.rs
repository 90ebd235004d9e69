//! The Active Storage Client (ASC, paper §III-B).
//!
//! Runs on compute nodes as part of the application's I/O stack. Two
//! functions, per the paper:
//!
//! 1. **Interface** — when the application calls `MPI_File_read_ex`, the
//!    operation, the I/O size and the file handle are recorded at the
//!    client before the request is forwarded. In the simulation that record
//!    is the driver's own request state, so the ASC keeps no table of its
//!    own.
//! 2. **Completion assistance** — when the result returns with
//!    `completed == 0`, the ASC finishes the processing itself (fresh
//!    kernel for never-started requests, restored kernel for interrupted
//!    ones), without any application involvement.
//!
//! [`handle_result`] is that completion step: a pure function of the
//! returned [`ResultBuf`] and the request's recorded operation and size.

use kernels::{Kernel, KernelError, KernelParams, KernelRegistry};
use mpiio::file::{ResultBuf, ResultPayload};

/// What must happen next for a returned request.
pub enum ClientAction {
    /// `completed == 1`: hand the result to the application.
    Deliver(Vec<u8>),
    /// `completed == 0`: the ASC must process `remaining_bytes` locally
    /// with `kernel` (fresh or restored) before delivering.
    FinishLocally {
        remaining_bytes: u64,
        kernel: Box<dyn Kernel>,
    },
}

impl std::fmt::Debug for ClientAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientAction::Deliver(bytes) => write!(f, "Deliver({} bytes)", bytes.len()),
            ClientAction::FinishLocally {
                remaining_bytes,
                kernel,
            } => write!(
                f,
                "FinishLocally {{ remaining: {remaining_bytes}, op: {} }}",
                kernel.op_name()
            ),
        }
    }
}

/// Handle the storage side's `struct result` for an active read of
/// `io_bytes` bytes that asked for `op` with `params`.
///
/// Checks the `completed` argument: 1 → return the result directly;
/// 0 → build (or restore) the kernel and report how many bytes the client
/// still has to process.
pub fn handle_result(
    registry: &KernelRegistry,
    op: &str,
    params: &KernelParams,
    io_bytes: u64,
    result: ResultBuf,
) -> Result<ClientAction, KernelError> {
    match result.payload {
        ResultPayload::Completed(bytes) => Ok(ClientAction::Deliver(bytes)),
        ResultPayload::Uncompleted(state) => {
            let kernel = match state {
                Some(state) => registry.restore(&state)?,
                None => registry.create(op, params)?,
            };
            let done = result.offset.min(io_bytes);
            Ok(ClientAction::FinishLocally {
                remaining_bytes: io_bytes - done,
                kernel,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::sum::SumKernel;
    use pfs::FileHandle;

    fn handle(op: &str, io_bytes: u64, result: ResultBuf) -> Result<ClientAction, KernelError> {
        let registry = KernelRegistry::with_defaults();
        handle_result(&registry, op, &KernelParams::default(), io_bytes, result)
    }

    #[test]
    fn completed_result_is_delivered() {
        let r = ResultBuf::completed(vec![7, 7], FileHandle(1), 1024);
        match handle("sum", 1024, r).unwrap() {
            ClientAction::Deliver(bytes) => assert_eq!(bytes, vec![7, 7]),
            other => panic!("expected Deliver, got {other:?}"),
        }
    }

    #[test]
    fn fresh_demotion_creates_new_kernel() {
        let r = ResultBuf::uncompleted(None, FileHandle(1), 0);
        match handle("sum", 800, r).unwrap() {
            ClientAction::FinishLocally {
                remaining_bytes,
                kernel,
            } => {
                assert_eq!(remaining_bytes, 800);
                assert_eq!(kernel.op_name(), "sum");
                assert_eq!(kernel.bytes_processed(), 0);
            }
            other => panic!("expected FinishLocally, got {other:?}"),
        }
    }

    #[test]
    fn migration_restores_checkpoint_and_computes_remainder() {
        // End-to-end: storage processes a prefix, client finishes; the final
        // result equals the uninterrupted computation.
        let data: Vec<u8> = (0..100u64).flat_map(|v| (v as f64).to_le_bytes()).collect();
        let cut = 336; // item-aligned (42 items)

        let mut storage_kernel = SumKernel::new();
        storage_kernel.process_chunk(&data[..cut]);
        let state = storage_kernel.checkpoint();

        let r = ResultBuf::uncompleted(Some(state), FileHandle(1), cut as u64);
        match handle("sum", data.len() as u64, r).unwrap() {
            ClientAction::FinishLocally {
                remaining_bytes,
                mut kernel,
            } => {
                assert_eq!(remaining_bytes as usize, data.len() - cut);
                assert_eq!(kernel.bytes_processed(), cut as u64, "restored");
                kernel.process_chunk(&data[cut..]);
                let mut whole = SumKernel::new();
                whole.process_chunk(&data);
                assert_eq!(kernel.finalize(), whole.finalize());
            }
            other => panic!("expected FinishLocally, got {other:?}"),
        }
    }

    #[test]
    fn unknown_op_surfaces_kernel_error() {
        let r = ResultBuf::uncompleted(None, FileHandle(1), 0);
        assert!(handle("nonsense", 8, r).is_err());
    }
}
