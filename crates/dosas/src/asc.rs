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
//! returned [`ResultBuf`] and the request's size. [`client_kernel`] builds
//! the kernel the client finishes with; only a run that moves real bytes
//! needs one, so the timing plane never calls it.

use kernels::{Kernel, KernelError, KernelParams, KernelRegistry, KernelState};
use mpiio::file::{ResultBuf, ResultPayload};

/// What must happen next for a returned request.
#[derive(Debug)]
pub enum ClientAction {
    /// `completed == 1`: hand the result to the application.
    Deliver(Vec<u8>),
    /// `completed == 0`: the ASC must process `remaining_bytes` locally,
    /// resuming from `state` (an interrupted kernel's checkpoint) or from
    /// scratch (`None`).
    FinishLocally {
        remaining_bytes: u64,
        state: Option<KernelState>,
    },
}

/// Handle the storage side's `struct result` for an active read of
/// `io_bytes` bytes.
///
/// Checks the `completed` argument: 1 → return the result directly;
/// 0 → report how many bytes the client still has to process and from
/// which kernel state.
pub fn handle_result(io_bytes: u64, result: ResultBuf) -> ClientAction {
    match result.payload {
        ResultPayload::Completed(bytes) => ClientAction::Deliver(bytes),
        ResultPayload::Uncompleted(state) => ClientAction::FinishLocally {
            remaining_bytes: io_bytes - result.offset.min(io_bytes),
            state,
        },
    }
}

/// The kernel a [`ClientAction::FinishLocally`] request finishes with: a
/// fresh `op` kernel built from `params`, or the interrupted one restored
/// from its checkpoint `state`.
pub fn client_kernel(
    registry: &KernelRegistry,
    op: &str,
    params: &KernelParams,
    state: Option<&KernelState>,
) -> Result<Box<dyn Kernel>, KernelError> {
    match state {
        Some(state) => registry.restore(state),
        None => registry.create(op, params),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::sum::SumKernel;
    use pfs::FileHandle;

    fn finish_locally(action: ClientAction) -> (u64, Option<KernelState>) {
        match action {
            ClientAction::FinishLocally {
                remaining_bytes,
                state,
            } => (remaining_bytes, state),
            other => panic!("expected FinishLocally, got {other:?}"),
        }
    }

    #[test]
    fn completed_result_is_delivered() {
        let r = ResultBuf::completed(vec![7, 7], FileHandle(1), 1024);
        match handle_result(1024, r) {
            ClientAction::Deliver(bytes) => assert_eq!(bytes, vec![7, 7]),
            other => panic!("expected Deliver, got {other:?}"),
        }
    }

    #[test]
    fn fresh_demotion_creates_new_kernel() {
        let r = ResultBuf::uncompleted(None, FileHandle(1), 0);
        let (remaining_bytes, state) = finish_locally(handle_result(800, r));
        assert_eq!(remaining_bytes, 800);
        assert!(state.is_none());
        let registry = KernelRegistry::with_defaults();
        let kernel = client_kernel(&registry, "sum", &KernelParams::default(), None).unwrap();
        assert_eq!(kernel.op_name(), "sum");
        assert_eq!(kernel.bytes_processed(), 0);
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
        let (remaining_bytes, state) = finish_locally(handle_result(data.len() as u64, r));
        assert_eq!(remaining_bytes as usize, data.len() - cut);
        let registry = KernelRegistry::with_defaults();
        let mut kernel =
            client_kernel(&registry, "sum", &KernelParams::default(), state.as_ref()).unwrap();
        assert_eq!(kernel.bytes_processed(), cut as u64, "restored");
        kernel.process_chunk(&data[cut..]);
        let mut whole = SumKernel::new();
        whole.process_chunk(&data);
        assert_eq!(kernel.finalize(), whole.finalize());
    }

    #[test]
    fn unknown_op_surfaces_kernel_error() {
        let registry = KernelRegistry::with_defaults();
        assert!(client_kernel(&registry, "nonsense", &KernelParams::default(), None).is_err());
    }
}
