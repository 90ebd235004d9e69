//! # mpiio — MPI-like runtime and the DOSAS MPI-IO extension
//!
//! The DOSAS prototype extends MPI-IO with one call (paper Table I):
//!
//! ```c
//! MPI_File_read_ex(MPI_File fh, struct result *buf, int count,
//!                  MPI_Datatype, char *operation, MPI_Status *status);
//!
//! struct result {
//!     bool completed;   // 0: I/O not completed, 1: completed
//!     void *buf;        // result if completed, operation status if not
//!     MPI_File fh;      // file handle (I/O uncompleted)
//!     long offset;      // current data position
//! };
//! ```
//!
//! This crate mirrors that interface in Rust form:
//!
//! * [`datatype`] — MPI datatypes (element sizes).
//! * [`status`] — [`status::ExecutionSite`]: where an active I/O's kernel
//!   ran (storage, compute, migrated between them, or nowhere).
//! * [`file`](mod@file) — [`file::ResultBuf`], the `struct result` twin,
//!   whose `completed` bit tells the Active Storage Client whether it must
//!   finish the operation locally.
//! * [`comm`] — ranks, communicators and collective communication plans
//!   (binomial trees) over simulated nodes.
//! * [`program`] — rank programs: the sequence of I/O and compute steps a
//!   simulated application process performs. The `dosas` driver interprets
//!   these, which is how "applications" exist inside the simulation.

pub mod comm;
pub mod datatype;
pub mod file;
pub mod program;
pub mod status;

pub use comm::Communicator;
pub use datatype::Datatype;
pub use file::{ResultBuf, ResultPayload};
pub use program::{Op, RankProgram};
