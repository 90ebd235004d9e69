//! # pfs — a PVFS2-like parallel file system model
//!
//! The DOSAS prototype was built on PVFS2 (paper §III). DOSAS relies on the
//! file system for exactly three things, all modelled here:
//!
//! 1. **Client/server split with striping** — [`layout`] maps byte ranges of
//!    a file onto data servers; [`client`] plans scatter-gather reads.
//! 2. **Metadata service** — [`meta`] provides a namespace, file handles and
//!    stat, mirroring PVFS2's metadata server.
//! 3. **An observable per-server I/O queue** — [`data`] defines request ids
//!    and the probe's [`QueueSnapshot`] of a server's queue in the paper's
//!    Table II notation (`n`, `k`, `d_i`, `D_A`, `D_N`, `D`). The queue
//!    itself lives in the `dosas` crate's Active I/O Runtime, which owns
//!    each request's server-side state; the snapshot types stay here so
//!    every contention policy shares one vocabulary.
//!
//! A small in-memory object [`store`] carries *real* bytes through the
//! simulation so scheme-equivalence tests can assert that TS, AS and DOSAS
//! produce identical kernel results.
//!
//! Timing (disk, network, CPU) is not modelled here — the simulation driver
//! in the `dosas` crate charges those against the `cluster` crate's
//! resources. This crate is pure bookkeeping, which keeps it reusable for
//! any scheduling policy.

pub mod cache;
pub mod client;
pub mod data;
pub mod error;
pub mod layout;
pub mod meta;
pub mod store;

pub use cache::{BlockCache, CacheAccess};
pub use client::{ReadPlan, ReadTracker};
pub use data::{QueueSnapshot, RequestId, SnapshotRow};
pub use error::PfsError;
pub use layout::{Extent, StripeLayout};
pub use meta::{FileHandle, FileMeta, MetadataServer};
pub use store::MemoryStore;
