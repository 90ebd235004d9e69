//! # cluster — hardware model for the DOSAS reproduction
//!
//! Deterministic performance models of the pieces of an HPC cluster the
//! DOSAS paper's evaluation exercises:
//!
//! * [`config`] — cluster parameters, with defaults calibrated to the paper's
//!   Discfarm testbed (118 MB/s GigE, 2-core storage nodes, …).
//! * [`node`] — node identities and roles (compute vs. storage).
//! * [`cpu`] — multi-core CPU with processor-sharing among tasks, expressed
//!   in *core-seconds* so kernels with different per-op rates mix naturally.
//! * [`disk`] — FIFO disk with per-request overhead plus bandwidth.
//! * [`net`] — multi-hop fabric with global max-min fair bandwidth
//!   allocation over per-flow routes and per-flow bandwidth jitter (the
//!   paper's 111–120 MB/s).
//! * [`topology`] — fabric wirings (star / tree / fat-tree) with
//!   deterministic routing, and assembly of per-node resources into a
//!   [`ClusterState`].
//!
//! None of these components schedules simulation events itself; each exposes
//! `next_*` time queries plus an epoch, and the simulation driver (in the
//! `dosas` crate) owns the event loop, arming one `simkit::Timer` per
//! resource from them. This keeps the hardware model free of
//! any knowledge of the workloads running on it.

pub mod config;
pub mod cpu;
pub mod disk;
pub mod net;
pub mod node;
pub mod topology;

pub use config::ClusterConfig;
pub use cpu::Cpu;
pub use disk::Disk;
pub use net::{Fabric, FlowCompletion, FlowId, NetFillCounters};
pub use node::{NodeId, NodeRole};
pub use topology::{ClusterState, Topology, TopologySpec};

/// Bytes in a mebibyte; the paper's request sizes are expressed in MB = MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Convenience: megabytes (MiB) to bytes.
pub fn mb(v: f64) -> f64 {
    v * MIB
}
