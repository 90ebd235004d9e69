//! # kernels — real, checkpointable processing kernels
//!
//! The DOSAS "Processing Kernels" component (paper §III-E): a collection of
//! predefined analysis kernels widely used in data-intensive applications,
//! deployed **both at storage nodes and compute nodes** so an active I/O can
//! be finished on either side.
//!
//! Two properties drive the design:
//!
//! 1. **Streaming** — kernels consume arbitrary byte chunks
//!    ([`Kernel::process_chunk`]), because data arrives from disk/network in
//!    pieces and because chunking is what makes mid-request interruption
//!    meaningful.
//! 2. **Checkpointability** — when the Active I/O Runtime interrupts a
//!    kernel, the kernel writes its status as `⟨variable name, variable
//!    type, value⟩` records ([`KernelState`]), exactly the paper's shared-
//!    memory protocol; the client-side twin is restored from those records
//!    and continues where the storage side stopped.
//!
//! Provided kernels (paper Table III plus the usual active-storage suite):
//!
//! | op | data | per-item work | result |
//! |----|------|----------------|--------|
//! | [`sum`] | f64 stream | 1 add | sum + count |
//! | [`gaussian`] | f32 image rows | 9 mul + 9 add + 1 div | digest or image |
//! | [`stats`] | f64 stream | ~4 flops | min/max/mean/var/count |
//! | [`grep`] | bytes | ~1 cmp | match count |
//! | [`histogram`] | bytes | 1 index | 256 bins |
//! | [`kmeans`] | f64 stream | ~3k flops | centroids + counts |
//! | [`smooth`] | f64 stream | 2 add + 1 div | smoothed-stream digest |
//!
//! All kernels are *really executed* (this crate is the data plane);
//! [`calibrate`] measures their per-core MB/s for Table III.

mod itemstream;

pub mod calibrate;
pub mod gaussian;
pub mod grep;
pub mod histogram;
pub mod kernel;
pub mod kmeans;
pub mod registry;
pub mod smooth;
pub mod stats;
pub mod sum;

pub use calibrate::{measure_rate, CalibrationReport};
pub use gaussian::{GaussianFilter2D, GaussianOutput};
pub use grep::GrepKernel;
pub use histogram::HistogramKernel;
pub use kernel::{Complexity, Kernel, KernelError, KernelState, VarRecord, VarValue};
pub use kmeans::KMeansKernel;
pub use registry::{KernelParams, KernelRegistry};
pub use smooth::SmoothKernel;
pub use stats::StatsKernel;
pub use sum::SumKernel;
