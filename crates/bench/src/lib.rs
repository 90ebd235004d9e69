//! # bench — experiment harness for the DOSAS reproduction
//!
//! One function per table/figure of the paper, each returning structured
//! rows that the `experiments` binary formats and writes to `results/`.
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
//! recorded paper-vs-measured comparison.

pub mod ablations;
pub mod experiments;
pub mod fabric_churn;
pub mod plot;
pub mod policy_matrix;
pub mod report;
pub mod scenarios;
pub mod topology_churn;

pub use experiments::*;
pub use report::{write_csv, Table};

use dosas::{Driver, DriverConfig, RunMetrics, Scheme, Workload};
use kernels::KernelParams;

/// Bytes in a mebibyte (the paper's "MB").
pub const MIB: f64 = 1024.0 * 1024.0;

/// The paper's request-count axis: I/Os per storage node.
pub const PAPER_NS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The paper's request sizes in MB.
pub const PAPER_SIZES_MB: [u64; 4] = [128, 256, 512, 1024];

/// Parameters for the Gaussian benchmark (row width of the streamed image).
pub fn gaussian_params() -> KernelParams {
    KernelParams::with_width(4096)
}

/// Kernel parameters for an op by name.
pub fn params_for(op: &str) -> KernelParams {
    match op {
        "gaussian2d" => gaussian_params(),
        "grep" => KernelParams::with_pattern(b"needle"),
        "kmeans1d" => KernelParams::with_centroids(vec![0.25, 0.5, 0.75]),
        _ => KernelParams::default(),
    }
}

/// Run one point of the paper's experiment grid: `n` processes per storage
/// node, each reading `size_mb` MB with `op`, under `scheme`.
pub fn run_point(scheme: Scheme, op: &str, size_mb: u64, n: usize, seed: u64) -> RunMetrics {
    let workload = Workload::uniform_active(n, 1, size_mb * 1024 * 1024, op, params_for(op));
    let mut cfg = DriverConfig::paper(scheme);
    cfg.seed = seed;
    Driver::run(cfg, &workload)
}

/// Run one point with a custom config (ablations).
pub fn run_point_with(
    cfg: DriverConfig,
    op: &str,
    size_mb: u64,
    n: usize,
    storage_nodes: usize,
) -> RunMetrics {
    let workload =
        Workload::uniform_active(n, storage_nodes, size_mb * 1024 * 1024, op, params_for(op));
    Driver::run(cfg, &workload)
}

/// Seconds of makespan, averaged over `seeds` replications.
pub fn mean_makespan(scheme: Scheme, op: &str, size_mb: u64, n: usize, seeds: &[u64]) -> f64 {
    seeds
        .iter()
        .map(|&s| run_point(scheme.clone(), op, size_mb, n, s).makespan_secs)
        .sum::<f64>()
        / seeds.len() as f64
}
