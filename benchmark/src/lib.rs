//! Benchmark of the DOSAS simulator at thousands of ranks.
//!
//! Four workloads ([`workloads`]) each stress a different layer of the
//! simulator. One invocation of [`measure::measure`] times the set-up,
//! runs the workload untraced for the end-to-end metrics, runs it traced
//! for the per-layer metrics, and checks every run's outputs
//! ([`check`]). [`compare`] judges two sets of runs against the bounds in
//! `BENCHMARK.json`. The metric names, units and directions live in
//! [`metrics`]. See `README.md` for what each workload and metric is for.
//!
//! The benchmark drives the simulator only through its public API:
//! `Workload` constructors, `ClusterState::build`, `Driver::new`,
//! `Driver::run` and `Driver::run_profiled`.

pub mod check;
pub mod compare;
pub mod measure;
pub mod metrics;
mod stats;
pub mod workloads;
