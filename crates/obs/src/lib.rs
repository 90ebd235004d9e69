//! # obs — deterministic observability core
//!
//! A lightweight, vendored-deps-only observability layer for the DOSAS
//! reproduction: metrics, structured logging, time-series sampling and
//! exporters, all designed around simkit's determinism rules.
//!
//! Modules:
//!
//! * [`registry`] — counters, gauges and fixed-bucket histograms keyed by
//!   `(subsystem, name, label)`; allocation-free hot path, `BTreeMap`-ordered
//!   deterministic export.
//! * [`hist`] — the histogram itself, with nearest-rank bucket quantiles
//!   (p50/p95/p99) guaranteed within one bucket of exact.
//! * [`log`] — ring-buffered structured event log (severity + sim-time +
//!   subsystem) with drop counters.
//! * [`series`] — sim-time-driven per-server samples and their ring buffer;
//!   carries cumulative queue-depth integrals so the timeline reconciles
//!   exactly with end-of-run aggregates.
//! * [`observer`] — the per-run [`Observer`] bundling all of the above under
//!   one sequence counter, and the frozen [`ObsReport`] with its JSONL
//!   timeline exporter.
//! * [`export`] — Prometheus text-format rendering/validation and the
//!   chrome://tracing span serializer.
//!
//! ## Determinism contract
//!
//! Everything recorded through an [`Observer`] is a pure function of
//! simulation state at simulation timestamps: samples are driven by a
//! periodic simulation event, and the registry iterates in key order. Two
//! runs of the same configuration produce byte-identical Prometheus
//! snapshots and JSONL timelines. Wall-clock profiling lives in `simkit::executor`, entirely
//! outside this crate's event-driven state.

pub mod export;
pub mod hist;
pub mod log;
pub mod observer;
pub mod registry;
pub mod series;

pub use export::{chrome_trace_json, validate_prometheus, SpanArgs, TraceSpan};
pub use hist::Histogram;
pub use log::{EventLog, LogRecord, Severity};
pub use observer::{ObsConfig, ObsReport, Observer, TimelineRecord};
pub use registry::{Key, Label, MetricValue, Registry};
pub use series::{SampleRecord, SampleRing, ServerSample};
