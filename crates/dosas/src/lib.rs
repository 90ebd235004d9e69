//! # dosas — Dynamic Operation Scheduling Active Storage
//!
//! The paper's primary contribution: an active-storage architecture that
//! schedules each active I/O request *dynamically* — run the processing
//! kernel on the storage node when it has capacity, or demote the request to
//! a normal I/O (shipping raw data for client-side processing) when the
//! storage node is contended, including interrupting kernels already
//! running.
//!
//! Architecture (paper §III, Figure 3):
//!
//! ```text
//!  compute node                     storage node
//!  ┌───────────────────┐           ┌─────────────────────────────┐
//!  │ application       │  ReadEx   │ Active Storage Server        │
//!  │  └─ ASC ──────────┼──────────►│  ├─ Contention Estimator (CE)│
//!  │     └─ Processing │◄──────────┤  ├─ Active I/O Runtime (R)   │
//!  │        Kernels    │  result / │  └─ Processing Kernels       │
//!  └───────────────────┘  data+state└─────────────────────────────┘
//! ```
//!
//! Modules:
//!
//! * [`config`] — operation rate tables and scheme/DOSAS configuration.
//! * [`cost`] — the paper's analytic cost model (Table II, Eqs. 1–7).
//! * [`schedule`] — solvers for the binary offloading optimization (Eq. 8):
//!   the paper's literal 2^k matrix enumeration plus exact scalable solvers.
//! * [`estimator`] — the Contention Estimator: probes system state and emits
//!   a scheduling [`estimator::Policy`].
//! * [`policy`] — the pluggable contention-control layer: the
//!   [`policy::ContentionPolicy`] trait, the CE as its reference
//!   implementation, and competitor policies from the literature
//!   (straggler re-striping, per-tenant token buckets, a PI governor).
//! * [`runtime`] — the Active I/O Runtime: one table per storage node that
//!   owns each read's server-side state (admit / demote / interrupt
//!   transitions), the queue the CE probes, and its time-weighted depth.
//! * [`asc`] — the Active Storage Client: a stateless completion step that
//!   finishes demoted or migrated operations on the client.
//! * [`driver`] — the end-to-end simulation: interprets rank programs over
//!   the `cluster`/`pfs`/`mpiio` substrates under a chosen scheme and
//!   produces [`driver::RunMetrics`].
//! * [`workload`] — workload generators for the paper's experiments and the
//!   multi-application mixes of Figure 1.

pub mod asc;
pub mod config;
pub mod cost;
pub mod driver;
pub mod estimator;
pub mod policy;
pub mod runtime;
pub mod schedule;
pub mod workload;

pub use config::{DosasConfig, OpRates, ProbeConfig, Scheme, TenantSlo};
pub use cost::{CostModel, Item, RequestSpec, ResultModel};
pub use driver::{
    AutopsyReport, CauseWait, CpSegment, CriticalPath, NodeWait, ReqHop, ReqStage, RequestAutopsy,
    TenantWait, WaitCause,
};
pub use driver::{Driver, DriverConfig, ExecMode, RunMetrics};
pub use driver::{TenantReport, TenantSloOutcome, TenantStats};
pub use estimator::{
    CeStats, CeSupervisor, ContentionEstimator, Decision, Policy, ProbeVerdict, SystemProbe,
};
pub use policy::{
    ContentionPolicy, PolicyConfig, PolicyInput, PolicyOutput, PolicyTelemetry, RateCap,
};
pub use schedule::{Assignment, SolverKind};
pub use workload::{OpenLoopSpec, Workload};
