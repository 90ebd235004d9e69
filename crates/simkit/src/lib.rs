//! # simkit — deterministic discrete-event simulation engine
//!
//! The substrate underneath the DOSAS reproduction: a small, fast,
//! fully deterministic discrete-event simulation (DES) core.
//!
//! Components:
//!
//! * [`time`] — integer-nanosecond simulation clock ([`SimTime`], [`SimSpan`]).
//! * [`event`] — a stable-order event queue (FIFO among equal timestamps).
//! * [`executor`] — the [`executor::World`] trait and run loop.
//! * [`component`] — [`component::Component`]/[`component::Routed`]: split a
//!   world into event-routed subsystems without changing its event schedule.
//! * [`share`] — a generalized processor-sharing resource with max-min fair
//!   allocation and epoch-based completion-event invalidation; models
//!   multi-core CPUs and fair-share network links.
//! * [`fifo`] — a multi-server FIFO queueing resource; models disks and
//!   request queues with explicit service times.
//! * [`stats`] — time-weighted statistics, tallies and series recorders.
//! * [`rng`] — seed-derived deterministic random streams.
//! * [`fault`] — deterministic, seed-driven fault plans (time-windowed
//!   resource degradation, probe loss/delay) applied by the owning world.
//! * [`span`] — causal span chains: contiguous hop tiling of an interval
//!   with an exact service/wait split per hop, the substrate for
//!   per-request latency attribution.
//!
//! Design notes:
//!
//! * All state lives in plain structs owned by the caller's `World`; there is
//!   no interior mutability and no global state, so simulations are trivially
//!   reproducible and `Send`.
//! * Resources never schedule events themselves. They expose
//!   "next interesting time" queries plus an *epoch*; the world schedules a
//!   tick carrying the epoch and ignores the tick if the epoch moved on.
//!   Worlds that track their pending tick can additionally revoke a
//!   superseded one via [`Scheduler::cancel`] (a lazy tombstone in the
//!   queue), so stale ticks need not be dispatched at all.

pub mod component;
pub mod event;
pub mod executor;
pub mod fault;
pub mod fifo;
pub mod rng;
pub mod share;
pub mod span;
pub mod stats;
pub mod time;

pub use component::{Component, Routed};
pub use event::EventQueue;
pub use executor::{DispatchStat, EventHandle, ExecProfile, Scheduler, Simulation, World};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use fifo::FifoServer;
pub use rng::RngFactory;
pub use share::{ShareResource, TaskId};
pub use span::{Hop, SpanChain};
pub use time::{SimSpan, SimTime};
