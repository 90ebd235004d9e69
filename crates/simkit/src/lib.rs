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
//! * [`share`] — an equal-share processor-sharing resource run by virtual
//!   time (O(log n) per operation); models multi-core CPUs.
//! * [`fifo`] — a multi-server FIFO queueing resource; models disks and
//!   request queues with explicit service times.
//! * [`timer`] — [`Timer`], the one armed completion tick per resource.
//! * [`stats`] — time-weighted averages and bounded-memory quantiles.
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
//!   "next interesting time" queries plus an *epoch* that moves on every
//!   change; the world keeps one [`Timer`] per resource and re-arms it after
//!   each change. The timer keeps at most one tick pending and cancels a
//!   superseded one in the queue (a lazy tombstone), so no stale tick is
//!   ever dispatched. Cancellation is crate-private: the timer is its only
//!   user.

pub mod event;
pub mod executor;
pub mod fault;
pub mod fifo;
pub mod rng;
pub mod share;
pub mod span;
pub mod stats;
pub mod time;
pub mod timer;

pub use event::EventQueue;
pub use executor::{DispatchStat, ExecProfile, Scheduler, Simulation, World};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use fifo::FifoServer;
pub use rng::RngFactory;
pub use share::{ShareResource, TaskId};
pub use span::{Hop, SpanChain};
pub use time::{SimSpan, SimTime};
pub use timer::Timer;
