//! The simulation run loop.
//!
//! A simulation is a [`World`] (all model state) plus a [`Scheduler`]
//! (the event queue and the clock). The world's `handle` method receives each
//! event in timestamp order and may schedule further events.
//! [`Simulation`] is the one executor: a serial loop over an
//! [`EventQueue`], one event per step.

use crate::event::EventQueue;
use crate::time::{SimSpan, SimTime};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// The model: owns all state and reacts to events.
pub trait World {
    type Event;

    /// Handle one event at simulation time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Wall-clock cost of dispatching one event label.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DispatchStat {
    /// Events dispatched under this label.
    pub events: u64,
    /// Total wall-clock seconds spent in `World::handle` for this label.
    pub wall_secs: f64,
}

/// Wall-clock execution profile of a run.
///
/// Strictly observational: the profile is collected entirely outside the
/// event stream (wall clock only, never fed back into the simulation), so
/// enabling it cannot perturb simulated behaviour. Labels come from a
/// caller-supplied `fn(&Event) -> &'static str`, typically the part of the
/// world that handles the event.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ExecProfile {
    /// Per-label dispatch counts and wall time.
    pub dispatch: BTreeMap<&'static str, DispatchStat>,
}

impl ExecProfile {
    fn record(&mut self, label: &'static str, secs: f64) {
        let s = self.dispatch.entry(label).or_default();
        s.events += 1;
        s.wall_secs += secs;
    }

    /// Total events across all labels.
    pub fn total_events(&self) -> u64 {
        self.dispatch.values().map(|s| s.events).sum()
    }

    /// Total wall seconds across all labels.
    pub fn total_wall_secs(&self) -> f64 {
        self.dispatch.values().map(|s| s.wall_secs).sum()
    }
}

/// Profiler state: the labelling function plus the accumulating profile.
struct Profiler<E> {
    label_of: fn(&E) -> &'static str,
    profile: ExecProfile,
}

impl<E> Profiler<E> {
    fn new(label_of: fn(&E) -> &'static str) -> Self {
        Profiler {
            label_of,
            profile: ExecProfile::default(),
        }
    }
}

/// Handle to one scheduled event, returned by [`Scheduler::at_cancellable`]
/// and consumed by [`Scheduler::cancel`]. Wraps the event's global seq.
/// Crate-private: [`Timer`](crate::timer::Timer) is its only holder, so the
/// "cancel only a pending event" contract lives in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventHandle(u64);

/// The clock plus the pending-event queue, handed to the world on every event.
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Panics if `at` is in the past: causality violations are model bugs.
    pub fn at(&mut self, at: SimTime, event: E) {
        let _ = self.at_cancellable(at, event);
    }

    /// Schedule `event` at absolute time `at` and return a handle that can
    /// revoke it while it is still pending.
    ///
    /// Panics if `at` is in the past: causality violations are model bugs.
    pub(crate) fn at_cancellable(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        EventHandle(self.queue.push(at, event))
    }

    /// Revoke a pending event: it is tombstoned in place and will never be
    /// dispatched (nor counted by [`Scheduler::dispatched_count`]).
    ///
    /// The caller must guarantee the handle's event is still pending —
    /// cancelling an already-dispatched handle corrupts the queue's length
    /// accounting. Holders of a handle therefore clear it the moment the
    /// event fires.
    pub(crate) fn cancel(&mut self, handle: EventHandle) {
        self.queue.cancel(handle.0);
    }

    /// Schedule `event` after a delay of `span`.
    ///
    /// Routed through the same causality assertion as [`Scheduler::at`], so
    /// an overflowed `now + span` cannot silently schedule into the past.
    pub fn after(&mut self, span: SimSpan, event: E) {
        let at = self.now + span;
        self.at(at, event);
    }

    /// Schedule `event` at the current instant (processed after the events
    /// already queued for this instant).
    pub fn immediately(&mut self, event: E) {
        let now = self.now;
        self.at(now, event);
    }

    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_count(&self) -> u64 {
        self.queue.scheduled_count()
    }

    /// Total number of events ever dispatched.
    pub fn dispatched_count(&self) -> u64 {
        self.queue.dispatched_count()
    }

    /// Total number of events ever cancelled.
    pub fn cancelled_count(&self) -> u64 {
        self.queue.cancelled_count()
    }

    /// Timestamp of the earliest pending event, if any.
    fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pop the earliest event and advance the clock to it.
    fn pop_event(&mut self) -> Option<(SimTime, E)> {
        let (t, ev) = self.queue.pop()?;
        debug_assert!(t >= self.now);
        self.now = t;
        Some((t, ev))
    }
}

/// Drives a [`World`] to completion or to a deadline, one event at a time.
pub struct Simulation<W: World> {
    pub world: W,
    sched: Scheduler<W::Event>,
    profiler: Option<Profiler<W::Event>>,
}

impl<W: World> Simulation<W> {
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
            profiler: None,
        }
    }

    /// Measure wall-clock time per event dispatch, grouped by `label_of`.
    /// Purely observational — the event stream is untouched.
    pub fn enable_profiling(&mut self, label_of: fn(&W::Event) -> &'static str) {
        self.profiler = Some(Profiler::new(label_of));
    }

    /// Take the accumulated profile (if profiling was enabled).
    pub fn take_profile(&mut self) -> Option<ExecProfile> {
        self.profiler.take().map(|p| p.profile)
    }

    /// Access the scheduler, e.g. to seed initial events before running.
    pub fn scheduler(&mut self) -> &mut Scheduler<W::Event> {
        &mut self.sched
    }

    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Dispatch a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.sched.pop_event() {
            Some((t, ev)) => {
                match &mut self.profiler {
                    Some(p) => {
                        let label = (p.label_of)(&ev);
                        let t0 = Instant::now();
                        self.world.handle(t, ev, &mut self.sched);
                        p.profile.record(label, t0.elapsed().as_secs_f64());
                    }
                    None => self.world.handle(t, ev, &mut self.sched),
                }
                true
            }
            None => false,
        }
    }

    /// Run until no events remain. Returns the final simulation time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.sched.now
    }

    /// Run until no events remain or the clock passes `deadline`.
    ///
    /// Events stamped after `deadline` stay queued; the clock is left at the
    /// last dispatched event (or `deadline` if nothing ran past it).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(t) = self.sched.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.sched.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that re-schedules a decrementing counter.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl World for Countdown {
        type Event = ();
        fn handle(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
            self.fired_at.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.after(SimSpan::from_nanos(10), ());
            }
        }
    }

    #[test]
    fn run_drains_queue() {
        let mut sim = Simulation::new(Countdown {
            remaining: 3,
            fired_at: vec![],
        });
        sim.scheduler().at(SimTime::from_nanos(5), ());
        let end = sim.run();
        assert_eq!(end, SimTime::from_nanos(35));
        assert_eq!(
            sim.world.fired_at,
            vec![5, 15, 25, 35]
                .into_iter()
                .map(SimTime::from_nanos)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(Countdown {
            remaining: 100,
            fired_at: vec![],
        });
        sim.scheduler().at(SimTime::ZERO, ());
        sim.run_until(SimTime::from_nanos(25));
        assert_eq!(sim.world.fired_at.len(), 3); // t = 0, 10, 20
        assert!(sim.scheduler().pending() > 0);
    }

    #[test]
    fn immediately_runs_after_current_instant_events() {
        struct Rec(Vec<&'static str>);
        impl World for Rec {
            type Event = &'static str;
            fn handle(
                &mut self,
                _t: SimTime,
                ev: &'static str,
                sched: &mut Scheduler<&'static str>,
            ) {
                self.0.push(ev);
                if ev == "first" {
                    sched.immediately("injected");
                }
            }
        }
        let mut sim = Simulation::new(Rec(vec![]));
        sim.scheduler().at(SimTime::ZERO, "first");
        sim.scheduler().at(SimTime::ZERO, "second");
        sim.run();
        assert_eq!(sim.world.0, vec!["first", "second", "injected"]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, _t: SimTime, _ev: (), sched: &mut Scheduler<()>) {
                sched.at(SimTime::ZERO, ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.scheduler().at(SimTime::from_nanos(10), ());
        sim.run();
    }

    #[test]
    fn after_with_overflowing_span_saturates_to_far_future() {
        // `now + span` saturates at SimTime::MAX, and `after` routes through
        // `at`'s causality assertion — an overflowed span can therefore only
        // land in the far future, never silently in the past.
        struct Once {
            scheduled: bool,
            fired_at: Option<SimTime>,
        }
        impl World for Once {
            type Event = ();
            fn handle(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
                if !self.scheduled {
                    self.scheduled = true;
                    sched.after(SimSpan::MAX, ());
                } else {
                    self.fired_at = Some(now);
                }
            }
        }
        let mut sim = Simulation::new(Once {
            scheduled: false,
            fired_at: None,
        });
        sim.scheduler().at(SimTime::from_nanos(10), ());
        sim.run();
        assert_eq!(sim.world.fired_at, Some(SimTime::MAX));
    }

    #[test]
    fn step_returns_false_when_idle() {
        let mut sim = Simulation::new(Countdown {
            remaining: 0,
            fired_at: vec![],
        });
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn profiling_observes_without_perturbing() {
        let run = |profile: bool| {
            let mut sim = Simulation::new(Countdown {
                remaining: 5,
                fired_at: vec![],
            });
            if profile {
                sim.enable_profiling(|_| "tick");
            }
            sim.scheduler().at(SimTime::ZERO, ());
            sim.run();
            let prof = sim.take_profile();
            (sim.world.fired_at, prof)
        };
        let (plain, none) = run(false);
        let (profiled, prof) = run(true);
        assert_eq!(
            plain, profiled,
            "profiling must not change the event stream"
        );
        assert!(none.is_none());
        let prof = prof.expect("profile collected");
        assert_eq!(prof.total_events(), 6);
        assert_eq!(prof.dispatch["tick"].events, 6);
        assert!(prof.total_wall_secs() >= 0.0);
    }

    #[test]
    fn scheduled_count_is_visible() {
        let mut sim = Simulation::new(Countdown {
            remaining: 2,
            fired_at: vec![],
        });
        sim.scheduler().at(SimTime::ZERO, ());
        sim.run();
        assert_eq!(sim.scheduler().scheduled_count(), 3);
        assert_eq!(sim.scheduler().dispatched_count(), 3);
    }
}
