//! One armed completion tick per resource: [`Timer`].

use crate::executor::{EventHandle, Scheduler};
use crate::time::SimTime;

/// At most one pending completion tick for one resource.
///
/// A resource ([`FifoServer`](crate::fifo::FifoServer),
/// [`ShareResource`](crate::share::ShareResource), a network fabric) exposes
/// its next completion time and an *epoch* that moves on every change; the
/// world re-arms the resource's timer after each change, so a superseded
/// tick is cancelled, never dispatched. Not `Clone`: a copy of an armed
/// timer could cancel a tick the other copy already saw dispatched.
#[derive(Debug, Default)]
pub struct Timer {
    armed: Option<(SimTime, u64, EventHandle)>,
    suppressed: u64,
    deduped: u64,
}

impl Timer {
    /// (Re)arm for a resource whose next completion is `next` (`None`:
    /// nothing will complete at current rates) at `epoch`. The pending tick
    /// is keyed by (time clamped to now, epoch): an identical key keeps it,
    /// and its place among same-instant events; any other key, or `None`,
    /// cancels it in the queue, even one due now. A new tick is `tick`.
    pub fn arm<E>(&mut self, sched: &mut Scheduler<E>, next: Option<SimTime>, epoch: u64, tick: E) {
        let key = next.map(|t| (t.max(sched.now()), epoch));
        if let Some((at, armed_epoch, handle)) = self.armed {
            if key == Some((at, armed_epoch)) {
                self.deduped += 1;
                return;
            }
            sched.cancel(handle);
            self.suppressed += 1;
            self.armed = None;
        }
        if let Some((at, epoch)) = key {
            self.armed = Some((at, epoch, sched.at_cancellable(at, tick)));
        }
    }

    /// Call first when the tick is dispatched: forgets it (it can no longer
    /// be cancelled) and returns the epoch it was armed with, which must
    /// still be the resource's.
    ///
    /// Panics if no tick is armed: every dispatched tick is the armed one.
    pub fn fired(&mut self) -> u64 {
        let (_, epoch, _) = self.armed.take().expect("a tick fired with no timer armed");
        epoch
    }

    /// Ticks cancelled before dispatch (superseded or no longer needed).
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Re-arms that kept the pending tick because its key was unchanged.
    pub fn deduped(&self) -> u64 {
        self.deduped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Simulation, World};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Records every dispatched event; a `"tick"` reports to the timer and
    /// records the epoch it was armed with.
    struct Rec {
        timer: Timer,
        seen: Vec<(SimTime, &'static str)>,
        fired_epochs: Vec<u64>,
    }

    impl World for Rec {
        type Event = &'static str;
        fn handle(&mut self, now: SimTime, ev: &'static str, _s: &mut Scheduler<&'static str>) {
            if ev == "tick" {
                self.fired_epochs.push(self.timer.fired());
            }
            self.seen.push((now, ev));
        }
    }

    fn sim() -> Simulation<Rec> {
        Simulation::new(Rec {
            timer: Timer::default(),
            seen: Vec::new(),
            fired_epochs: Vec::new(),
        })
    }

    fn arm(sim: &mut Simulation<Rec>, next: Option<SimTime>, epoch: u64) {
        let mut timer = std::mem::take(&mut sim.world.timer);
        timer.arm(sim.scheduler(), next, epoch, "tick");
        sim.world.timer = timer;
    }

    #[test]
    fn identical_rearm_keeps_the_earlier_seq() {
        let mut sim = sim();
        arm(&mut sim, Some(t(5)), 1);
        sim.scheduler().at(t(5), "other");
        arm(&mut sim, Some(t(5)), 1);
        sim.run();
        // The tick queued before `other` still pops first.
        assert_eq!(sim.world.seen, vec![(t(5), "tick"), (t(5), "other")]);
        assert_eq!(sim.world.timer.deduped(), 1);
        assert_eq!(sim.world.timer.suppressed(), 0);
        assert_eq!(sim.scheduler().scheduled_count(), 2);
    }

    #[test]
    fn changed_key_or_none_cancels_the_pending_tick() {
        let mut sim = sim();
        arm(&mut sim, Some(t(5)), 1);
        arm(&mut sim, Some(t(5)), 2); // new epoch
        arm(&mut sim, Some(t(7)), 2); // new time
        sim.run();
        assert_eq!(sim.world.seen, vec![(t(7), "tick")]);
        assert_eq!(sim.world.timer.suppressed(), 2);

        let mut sim = self::sim();
        arm(&mut sim, Some(t(5)), 1);
        arm(&mut sim, None, 2);
        sim.run();
        assert!(sim.world.seen.is_empty());
        assert_eq!(sim.world.timer.suppressed(), 1);
        assert_eq!(sim.scheduler().cancelled_count(), 1);
    }

    #[test]
    fn past_times_clamp_to_now_in_the_key() {
        let mut sim = sim();
        sim.scheduler().at(t(10), "other");
        sim.step();
        arm(&mut sim, Some(t(3)), 1);
        arm(&mut sim, Some(t(10)), 1); // same clamped key
        sim.run();
        assert_eq!(sim.world.seen, vec![(t(10), "other"), (t(10), "tick")]);
        assert_eq!(sim.world.timer.deduped(), 1);
    }

    #[test]
    fn fired_clears_the_armed_tick() {
        let mut sim = sim();
        arm(&mut sim, Some(t(5)), 4);
        sim.run();
        assert_eq!(sim.world.fired_epochs, vec![4]);
        // Dispatch called `fired`, so a re-arm with the old key schedules
        // afresh instead of keeping (or cancelling) the dispatched tick.
        arm(&mut sim, Some(t(5)), 4);
        assert_eq!(sim.world.timer.deduped(), 0);
        assert_eq!(sim.world.timer.suppressed(), 0);
        assert_eq!(sim.scheduler().pending(), 1);
    }

    #[test]
    fn cancelled_tick_never_dispatches() {
        let mut sim = sim();
        arm(&mut sim, Some(t(5)), 1);
        sim.scheduler().at(t(5), "other");
        arm(&mut sim, Some(t(9)), 2);
        sim.run();
        assert_eq!(sim.world.seen, vec![(t(5), "other"), (t(9), "tick")]);
        assert_eq!(sim.scheduler().scheduled_count(), 3);
        assert_eq!(sim.scheduler().dispatched_count(), 2);
        assert_eq!(sim.scheduler().cancelled_count(), 1);
    }
}
