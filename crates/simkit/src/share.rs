//! Generalized processor-sharing resource with max-min fair allocation.
//!
//! Models any resource whose concurrent users split a fixed capacity fairly,
//! with an optional per-task rate cap:
//!
//! * a multi-core CPU: `capacity = cores × core_rate`, per-task cap =
//!   `core_rate` (a sequential task cannot use more than one core);
//! * a network link shared by flows: `capacity = link_bandwidth`, per-flow cap
//!   = whatever the flow's other bottleneck allows.
//!
//! Rates are recomputed by water-filling whenever the task set or the
//! capacity changes — but *lazily*: mutators only mark the allocation dirty,
//! and the single water-filling pass runs when rates are next observed
//! ([`next_completion`](ShareResource::next_completion),
//! [`rate_of`](ShareResource::rate_of), …) or when simulated time moves
//! forward. N same-timestamp churn operations therefore cost one fill, and
//! because the fill is a pure function of the task set, the coalesced result
//! is bit-identical to eager per-operation recomputation.
//!
//! State is slot-addressed so a fill does no map lookups: tasks live in a
//! slab (reused slots, so slot order is not [`TaskId`] order), a
//! `TaskId → slot` map serves the API and ascending-id walks, and a
//! cap-ordered index — kept sorted by binary-search insert and remove — is
//! the fill order, so a fill needs no sort.
//!
//! Completion queries are O(1): every fill re-projects every task's
//! completion and keeps the minimum. Every mutation invalidates the
//! allocation, forcing a full refill before the next query, so that
//! minimum is always current.
//!
//! The caller re-arms a [`Timer`](crate::timer::Timer) with
//! [`next_completion`](ShareResource::next_completion) and
//! [`epoch`](ShareResource::epoch) after every change; the timer cancels a
//! superseded tick, so the tick that fires always finds the epoch it was
//! armed with.

use crate::time::{SimSpan, SimTime};
use std::collections::BTreeMap;

/// Identifies a task within one `ShareResource`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

#[derive(Debug, Clone)]
struct Task {
    id: TaskId,
    remaining: f64,
    total: f64,
    cap: f64,
    rate: f64,
}

impl Task {
    /// Position key in the fill order: ascending cap, ties by id. Caps are
    /// positive and finite, so `to_bits` orders exactly like the value.
    fn cap_key(&self) -> (u64, TaskId) {
        (self.cap.to_bits(), self.id)
    }

    /// Completion time at the current rate, seen from `now`; `None` when
    /// starved (rate 0 with work left: never completes at current rates).
    fn done_at(&self, now: SimTime) -> Option<SimTime> {
        if self.rate > 0.0 {
            Some(now + SimSpan::from_secs_f64(self.remaining / self.rate))
        } else if self.remaining <= 0.0 {
            Some(now)
        } else {
            None
        }
    }
}

/// A task removed before completion, with how much work it had left.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemovedTask {
    /// Work units still to do.
    pub remaining: f64,
    /// Fraction of the original work already performed, in `[0, 1]`.
    pub progress: f64,
}

/// Cumulative allocation-churn counters (see
/// [`fill_counters`](ShareResource::fill_counters)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillCounters {
    /// Mutations that invalidated the allocation (add/remove/capacity/…).
    pub churn_ops: u64,
    /// Water-filling passes actually executed. `churn_ops - fills` is the
    /// number of recomputes avoided by same-timestamp coalescing.
    pub fills: u64,
}

/// Max-min fair shared resource. Work and capacity units are arbitrary but
/// must match (e.g. bytes and bytes/second).
#[derive(Debug, Clone)]
pub struct ShareResource {
    capacity: f64,
    /// Task slab; `None` marks a free slot, listed in `free`.
    slots: Vec<Option<Task>>,
    free: Vec<usize>,
    /// Live task → slot, for API lookups and ascending-id walks.
    index: BTreeMap<TaskId, usize>,
    /// Live tasks in fill order, `(cap bits, id, slot)` ascending.
    by_cap: Vec<(u64, TaskId, usize)>,
    last_update: SimTime,
    epoch: u64,
    next_id: u64,
    /// Total work ever completed (for utilization accounting).
    completed_work: f64,
    /// True when a mutation has invalidated `rate` fields and `next_done`.
    dirty: bool,
    /// Earliest projected completion of the last fill. Projected absolute
    /// times are invariant under [`advance`] at constant rates, so it stays
    /// valid until the next fill.
    next_done: Option<SimTime>,
    counters: FillCounters,
}

impl ShareResource {
    /// A resource serving `capacity` work units per second.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive, got {capacity}"
        );
        ShareResource {
            capacity,
            slots: Vec::new(),
            free: Vec::new(),
            index: BTreeMap::new(),
            by_cap: Vec::new(),
            last_update: SimTime::ZERO,
            epoch: 0,
            next_id: 0,
            completed_work: 0.0,
            dirty: false,
            next_done: None,
            counters: FillCounters::default(),
        }
    }

    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Change total capacity (e.g. cores taken away for other duties).
    /// A capacity of exactly `0.0` is allowed — an injected fault can stall
    /// the resource completely; every task then runs at rate 0 and
    /// [`next_completion`](Self::next_completion) reports no upcoming
    /// completion rather than an infinite span.
    pub fn set_capacity(&mut self, now: SimTime, capacity: f64) {
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "capacity must be finite and >= 0, got {capacity}"
        );
        self.advance(now);
        self.capacity = capacity;
        self.bump();
    }

    /// Current membership-change epoch: the completion timer's key.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn task(&self, id: TaskId) -> Option<&Task> {
        self.index.get(&id).map(|&slot| self.live(slot))
    }

    fn live(&self, slot: usize) -> &Task {
        self.slots[slot].as_ref().expect("indexed slot is live")
    }

    /// Submit `work` units with a per-task rate cap of `cap` units/second.
    pub fn add(&mut self, now: SimTime, work: f64, cap: f64) -> TaskId {
        assert!(
            work.is_finite() && work >= 0.0,
            "work must be >= 0, got {work}"
        );
        assert!(cap.is_finite() && cap > 0.0, "cap must be > 0, got {cap}");
        self.advance(now);
        let id = TaskId(self.next_id);
        self.next_id += 1;
        let task = Task {
            id,
            remaining: work,
            total: work,
            cap,
            rate: 0.0,
        };
        let (cap_bits, _) = task.cap_key();
        let slot = self.free.pop().unwrap_or(self.slots.len());
        if slot == self.slots.len() {
            self.slots.push(Some(task));
        } else {
            self.slots[slot] = Some(task);
        }
        self.index.insert(id, slot);
        let pos = self
            .by_cap
            .partition_point(|&(c, i, _)| (c, i) < (cap_bits, id));
        self.by_cap.insert(pos, (cap_bits, id, slot));
        self.bump();
        id
    }

    /// Withdraw a task (e.g. a kernel interrupted by the DOSAS runtime).
    /// Returns its residual work, or `None` if the id is unknown/completed.
    pub fn remove(&mut self, now: SimTime, id: TaskId) -> Option<RemovedTask> {
        self.advance(now);
        let slot = self.index.remove(&id)?;
        let task = self.slots[slot].take().expect("indexed slot is live");
        self.free.push(slot);
        let key = task.cap_key();
        let pos = self
            .by_cap
            .binary_search_by(|&(c, i, _)| (c, i).cmp(&key))
            .expect("live task is in the cap order");
        self.by_cap.remove(pos);
        self.bump();
        let progress = if task.total > 0.0 {
            ((task.total - task.remaining) / task.total).clamp(0.0, 1.0)
        } else {
            1.0
        };
        Some(RemovedTask {
            remaining: task.remaining.max(0.0),
            progress,
        })
    }

    /// Apply progress at the current rates up to `now`.
    ///
    /// If a pending (coalesced) mutation left the rates stale, they are
    /// flushed *before* progress is applied — the stale interval
    /// `[last_update, now)` still began at the mutation timestamp, so the
    /// freshly filled rates are exactly the ones that governed it.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "advance must move forward");
        let dt = (now - self.last_update).as_secs_f64();
        if dt > 0.0 {
            self.ensure_rates();
            for task in self.slots.iter_mut().flatten() {
                let done = task.rate * dt;
                task.remaining = (task.remaining - done).max(0.0);
            }
        }
        self.last_update = now;
    }

    /// The earliest time any current task completes, given current rates.
    /// `None` if the resource is idle, or if every task is rate-starved
    /// (capacity forced to 0 by a fault) — a starved task never completes,
    /// so it contributes no (infinite) completion time.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.ensure_rates();
        self.next_done
    }

    /// Advance to `now`, then remove and return every finished task
    /// (work would complete within half a clock tick), in ascending id.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<TaskId> {
        self.advance(now);
        self.ensure_rates();
        let mut done: Vec<(TaskId, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(slot, t)| {
                t.as_ref()
                    .filter(|t| t.remaining <= t.rate * 0.5e-9 || t.remaining <= 0.0)
                    .map(|t| (t.id, slot))
            })
            .collect();
        if done.is_empty() {
            return Vec::new();
        }
        // Ascending id keeps `completed_work`'s summation order.
        done.sort_unstable();
        for &(id, slot) in &done {
            let t = self.slots[slot].take().expect("listed slot is live");
            self.completed_work += t.total;
            self.index.remove(&id);
            self.free.push(slot);
        }
        let slots = &self.slots;
        self.by_cap.retain(|&(_, _, slot)| slots[slot].is_some());
        self.bump();
        done.into_iter().map(|(id, _)| id).collect()
    }

    /// Fraction of `id`'s work already performed, if the task is live.
    pub fn progress(&self, id: TaskId) -> Option<f64> {
        self.task(id).map(|t| {
            if t.total > 0.0 {
                ((t.total - t.remaining) / t.total).clamp(0.0, 1.0)
            } else {
                1.0
            }
        })
    }

    /// Residual work of `id`, if live.
    pub fn remaining(&self, id: TaskId) -> Option<f64> {
        self.task(id).map(|t| t.remaining.max(0.0))
    }

    /// Current service rate of `id`, if live.
    pub fn rate_of(&mut self, id: TaskId) -> Option<f64> {
        self.ensure_rates();
        self.task(id).map(|t| t.rate)
    }

    /// Sum of current rates divided by capacity, in `[0, 1]`, summed in
    /// ascending id. A zero-capacity (fault-stalled) resource reports 0.
    pub fn utilization(&mut self) -> f64 {
        self.ensure_rates();
        if self.capacity <= 0.0 {
            return 0.0;
        }
        let used: f64 = self.index.values().map(|&slot| self.live(slot).rate).sum();
        (used / self.capacity).clamp(0.0, 1.0)
    }

    /// Total work completed through this resource so far.
    pub fn completed_work(&self) -> f64 {
        self.completed_work
    }

    /// Cumulative churn/fill counters; `churn_ops - fills` recomputes were
    /// avoided by coalescing.
    pub fn fill_counters(&self) -> FillCounters {
        self.counters
    }

    fn bump(&mut self) {
        self.epoch += 1;
        self.dirty = true;
        self.counters.churn_ops += 1;
    }

    /// Flush a pending coalesced mutation: one water-filling pass plus a
    /// completion re-projection. No-op when the allocation is current.
    fn ensure_rates(&mut self) {
        if self.dirty {
            self.dirty = false;
            self.recompute_rates();
        }
    }

    /// Max-min fair water-filling with per-task caps.
    ///
    /// Visiting tasks in ascending cap order (ties by id), each takes
    /// `min(cap, remaining_capacity / remaining_tasks)`; a task that cannot
    /// use its fair share donates the surplus to the rest.
    ///
    /// Afterwards every task's completion is re-projected and the earliest
    /// kept. Tasks with `rate == 0` and work left project nothing — they
    /// will never complete at current rates.
    fn recompute_rates(&mut self) {
        self.counters.fills += 1;
        let mut left = self.capacity;
        let mut remaining_tasks = self.by_cap.len();
        for &(_, _, slot) in &self.by_cap {
            let fair = left / remaining_tasks as f64;
            let task = self.slots[slot].as_mut().expect("ordered slot is live");
            let rate = task.cap.min(fair);
            task.rate = rate;
            left -= rate;
            remaining_tasks -= 1;
        }
        let now = self.last_update;
        self.next_done = self
            .slots
            .iter()
            .flatten()
            .filter_map(|t| t.done_at(now))
            .min();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_task_runs_at_cap() {
        let mut r = ShareResource::new(1000.0);
        let id = r.add(SimTime::ZERO, 100.0, 250.0);
        assert_eq!(r.rate_of(id), Some(250.0));
        let done_at = r.next_completion().unwrap();
        assert!((done_at.as_secs_f64() - 0.4).abs() < 1e-9);
        assert_eq!(r.take_completed(done_at), vec![id]);
        assert!(r.is_empty());
    }

    #[test]
    fn capacity_splits_fairly() {
        let mut r = ShareResource::new(100.0);
        let a = r.add(SimTime::ZERO, 100.0, 1000.0);
        let b = r.add(SimTime::ZERO, 100.0, 1000.0);
        assert_eq!(r.rate_of(a), Some(50.0));
        assert_eq!(r.rate_of(b), Some(50.0));
        // Both finish together at t = 2 s.
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
        let mut done = r.take_completed(t);
        done.sort();
        assert_eq!(done, vec![a, b]);
    }

    #[test]
    fn capped_task_donates_surplus() {
        let mut r = ShareResource::new(100.0);
        let slow = r.add(SimTime::ZERO, 10.0, 10.0);
        let fast = r.add(SimTime::ZERO, 10.0, 1000.0);
        // slow takes its cap (10); fast gets the remaining 90.
        assert_eq!(r.rate_of(slow), Some(10.0));
        assert_eq!(r.rate_of(fast), Some(90.0));
    }

    #[test]
    fn departure_speeds_up_survivors() {
        let mut r = ShareResource::new(100.0);
        let a = r.add(SimTime::ZERO, 100.0, 1000.0);
        let b = r.add(SimTime::ZERO, 100.0, 1000.0);
        // At t=1s, each has done 50 units. Remove b.
        let removed = r.remove(secs(1.0), b).unwrap();
        assert!((removed.remaining - 50.0).abs() < 1e-9);
        assert!((removed.progress - 0.5).abs() < 1e-9);
        // a now runs at 100; its 50 residual units finish at t=1.5s.
        assert_eq!(r.rate_of(a), Some(100.0));
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn epoch_moves_on_every_change() {
        let mut r = ShareResource::new(10.0);
        let e0 = r.epoch();
        let id = r.add(SimTime::ZERO, 5.0, 10.0);
        assert_ne!(r.epoch(), e0);
        let e1 = r.epoch();
        r.remove(SimTime::ZERO, id);
        assert_ne!(r.epoch(), e1);
        let e2 = r.epoch();
        r.set_capacity(SimTime::ZERO, 20.0);
        assert_ne!(r.epoch(), e2);
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut r = ShareResource::new(10.0);
        let id = r.add(SimTime::ZERO, 0.0, 10.0);
        let t = r.next_completion().unwrap();
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(r.take_completed(t), vec![id]);
    }

    #[test]
    fn utilization_reflects_caps() {
        let mut r = ShareResource::new(100.0);
        r.add(SimTime::ZERO, 10.0, 25.0);
        assert!((r.utilization() - 0.25).abs() < 1e-12);
        r.add(SimTime::ZERO, 10.0, 25.0);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn late_joiner_shares_from_arrival() {
        // a: 100 units alone for 0.5 s at rate 100 -> 50 left.
        // b joins at 0.5 s; both run at 50 -> a finishes at 1.5 s.
        let mut r = ShareResource::new(100.0);
        let a = r.add(SimTime::ZERO, 100.0, 1000.0);
        let _b = r.add(secs(0.5), 100.0, 1000.0);
        assert_eq!(r.rate_of(a), Some(50.0));
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(r.take_completed(t), vec![a]);
    }

    #[test]
    fn completed_work_accumulates() {
        let mut r = ShareResource::new(10.0);
        r.add(SimTime::ZERO, 5.0, 10.0);
        let t = r.next_completion().unwrap();
        r.take_completed(t);
        assert!((r.completed_work() - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cap must be > 0")]
    fn zero_cap_rejected() {
        let mut r = ShareResource::new(10.0);
        r.add(SimTime::ZERO, 1.0, 0.0);
    }

    #[test]
    fn zero_capacity_stalls_without_panicking() {
        // A fault can force capacity to exactly 0: rates drop to 0, no
        // completion is projected (previously an infinite span), and
        // restoring capacity resumes the residual work.
        let mut r = ShareResource::new(10.0);
        let id = r.add(SimTime::ZERO, 10.0, 10.0);
        r.set_capacity(secs(0.5), 0.0); // 5 units done so far
        assert_eq!(r.rate_of(id), Some(0.0));
        assert_eq!(r.next_completion(), None);
        assert_eq!(r.utilization(), 0.0);
        // Nothing progresses while stalled.
        r.advance(secs(5.0));
        assert!((r.remaining(id).unwrap() - 5.0).abs() < 1e-9);
        // Restore: 5 residual units at rate 10 finish 0.5 s later.
        r.set_capacity(secs(5.0), 10.0);
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 5.5).abs() < 1e-9);
        assert_eq!(r.take_completed(t), vec![id]);
    }

    #[test]
    fn coalesced_mutations_fill_once() {
        let mut r = ShareResource::new(100.0);
        let base = r.fill_counters();
        let a = r.add(SimTime::ZERO, 10.0, 1000.0);
        let b = r.add(SimTime::ZERO, 10.0, 1000.0);
        let _c = r.add(SimTime::ZERO, 10.0, 1000.0);
        r.remove(SimTime::ZERO, b);
        // Four mutations, zero observations: no fill has run yet.
        let mid = r.fill_counters();
        assert_eq!(mid.churn_ops - base.churn_ops, 4);
        assert_eq!(mid.fills, base.fills);
        // First observation flushes exactly one pass.
        assert_eq!(r.rate_of(a), Some(50.0));
        let after = r.fill_counters();
        assert_eq!(after.fills, mid.fills + 1);
        // A second observation with no churn costs nothing.
        let _ = r.next_completion();
        assert_eq!(r.fill_counters().fills, after.fills);
    }

    #[test]
    fn next_completion_forgets_removed_tasks() {
        let mut r = ShareResource::new(100.0);
        let a = r.add(SimTime::ZERO, 100.0, 1000.0);
        let _ = r.next_completion(); // a alone: t=1
        let b = r.add(SimTime::ZERO, 10.0, 1000.0);
        let _ = r.next_completion(); // a at t=2, b at t=0.2: earliest 0.2
        r.remove(SimTime::ZERO, b);
        // b's projection is gone; a is alone again and finishes at t=1.
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(r.rate_of(a), Some(100.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Max-min fairness invariants after an arbitrary set of arrivals:
    /// no task exceeds its cap; the capacity is never oversubscribed; and if
    /// capacity is left over, every task is pinned at its own cap.
    #[test]
    fn rates_satisfy_max_min() {
        proptest!(|(caps in proptest::collection::vec(0.01f64..100.0, 1..40),
                    capacity in 0.1f64..500.0)| {
            let mut r = ShareResource::new(capacity);
            let ids: Vec<TaskId> = caps
                .iter()
                .map(|&c| r.add(SimTime::ZERO, 1.0, c))
                .collect();
            let rates: Vec<f64> = ids.iter().map(|&id| r.rate_of(id).unwrap()).collect();
            let total: f64 = rates.iter().sum();
            prop_assert!(total <= capacity * (1.0 + 1e-9));
            for (rate, cap) in rates.iter().zip(caps.iter()) {
                prop_assert!(*rate <= cap * (1.0 + 1e-9));
                prop_assert!(*rate >= 0.0);
            }
            if total < capacity * (1.0 - 1e-9) {
                // Leftover capacity => every task must be at its cap.
                for (rate, cap) in rates.iter().zip(caps.iter()) {
                    prop_assert!((rate - cap).abs() <= cap * 1e-9);
                }
            }
        });
    }

    /// Work conservation: tasks all submitted at t=0 with equal caps complete
    /// exactly when the integral of their service rate equals their work.
    #[test]
    fn equal_tasks_complete_at_analytic_time() {
        proptest!(|(n in 1usize..30, work in 1.0f64..1000.0, capacity in 1.0f64..1000.0)| {
            let mut r = ShareResource::new(capacity);
            for _ in 0..n {
                r.add(SimTime::ZERO, work, capacity * 2.0);
            }
            let expect = n as f64 * work / capacity;
            let t = r.next_completion().unwrap();
            prop_assert!((t.as_secs_f64() - expect).abs() < 1e-6 * expect.max(1.0));
            let done = r.take_completed(t);
            prop_assert_eq!(done.len(), n);
        });
    }

    /// Removing and re-adding a task's residual work must not create or
    /// destroy work: the end-to-end completion time matches a task that was
    /// never interrupted (single-task case, constant rate).
    #[test]
    fn interruption_conserves_work() {
        proptest!(|(work in 1.0f64..100.0, cut in 0.05f64..0.95)| {
            let capacity = 10.0;
            // Uninterrupted reference.
            let expect = work / capacity;

            let mut r = ShareResource::new(capacity);
            let id = r.add(SimTime::ZERO, work, capacity);
            let cut_at = SimTime::from_secs_f64(expect * cut);
            let removed = r.remove(cut_at, id).unwrap();
            let id2 = r.add(cut_at, removed.remaining, capacity);
            let t = r.next_completion().unwrap();
            prop_assert!((t.as_secs_f64() - expect).abs() < 1e-6);
            prop_assert_eq!(r.take_completed(t), vec![id2]);
        });
    }

    /// Oracle: a lazily coalesced op batch must produce bit-identical rates
    /// and completion projections to a mirror resource that is forced to
    /// flush (observe rates) after every single operation.
    #[test]
    fn coalesced_fill_matches_eager_fill() {
        // Op encoding: (kind, work, cap-or-capacity, victim-index).
        // kind 0 => Add{work, cap}; 1 => Remove(victim); 2 => SetCapacity.
        let op = || (0u8..3, 0.1f64..100.0, 0.0f64..300.0, 0usize..64);
        proptest!(|(batches in collection::vec(
                        (collection::vec(op(), 1..8), 0.0f64..0.5),
                        1..12))| {
            let mut lazy = ShareResource::new(100.0);
            let mut eager = ShareResource::new(100.0);
            let mut now = SimTime::ZERO;
            let mut lazy_ids: Vec<TaskId> = Vec::new();
            let mut eager_ids: Vec<TaskId> = Vec::new();
            for (ops, dt) in batches {
                now += SimSpan::from_secs_f64(dt);
                for (kind, work, c, victim) in ops {
                    match kind {
                        0 => {
                            let cap = c.max(0.1); // per-task cap must stay > 0
                            lazy_ids.push(lazy.add(now, work, cap));
                            eager_ids.push(eager.add(now, work, cap));
                        }
                        1 => {
                            if !lazy_ids.is_empty() {
                                let i = victim % lazy_ids.len();
                                lazy.remove(now, lazy_ids.remove(i));
                                eager.remove(now, eager_ids.remove(i));
                            }
                        }
                        _ => {
                            lazy.set_capacity(now, c);
                            eager.set_capacity(now, c);
                        }
                    }
                    // Force the eager mirror to fill after every op.
                    for &id in &eager_ids {
                        let _ = eager.rate_of(id);
                    }
                }
                // End of coalesced batch: both sides observed once.
                prop_assert_eq!(
                    lazy.next_completion(), eager.next_completion(),
                    "completion projections diverged"
                );
                for (&l, &e) in lazy_ids.iter().zip(eager_ids.iter()) {
                    let lr = lazy.rate_of(l).unwrap();
                    let er = eager.rate_of(e).unwrap();
                    prop_assert_eq!(lr.to_bits(), er.to_bits(), "rates diverged");
                    let lrem = lazy.remaining(l).unwrap();
                    let erem = eager.remaining(e).unwrap();
                    prop_assert_eq!(lrem.to_bits(), erem.to_bits(), "remaining diverged");
                }
            }
        });
    }

    /// Oracle for the slot-indexed resource: random schedules of every
    /// mutator and observer must agree bit for bit with the reference
    /// implementation (ordered map, per-fill sort, completion heap). Caps
    /// come from a small set half the time, so equal-cap ties — ordered by
    /// id — are common.
    #[test]
    fn slot_indexed_share_matches_reference() {
        // Op encoding: (kind, work, cap-ish, pick-cap-from-set, victim).
        // kind 0/1 => add; 2 => remove; 3 => set_capacity; 4 => advance;
        // 5 => take_completed.
        let op = || (0u8..6, 0.0f64..50.0, 0.01f64..300.0, 0u8..2, 0usize..64);
        const CAPS: [f64; 4] = [0.5, 10.0, 25.0, 100.0];
        proptest!(|(batches in collection::vec(
                        (collection::vec(op(), 1..12), 0.0f64..0.5),
                        1..16))| {
            let mut r = ShareResource::new(100.0);
            let mut oracle = reference::Share::new(100.0);
            let mut now = SimTime::ZERO;
            let mut live: Vec<TaskId> = Vec::new();
            for (ops, dt) in batches {
                now += SimSpan::from_secs_f64(dt);
                for (kind, work, c, from_set, victim) in ops {
                    match kind {
                        0 | 1 => {
                            let cap = if from_set == 1 { CAPS[victim % CAPS.len()] } else { c };
                            let id = r.add(now, work, cap);
                            prop_assert_eq!(id, oracle.add(now, work, cap));
                            live.push(id);
                        }
                        2 if !live.is_empty() => {
                            let id = live.remove(victim % live.len());
                            prop_assert_eq!(r.remove(now, id), oracle.remove(now, id));
                        }
                        3 => {
                            // A quarter of the capacity changes stall the resource.
                            let capacity = if victim % 4 == 0 { 0.0 } else { c };
                            r.set_capacity(now, capacity);
                            oracle.set_capacity(now, capacity);
                        }
                        4 => {
                            now += SimSpan::from_secs_f64(work / 100.0);
                            r.advance(now);
                            oracle.advance(now);
                        }
                        5 => {
                            let done = r.take_completed(now);
                            prop_assert_eq!(&done, &oracle.take_completed(now));
                            live.retain(|id| !done.contains(id));
                        }
                        _ => {}
                    }
                }
                prop_assert_eq!(r.next_completion(), oracle.next_completion());
                prop_assert_eq!(r.utilization().to_bits(), oracle.utilization().to_bits());
                prop_assert_eq!(r.completed_work().to_bits(), oracle.completed_work.to_bits());
                prop_assert_eq!(r.len(), live.len());
                for &id in &live {
                    prop_assert_eq!(r.rate_of(id).map(f64::to_bits),
                                    oracle.rate_of(id).map(f64::to_bits));
                    prop_assert_eq!(r.remaining(id).map(f64::to_bits),
                                    oracle.remaining(id).map(f64::to_bits));
                }
                // Run the clock forward to the next completion, so tasks
                // actually finish and slots get reused.
                if let Some(t) = r.next_completion() {
                    now = now.max(t);
                    let done = r.take_completed(now);
                    prop_assert_eq!(&done, &oracle.take_completed(now));
                    live.retain(|id| !done.contains(id));
                }
            }
        });
    }

    /// The pre-slab `ShareResource`, kept verbatim as the oracle's
    /// reference: an ordered task map, a per-fill sort by cap, and a
    /// generation-tagged completion heap rebuilt on every fill.
    mod reference {
        use super::{RemovedTask, SimSpan, SimTime, TaskId};
        use std::cmp::Reverse;
        use std::collections::{BTreeMap, BinaryHeap};

        struct Task {
            remaining: f64,
            total: f64,
            cap: f64,
            rate: f64,
            gen: u64,
        }

        pub struct Share {
            capacity: f64,
            tasks: BTreeMap<TaskId, Task>,
            last_update: SimTime,
            next_id: u64,
            pub completed_work: f64,
            dirty: bool,
            heap: BinaryHeap<Reverse<(SimTime, u64, TaskId)>>,
            next_gen: u64,
        }

        impl Share {
            pub fn new(capacity: f64) -> Self {
                Share {
                    capacity,
                    tasks: BTreeMap::new(),
                    last_update: SimTime::ZERO,
                    next_id: 0,
                    completed_work: 0.0,
                    dirty: false,
                    heap: BinaryHeap::new(),
                    next_gen: 0,
                }
            }

            pub fn set_capacity(&mut self, now: SimTime, capacity: f64) {
                self.advance(now);
                self.capacity = capacity;
                self.dirty = true;
            }

            pub fn add(&mut self, now: SimTime, work: f64, cap: f64) -> TaskId {
                self.advance(now);
                let id = TaskId(self.next_id);
                self.next_id += 1;
                let task = Task {
                    remaining: work,
                    total: work,
                    cap,
                    rate: 0.0,
                    gen: u64::MAX,
                };
                self.tasks.insert(id, task);
                self.dirty = true;
                id
            }

            pub fn remove(&mut self, now: SimTime, id: TaskId) -> Option<RemovedTask> {
                self.advance(now);
                let task = self.tasks.remove(&id)?;
                self.dirty = true;
                let progress = if task.total > 0.0 {
                    ((task.total - task.remaining) / task.total).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                Some(RemovedTask {
                    remaining: task.remaining.max(0.0),
                    progress,
                })
            }

            pub fn advance(&mut self, now: SimTime) {
                let dt = (now - self.last_update).as_secs_f64();
                if dt > 0.0 {
                    self.ensure_rates();
                    for task in self.tasks.values_mut() {
                        let done = task.rate * dt;
                        task.remaining = (task.remaining - done).max(0.0);
                    }
                }
                self.last_update = now;
            }

            pub fn next_completion(&mut self) -> Option<SimTime> {
                self.ensure_rates();
                while let Some(&Reverse((t, gen, id))) = self.heap.peek() {
                    match self.tasks.get(&id) {
                        Some(task) if task.gen == gen => return Some(t),
                        _ => {
                            self.heap.pop();
                        }
                    }
                }
                None
            }

            pub fn take_completed(&mut self, now: SimTime) -> Vec<TaskId> {
                self.advance(now);
                self.ensure_rates();
                let done: Vec<TaskId> = self
                    .tasks
                    .iter()
                    .filter(|(_, t)| t.remaining <= t.rate * 0.5e-9 || t.remaining <= 0.0)
                    .map(|(&id, _)| id)
                    .collect();
                if !done.is_empty() {
                    for id in &done {
                        if let Some(t) = self.tasks.remove(id) {
                            self.completed_work += t.total;
                        }
                    }
                    self.dirty = true;
                }
                done
            }

            pub fn remaining(&self, id: TaskId) -> Option<f64> {
                self.tasks.get(&id).map(|t| t.remaining.max(0.0))
            }

            pub fn rate_of(&mut self, id: TaskId) -> Option<f64> {
                self.ensure_rates();
                self.tasks.get(&id).map(|t| t.rate)
            }

            pub fn utilization(&mut self) -> f64 {
                self.ensure_rates();
                if self.capacity <= 0.0 {
                    return 0.0;
                }
                let used: f64 = self.tasks.values().map(|t| t.rate).sum();
                (used / self.capacity).clamp(0.0, 1.0)
            }

            fn ensure_rates(&mut self) {
                if !self.dirty {
                    return;
                }
                self.dirty = false;
                let n = self.tasks.len();
                if n == 0 {
                    return;
                }
                let mut order: Vec<TaskId> = self.tasks.keys().copied().collect();
                order.sort_by(|a, b| {
                    let ca = self.tasks[a].cap;
                    let cb = self.tasks[b].cap;
                    ca.partial_cmp(&cb).unwrap().then(a.cmp(b))
                });
                let mut left = self.capacity;
                let mut remaining_tasks = n;
                for id in order {
                    let fair = left / remaining_tasks as f64;
                    let task = self.tasks.get_mut(&id).expect("task in order list");
                    let rate = task.cap.min(fair);
                    task.rate = rate;
                    left -= rate;
                    remaining_tasks -= 1;
                }
                self.heap.clear();
                for (&id, task) in self.tasks.iter_mut() {
                    let done_at = if task.rate > 0.0 {
                        Some(self.last_update + SimSpan::from_secs_f64(task.remaining / task.rate))
                    } else if task.remaining <= 0.0 {
                        Some(self.last_update)
                    } else {
                        None
                    };
                    if let Some(t) = done_at {
                        task.gen = self.next_gen;
                        self.heap.push(Reverse((t, self.next_gen, id)));
                        self.next_gen += 1;
                    } else {
                        task.gen = u64::MAX;
                    }
                }
            }
        }
    }
}
