//! Generalized processor sharing (GPS) by virtual time.
//!
//! Models a resource whose live tasks split its capacity equally, each
//! capped at one per-task rate set at construction. A multi-core CPU that
//! time-slices kernels is `capacity = cores × core_rate`, `cap = core_rate`:
//! a sequential task cannot use more than one core. Every live task runs at
//! the same rate, `min(cap, capacity / n)`.
//!
//! Because that rate is shared, no task keeps its own progress. One
//! accumulator, the virtual time `S`, integrates the per-task rate over
//! simulated time (`S += rate · dt`). A task added with `work` units gets
//! the finish tag `S + work`: it has `tag − S` units left and completes when
//! `S` reaches its tag. Tags sit in a min-heap keyed by `(tag, TaskId)`, so
//! the next completion is `last_update + (tag_min − S) / rate`, and a change
//! of `n` or of the capacity only changes how fast `S` moves. An interrupted
//! task leaves the id map at once; its heap entry stays behind and is
//! dropped when it reaches the top (lazy deletion). Every operation is
//! O(log n).
//!
//! Precision: `tag − S` carries the rounding error of the larger operand,
//! and `S` gathers one rounding per operation. So `S` restarts at 0 whenever
//! the resource drains, and once it reaches one second of full-rate service
//! (`cap × 1 s`) every live tag is rebased by `−S`, an O(n) pass at most
//! once per second of per-task service. Tags therefore stay within
//! `cap × 1 s + work`, and a completion time stays within a nanosecond of
//! per-task bookkeeping (the `reference` water-fill in this module's tests)
//! for a CPU busy for 10^5 s at up to 10^4 tasks per core.
//!
//! The caller re-arms a [`Timer`](crate::timer::Timer) with
//! [`next_completion`](ShareResource::next_completion) and
//! [`epoch`](ShareResource::epoch) after every change; the timer cancels a
//! superseded tick, so the tick that fires always finds the epoch it was
//! armed with.

use crate::time::{SimSpan, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Identifies a task within one `ShareResource`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

/// A task removed before completion, with how much work it had left.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemovedTask {
    /// Work units still to do.
    pub remaining: f64,
    /// Fraction of the original work already performed, in `[0, 1]`.
    pub progress: f64,
}

/// Cumulative work counters (see
/// [`fill_counters`](ShareResource::fill_counters)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillCounters {
    /// Operations that changed the equal share: add, interrupt, capacity
    /// change, and a completion pass that completed something.
    pub churn_ops: u64,
    /// Task entries read or written: one per add or interrupt, one per heap
    /// entry a completion query inspects or pops, every live task per
    /// rebase. Each costs O(log n) in the map or heap.
    pub tasks_touched: u64,
}

/// A live task: its finish tag and its original work.
#[derive(Debug, Clone, Copy)]
struct Task {
    tag: f64,
    work: f64,
}

/// Seconds of full-rate service after which live tags are rebased.
const REBASE_SECS: f64 = 1.0;

/// Equal-share processor-sharing resource. Work and capacity units are
/// arbitrary but must match (e.g. core-seconds and cores).
#[derive(Debug, Clone)]
pub struct ShareResource {
    capacity: f64,
    /// Per-task rate cap.
    cap: f64,
    /// Live tasks by id.
    tasks: BTreeMap<TaskId, Task>,
    /// `(tag bits, id)`, earliest tag on top; may hold interrupted tasks'
    /// entries. Tags are never negative, so their bits order like their
    /// values.
    finish: BinaryHeap<Reverse<(u64, TaskId)>>,
    /// Virtual time `S`: the service one task present since the last drain
    /// or rebase has received.
    vtime: f64,
    last_update: SimTime,
    epoch: u64,
    next_id: u64,
    counters: FillCounters,
}

impl ShareResource {
    /// A resource serving `capacity` work units per second, at most `cap`
    /// of them to any one task.
    pub fn new(capacity: f64, cap: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive, got {capacity}"
        );
        assert!(cap.is_finite() && cap > 0.0, "cap must be > 0, got {cap}");
        ShareResource {
            capacity,
            cap,
            tasks: BTreeMap::new(),
            finish: BinaryHeap::new(),
            vtime: 0.0,
            last_update: SimTime::ZERO,
            epoch: 0,
            next_id: 0,
            counters: FillCounters::default(),
        }
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
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Submit `work` units.
    pub fn add(&mut self, now: SimTime, work: f64) -> TaskId {
        assert!(
            work.is_finite() && work >= 0.0,
            "work must be >= 0, got {work}"
        );
        self.advance(now);
        let id = TaskId(self.next_id);
        self.next_id += 1;
        let tag = self.vtime + work;
        self.tasks.insert(id, Task { tag, work });
        self.finish.push(Reverse((tag.to_bits(), id)));
        self.counters.tasks_touched += 1;
        self.bump();
        id
    }

    /// Withdraw a task (e.g. a kernel interrupted by the DOSAS runtime).
    /// Returns its residual work, or `None` if the id is unknown/completed.
    /// Its heap entry is left for a later completion query to drop.
    pub fn remove(&mut self, now: SimTime, id: TaskId) -> Option<RemovedTask> {
        self.advance(now);
        let task = self.tasks.remove(&id)?;
        self.counters.tasks_touched += 1;
        let remaining = (task.tag - self.vtime).max(0.0);
        self.bump();
        let progress = if task.work > 0.0 {
            ((task.work - remaining) / task.work).clamp(0.0, 1.0)
        } else {
            1.0
        };
        Some(RemovedTask {
            remaining,
            progress,
        })
    }

    /// The earliest time any current task completes, given the current
    /// share. `None` if the resource is idle, or stalled at capacity 0 with
    /// work left.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        let tag = loop {
            let Reverse((tag, id)) = *self.finish.peek()?;
            self.counters.tasks_touched += 1;
            if self.tasks.contains_key(&id) {
                break f64::from_bits(tag);
            }
            self.finish.pop();
        };
        let left = (tag - self.vtime).max(0.0);
        let rate = self.rate();
        if rate > 0.0 {
            Some(self.last_update + SimSpan::from_secs_f64(left / rate))
        } else if left <= 0.0 {
            Some(self.last_update)
        } else {
            None
        }
    }

    /// Advance to `now`, then remove and return every finished task
    /// (work would complete within half a clock tick), in ascending id.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<TaskId> {
        self.advance(now);
        let slack = self.rate() * 0.5e-9;
        let mut done = Vec::new();
        while let Some(&Reverse((tag, id))) = self.finish.peek() {
            self.counters.tasks_touched += 1;
            if f64::from_bits(tag) - self.vtime > slack && self.tasks.contains_key(&id) {
                break;
            }
            self.finish.pop();
            if self.tasks.remove(&id).is_some() {
                done.push(id);
            }
        }
        if !done.is_empty() {
            done.sort_unstable();
            self.bump();
        }
        done
    }

    /// Cumulative churn and work counters.
    pub fn fill_counters(&self) -> FillCounters {
        self.counters
    }

    /// The rate every live task receives.
    fn rate(&self) -> f64 {
        if self.tasks.is_empty() {
            0.0
        } else {
            self.cap.min(self.capacity / self.tasks.len() as f64)
        }
    }

    /// Move virtual time to `now` at the current share, rebasing the tags
    /// once `S` reaches `cap × REBASE_SECS`. A task that finished but is
    /// not yet taken rebases to 0, keeping tags non-negative: its residual
    /// was 0 before and stays 0.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "advance must move forward");
        self.vtime += self.rate() * (now - self.last_update).as_secs_f64();
        self.last_update = now;
        if self.vtime >= self.cap * REBASE_SECS {
            let s = self.vtime;
            self.vtime = 0.0;
            for task in self.tasks.values_mut() {
                task.tag = (task.tag - s).max(0.0);
            }
            self.counters.tasks_touched += self.tasks.len() as u64;
            self.finish = self
                .tasks
                .iter()
                .map(|(&id, t)| Reverse((t.tag.to_bits(), id)))
                .collect();
        }
    }

    /// A change to the share: move the epoch. A drained resource restarts
    /// virtual time at 0 and drops the heap entries of interrupted tasks.
    fn bump(&mut self) {
        self.epoch += 1;
        self.counters.churn_ops += 1;
        if self.tasks.is_empty() {
            self.vtime = 0.0;
            self.finish.clear();
        }
    }

    /// Residual work of `id`, if live.
    #[cfg(test)]
    fn remaining(&self, id: TaskId) -> Option<f64> {
        self.tasks.get(&id).map(|t| (t.tag - self.vtime).max(0.0))
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
        let mut r = ShareResource::new(1000.0, 250.0);
        let id = r.add(SimTime::ZERO, 100.0);
        assert_eq!(r.rate(), 250.0);
        let done_at = r.next_completion().unwrap();
        assert!((done_at.as_secs_f64() - 0.4).abs() < 1e-9);
        assert_eq!(r.take_completed(done_at), vec![id]);
        assert!(r.is_empty());
    }

    #[test]
    fn capacity_splits_fairly() {
        let mut r = ShareResource::new(100.0, 1000.0);
        let a = r.add(SimTime::ZERO, 100.0);
        let b = r.add(SimTime::ZERO, 100.0);
        assert_eq!(r.rate(), 50.0);
        // Both finish together at t = 2 s.
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(r.take_completed(t), vec![a, b]);
    }

    #[test]
    fn departure_speeds_up_survivors() {
        let mut r = ShareResource::new(100.0, 1000.0);
        let _a = r.add(SimTime::ZERO, 100.0);
        let b = r.add(SimTime::ZERO, 100.0);
        // At t=1s, each has done 50 units. Remove b.
        let removed = r.remove(secs(1.0), b).unwrap();
        assert!((removed.remaining - 50.0).abs() < 1e-9);
        assert!((removed.progress - 0.5).abs() < 1e-9);
        // a now runs at 100; its 50 residual units finish at t=1.5s.
        assert_eq!(r.rate(), 100.0);
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn epoch_moves_on_every_change() {
        let mut r = ShareResource::new(10.0, 10.0);
        let e0 = r.epoch();
        let id = r.add(SimTime::ZERO, 5.0);
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
        let mut r = ShareResource::new(10.0, 10.0);
        let id = r.add(SimTime::ZERO, 0.0);
        let t = r.next_completion().unwrap();
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(r.take_completed(t), vec![id]);
    }

    #[test]
    fn late_joiner_shares_from_arrival() {
        // a: 100 units alone for 0.5 s at rate 100 -> 50 left.
        // b joins at 0.5 s; both run at 50 -> a finishes at 1.5 s.
        let mut r = ShareResource::new(100.0, 1000.0);
        let a = r.add(SimTime::ZERO, 100.0);
        let _b = r.add(secs(0.5), 100.0);
        assert_eq!(r.rate(), 50.0);
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(r.take_completed(t), vec![a]);
    }

    #[test]
    #[should_panic(expected = "cap must be > 0")]
    fn zero_cap_rejected() {
        ShareResource::new(10.0, 0.0);
    }

    #[test]
    fn zero_capacity_stalls_without_panicking() {
        // A fault can force capacity to exactly 0: the rate drops to 0, no
        // completion is projected (previously an infinite span), and
        // restoring capacity resumes the residual work.
        let mut r = ShareResource::new(10.0, 10.0);
        let id = r.add(SimTime::ZERO, 10.0);
        r.set_capacity(secs(0.5), 0.0); // 5 units done so far
        assert_eq!(r.rate(), 0.0);
        assert_eq!(r.next_completion(), None);
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
    fn next_completion_forgets_removed_tasks() {
        let mut r = ShareResource::new(100.0, 1000.0);
        let _a = r.add(SimTime::ZERO, 100.0);
        let _ = r.next_completion(); // a alone: t=1
        let b = r.add(SimTime::ZERO, 10.0);
        let _ = r.next_completion(); // a at t=2, b at t=0.2: earliest 0.2
        r.remove(SimTime::ZERO, b);
        // b's heap entry is stale; a is alone again and finishes at t=1.
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(r.rate(), 100.0);
    }

    #[test]
    fn drain_restarts_virtual_time() {
        let mut r = ShareResource::new(1.0, 1.0);
        let a = r.add(SimTime::ZERO, 0.5);
        let b = r.add(SimTime::ZERO, 0.75);
        r.remove(secs(0.5), b);
        assert_eq!(r.take_completed(secs(1.0)), vec![a]);
        assert_eq!((r.vtime, r.finish.len()), (0.0, 0));
        // A task added after the drain is tagged with exactly its work.
        let c = r.add(secs(2.0), 0.25);
        assert_eq!(r.tasks[&c].tag, 0.25);
    }

    /// Long horizon: one core busy for 10^5 s while `n` swings between 1
    /// and 10^4. A long task keeps the CPU from draining, so virtual time
    /// grows by 10^4 over each solo stretch; each swing then adds 9,999 tasks
    /// in 100 equal-work groups, which run at 10^-4 of a core. Every
    /// completion pass must take the same ids at the same nanosecond, give or
    /// take one, as the per-task water-fill.
    #[test]
    fn long_horizon_completions_stay_within_a_nanosecond() {
        let mut r = ShareResource::new(1.0, 1.0);
        let mut oracle = reference::Share::new(1.0);
        let long = r.add(SimTime::ZERO, 1.0e6);
        oracle.add(SimTime::ZERO, 1.0e6, 1.0);
        let mut now = SimTime::ZERO;
        let mut worst_ns = 0;
        for swing in 0..5u32 {
            // The long task alone for 10^4 s.
            now += SimSpan::from_secs(10_000);
            assert!(r.take_completed(now).is_empty());
            assert!(oracle.take_completed(now).is_empty());
            for group in 0..100u32 {
                let work = 0.5 + f64::from(group) * 0.0101 + f64::from(swing) * 1e-3;
                for _ in 0..if group == 0 { 99 } else { 100 } {
                    assert_eq!(r.add(now, work), oracle.add(now, work, 1.0));
                }
            }
            while r.len() > 1 {
                let (got, want) = (
                    r.next_completion().unwrap(),
                    oracle.next_completion().unwrap(),
                );
                worst_ns = worst_ns.max(got.as_nanos().abs_diff(want.as_nanos()));
                now = want;
                let group = if r.len() == 10_000 { 99 } else { 100 };
                let done = r.take_completed(now);
                assert_eq!(done.len(), group);
                assert_eq!(done, oracle.take_completed(now), "swing {swing} at {now}");
            }
        }
        assert!(now.as_secs_f64() >= 1.0e5, "busy for {now}");
        assert!(
            worst_ns <= 1,
            "completions drifted {worst_ns} ns from the reference"
        );
        let left = r.remove(now, long).unwrap().remaining;
        let want = oracle.remove(now, long).unwrap().remaining;
        assert!((left - want).abs() <= 1e-9 * 1.0e6, "{left} vs {want}");
    }

    /// Run `f` on `r`, checking that it touched at most `bound` tasks.
    fn counted<T>(r: &mut ShareResource, bound: u64, f: impl FnOnce(&mut ShareResource) -> T) -> T {
        let before = r.fill_counters().tasks_touched;
        let out = f(r);
        let touched = r.fill_counters().tasks_touched - before;
        assert!(touched <= bound, "an operation touched {touched} tasks");
        out
    }

    /// Work per operation at 1,024 live tasks: every add, interrupt,
    /// capacity change, completion query and completion pass touches at
    /// most 2·log2(n) task entries. A water-fill walks all 1,024 tasks
    /// several times per operation.
    #[test]
    fn work_per_operation_is_logarithmic_at_1024_tasks() {
        const N: usize = 1024;
        let bound = 2 * u64::from(N.ilog2());
        let mut r = ShareResource::new(1.0, 1.0);
        let mut live: Vec<TaskId> = (0..N)
            .map(|i| r.add(SimTime::ZERO, 0.01 + i as f64 * 1e-4))
            .collect();
        for step in 0..4096usize {
            let work = 0.01 + (step % 977) as f64 * 1e-4;
            let now = counted(&mut r, bound, |r| r.next_completion()).expect("busy");
            let done = counted(&mut r, bound, |r| r.take_completed(now));
            assert!(!done.is_empty());
            live.retain(|id| !done.contains(id));
            for _ in 0..done.len() {
                live.push(counted(&mut r, bound, |r| r.add(now, work)));
            }
            if step % 3 == 0 {
                let victim = live.swap_remove(step * 7919 % live.len());
                assert!(counted(&mut r, bound, |r| r.remove(now, victim)).is_some());
                live.push(counted(&mut r, bound, |r| r.add(now, work)));
            }
            if step % 5 == 0 {
                let capacity = if step % 10 == 0 { 0.5 } else { 1.0 };
                counted(&mut r, bound, |r| r.set_capacity(now, capacity));
            }
            assert_eq!(r.len(), N);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Work conservation: tasks all submitted at t=0 complete exactly when
    /// the integral of their service rate equals their work.
    #[test]
    fn equal_tasks_complete_at_analytic_time() {
        proptest!(|(n in 1usize..30, work in 1.0f64..1000.0, capacity in 1.0f64..1000.0)| {
            let mut r = ShareResource::new(capacity, capacity * 2.0);
            for _ in 0..n {
                r.add(SimTime::ZERO, work);
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

            let mut r = ShareResource::new(capacity, capacity);
            let id = r.add(SimTime::ZERO, work);
            let cut_at = SimTime::from_secs_f64(expect * cut);
            let removed = r.remove(cut_at, id).unwrap();
            let id2 = r.add(cut_at, removed.remaining);
            let t = r.next_completion().unwrap();
            prop_assert!((t.as_secs_f64() - expect).abs() < 1e-6);
            prop_assert_eq!(r.take_completed(t), vec![id2]);
        });
    }

    /// `a` within `rel` of `b`, relative to `scale`.
    fn close(a: f64, b: f64, rel: f64, scale: f64) -> bool {
        (a - b).abs() <= rel * scale.max(f64::MIN_POSITIVE)
    }

    /// Completion projections within a nanosecond of each other.
    fn within_ns(a: Option<SimTime>, b: Option<SimTime>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => a.as_nanos().abs_diff(b.as_nanos()) <= 1,
            (a, b) => a == b,
        }
    }

    /// Differential oracle: random schedules of adds, interrupts, capacity
    /// changes (a quarter of them to 0), idle advances and completion
    /// passes, on a uniform cap, must complete the same ids in the same
    /// passes as the per-task water-fill, project every completion within
    /// 1 ns of it, and agree on interrupt residuals, progress and every
    /// live task's remaining work to 1e-9 of its work.
    #[test]
    fn virtual_time_share_matches_water_fill_reference() {
        // Op encoding: (kind, work, capacity, victim).
        // kind 0/1 => add; 2 => remove; 3 => set_capacity; 4 => advance;
        // 5 => take_completed.
        let op = || (0u8..6, 0.0f64..50.0, 0.01f64..300.0, 0usize..64);
        proptest!(|((unit_cap, c) in (0u8..2, 0.5f64..200.0),
                    batches in collection::vec(
                        (collection::vec(op(), 1..12), 0.0f64..0.5),
                        1..16))| {
            // Half the cases use the CPU's cap of 1, the rest any cap.
            let cap = if unit_cap == 1 { 1.0 } else { c };
            let mut r = ShareResource::new(100.0, cap);
            let mut oracle = reference::Share::new(100.0);
            let mut now = SimTime::ZERO;
            let mut live: Vec<(TaskId, f64)> = Vec::new();
            for (ops, dt) in batches {
                now += SimSpan::from_secs_f64(dt);
                for (kind, work, c, victim) in ops {
                    match kind {
                        0 | 1 => {
                            let id = r.add(now, work);
                            prop_assert_eq!(id, oracle.add(now, work, cap));
                            live.push((id, work));
                        }
                        2 if !live.is_empty() => {
                            let (id, work) = live.remove(victim % live.len());
                            let (got, want) = (r.remove(now, id), oracle.remove(now, id));
                            let (got, want) = (got.unwrap(), want.unwrap());
                            prop_assert!(close(got.remaining, want.remaining, 1e-9, work),
                                "residual {} vs {}", got.remaining, want.remaining);
                            prop_assert!(close(got.progress, want.progress, 1e-9, 1.0),
                                "progress {} vs {}", got.progress, want.progress);
                        }
                        3 => {
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
                            live.retain(|(id, _)| !done.contains(id));
                        }
                        _ => {}
                    }
                }
                // The reference keeps the projection of its last fill, which
                // an idle advance can leave in the past: a completion already
                // due reads as due now on both sides.
                let due = |t: Option<SimTime>| t.map(|t| t.max(now));
                let (got, want) = (due(r.next_completion()), due(oracle.next_completion()));
                prop_assert!(within_ns(got, want), "next completion {:?} vs {:?}", got, want);
                prop_assert_eq!(r.len(), live.len());
                for &(id, work) in &live {
                    let (got, want) = (r.remaining(id).unwrap(), oracle.remaining(id).unwrap());
                    prop_assert!(close(got, want, 1e-9, work), "remaining {} vs {}", got, want);
                }
                // Run the clock forward to the next completion, so tasks
                // actually finish and the resource drains now and then.
                if let Some(t) = want {
                    now = t;
                    let done = r.take_completed(now);
                    prop_assert_eq!(&done, &oracle.take_completed(now));
                    live.retain(|(id, _)| !done.contains(id));
                }
            }
        });
    }
}

/// The pre-virtual-time `ShareResource`, kept as the oracle: an ordered
/// task map with per-task remaining work, max-min water-filling with a
/// per-fill sort by cap, and a generation-tagged completion heap rebuilt
/// on every fill.
#[cfg(test)]
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
                    self.tasks.remove(id);
                }
                self.dirty = true;
            }
            done
        }

        pub fn remaining(&self, id: TaskId) -> Option<f64> {
            self.tasks.get(&id).map(|t| t.remaining.max(0.0))
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
