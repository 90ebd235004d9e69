//! Stable-order event queue.
//!
//! Events with equal timestamps pop in insertion (FIFO) order, which makes
//! simulations deterministic regardless of heap internals.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    // Reversed so the max-heap yields the *earliest* (time, seq) first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A time-ordered queue of simulation events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Bitset over seqs: bit `seq` is set once that entry is cancelled
    /// (a tombstone). Tombstones are dropped at the head instead of dug out
    /// of the heap. Only *pending* seqs are ever cancelled, so every
    /// tombstone is still in `heap` until purged; `dead_pending` counts them.
    dead: Vec<u64>,
    dead_pending: usize,
    seq: u64,
    popped: u64,
    cancelled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            dead: Vec::new(),
            dead_pending: 0,
            seq: 0,
            popped: 0,
            cancelled: 0,
        }
    }

    /// Schedule `event` at absolute time `time`. Returns the entry's seq,
    /// which identifies the entry for cancellation while it is pending.
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
        seq
    }

    /// Cancel the pending entry with the given seq: it will never be
    /// dispatched and does not count toward `dispatched_count`. The caller
    /// must guarantee the entry is still pending (not yet popped), which is
    /// why only [`Timer`](crate::timer::Timer) reaches this, via
    /// `Scheduler::cancel`.
    pub(crate) fn cancel(&mut self, seq: u64) {
        let word = (seq / 64) as usize;
        if word >= self.dead.len() {
            self.dead.resize(word + 1, 0);
        }
        self.dead[word] |= 1 << (seq % 64);
        self.dead_pending += 1;
        self.cancelled += 1;
    }

    fn is_dead(&self, seq: u64) -> bool {
        self.dead
            .get((seq / 64) as usize)
            .is_some_and(|w| w >> (seq % 64) & 1 == 1)
    }

    /// Drop cancelled entries sitting at the heap's head.
    fn purge_dead(&mut self) {
        while self.dead_pending > 0 {
            match self.heap.peek() {
                Some(head) if self.is_dead(head.seq) => {
                    self.heap.pop();
                    self.dead_pending -= 1;
                }
                _ => break,
            }
        }
    }

    /// Remove and return the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.purge_dead();
        let e = self.heap.pop()?;
        self.popped += 1;
        Some((e.time, e.event))
    }

    /// Timestamp of the earliest pending live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.purge_dead();
        self.heap.peek().map(|e| e.time)
    }

    pub fn len(&self) -> usize {
        self.heap.len() - self.dead_pending
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (including later-cancelled).
    pub fn scheduled_count(&self) -> u64 {
        self.seq
    }

    /// Total number of events ever dispatched (cancelled entries excluded).
    pub fn dispatched_count(&self) -> u64 {
        self.popped
    }

    /// Total number of events ever cancelled.
    pub fn cancelled_count(&self) -> u64 {
        self.cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(t(1), ());
        q.push(t(2), ());
        q.pop();
        assert_eq!(q.scheduled_count(), 2);
        assert_eq!(q.dispatched_count(), 1);
    }

    #[test]
    fn cancelled_entries_never_pop() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        let _b = q.push(t(2), "b");
        let c = q.push(t(3), "c");
        q.cancel(a);
        q.cancel(c);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_count(), 3);
        assert_eq!(q.dispatched_count(), 1);
        assert_eq!(q.cancelled_count(), 2);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10), 1);
        q.push(t(5), 0);
        assert_eq!(q.pop(), Some((t(5), 0)));
        q.push(t(7), 2);
        assert_eq!(q.pop(), Some((t(7), 2)));
        assert_eq!(q.pop(), Some((t(10), 1)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping yields a sequence sorted by time, and FIFO among equals.
        #[test]
        fn pop_order_is_stable_sort(times in proptest::collection::vec(0u64..50, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &ts) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(ts), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().copied().zip(0..times.len()).collect();
            expected.sort_by_key(|&(ts, i)| (ts, i)); // stable by construction
            for (ts, i) in expected {
                prop_assert_eq!(q.pop(), Some((SimTime::from_nanos(ts), i)));
            }
            prop_assert!(q.is_empty());
        }
    }
}
