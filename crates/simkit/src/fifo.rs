//! Multi-server FIFO queueing resource.
//!
//! Models resources that serve requests one-at-a-time per server with an
//! explicit service time — e.g. a disk head (1 server) or a fixed-size
//! thread pool. The caller supplies the service time at submission; the
//! resource tracks queueing, start and completion.
//!
//! Like [`crate::share::ShareResource`], the caller drives time: after each
//! change it re-arms a [`Timer`](crate::timer::Timer) with
//! [`next_event`](FifoServer::next_event) and [`epoch`](FifoServer::epoch),
//! and calls [`take_completed`](FifoServer::take_completed) when the tick
//! fires.

use crate::time::{SimSpan, SimTime};
use std::collections::VecDeque;

/// Identifies a request within one `FifoServer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

#[derive(Debug, Clone)]
struct InService {
    id: ReqId,
    finish: SimTime,
}

#[derive(Debug, Clone)]
struct Waiting {
    id: ReqId,
    service: SimSpan,
    enqueued: SimTime,
}

/// Completed request record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub id: ReqId,
    /// Time spent waiting before service began.
    pub queue_delay: SimSpan,
    pub finished_at: SimTime,
}

/// FIFO queue in front of `servers` identical servers.
#[derive(Debug, Clone)]
pub struct FifoServer {
    servers: usize,
    busy: Vec<InService>,
    queue: VecDeque<Waiting>,
    start_times: Vec<(ReqId, SimTime, SimTime)>, // (id, enqueued, started)
    next_id: u64,
    epoch: u64,
    served: u64,
}

impl FifoServer {
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        FifoServer {
            servers,
            busy: Vec::new(),
            queue: VecDeque::new(),
            start_times: Vec::new(),
            next_id: 0,
            epoch: 0,
            served: 0,
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Requests currently waiting (not yet in service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently being served.
    pub fn in_service(&self) -> usize {
        self.busy.len()
    }

    /// Total requests ever served to completion.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Submit a request needing `service` time. Starts immediately if a
    /// server is free.
    pub fn submit(&mut self, now: SimTime, service: SimSpan) -> ReqId {
        let id = ReqId(self.next_id);
        self.next_id += 1;
        self.queue.push_back(Waiting {
            id,
            service,
            enqueued: now,
        });
        self.fill_servers(now);
        self.epoch += 1;
        id
    }

    /// Earliest time at which a request in service completes.
    pub fn next_event(&self) -> Option<SimTime> {
        self.busy.iter().map(|s| s.finish).min()
    }

    /// Collect requests that have finished by `now`, starting queued work on
    /// the freed servers.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.busy.len() {
            if self.busy[i].finish <= now {
                let s = self.busy.swap_remove(i);
                let (enq, started) = self
                    .start_times
                    .iter()
                    .find(|(id, _, _)| *id == s.id)
                    .map(|&(_, e, st)| (e, st))
                    .expect("started request has a start record");
                self.start_times.retain(|(id, _, _)| *id != s.id);
                out.push(Completion {
                    id: s.id,
                    queue_delay: started - enq,
                    finished_at: s.finish,
                });
                self.served += 1;
            } else {
                i += 1;
            }
        }
        if !out.is_empty() {
            self.fill_servers(now);
            self.epoch += 1;
            // Stable order: completions sorted by finish time then id.
            out.sort_by_key(|c| (c.finished_at, c.id));
        }
        out
    }

    fn fill_servers(&mut self, now: SimTime) {
        while self.busy.len() < self.servers {
            let Some(w) = self.queue.pop_front() else {
                break;
            };
            self.start_times.push((w.id, w.enqueued, now));
            self.busy.push(InService {
                id: w.id,
                finish: now + w.service,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimSpan {
        SimSpan::from_millis(v)
    }
    fn at_ms(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn single_server_serializes() {
        let mut f = FifoServer::new(1);
        let a = f.submit(SimTime::ZERO, ms(10));
        let b = f.submit(SimTime::ZERO, ms(10));
        assert_eq!(f.in_service(), 1);
        assert_eq!(f.queue_len(), 1);
        assert_eq!(f.next_event(), Some(at_ms(10)));

        let done = f.take_completed(at_ms(10));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, a);
        assert_eq!(done[0].queue_delay, SimSpan::ZERO);

        assert_eq!(f.next_event(), Some(at_ms(20)));
        let done = f.take_completed(at_ms(20));
        assert_eq!(done[0].id, b);
        assert_eq!(done[0].queue_delay, ms(10));
        assert_eq!(f.served(), 2);
    }

    #[test]
    fn parallel_servers_run_concurrently() {
        let mut f = FifoServer::new(3);
        for _ in 0..3 {
            f.submit(SimTime::ZERO, ms(5));
        }
        assert_eq!(f.in_service(), 3);
        assert_eq!(f.queue_len(), 0);
        let done = f.take_completed(at_ms(5));
        assert_eq!(done.len(), 3);
    }

    #[test]
    fn completions_sorted_by_finish_then_id() {
        let mut f = FifoServer::new(2);
        let a = f.submit(SimTime::ZERO, ms(10));
        let b = f.submit(SimTime::ZERO, ms(5));
        let done = f.take_completed(at_ms(10));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, b);
        assert_eq!(done[1].id, a);
    }

    #[test]
    fn freed_server_starts_queued_work() {
        let mut f = FifoServer::new(1);
        f.submit(SimTime::ZERO, ms(4));
        let b = f.submit(SimTime::ZERO, ms(6));
        f.take_completed(at_ms(4));
        // b started at 4 ms, finishes at 10 ms.
        assert_eq!(f.next_event(), Some(at_ms(10)));
        let done = f.take_completed(at_ms(10));
        assert_eq!(done[0].id, b);
        assert_eq!(done[0].queue_delay, ms(4));
    }

    #[test]
    fn idle_has_no_next_event() {
        let f = FifoServer::new(2);
        assert_eq!(f.next_event(), None);
    }

    #[test]
    fn epoch_changes_on_submit_and_completion() {
        let mut f = FifoServer::new(1);
        let e0 = f.epoch();
        f.submit(SimTime::ZERO, ms(1));
        assert_ne!(f.epoch(), e0);
        let e1 = f.epoch();
        f.take_completed(at_ms(1));
        assert_ne!(f.epoch(), e1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// With one server, total busy time equals the sum of service times and
    /// requests complete in submission order.
    #[test]
    fn single_server_work_conserving() {
        proptest!(|(services in proptest::collection::vec(1u64..100, 1..50))| {
            let mut f = FifoServer::new(1);
            let ids: Vec<ReqId> = services
                .iter()
                .map(|&s| f.submit(SimTime::ZERO, SimSpan::from_millis(s)))
                .collect();
            let mut completed = Vec::new();
            while let Some(t) = f.next_event() {
                completed.extend(f.take_completed(t));
            }
            prop_assert_eq!(completed.len(), ids.len());
            let got: Vec<ReqId> = completed.iter().map(|c| c.id).collect();
            prop_assert_eq!(got, ids);
            let total: u64 = services.iter().sum();
            prop_assert_eq!(
                completed.last().unwrap().finished_at,
                SimTime::ZERO + SimSpan::from_millis(total)
            );
        });
    }

    /// With k servers and identical service times, the makespan is
    /// ceil(n / k) × service.
    #[test]
    fn k_servers_batch_makespan() {
        proptest!(|(n in 1usize..40, k in 1usize..8, service in 1u64..50)| {
            let mut f = FifoServer::new(k);
            for _ in 0..n {
                f.submit(SimTime::ZERO, SimSpan::from_millis(service));
            }
            let mut last = SimTime::ZERO;
            while let Some(t) = f.next_event() {
                for c in f.take_completed(t) {
                    last = last.max(c.finished_at);
                }
            }
            let waves = n.div_ceil(k) as u64;
            prop_assert_eq!(last, SimTime::ZERO + SimSpan::from_millis(waves * service));
        });
    }
}
