//! Causal span chains: an exact additive decomposition of an interval.
//!
//! A [`SpanChain`] records a sequence of [`Hop`]s that *tile* the interval
//! from the chain's origin to its cursor: each recorded hop starts exactly
//! where the previous one ended, so the per-hop elapsed times sum to the
//! end-to-end elapsed time by construction — no reconciliation pass, no
//! drift. Worlds use this to answer "where did this request's time go"
//! with an attribution that is additive to the nanosecond.
//!
//! Each hop splits its elapsed time into *service* (the time the hop would
//! have taken on an idle resource) and *wait* (everything beyond that,
//! tagged with a caller-supplied cause). The split is
//! `service = min(elapsed, ideal)`, `wait = elapsed - service`, so
//! `service + wait == elapsed` always holds — even when jittered resources
//! finish *faster* than the nominal ideal (the wait clamps at zero rather
//! than going negative).
//!
//! The *ideal* for a hop is usually known when the work is submitted
//! (e.g. a disk's solo service time), long before the completion event that
//! records the hop. [`SpanChain::arm`] stages that ideal on the chain; the
//! next [`SpanChain::record`] consumes it. Hops with zero elapsed time are
//! dropped (the tiling is unaffected), which keeps instantaneous
//! transitions — an admission that succeeds immediately, a zero-latency
//! delivery — out of the breakdown.
//!
//! The chain is generic over the hop-kind type `K` and the wait-cause type
//! `C`; simkit attaches no meaning to either. Determinism is inherited
//! from the caller: hops are recorded inside event handlers, which the
//! executor dispatches in one deterministic total order.

use crate::SimTime;
use serde::Serialize;

/// One tile of a [`SpanChain`]: the interval `[start, end]` spent at hop
/// `kind` on `node`, split into service and wait seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop<K, C> {
    pub kind: K,
    /// Node the hop ran on (the resource's node, not necessarily the
    /// requester's).
    pub node: usize,
    pub start: SimTime,
    pub end: SimTime,
    /// Time the hop would have taken on an idle resource, capped at the
    /// elapsed time.
    pub service_secs: f64,
    /// Elapsed time beyond the service time.
    pub wait_secs: f64,
    /// Why the wait happened; `None` when `wait_secs == 0`.
    pub cause: Option<C>,
}

impl<K, C> Hop<K, C> {
    /// `end - start` in seconds; equals `service_secs + wait_secs` exactly.
    pub fn elapsed_secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

// Hand-written because the derive does not add bounds for generic params;
// the cause is skipped when `None`, mirroring `skip_serializing_if`.
impl<K: Serialize, C: Serialize> Serialize for Hop<K, C> {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("kind".to_string(), self.kind.to_value()),
            ("node".to_string(), self.node.to_value()),
            ("start".to_string(), self.start.to_value()),
            ("end".to_string(), self.end.to_value()),
            ("service_secs".to_string(), self.service_secs.to_value()),
            ("wait_secs".to_string(), self.wait_secs.to_value()),
        ];
        if let Some(c) = &self.cause {
            fields.push(("cause".to_string(), c.to_value()));
        }
        serde::Value::Object(fields)
    }
}

/// A contiguous chain of [`Hop`]s. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanChain<K, C> {
    origin: SimTime,
    cursor: SimTime,
    armed_ideal_secs: f64,
    hops: Vec<Hop<K, C>>,
}

impl<K, C> SpanChain<K, C> {
    /// An empty chain whose first hop will start at `at`.
    pub fn start(at: SimTime) -> Self {
        SpanChain {
            origin: at,
            cursor: at,
            armed_ideal_secs: 0.0,
            hops: Vec::new(),
        }
    }

    pub fn origin(&self) -> SimTime {
        self.origin
    }

    /// Where the next hop will start.
    pub fn cursor(&self) -> SimTime {
        self.cursor
    }

    /// Stage the ideal (idle-resource) duration for the hop that the next
    /// [`record`](Self::record) closes. Overwrites any previously armed
    /// value; `record` consumes it.
    pub fn arm(&mut self, ideal_secs: f64) {
        debug_assert!(ideal_secs >= 0.0, "armed ideal must be non-negative");
        self.armed_ideal_secs = ideal_secs;
    }

    /// Close the hop `[cursor, end]` as `kind` on `node`, consuming the
    /// armed ideal. Returns `(service_secs, wait_secs, cause)` for the
    /// recorded hop, or `None` when the hop had zero elapsed time (it is
    /// dropped; the cause is discarded). The cause is kept only when the
    /// hop actually waited.
    pub fn record(
        &mut self,
        kind: K,
        node: usize,
        end: SimTime,
        cause: Option<C>,
    ) -> Option<(f64, f64, Option<C>)>
    where
        C: Clone,
    {
        debug_assert!(end >= self.cursor, "span hops must advance in time");
        let start = self.cursor;
        let ideal = std::mem::replace(&mut self.armed_ideal_secs, 0.0);
        if end <= start {
            return None;
        }
        let elapsed = (end - start).as_secs_f64();
        let service = elapsed.min(ideal);
        let wait = elapsed - service;
        let cause = if wait > 0.0 { cause } else { None };
        self.cursor = end;
        self.hops.push(Hop {
            kind,
            node,
            start,
            end,
            service_secs: service,
            wait_secs: wait,
            cause: cause.clone(),
        });
        Some((service, wait, cause))
    }

    /// Close the hop `[cursor, end]` as pure service time (no wait, no
    /// cause) — for hops whose elapsed time *is* their ideal, like a fixed
    /// network latency. Discards any armed ideal.
    pub fn record_service(&mut self, kind: K, node: usize, end: SimTime) -> Option<(f64, f64)>
    where
        C: Clone,
    {
        self.arm(f64::INFINITY);
        self.record(kind, node, end, None).map(|(s, w, _)| (s, w))
    }

    pub fn hops(&self) -> &[Hop<K, C>] {
        &self.hops
    }

    pub fn into_hops(self) -> Vec<Hop<K, C>> {
        self.hops
    }

    /// `cursor - origin` in seconds: the span the recorded hops tile.
    pub fn end_to_end_secs(&self) -> f64 {
        (self.cursor - self.origin).as_secs_f64()
    }

    pub fn total_service_secs(&self) -> f64 {
        self.hops.iter().map(|h| h.service_secs).sum()
    }

    pub fn total_wait_secs(&self) -> f64 {
        self.hops.iter().map(|h| h.wait_secs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn hops_tile_the_interval() {
        let mut ch: SpanChain<&'static str, &'static str> = SpanChain::start(t(1.0));
        ch.arm(0.5);
        ch.record("disk", 0, t(2.0), Some("queue"));
        ch.record("slot", 0, t(2.25), Some("slot"));
        ch.arm(1.0);
        ch.record("kernel", 0, t(3.25), Some("share"));
        assert_eq!(ch.hops().len(), 3);
        for pair in ch.hops().windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "hops must be contiguous");
        }
        assert_eq!(ch.hops()[0].start, ch.origin());
        assert_eq!(ch.hops().last().unwrap().end, ch.cursor());
        let sum = ch.total_service_secs() + ch.total_wait_secs();
        assert!((sum - ch.end_to_end_secs()).abs() < 1e-12);
    }

    #[test]
    fn service_wait_split_consumes_armed_ideal() {
        let mut ch: SpanChain<&'static str, &'static str> = SpanChain::start(t(0.0));
        ch.arm(0.4);
        let (svc, wait, cause) = ch.record("disk", 3, t(1.0), Some("queue")).unwrap();
        assert!((svc - 0.4).abs() < 1e-12);
        assert!((wait - 0.6).abs() < 1e-12);
        assert_eq!(cause, Some("queue"));
        // The ideal was consumed: the next hop defaults to all-wait.
        let (svc, wait, _) = ch.record("slot", 3, t(1.5), Some("slot")).unwrap();
        assert_eq!(svc, 0.0);
        assert!((wait - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wait_clamps_when_faster_than_ideal() {
        // A jittered resource can beat its nominal ideal; the wait must
        // clamp at zero instead of going negative.
        let mut ch: SpanChain<&'static str, &'static str> = SpanChain::start(t(0.0));
        ch.arm(2.0);
        let (svc, wait, cause) = ch.record("net", 1, t(1.0), Some("share")).unwrap();
        assert!((svc - 1.0).abs() < 1e-12);
        assert_eq!(wait, 0.0);
        assert_eq!(cause, None, "no wait, no cause");
    }

    #[test]
    fn zero_elapsed_hops_are_dropped() {
        let mut ch: SpanChain<&'static str, &'static str> = SpanChain::start(t(1.0));
        assert!(ch.record("noop", 0, t(1.0), Some("queue")).is_none());
        assert!(ch.hops().is_empty());
        assert_eq!(ch.cursor(), t(1.0));
        ch.record_service("hop", 0, t(2.0));
        assert_eq!(ch.hops().len(), 1);
        assert_eq!(ch.hops()[0].wait_secs, 0.0);
    }

    #[test]
    fn record_service_is_pure_service() {
        let mut ch: SpanChain<&'static str, &'static str> = SpanChain::start(t(0.0));
        ch.arm(0.1); // a stale armed ideal must not leak into a service hop
        let (svc, wait) = ch.record_service("deliver", 2, t(0.5)).unwrap();
        assert!((svc - 0.5).abs() < 1e-12);
        assert_eq!(wait, 0.0);
    }
}
