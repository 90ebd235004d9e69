//! Metrics registry: counters, gauges and histograms keyed by
//! `(subsystem, name, label)`.
//!
//! Keys are `&'static str` pairs plus a small copyable [`Label`], so the hot
//! increment path performs no allocation; lookup is a `BTreeMap` walk, which
//! also gives the registry a stable, deterministic iteration order — the
//! Prometheus snapshot is byte-identical for identical simulations.
//!
//! The registry is plain owned state (no interior mutability, no globals),
//! matching simkit's determinism rules: whoever owns the world owns its
//! metrics.

use crate::hist::Histogram;
use serde::Serialize;
use std::collections::BTreeMap;

/// A metric label: nothing, a node ordinal, a static string, or a tenant id.
///
/// Copyable and allocation-free so call sites can pass labels unconditionally
/// even when observability is disabled. New variants go at the end: `Ord`
/// on this enum orders registry keys, and the Prometheus snapshot's line
/// order is part of the deterministic surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Label {
    /// Unlabelled (a single global series).
    None,
    /// Keyed by a node/server ordinal.
    Node(usize),
    /// Keyed by a static string (scheme name, fault kind, ...).
    Str(&'static str),
    /// Keyed by a tenant id (multi-tenant SLO/fairness series).
    Tenant(usize),
    /// Keyed by a contention-control policy name (decision counters of the
    /// policy arena). Appended at the enum end: registry iteration order is
    /// the derived `Ord`, and exporters pin it.
    Policy(&'static str),
}

impl Label {
    /// Render as a Prometheus label block (`{node="3"}`), empty for `None`.
    fn prom(&self) -> String {
        match self {
            Label::None => String::new(),
            Label::Node(n) => format!("{{node=\"{n}\"}}"),
            Label::Str(s) => format!("{{label=\"{s}\"}}"),
            Label::Tenant(t) => format!("{{tenant=\"{t}\"}}"),
            Label::Policy(p) => format!("{{policy=\"{p}\"}}"),
        }
    }

    /// Render with an extra leading label pair, for histogram `_bucket` rows.
    fn prom_with(&self, extra: &str) -> String {
        match self {
            Label::None => format!("{{{extra}}}"),
            Label::Node(n) => format!("{{node=\"{n}\",{extra}}}"),
            Label::Str(s) => format!("{{label=\"{s}\",{extra}}}"),
            Label::Tenant(t) => format!("{{tenant=\"{t}\",{extra}}}"),
            Label::Policy(p) => format!("{{policy=\"{p}\",{extra}}}"),
        }
    }
}

/// Full metric key: subsystem, metric name, label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct Key {
    /// Owning subsystem (e.g. `"server"`, `"control"`).
    pub subsystem: &'static str,
    /// Metric name within the subsystem (e.g. `"kernels_started"`).
    pub name: &'static str,
    /// Series label.
    pub label: Label,
}

/// One registered metric.
#[derive(Debug, Clone, Serialize)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-write-wins instantaneous value.
    Gauge(f64),
    /// Fixed-bucket distribution.
    Histogram(Histogram),
}

/// Deterministic metrics registry.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Registry {
    metrics: BTreeMap<Key, MetricValue>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn key(subsystem: &'static str, name: &'static str, label: Label) -> Key {
        Key {
            subsystem,
            name,
            label,
        }
    }

    /// Increment a counter by one.
    pub fn inc(&mut self, subsystem: &'static str, name: &'static str, label: Label) {
        self.add(subsystem, name, label, 1);
    }

    /// Increment a counter by `by`.
    pub fn add(&mut self, subsystem: &'static str, name: &'static str, label: Label, by: u64) {
        match self
            .metrics
            .entry(Self::key(subsystem, name, label))
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += by,
            other => panic!("metric {subsystem}/{name} is not a counter: {other:?}"),
        }
    }

    /// Set a gauge to `v`.
    pub fn set_gauge(&mut self, subsystem: &'static str, name: &'static str, label: Label, v: f64) {
        match self
            .metrics
            .entry(Self::key(subsystem, name, label))
            .or_insert(MetricValue::Gauge(0.0))
        {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("metric {subsystem}/{name} is not a gauge: {other:?}"),
        }
    }

    /// Record one observation into a histogram (created with
    /// [`Histogram::latency_default`] bounds on first use).
    pub fn observe(&mut self, subsystem: &'static str, name: &'static str, label: Label, v: f64) {
        match self
            .metrics
            .entry(Self::key(subsystem, name, label))
            .or_insert_with(|| MetricValue::Histogram(Histogram::latency_default()))
        {
            MetricValue::Histogram(h) => h.observe(v),
            other => panic!("metric {subsystem}/{name} is not a histogram: {other:?}"),
        }
    }

    /// Look up a metric (tests and exporters).
    pub fn get(
        &self,
        subsystem: &'static str,
        name: &'static str,
        label: Label,
    ) -> Option<&MetricValue> {
        self.metrics.get(&Self::key(subsystem, name, label))
    }

    /// Counter value, or 0 when absent.
    pub fn counter_value(&self, subsystem: &'static str, name: &'static str, label: Label) -> u64 {
        match self.get(subsystem, name, label) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterate all series in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &MetricValue)> {
        self.metrics.iter()
    }

    /// Render a Prometheus text-format snapshot.
    ///
    /// Counters are suffixed `_total`; histograms expand into
    /// `_bucket{le=...}` / `_sum` / `_count` series. One `# TYPE` comment is
    /// emitted per distinct metric name. Output order is the registry's
    /// deterministic key order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last: Option<(&str, &str)> = None;
        for (k, v) in &self.metrics {
            let base = format!("dosas_{}_{}", k.subsystem, k.name);
            if last != Some((k.subsystem, k.name)) {
                let ty = match v {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let shown = match v {
                    MetricValue::Counter(_) => format!("{base}_total"),
                    _ => base.clone(),
                };
                out.push_str(&format!("# TYPE {shown} {ty}\n"));
                last = Some((k.subsystem, k.name));
            }
            match v {
                MetricValue::Counter(c) => {
                    out.push_str(&format!("{base}_total{} {c}\n", k.label.prom()));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!("{base}{} {g}\n", k.label.prom()));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, c) in h.counts().iter().enumerate() {
                        cum += c;
                        let le = if i < h.bounds().len() {
                            format!("{}", h.bounds()[i])
                        } else {
                            "+Inf".to_string()
                        };
                        out.push_str(&format!(
                            "{base}_bucket{} {cum}\n",
                            k.label.prom_with(&format!("le=\"{le}\""))
                        ));
                    }
                    out.push_str(&format!("{base}_sum{} {}\n", k.label.prom(), h.sum()));
                    out.push_str(&format!("{base}_count{} {}\n", k.label.prom(), h.count()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = Registry::new();
        r.inc("server", "kernels_started", Label::Node(2));
        r.add("server", "kernels_started", Label::Node(2), 4);
        r.set_gauge("net", "tx_util", Label::None, 0.75);
        assert_eq!(
            r.counter_value("server", "kernels_started", Label::Node(2)),
            5
        );
        assert_eq!(
            r.counter_value("server", "kernels_started", Label::Node(3)),
            0
        );
        assert!(matches!(
            r.get("net", "tx_util", Label::None),
            Some(MetricValue::Gauge(g)) if *g == 0.75
        ));
    }

    #[test]
    fn prometheus_snapshot_shape() {
        let mut r = Registry::new();
        r.inc("io", "requests", Label::Node(0));
        r.inc("io", "requests", Label::Node(1));
        r.set_gauge("io", "queue_depth", Label::Node(0), 3.0);
        r.observe("io", "latency_seconds", Label::None, 0.004);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE dosas_io_requests_total counter"));
        assert!(text.contains("dosas_io_requests_total{node=\"0\"} 1"));
        assert!(text.contains("dosas_io_requests_total{node=\"1\"} 1"));
        assert!(text.contains("dosas_io_queue_depth{node=\"0\"} 3"));
        assert!(text.contains("dosas_io_latency_seconds_bucket"));
        assert!(text.contains("dosas_io_latency_seconds_count 1"));
        // One TYPE line per metric name.
        assert_eq!(text.matches("# TYPE dosas_io_requests_total").count(), 1);
    }

    #[test]
    fn deterministic_order() {
        let build = |order_flip: bool| {
            let mut r = Registry::new();
            if order_flip {
                r.inc("b", "y", Label::None);
                r.inc("a", "x", Label::None);
            } else {
                r.inc("a", "x", Label::None);
                r.inc("b", "y", Label::None);
            }
            r.to_prometheus()
        };
        assert_eq!(build(false), build(true));
    }
}
