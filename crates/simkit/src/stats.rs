//! Simulation statistics: time-weighted averages and quantiles.

use crate::time::SimTime;
use serde::Serialize;

/// Time-weighted average of a piecewise-constant signal (queue lengths,
/// utilization, …).
#[derive(Debug, Clone, Serialize)]
pub struct TimeWeighted {
    value: f64,
    since: SimTime,
    integral: f64,
    start: SimTime,
    peak: f64,
}

impl TimeWeighted {
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            value: initial,
            since: start,
            integral: 0.0,
            start,
            peak: initial,
        }
    }

    /// Record that the signal changed to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        debug_assert!(now >= self.since);
        self.integral += self.value * (now - self.since).as_secs_f64();
        self.value = value;
        self.since = now;
        self.peak = self.peak.max(value);
    }

    /// Add `delta` to the current value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    pub fn current(&self) -> f64 {
        self.value
    }

    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Cumulative time-weighted integral ∫ value dt over `[start, now]`,
    /// using exactly the float operations [`TimeWeighted::mean`] uses — so a
    /// sampled integral series reconciles bit-for-bit with end-of-run means.
    pub fn integral_at(&self, now: SimTime) -> f64 {
        self.integral + self.value * (now - self.since).as_secs_f64()
    }

    /// Time-weighted mean over `[start, now]`.
    pub fn mean(&self, now: SimTime) -> f64 {
        let total = (now - self.start).as_secs_f64();
        if total <= 0.0 {
            return self.value;
        }
        let integral = self.integral + self.value * (now - self.since).as_secs_f64();
        integral / total
    }
}

/// Quantile sketch over observations: exact up to a bounded sample count,
/// then a fixed-budget reservoir-free compaction (keeps every k-th sample).
///
/// Simulation runs observe at most tens of thousands of request latencies,
/// so an exact-but-bounded structure beats an approximate sketch in both
/// simplicity and fidelity.
#[derive(Debug, Clone, Serialize)]
pub struct Quantiles {
    samples: Vec<f64>,
    /// Every `stride`-th observation is kept once the budget is exceeded.
    stride: u64,
    seen: u64,
    budget: usize,
}

impl Default for Quantiles {
    fn default() -> Self {
        Self::new(65_536)
    }
}

impl Quantiles {
    /// Keep at most `budget` samples (compacting 2× when exceeded).
    pub fn new(budget: usize) -> Self {
        assert!(budget >= 2);
        Quantiles {
            samples: Vec::new(),
            stride: 1,
            seen: 0,
            budget,
        }
    }

    pub fn record(&mut self, x: f64) {
        self.seen += 1;
        if self.seen.is_multiple_of(self.stride) {
            self.samples.push(x);
            if self.samples.len() > self.budget {
                // Halve resolution: keep every other retained sample.
                let mut keep = Vec::with_capacity(self.samples.len() / 2);
                for (i, &v) in self.samples.iter().enumerate() {
                    if i % 2 == 1 {
                        keep.push(v);
                    }
                }
                self.samples = keep;
                self.stride *= 2;
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.seen
    }

    /// The `q`-quantile (0.0–1.0) of the retained samples;
    /// `None` if nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q));
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[idx])
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_mean() {
        let mut w = TimeWeighted::new(SimTime::ZERO, 0.0);
        // 0 for 1 s, then 10 for 1 s: mean = 5.
        w.set(SimTime::from_secs_f64(1.0), 10.0);
        let m = w.mean(SimTime::from_secs_f64(2.0));
        assert!((m - 5.0).abs() < 1e-9);
        assert_eq!(w.peak(), 10.0);
        assert_eq!(w.current(), 10.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut w = TimeWeighted::new(SimTime::ZERO, 1.0);
        w.add(SimTime::from_secs_f64(1.0), 2.0);
        assert_eq!(w.current(), 3.0);
        w.add(SimTime::from_secs_f64(2.0), -3.0);
        assert_eq!(w.current(), 0.0);
        // 1 for 1 s + 3 for 1 s + 0 for 1 s => mean 4/3 at t=3.
        let m = w.mean(SimTime::from_secs_f64(3.0));
        assert!((m - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean_at_start_is_current() {
        let w = TimeWeighted::new(SimTime::ZERO, 7.0);
        assert_eq!(w.mean(SimTime::ZERO), 7.0);
    }

    #[test]
    fn quantiles_exact_within_budget() {
        let mut q = Quantiles::new(1000);
        for i in 1..=100 {
            q.record(i as f64);
        }
        assert_eq!(q.count(), 100);
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.quantile(1.0), Some(100.0));
        assert_eq!(q.median(), Some(51.0)); // nearest-rank on 1..=100
        assert_eq!(q.p95(), Some(95.0));
    }

    #[test]
    fn quantiles_compact_beyond_budget() {
        let mut q = Quantiles::new(16);
        for i in 0..10_000 {
            q.record(i as f64);
        }
        assert_eq!(q.count(), 10_000);
        // Retained sample set is bounded but quantiles stay sane.
        let median = q.median().unwrap();
        assert!((median - 5_000.0).abs() < 1_500.0, "median {median}");
        let p99 = q.p99().unwrap();
        assert!(p99 > 8_000.0, "p99 {p99}");
    }

    #[test]
    fn quantiles_empty_is_none() {
        let q = Quantiles::default();
        assert_eq!(q.median(), None);
    }
}
