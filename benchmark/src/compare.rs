//! `benchmark compare`: judge a change's runs against its parent's.
//!
//! Both inputs are the record lines `benchmark run` and `benchmark all`
//! print, one JSON object per metric per run. For every end-to-end metric
//! and workload the report gives each side's median and quartiles and a
//! verdict by the rule in `README.md`:
//!
//! * **gain**: the change wins at least 9 in 10 of the paired runs and the
//!   medians differ by more than the parent's interquartile range;
//! * **unresolved**: either side's spread is wider than the bound, and not
//!   every run of the change beats every run of the parent;
//! * **regression**: the change's median is worse than the parent's by
//!   more than the bound (for `fail_ratio`, worse at all);
//! * **within bound** otherwise.
//!
//! Separately it lists every deterministic value (`sim_*` and per-layer
//! counters) that is not the same in every run on both sides: a change that
//! only speeds the simulator up must show none.

use crate::metrics::{self, Better};
use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The bound and direction of each end-to-end metric.
pub type Bounds = BTreeMap<String, (Better, f64)>;

/// Each workload's samples of each metric, in input order.
#[derive(Debug, Default)]
pub struct Samples {
    /// Workloads in order of first appearance.
    pub workloads: Vec<String>,
    pub values: BTreeMap<(String, String), Vec<f64>>,
}

/// A comparison's verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Gain,
    Unresolved,
    Regression,
    WithinBound,
}

impl Verdict {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
            Verdict::WithinBound => "within bound",
        }
    }
}

/// Read the end-to-end bounds from a `BENCHMARK.json` document.
pub fn load_bounds(text: &str) -> Result<Bounds, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = doc["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e["name"].as_str().ok_or("end_to_end entry without name")?;
            let better = e["better"]
                .as_str()
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}: better must be lower or higher"))?;
            let bound = e["bound"]
                .as_f64()
                .ok_or_else(|| format!("{name}: bound must be a number"))?;
            Ok((name.to_string(), (better, bound)))
        })
        .collect()
}

/// Collect the record lines of `text`; other lines (run summaries, blank
/// lines) are skipped.
pub fn load_samples(text: &str) -> Result<Samples, String> {
    let mut s = Samples::default();
    for (i, line) in text.lines().enumerate() {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let (Some(workload), Some(name)) = (v["workload"].as_str(), v["name"].as_str()) else {
            continue;
        };
        let value = v["value"]
            .as_f64()
            .ok_or_else(|| format!("line {}: {workload}/{name} has no numeric value", i + 1))?;
        if !s.workloads.iter().any(|w| w == workload) {
            s.workloads.push(workload.to_string());
        }
        s.values
            .entry((workload.to_string(), name.to_string()))
            .or_default()
            .push(value);
    }
    Ok(s)
}

/// Judge `change` against `base` for a metric where `better` is the good
/// direction and `bound` the relative worsening allowed.
pub(crate) fn judge(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (mb, mc) = (median(base), median(change));
    // Positive when the change is better.
    let gain = |b: f64, c: f64| match better {
        Better::Lower => b - c,
        Better::Higher => c - b,
    };
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| gain(**b, **c) > 0.0)
        .count();
    let (q1, q3) = quartiles(base);
    if pairs > 0 && wins * 10 >= pairs * 9 && gain(mb, mc) > q3 - q1 {
        return Verdict::Gain;
    }
    let spread = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        let m = median(xs);
        if m == 0.0 {
            q3 - q1
        } else {
            (q3 - q1) / m.abs()
        }
    };
    let all_better = base
        .iter()
        .all(|b| change.iter().all(|c| gain(*b, *c) > 0.0));
    if (spread(base) > bound || spread(change) > bound) && !all_better {
        return Verdict::Unresolved;
    }
    if -gain(mb, mc) > bound * mb.abs() {
        return Verdict::Regression;
    }
    Verdict::WithinBound
}

/// The comparison report, and whether it found a regression.
pub fn report(base: &Samples, change: &Samples, bounds: &Bounds) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let fmt = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        format!("{:.6} [{q1:.6}, {q3:.6}] n={}", median(xs), xs.len())
    };
    let _ = writeln!(
        out,
        "{:<24} {:<16} {:<44} {:<44} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]"
    );
    let checked = metrics::END_TO_END
        .iter()
        .map(|d| (d.name, bounds.get(d.name).copied()))
        .chain([(metrics::FAIL_RATIO.name, Some((Better::Lower, 0.0)))]);
    let checked: Vec<_> = checked.collect();
    for w in &base.workloads {
        for &(name, bound) in &checked {
            let key = (w.clone(), name.to_string());
            let (Some(b), Some(c)) = (base.values.get(&key), change.values.get(&key)) else {
                let _ = writeln!(out, "{w:<24} {name:<16} missing on one side");
                regressed = true;
                continue;
            };
            let verdict = match bound {
                Some((better, bound)) => judge(b, c, better, bound),
                None => Verdict::Unresolved,
            };
            regressed |= verdict == Verdict::Regression;
            let _ = writeln!(
                out,
                "{w:<24} {name:<16} {:<44} {:<44} {}",
                fmt(b),
                fmt(c),
                verdict.as_str()
            );
        }
    }

    let _ = writeln!(out, "\ndeterministic values that differ between runs:");
    let mut drifted = 0;
    for (key, b) in &base.values {
        if !metrics::find(&key.1).is_some_and(|d| d.deterministic) {
            continue;
        }
        let c = change.values.get(key).map_or(&[][..], Vec::as_slice);
        let first = b[0];
        if b.iter().chain(c).any(|x| x.to_bits() != first.to_bits()) {
            drifted += 1;
            let _ = writeln!(out, "  {} {}: parent {b:?} change {c:?}", key.0, key.1);
        }
    }
    if drifted == 0 {
        let _ = writeln!(out, "  none");
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(judge(&base, &faster, Better::Lower, 0.1), Verdict::Gain);
        assert_eq!(
            judge(&base, &slower, Better::Lower, 0.1),
            Verdict::Regression
        );
        assert_eq!(
            judge(&base, &same, Better::Lower, 0.1),
            Verdict::WithinBound
        );
        assert_eq!(judge(&base, &slower, Better::Higher, 0.1), Verdict::Gain);
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn records_group_by_workload_and_metric() {
        let text = "{\"workload\":\"a\",\"seed\":1,\"name\":\"host_s\",\"unit\":\"s\",\"value\":1.5}\n\
                    {\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n\
                    {\"workload\":\"a\",\"seed\":1,\"name\":\"host_s\",\"unit\":\"s\",\"value\":2.5}\n";
        let s = load_samples(text).unwrap();
        assert_eq!(s.workloads, vec!["a".to_string()]);
        assert_eq!(s.values[&("a".into(), "host_s".into())], vec![1.5, 2.5]);
    }
}
