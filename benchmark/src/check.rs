//! Output checks. Each is cheap and runs on every run the benchmark makes;
//! together they decide `failed` out of `attempted`.
//!
//! A request counts as failed when no record of the right size answers
//! it. A broken run-wide invariant (byte conservation, event accounting,
//! makespan, autopsy additivity, traced/untraced agreement) counts every
//! request of the run as failed, since none of its numbers can be trusted.

use dosas::{RunMetrics, Workload};
use std::hash::{DefaultHasher, Hasher};

/// Relative tolerance of the autopsy's service + wait = latency identity.
const ADDITIVITY_TOLERANCE: f64 = 1e-9;

/// Requests checked, requests failed, and what went wrong.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Verdict {
    /// Count every attempted request as failed because of `problem`.
    pub(crate) fn fail_all(&mut self, problem: String) {
        self.failed = self.attempted;
        self.problems.push(problem);
    }

    /// Add another run's verdict to this one.
    pub(crate) fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    pub fn ok(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Check one run's metrics against the workload that produced them.
pub fn check_run(w: &Workload, m: &RunMetrics) -> Verdict {
    // Requested sizes per rank, and the sizes each rank's records answer.
    let mut expected: Vec<Vec<f64>> = w
        .programs
        .iter()
        .map(|p| {
            p.ops
                .iter()
                .map(|op| op.request_bytes())
                .filter(|&b| b > 0)
                .map(|b| b as f64)
                .collect()
        })
        .collect();
    let mut answered: Vec<Vec<f64>> = vec![Vec::new(); expected.len()];
    for r in &m.records {
        if r.completed_at >= r.issued_at {
            if let Some(rank) = answered.get_mut(r.rank) {
                rank.push(r.bytes);
            }
        }
    }
    let mut v = Verdict {
        attempted: expected.iter().map(|e| e.len() as u64).sum(),
        ..Verdict::default()
    };
    let matched: u64 = expected
        .iter_mut()
        .zip(&mut answered)
        .map(|(e, a)| matched_count(e, a))
        .sum();
    v.failed = v.attempted - matched;
    if v.failed > 0 {
        v.problems
            .push(format!("{} requests have no matching record", v.failed));
    }

    let record_bytes: f64 = m.records.iter().map(|r| r.bytes).sum();
    let generated = w.total_request_bytes() as f64;
    if record_bytes != m.total_requested_bytes || generated != m.total_requested_bytes {
        v.fail_all(format!(
            "bytes not conserved: records {record_bytes}, reported {}, generated {generated}",
            m.total_requested_bytes
        ));
    }
    if m.events_scheduled.checked_sub(m.events_cancelled) != Some(m.events) {
        v.fail_all(format!(
            "event accounting: {} dispatched != {} scheduled - {} cancelled",
            m.events, m.events_scheduled, m.events_cancelled
        ));
    }
    let last = m
        .records
        .iter()
        .map(|r| r.completed_at.as_secs_f64())
        .fold(0.0, f64::max);
    if !(m.makespan_secs.is_finite() && m.makespan_secs >= last) {
        v.fail_all(format!(
            "makespan {} precedes the last completion {last}",
            m.makespan_secs
        ));
    }
    if let Some(a) = &m.autopsy {
        // The report's totals also cover rank-side segments (compute,
        // sleep, barriers), so the identity is checked over requests.
        let latency: f64 = m.records.iter().map(|r| r.latency_secs()).sum();
        let explained: f64 = a
            .requests
            .iter()
            .map(|r| r.service_secs() + r.wait_secs())
            .sum();
        if a.requests.len() != m.records.len()
            || (explained - latency).abs() > ADDITIVITY_TOLERANCE * latency.max(1.0)
        {
            v.fail_all(format!(
                "autopsy explains {explained} s over {} requests, records hold {latency} s over {}",
                a.requests.len(),
                m.records.len()
            ));
        }
    }
    v
}

/// How many entries of `expected` have an equal entry in `answered`
/// (multiset intersection; both are sorted in place).
fn matched_count(expected: &mut [f64], answered: &mut [f64]) -> u64 {
    expected.sort_by(f64::total_cmp);
    answered.sort_by(f64::total_cmp);
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < expected.len() && j < answered.len() {
        match expected[i].total_cmp(&answered[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// A hash of everything a run reports except its observability report and
/// autopsy, which only a traced run carries. Two runs of one seed must
/// agree on it whether traced or not, and across repeats.
pub(crate) fn fingerprint(m: RunMetrics) -> u64 {
    let m = RunMetrics {
        obs: None,
        autopsy: None,
        ..m
    };
    let mut h = HashWriter(DefaultHasher::new());
    std::fmt::write(&mut h, format_args!("{m:?}")).expect("hashing never fails");
    h.0.finish()
}

/// Streams formatted text into a hasher, so fingerprinting a run with
/// ~100k records allocates nothing.
struct HashWriter(DefaultHasher);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}
