//! Exporters and format checkers.
//!
//! * [`validate_prometheus`] — a small line-format checker for Prometheus
//!   text exposition, used by the verify smoke test to prove the snapshot a
//!   run emits actually parses.
//! * [`TraceSpan`] / [`chrome_trace_json`] — the chrome://tracing
//!   (trace-event format) exporter; the driver records its timeline as
//!   [`TraceSpan`]s directly, so there is one span type and exactly one
//!   serializer for `trace.json`.

use serde::Serialize;

/// Optional key/value annotations attached to a span (`args` in the
/// trace-event format; shown by Perfetto in the span detail pane).
#[derive(Debug, Clone, Default, Serialize)]
pub struct SpanArgs {
    /// Tenant of the issuing rank, when the workload is tenanted.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenant: Option<usize>,
    /// Active contention-control policy, when one is enabled.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub policy: Option<String>,
    /// Contention wait inside the span, microseconds.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub wait_us: Option<f64>,
    /// Wait-cause tag (e.g. `disk-queue`), when `wait_us` is attributed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cause: Option<String>,
}

/// One complete ("ph": "X") span in the chrome trace-event format.
///
/// Times are microseconds, per the format; `pid` groups tracks (we use the
/// storage-node ordinal) and `tid` separates concurrent spans on a node.
#[derive(Debug, Clone, Serialize)]
pub struct TraceSpan {
    /// Span name shown in the viewer.
    pub name: String,
    /// Comma-separated categories.
    pub cat: String,
    /// Phase: always `"X"` (complete span).
    pub ph: &'static str,
    /// Start timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds.
    pub dur: f64,
    /// Process id (storage-node ordinal).
    pub pid: usize,
    /// Thread id (per-node track).
    pub tid: u64,
    /// Optional annotations (tenant, policy, attributed wait).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub args: Option<SpanArgs>,
}

impl TraceSpan {
    /// Build a complete span; `ts`/`dur` in microseconds.
    pub fn complete(name: String, cat: String, ts: f64, dur: f64, pid: usize, tid: u64) -> Self {
        TraceSpan {
            name,
            cat,
            ph: "X",
            ts,
            dur,
            pid,
            tid,
            args: None,
        }
    }

    /// Attach annotations (builder style).
    pub fn with_args(mut self, args: Option<SpanArgs>) -> Self {
        self.args = args;
        self
    }
}

/// Serialize spans as a chrome://tracing JSON array.
pub fn chrome_trace_json(spans: &[TraceSpan]) -> String {
    serde_json::to_string_pretty(&spans.to_vec()).expect("trace spans serialize")
}

/// Validate Prometheus text-format exposition; returns the number of sample
/// lines on success, or a description of the first malformed line.
///
/// This is intentionally a light-weight structural check (the subset the
/// registry emits): comment lines must be `# TYPE`/`# HELP`, sample lines
/// must be `name[{label="value",...}] <float>` with metric-name characters
/// restricted to `[a-zA-Z0-9_:]`.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("TYPE ") || rest.starts_with("HELP ")) {
                return Err(format!("line {}: unknown comment {line:?}", ln + 1));
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator in {line:?}", ln + 1))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("line {}: bad value {value:?}", ln + 1))?;
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated labels in {series:?}", ln + 1))?;
                for pair in labels.split(',') {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {}: bad label pair {pair:?}", ln + 1))?;
                    if k.is_empty() || !k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                        return Err(format!("line {}: bad label name {k:?}", ln + 1));
                    }
                    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                        return Err(format!("line {}: unquoted label value {v:?}", ln + 1));
                    }
                }
                name
            }
            None => series,
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name {name:?}", ln + 1));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Label, Registry};

    #[test]
    fn registry_snapshot_validates() {
        let mut r = Registry::new();
        r.inc("io", "requests", Label::Node(0));
        r.set_gauge("net", "util", Label::None, 0.25);
        r.observe("io", "latency_seconds", Label::Node(1), 0.002);
        let text = r.to_prometheus();
        let n = validate_prometheus(&text).expect("snapshot must validate");
        assert!(n > 3, "expected bucket lines, got {n} samples");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(validate_prometheus("metric{node=\"0\" 1").is_err());
        assert!(validate_prometheus("metric nope").is_err());
        assert!(validate_prometheus("bad name 1").is_err());
        assert!(validate_prometheus("# BOGUS comment").is_err());
        assert!(validate_prometheus("m{k=v} 1").is_err());
    }

    #[test]
    fn chrome_trace_shape() {
        let spans = vec![TraceSpan::complete(
            "kernel(sum)".into(),
            "cpu".into(),
            10.0,
            5.5,
            3,
            1,
        )];
        let json = chrome_trace_json(&spans);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let row = &v.as_array().unwrap()[0];
        assert_eq!(row["ph"], "X");
        assert_eq!(row["pid"], 3);
        assert_eq!(row["name"], "kernel(sum)");
    }
}
