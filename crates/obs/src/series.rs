//! Sim-time-driven time-series sampling.
//!
//! A [`SampleRecord`] is one row of the timeline: the simulation time plus a
//! vector of per-server observations ([`ServerSample`]). Samples are taken by
//! the driver's telemetry subsystem on a periodic `Sample` event, so the
//! series is a pure function of simulation state and byte-identical across
//! replays of a run.
//!
//! `queue_depth_integral` carries the *cumulative* time-weighted integral of
//! the disk queue depth (∫ depth dt since t=0) rather than an instantaneous
//! reading: dividing the final value by elapsed time reproduces
//! `RunMetrics::mean_queue_depth` exactly, which the integration acceptance
//! test pins to 1e-9.

use serde::{Deserialize, Serialize};
use simkit::SimTime;
use std::collections::VecDeque;

/// Per-server observations at one sample instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSample {
    /// Storage-node ordinal (the `NodeId` index).
    pub node: usize,
    /// Instantaneous disk queue depth (queued + in service).
    pub queue_depth: f64,
    /// Cumulative time-weighted queue-depth integral since t=0 (unit:
    /// requests·seconds).
    pub queue_depth_integral: f64,
    /// Active-storage kernels currently executing on the node's CPU.
    pub kernels_running: usize,
    /// Seconds since the contention estimator last heard a successful probe
    /// from this node; negative when no probe has ever succeeded (or the
    /// scheme runs without a CE).
    pub probe_age_secs: f64,
    /// Cumulative active->normal demotions on this node.
    pub demoted_total: u64,
    /// Outbound network utilization of the node's fabric port, in [0, 1].
    pub net_tx_util: f64,
}

/// One timeline sample: sim time plus every storage server's observations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleRecord {
    /// Global emission order (shared with log records).
    pub seq: u64,
    /// Simulation time of the sample.
    pub t: SimTime,
    /// Per-server rows, ordered by node ordinal.
    pub servers: Vec<ServerSample>,
}

/// Bounded ring of [`SampleRecord`]s with a drop counter.
#[derive(Debug, Clone)]
pub struct SampleRing {
    cap: usize,
    samples: VecDeque<SampleRecord>,
    dropped: u64,
}

impl SampleRing {
    /// New ring holding at most `cap` samples.
    pub fn new(cap: usize) -> Self {
        SampleRing {
            cap,
            samples: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Append a sample, evicting the oldest when full.
    pub fn push(&mut self, s: SampleRecord) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.samples.len() == self.cap {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(s);
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &SampleRecord> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of samples evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume the ring, returning retained samples and the drop count.
    pub fn into_parts(self) -> (Vec<SampleRecord>, u64) {
        (self.samples.into_iter().collect(), self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> SampleRecord {
        SampleRecord {
            seq,
            t: SimTime::from_nanos(seq * 1_000_000),
            servers: vec![ServerSample {
                node: 0,
                queue_depth: 2.0,
                queue_depth_integral: 0.5 * seq as f64,
                kernels_running: 1,
                probe_age_secs: 0.01,
                demoted_total: seq,
                net_tx_util: 0.5,
            }],
        }
    }

    #[test]
    fn ring_bounds_and_drops() {
        let mut ring = SampleRing::new(2);
        for s in 0..4 {
            ring.push(sample(s));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(
            ring.samples().map(|s| s.seq).collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    #[test]
    fn sample_roundtrips_through_serde() {
        let s = sample(3);
        let json = serde_json::to_string(&s).unwrap();
        let back: SampleRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
