//! Fat-tree fill-scaling schedule shared by the `topology_churn` criterion
//! group and `bench_baseline` (the `topology` section of
//! `BENCH_simulator.json`).
//!
//! Where [`crate::fabric_churn`] stresses coalescing on a star with many
//! tiny disjoint components, this schedule stresses the *graph* fill: a
//! k-ary fat-tree at full bisection with every host carrying several
//! long-lived intra-pod transfers. Intra-pod pairs keep each union-find
//! component pod-sized, so after a churn burst the incremental fill
//! re-derives one pod's flows and leaves the other `k − 1` pods' rates
//! untouched — while [`FillMode::FullRescan`] (the pre-incremental
//! behavior) re-fills every flow in the fabric on every mutation.
//!
//! The two benchmark points are sized to the acceptance criteria: a
//! 1k-host tree (k = 16, 1 024 hosts) and a 10k-host tree (k = 34,
//! 9 826 hosts) whose schedule holds 100k+ flows in flight. Module tests
//! stay at k = 4: in debug builds the fabric's oracle re-derives a global
//! from-scratch fill after every incremental one, which is exactly the
//! cost this benchmark exists to avoid paying per mutation.

use cluster::{Fabric, FillMode, FlowId, NetFillCounters, NodeId, Topology, TopologySpec};
use rand::Rng;
use simkit::{RngFactory, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// One benchmark point: a full-bisection fat-tree.
#[derive(Debug, Clone, Copy)]
pub struct TopoPoint {
    /// Fat-tree arity (even); the tree carries `k³/4` hosts.
    pub k: usize,
    /// Long-lived intra-pod flows per host.
    pub flows_per_host: usize,
}

impl TopoPoint {
    pub const fn hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    pub const fn flows(&self) -> usize {
        self.hosts() * self.flows_per_host
    }

    const fn hosts_per_pod(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }

    const fn flows_per_pod(&self) -> usize {
        self.hosts_per_pod() * self.flows_per_host
    }
}

/// The acceptance points: 1k and 10k hosts (the latter ≥ 100k flows).
pub const POINTS: [TopoPoint; 2] = [
    TopoPoint {
        k: 16,
        flows_per_host: 11,
    },
    TopoPoint {
        k: 34,
        flows_per_host: 11,
    },
];

/// Churn ticks per schedule; each tick bursts into a single pod.
pub const TICKS: usize = 8;

/// Same-timestamp replace operations per tick (cancel + start each).
pub const OPS_PER_TICK: usize = 8;

const FLOW_BYTES: f64 = 1e15; // no flow completes within the schedule

/// Deterministic intra-pod endpoints, flow index pod-major: flow `i` lives
/// in pod `i / flows_per_pod`.
fn make_pairs(p: &TopoPoint) -> Vec<(NodeId, NodeId)> {
    let mut rng = RngFactory::new(7).stream("topology-churn");
    let per_pod = p.hosts_per_pod();
    let mut pairs = Vec::with_capacity(p.flows());
    for pod in 0..p.k {
        let base = pod * per_pod;
        for _ in 0..p.flows_per_pod() {
            let src = rng.random_range(0..per_pod);
            let mut dst = rng.random_range(0..per_pod);
            if dst == src {
                dst = (dst + 1) % per_pod;
            }
            pairs.push((NodeId(base + src), NodeId(base + dst)));
        }
    }
    pairs
}

/// Build a settled fat-tree fabric carrying the point's flows (uniform
/// capacities, no jitter, no star switch).
pub fn build(p: &TopoPoint) -> (Fabric, Vec<FlowId>, Vec<(NodeId, NodeId)>) {
    let topo = Topology::build(&TopologySpec::FatTree { k: p.k }, p.hosts());
    let mut f = Fabric::with_topology(
        topo,
        118.0e6,
        None,
        simkit::SimSpan::ZERO,
        None,
        RngFactory::new(7).stream("topology-fabric"),
    );
    let pairs = make_pairs(p);
    let ids = pairs
        .iter()
        .map(|&(src, dst)| f.start_flow(SimTime::ZERO, src, dst, FLOW_BYTES))
        .collect();
    f.next_completion(); // settle the coalesced arrival batch
    (f, ids, pairs)
}

/// Run `ticks` churn ticks: each replaces `ops` flows inside one pod
/// (rotating round-robin over pods) and then asks for the next completion
/// — the driver's observe-after-churn pattern. Only the burst pod's
/// component is dirtied, so the incremental fill is pod-local.
pub fn run(
    p: &TopoPoint,
    f: &mut Fabric,
    ids: &mut [FlowId],
    pairs: &[(NodeId, NodeId)],
    ticks: usize,
    ops: usize,
) -> Option<SimTime> {
    let per_pod = p.flows_per_pod();
    let mut last = None;
    for tick in 0..ticks {
        let now = SimTime::from_secs_f64(1e-4 * (tick + 1) as f64);
        let pod = tick % p.k;
        for op in 0..ops {
            let idx = pod * per_pod + (tick * ops + op) % per_pod;
            f.cancel_flow(now, ids[idx]);
            let (src, dst) = pairs[idx];
            ids[idx] = f.start_flow(now, src, dst, FLOW_BYTES);
        }
        last = f.next_completion();
    }
    last
}

/// Wall-clock seconds **per churn event** (one replace = cancel + start)
/// over a `ticks × ops` schedule under `mode`, best of `reps`. Fabric
/// construction and the arrival settle are excluded from the timed region.
/// FullRescan callers pass a reduced schedule: at the 10k-host point every
/// mutation re-fills all 108k flows, so even one event costs two global
/// fills — running the full schedule would take minutes without changing
/// the per-event figure.
pub fn churn_event_secs(
    p: &TopoPoint,
    mode: FillMode,
    ticks: usize,
    ops: usize,
    reps: usize,
) -> f64 {
    let best = (0..reps.max(1))
        .map(|_| {
            let (mut f, mut ids, pairs) = build(p);
            f.set_fill_mode(mode);
            let t0 = Instant::now();
            black_box(run(p, &mut f, &mut ids, &pairs, ticks, ops));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    best / (ticks * ops) as f64
}

/// Fill counters accumulated by one incremental schedule (churn phase
/// only; the arrival batch is settled before counting).
pub fn incremental_counters(p: &TopoPoint, ticks: usize) -> NetFillCounters {
    let (mut f, mut ids, pairs) = build(p);
    let before = f.fill_counters();
    run(p, &mut f, &mut ids, &pairs, ticks, OPS_PER_TICK);
    let after = f.fill_counters();
    NetFillCounters {
        churn_ops: after.churn_ops - before.churn_ops,
        fills: after.fills - before.fills,
        flows_refilled: after.flows_refilled - before.flows_refilled,
        flows_reused: after.flows_reused - before.flows_reused,
        flows_walked: after.flows_walked - before.flows_walked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny point for debug-build tests (the fabric's debug oracle makes
    /// the real points prohibitively slow outside release builds).
    const TINY: TopoPoint = TopoPoint {
        k: 4,
        flows_per_host: 4,
    };

    #[test]
    fn points_match_the_acceptance_axes() {
        assert_eq!(POINTS[0].hosts(), 1024);
        assert_eq!(POINTS[1].hosts(), 9826);
        assert!(
            POINTS[1].flows() >= 100_000,
            "10k-host point must hold 100k+ flows: {}",
            POINTS[1].flows()
        );
    }

    #[test]
    fn pairs_are_intra_pod_and_pod_major() {
        let pairs = make_pairs(&TINY);
        assert_eq!(pairs.len(), TINY.flows());
        let per_pod = TINY.hosts_per_pod();
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let pod = i / TINY.flows_per_pod();
            assert_eq!(src.0 / per_pod, pod, "flow {i} src outside its pod");
            assert_eq!(dst.0 / per_pod, pod, "flow {i} dst outside its pod");
            assert_ne!(src, dst);
        }
    }

    /// Both fill modes project the same completion (the debug oracle
    /// additionally checks every intermediate rate bit-for-bit along the
    /// incremental run).
    #[test]
    fn schedule_is_mode_independent() {
        let (mut inc, mut inc_ids, pairs) = build(&TINY);
        inc.set_fill_mode(FillMode::Incremental);
        let a = run(&TINY, &mut inc, &mut inc_ids, &pairs, TICKS, OPS_PER_TICK).expect("projects");
        let (mut full, mut full_ids, pairs) = build(&TINY);
        full.set_fill_mode(FillMode::FullRescan);
        let b =
            run(&TINY, &mut full, &mut full_ids, &pairs, TICKS, OPS_PER_TICK).expect("projects");
        let diff = (a.as_secs_f64() - b.as_secs_f64()).abs();
        assert!(
            diff <= 1e-6 * a.as_secs_f64().max(1.0),
            "fill modes diverged: {a} vs {b}"
        );
        assert_eq!(inc.active_flows(), TINY.flows());
    }

    /// The incremental fill must stay pod-local: per tick it re-fills (at
    /// most) one pod's component while every other pod's flows are reused.
    #[test]
    fn incremental_fill_is_pod_local() {
        let c = incremental_counters(&TINY, TICKS);
        let mutations = (TICKS * OPS_PER_TICK * 2) as u64;
        assert_eq!(c.churn_ops, mutations);
        assert!(
            c.fills <= TICKS as u64 + 1,
            "coalescing must keep fills ≤ one per tick: {}",
            c.fills
        );
        assert!(
            c.flows_refilled <= (TICKS * TINY.flows_per_pod()) as u64,
            "refills must stay within the burst pod: {} > {}",
            c.flows_refilled,
            TICKS * TINY.flows_per_pod()
        );
        assert!(
            c.flows_reused > c.flows_refilled,
            "the untouched pods should dominate: refilled {} vs reused {}",
            c.flows_refilled,
            c.flows_reused
        );
    }
}
