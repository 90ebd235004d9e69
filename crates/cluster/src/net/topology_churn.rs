//! Fat-tree fill-scaling schedule. Where [`super::fabric_churn`] stresses
//! coalescing on a star with many tiny disjoint components, this schedule
//! stresses the *graph* fill: a k-ary fat-tree at full bisection with
//! every host carrying several long-lived intra-pod transfers. Intra-pod
//! pairs keep each component inside one pod, so after a churn burst the
//! incremental fill re-derives at most one pod's flows and leaves the
//! other `k − 1` pods' rates untouched, while the eager [`Rescan`]
//! reference re-fills every flow in the fabric on every mutation.
//!
//! The fill-scaling gate counts that work instead of timing it, so it holds
//! on any host: at the 10k-host point (k = 34, 9 826 hosts, 108 086 flows)
//! a full rescan refills ≥ 20× more flows per churn event than the
//! incremental walk visits. It runs only in release builds: in debug builds
//! the fabric's oracle adds a global from-scratch fill after every fill,
//! which is exactly the cost the gate exists to avoid. The other tests stay
//! at k = 4.

use super::reference::{Churn, Rescan};
use super::{Fabric, FlowId, NetFillCounters};
use crate::node::NodeId;
use crate::topology::{Topology, TopologySpec};
use rand::Rng;
use simkit::{RngFactory, SimTime};

/// One schedule point: a full-bisection fat-tree.
#[derive(Debug, Clone, Copy)]
struct TopoPoint {
    /// Fat-tree arity (even); the tree carries `k³/4` hosts.
    k: usize,
    /// Long-lived intra-pod flows per host.
    flows_per_host: usize,
}

impl TopoPoint {
    const fn hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    const fn flows(&self) -> usize {
        self.hosts() * self.flows_per_host
    }

    const fn hosts_per_pod(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }

    const fn flows_per_pod(&self) -> usize {
        self.hosts_per_pod() * self.flows_per_host
    }
}

/// The fill-scaling points: 1k hosts, and 10k hosts with 100k+ flows.
const POINTS: [TopoPoint; 2] = [
    TopoPoint {
        k: 16,
        flows_per_host: 11,
    },
    TopoPoint {
        k: 34,
        flows_per_host: 11,
    },
];

/// Tiny point for debug-build tests.
const TINY: TopoPoint = TopoPoint {
    k: 4,
    flows_per_host: 4,
};

/// Churn ticks per schedule; each tick bursts into a single pod.
const TICKS: usize = 8;

/// Same-timestamp replace operations per tick (cancel + start each).
const OPS_PER_TICK: usize = 8;

/// The incremental fill must beat a full rescan by at least this factor in
/// flows refilled per churn event.
const MIN_RATIO: f64 = 20.0;

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

/// A settled fat-tree fabric carrying the point's flows (uniform
/// capacities, no jitter, no star switch). Arrivals settle one pod at a
/// time, so each settle fills one pod's components instead of all 100k+
/// flows at once.
fn build(p: &TopoPoint) -> (Fabric, Vec<FlowId>, Vec<(NodeId, NodeId)>) {
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
    let mut ids = Vec::with_capacity(pairs.len());
    for pod in pairs.chunks(p.flows_per_pod()) {
        for &(src, dst) in pod {
            ids.push(f.start_flow(SimTime::ZERO, src, dst, FLOW_BYTES));
        }
        f.next_completion();
    }
    (f, ids, pairs)
}

/// Churn tick `tick`: replace `OPS_PER_TICK` flows inside one pod
/// (rotating round-robin over pods), then ask for the next completion —
/// the driver's observe-after-churn pattern. Only the burst pod's
/// components are dirtied, so the incremental fill is pod-local.
fn run_tick(
    p: &TopoPoint,
    f: &mut impl Churn,
    ids: &mut [FlowId],
    pairs: &[(NodeId, NodeId)],
    tick: usize,
) -> Option<SimTime> {
    let per_pod = p.flows_per_pod();
    let now = SimTime::from_secs_f64(1e-4 * (tick + 1) as f64);
    let pod = tick % p.k;
    for op in 0..OPS_PER_TICK {
        let idx = pod * per_pod + (tick * OPS_PER_TICK + op) % per_pod;
        f.cancel_flow(now, ids[idx]);
        let (src, dst) = pairs[idx];
        ids[idx] = f.start_flow(now, src, dst, FLOW_BYTES);
    }
    f.next_completion()
}

/// Fill counters of each tick of one incremental schedule (the arrival
/// batch is settled before counting).
fn tick_counters(p: &TopoPoint) -> Vec<NetFillCounters> {
    let (mut f, mut ids, pairs) = build(p);
    (0..TICKS)
        .map(|tick| {
            let before = f.fill_counters();
            run_tick(p, &mut f, &mut ids, &pairs, tick);
            f.fill_counters().since(before)
        })
        .collect()
}

/// Flows a full rescan refills per churn event on `flows` active flows:
/// the cancel refills the `flows − 1` survivors, the start all `flows`.
/// [`rescan_refills_every_flow_on_every_mutation`] pins this against the
/// reference.
fn rescan_refills_per_event(flows: usize) -> u64 {
    (2 * flows - 1) as u64
}

#[test]
fn points_match_the_acceptance_axes() {
    assert_eq!(POINTS[0].hosts(), 1024);
    assert_eq!(POINTS[1].hosts(), 9826);
    assert_eq!(POINTS[1].flows(), 108_086);
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

/// The fabric and the reference project the same completion (the debug
/// oracle additionally checks every intermediate rate bit-for-bit along
/// the incremental run).
#[test]
fn schedule_is_mode_independent() {
    let (mut inc, mut inc_ids, pairs) = build(&TINY);
    let (full, mut full_ids, _) = build(&TINY);
    let mut full = Rescan::new(full);
    let (mut a, mut b) = (None, None);
    for tick in 0..TICKS {
        a = run_tick(&TINY, &mut inc, &mut inc_ids, &pairs, tick);
        b = run_tick(&TINY, &mut full, &mut full_ids, &pairs, tick);
    }
    let (a, b) = (a.expect("projects"), b.expect("projects"));
    let diff = (a.as_secs_f64() - b.as_secs_f64()).abs();
    assert!(
        diff <= 1e-6 * a.as_secs_f64().max(1.0),
        "fill modes diverged: {a} vs {b}"
    );
    assert_eq!(inc.active_flows(), TINY.flows());
}

/// The reference pays a fill of every active flow on every mutation,
/// which is the full-rescan cost the fill-scaling gate compares against.
#[test]
fn rescan_refills_every_flow_on_every_mutation() {
    let (full, mut ids, pairs) = build(&TINY);
    let mut full = Rescan::new(full);
    let before = full.fill_counters();
    for tick in 0..TICKS {
        run_tick(&TINY, &mut full, &mut ids, &pairs, tick);
    }
    let c = full.fill_counters().since(before);
    let events = (TICKS * OPS_PER_TICK) as u64;
    assert_eq!(c.fills, 2 * events);
    assert_eq!(
        c.flows_refilled,
        events * rescan_refills_per_event(TINY.flows())
    );
}

/// The incremental fill must stay pod-local: per tick it re-fills (at
/// most) one pod's flows while every other pod's flows are reused.
#[test]
fn incremental_fill_is_pod_local() {
    let ticks = tick_counters(&TINY);
    let sum = |field: fn(&NetFillCounters) -> u64| ticks.iter().map(field).sum::<u64>();
    let (refilled, reused) = (sum(|c| c.flows_refilled), sum(|c| c.flows_reused));
    assert_eq!(sum(|c| c.churn_ops), (TICKS * OPS_PER_TICK * 2) as u64);
    for c in &ticks {
        assert!(c.fills <= 1, "coalescing must keep fills ≤ one per tick");
        assert!(
            c.flows_refilled <= TINY.flows_per_pod() as u64,
            "refills must stay within the burst pod: {} > {}",
            c.flows_refilled,
            TINY.flows_per_pod()
        );
    }
    assert!(
        reused > refilled,
        "the untouched pods should dominate: refilled {refilled} vs reused {reused}"
    );
}

/// The fill-scaling gate: at the 1k- and 10k-host points every tick's
/// fill walks and refills at most the burst pod's flows, and a full
/// rescan refills at least [`MIN_RATIO`]× more flows per churn event than
/// the incremental walk visits.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "100k-flow fat-tree: the debug oracle adds a global fill per fill; run with --release"
)]
fn incremental_fill_beats_full_rescan_20x_at_10k_hosts() {
    for p in POINTS {
        let ticks = tick_counters(&p);
        for c in &ticks {
            assert_eq!(c.churn_ops, (OPS_PER_TICK * 2) as u64);
            assert_eq!(c.fills, 1, "one coalesced fill per tick");
            assert_eq!(c.flows_walked, c.flows_refilled, "walk strayed");
            assert!(
                c.flows_refilled <= p.flows_per_pod() as u64,
                "k={}: a tick refilled {} flows, more than one pod's {}",
                p.k,
                c.flows_refilled,
                p.flows_per_pod()
            );
        }
        let events = (TICKS * OPS_PER_TICK) as f64;
        let walked = ticks.iter().map(|c| c.flows_walked).sum::<u64>() as f64;
        let ratio = rescan_refills_per_event(p.flows()) as f64 / (walked / events);
        eprintln!(
            "k={} ({} hosts, {} flows): {walked} flows walked over {events} events, \
             full rescan / incremental = {ratio:.0}x",
            p.k,
            p.hosts(),
            p.flows()
        );
        assert!(
            ratio >= MIN_RATIO,
            "k={}: incremental fill only {ratio:.1}x cheaper than a full rescan",
            p.k
        );
    }
}
