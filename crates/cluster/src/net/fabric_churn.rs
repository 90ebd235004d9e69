//! Churn-heavy star schedule: many concurrent long transfers spread over
//! disjoint `src → dst` pairs, with bursts of same-timestamp replace churn
//! (a completed request's flow is cancelled and its successor started in
//! the same tick). Each pair is its own max-min component, so an
//! incremental fill touches only the pairs a burst dirtied, while the
//! eager [`Rescan`] reference re-derives every flow's rate on every
//! mutation and scans all flows per completion query.

use super::reference::{Churn, Rescan};
use super::{Fabric, FlowId, NetFillCounters};
use crate::node::NodeId;
use simkit::{RngFactory, SimTime};

/// Disjoint `src → dst` pairs; each is one max-min component.
const PAIRS: usize = 64;

/// Churn ticks in one schedule.
const TICKS: usize = 8;

/// Same-timestamp replace operations per tick (each is a cancel + a start,
/// so one schedule performs `TICKS × OPS_PER_TICK × 2` mutations).
const OPS_PER_TICK: usize = 8;

const NODES: usize = 2 * PAIRS;
const FLOW_BYTES: f64 = 1e15; // far larger than the schedule moves: no flow completes

fn pair_endpoints(idx: usize) -> (NodeId, NodeId) {
    (NodeId(idx % PAIRS), NodeId(PAIRS + idx % PAIRS))
}

/// A settled fabric carrying `flows` long transfers, `flows / PAIRS` per
/// pair (uniform capacities, no jitter, non-blocking switch).
fn build(flows: usize) -> (Fabric, Vec<FlowId>) {
    assert!(
        flows.is_multiple_of(PAIRS),
        "flows must divide evenly over {PAIRS} pairs"
    );
    let mut f = Fabric::new(
        NODES,
        118.0e6,
        None,
        simkit::SimSpan::ZERO,
        None,
        RngFactory::new(7).stream("fabric-churn"),
    );
    let ids = (0..flows)
        .map(|i| {
            let (src, dst) = pair_endpoints(i);
            f.start_flow(SimTime::ZERO, src, dst, FLOW_BYTES)
        })
        .collect();
    f.next_completion(); // settle the coalesced arrival batch
    (f, ids)
}

/// Run the churn schedule: `TICKS` timestamps, each with `OPS_PER_TICK`
/// replace operations followed by one completion query (the driver's
/// observe-after-churn pattern). Returns the last projected completion.
fn run(f: &mut impl Churn, ids: &mut [FlowId]) -> Option<SimTime> {
    let mut last = None;
    let mut op = 0usize;
    for tick in 0..TICKS {
        let now = SimTime::from_secs_f64(1e-4 * (tick + 1) as f64);
        for _ in 0..OPS_PER_TICK {
            let idx = op % ids.len();
            f.cancel_flow(now, ids[idx]);
            let (src, dst) = pair_endpoints(idx);
            ids[idx] = f.start_flow(now, src, dst, FLOW_BYTES);
            op += 1;
        }
        last = f.next_completion();
    }
    last
}

/// Fill counters accumulated by one incremental schedule at `flows`
/// (restricted to the churn phase: the arrival batch is settled first).
fn incremental_counters(flows: usize) -> NetFillCounters {
    let (mut f, mut ids) = build(flows);
    let before = f.fill_counters();
    run(&mut f, &mut ids);
    f.fill_counters().since(before)
}

/// The schedule is deterministic and fill-independent: the fabric and the
/// reference project the same final completion (the debug oracle inside
/// the fabric additionally checks every intermediate rate bit-for-bit).
/// The completion comparison is tolerance-based: the heap projects at fill
/// time while the linear scan re-projects at the query instant —
/// algebraically equal, but rounded at different points.
#[test]
fn schedule_is_mode_independent() {
    for flows in [64, 256] {
        let (mut inc, mut inc_ids) = build(flows);
        let a = run(&mut inc, &mut inc_ids).expect("projects a completion");
        let (full, mut full_ids) = build(flows);
        let mut full = Rescan::new(full);
        let b = run(&mut full, &mut full_ids).expect("projects a completion");
        let diff = (a.as_secs_f64() - b.as_secs_f64()).abs();
        assert!(
            diff <= 1e-6 * a.as_secs_f64().max(1.0),
            "fill modes diverged at {flows} flows: {a} vs {b}"
        );
        assert_eq!(inc.active_flows(), flows);
    }
}

/// Coalescing must show up in the counters: far fewer fills than churn
/// ops, each replace walking only its own pair's component, and most flows
/// reused per fill once components outnumber the dirtied pairs.
#[test]
fn incremental_schedule_coalesces_and_reuses() {
    let c = incremental_counters(1024);
    let mutations = (TICKS * OPS_PER_TICK * 2) as u64;
    assert_eq!(c.churn_ops, mutations);
    assert_eq!(
        c.flows_walked,
        (TICKS * OPS_PER_TICK * 1024 / PAIRS) as u64,
        "each replace must walk exactly one pair's 16 flows"
    );
    assert!(
        c.fills <= TICKS as u64 + 1,
        "expected ≤ one fill per tick, got {} for {} ops",
        c.fills,
        c.churn_ops
    );
    assert!(
        c.flows_reused > c.flows_refilled,
        "untouched components should dominate: refilled {} vs reused {}",
        c.flows_refilled,
        c.flows_reused
    );
}
