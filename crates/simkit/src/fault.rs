//! Deterministic fault injection for simulated clusters.
//!
//! A [`FaultPlan`] is plain data: a list of time-windowed [`FaultEvent`]s
//! targeting nodes (by plain index — simkit knows nothing about node roles).
//! The world that owns the plan queries it at event boundaries and applies
//! the effects to its resources; the plan never schedules anything itself,
//! keeping the substrate's "resources never schedule events" invariant.
//!
//! Plans are either hand-built (named test scenarios) or derived from a
//! seeded RNG ([`FaultPlan::random_storm`]), so every run is reproducible:
//! same seed → same plan → same event trace.

use crate::{SimSpan, SimTime};
use rand::Rng;
use std::collections::BTreeMap;

/// What goes wrong. Factors are multiplicative in `[0, 1]`; `1.0` is a
/// no-op and `0.0` a full stall for the window.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Node CPU capacity is multiplied by `factor` (background load spike,
    /// thermal throttling, a co-scheduled job...).
    CpuSlowdown { factor: f64 },
    /// The node's disk serves nothing for the window (firmware hiccup,
    /// internal GC; the queue keeps accepting work).
    DiskStall,
    /// The node's NIC bandwidth (both directions) is multiplied by `factor`.
    NetBandwidthDip { factor: f64 },
    /// Contention-estimator probes of this node are lost outright.
    ProbeLoss,
    /// Probe replies from this node arrive `delay` late.
    ProbeDelay { delay: SimSpan },
    /// Checkpoint shipments (interrupted-kernel state) from this node fail
    /// after consuming their transfer time.
    CheckpointShipFailure,
    /// The node leaves the cluster for the window: CPU capacity drops to
    /// zero, its disk stalls, its network links carry nothing, and probes of
    /// it are lost. A window ending at `t` models a (re)join at `t`, so an
    /// elastic pool that grows at `t_join` is a leave over `[0, t_join)`.
    NodeLeave,
}

/// One fault: `kind` afflicts `node` during `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    pub node: usize,
    pub kind: FaultKind,
    pub start: SimTime,
    pub end: SimTime,
}

impl FaultEvent {
    pub fn active_at(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end
    }
}

/// A deterministic schedule of faults. See the module docs.
///
/// `events` is the source of truth; [`FaultPlan::inject`] keeps an index
/// beside it so every query costs O(windows on the queried node) rather
/// than O(plan), and a driver re-evaluating faults at a boundary visits
/// only the nodes whose windows open or close there.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// Per-node indices into `events`, in plan order, so per-node folds
    /// (factor products, `max` delays) run in the same order as a scan of
    /// the whole plan and stay bit-identical to it.
    by_node: BTreeMap<usize, Vec<usize>>,
    /// Every window boundary → the ascending, distinct ids of the nodes
    /// whose windows start or end there.
    transitions: BTreeMap<SimTime, Vec<usize>>,
    /// All window starts and all window ends, each sorted ascending.
    starts: Vec<SimTime>,
    ends: Vec<SimTime>,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one fault window. Builder-style so named scenarios read linearly.
    pub fn inject(
        mut self,
        node: usize,
        kind: FaultKind,
        start: SimTime,
        duration: SimSpan,
    ) -> Self {
        if let FaultKind::CpuSlowdown { factor } | FaultKind::NetBandwidthDip { factor } = &kind {
            assert!(
                (0.0..=1.0).contains(factor),
                "fault factor {factor} outside [0, 1]"
            );
        }
        assert!(duration > SimSpan::ZERO, "fault window must be non-empty");
        let end = start + duration;
        self.by_node
            .entry(node)
            .or_default()
            .push(self.events.len());
        for t in [start, end] {
            let nodes = self.transitions.entry(t).or_default();
            if let Err(at) = nodes.binary_search(&node) {
                nodes.insert(at, node);
            }
        }
        let at = self.starts.partition_point(|&s| s <= start);
        self.starts.insert(at, start);
        let at = self.ends.partition_point(|&e| e <= end);
        self.ends.insert(at, end);
        self.events.push(FaultEvent {
            node,
            kind,
            start,
            end,
        });
        self
    }

    /// Membership convenience: `node` is absent during `[start, start +
    /// duration)`. Sugar for `inject(node, FaultKind::NodeLeave, ...)`.
    pub fn node_leave(self, node: usize, start: SimTime, duration: SimSpan) -> Self {
        self.inject(node, FaultKind::NodeLeave, start, duration)
    }

    /// Membership convenience: `node` joins the cluster at `join` — i.e. it
    /// is absent over `[0, join)`.
    pub fn node_join(self, node: usize, join: SimTime) -> Self {
        assert!(join > SimTime::ZERO, "a join at t=0 is a no-op");
        self.inject(
            node,
            FaultKind::NodeLeave,
            SimTime::ZERO,
            join - SimTime::ZERO,
        )
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Every fault window on `node`, in plan order.
    fn on_node(&self, node: usize) -> impl Iterator<Item = &FaultEvent> {
        self.by_node
            .get(&node)
            .into_iter()
            .flatten()
            .map(|&i| &self.events[i])
    }

    /// Faults afflicting `node` at `now`.
    pub fn active(&self, now: SimTime, node: usize) -> impl Iterator<Item = &FaultEvent> {
        self.on_node(node).filter(move |e| e.active_at(now))
    }

    /// Fault windows on `node` overlapping the half-open interval
    /// `[start, end)` — used for after-the-fact wait attribution: a hop
    /// that spent `[start, end)` queued on a node can ask whether a stall
    /// window intersected it.
    pub fn overlapping(
        &self,
        start: SimTime,
        end: SimTime,
        node: usize,
    ) -> impl Iterator<Item = &FaultEvent> {
        self.on_node(node)
            .filter(move |e| e.start < end && start < e.end)
    }

    /// Combined CPU capacity factor for `node` at `now` (product of active
    /// slowdowns; `1.0` when healthy).
    pub fn cpu_factor(&self, now: SimTime, node: usize) -> f64 {
        self.active(now, node)
            .filter_map(|e| match e.kind {
                FaultKind::CpuSlowdown { factor } => Some(factor),
                FaultKind::NodeLeave => Some(0.0),
                _ => None,
            })
            .product()
    }

    /// Is `node` out of the cluster at `now` (an active [`FaultKind::NodeLeave`]
    /// window)? Membership is the owner's concern — this only reports the plan.
    pub fn offline(&self, now: SimTime, node: usize) -> bool {
        self.active(now, node)
            .any(|e| e.kind == FaultKind::NodeLeave)
    }

    /// Combined NIC bandwidth factor for `node` at `now`.
    pub fn net_factor(&self, now: SimTime, node: usize) -> f64 {
        self.active(now, node)
            .filter_map(|e| match e.kind {
                FaultKind::NetBandwidthDip { factor } => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Is a probe of `node` sent at `now` lost? (An offline node answers
    /// nothing, so a leave window also loses probes.)
    pub fn probe_lost(&self, now: SimTime, node: usize) -> bool {
        self.active(now, node)
            .any(|e| matches!(e.kind, FaultKind::ProbeLoss | FaultKind::NodeLeave))
    }

    /// Extra latency on a probe of `node` sent at `now` (max of active
    /// delays), or `None` when replies are prompt.
    pub fn probe_delay(&self, now: SimTime, node: usize) -> Option<SimSpan> {
        self.active(now, node)
            .filter_map(|e| match e.kind {
                FaultKind::ProbeDelay { delay } => Some(delay),
                _ => None,
            })
            .max()
    }

    /// Does a checkpoint shipment leaving `node` at `now` fail?
    pub fn checkpoint_ship_fails(&self, now: SimTime, node: usize) -> bool {
        self.active(now, node)
            .any(|e| e.kind == FaultKind::CheckpointShipFailure)
    }

    /// Disk-stall windows on `node` that begin exactly in `[from, to)` —
    /// used by drivers to inject the blocking request once per window. A
    /// node-leave window stalls the disk too: an absent node serves nothing.
    pub fn disk_stalls_starting(
        &self,
        from: SimTime,
        to: SimTime,
        node: usize,
    ) -> impl Iterator<Item = &FaultEvent> {
        self.on_node(node).filter(move |e| {
            matches!(e.kind, FaultKind::DiskStall | FaultKind::NodeLeave)
                && from <= e.start
                && e.start < to
        })
    }

    /// Number of fault windows (across all nodes) active at `now` — a cheap
    /// gauge for observability sampling. Every window has `start < end`, so
    /// the windows with `end <= now` are a subset of those with
    /// `start <= now` and the difference counts exactly the open ones.
    pub fn active_count(&self, now: SimTime) -> usize {
        self.starts.partition_point(|&s| s <= now) - self.ends.partition_point(|&e| e <= now)
    }

    /// Every window boundary, sorted and deduplicated: the times at which a
    /// driver must re-evaluate fault effects.
    pub fn transition_times(&self) -> Vec<SimTime> {
        self.transitions.keys().copied().collect()
    }

    /// The ascending, distinct ids of the nodes with a window starting or
    /// ending exactly at `t` (empty off the boundaries). Between two of its
    /// own boundaries a node's fault state is constant, so these are the
    /// only nodes whose effects can change at `t`.
    pub fn nodes_changing_at(&self, t: SimTime) -> &[usize] {
        self.transitions.get(&t).map_or(&[], Vec::as_slice)
    }

    /// A seeded random storm: over `[start, start + horizon)`, each listed
    /// node suffers `events_per_node` faults of random kind, onset, and
    /// duration (up to a quarter of the horizon each). Deterministic in the
    /// RNG stream.
    pub fn random_storm<R: Rng>(
        rng: &mut R,
        nodes: &[usize],
        start: SimTime,
        horizon: SimSpan,
        events_per_node: usize,
    ) -> Self {
        assert!(horizon > SimSpan::ZERO);
        let mut plan = FaultPlan::new();
        let horizon_ns = horizon.as_nanos();
        for &node in nodes {
            for _ in 0..events_per_node {
                let onset = SimSpan::from_nanos(rng.random_range(0..horizon_ns));
                let max_dur = (horizon_ns / 4).max(1);
                let duration = SimSpan::from_nanos(rng.random_range(1..=max_dur));
                let kind = match rng.random_range(0u32..6) {
                    0 => FaultKind::CpuSlowdown {
                        factor: rng.random_range(0.1..=0.9),
                    },
                    1 => FaultKind::DiskStall,
                    2 => FaultKind::NetBandwidthDip {
                        factor: rng.random_range(0.1..=0.9),
                    },
                    3 => FaultKind::ProbeLoss,
                    4 => FaultKind::ProbeDelay {
                        delay: SimSpan::from_nanos(rng.random_range(1..=horizon_ns / 8 + 1)),
                    },
                    _ => FaultKind::CheckpointShipFailure,
                };
                plan = plan.inject(node, kind, start + onset, duration);
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RngFactory;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn span(s: f64) -> SimSpan {
        SimSpan::from_secs_f64(s)
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::new().inject(3, FaultKind::ProbeLoss, secs(1.0), span(2.0));
        assert!(!plan.probe_lost(secs(0.999), 3));
        assert!(plan.probe_lost(secs(1.0), 3));
        assert!(plan.probe_lost(secs(2.999), 3));
        assert!(!plan.probe_lost(secs(3.0), 3));
        assert!(!plan.probe_lost(secs(1.5), 4), "other nodes unaffected");
    }

    #[test]
    fn factors_compose_multiplicatively() {
        let plan = FaultPlan::new()
            .inject(
                0,
                FaultKind::CpuSlowdown { factor: 0.5 },
                secs(0.0),
                span(10.0),
            )
            .inject(
                0,
                FaultKind::CpuSlowdown { factor: 0.5 },
                secs(5.0),
                span(10.0),
            );
        assert!((plan.cpu_factor(secs(1.0), 0) - 0.5).abs() < 1e-12);
        assert!((plan.cpu_factor(secs(6.0), 0) - 0.25).abs() < 1e-12);
        assert!((plan.cpu_factor(secs(12.0), 0) - 0.5).abs() < 1e-12);
        assert!((plan.cpu_factor(secs(20.0), 0) - 1.0).abs() < 1e-12);
        assert!((plan.net_factor(secs(1.0), 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probe_delay_takes_the_max() {
        let plan = FaultPlan::new()
            .inject(
                2,
                FaultKind::ProbeDelay { delay: span(0.05) },
                secs(0.0),
                span(4.0),
            )
            .inject(
                2,
                FaultKind::ProbeDelay { delay: span(0.2) },
                secs(1.0),
                span(1.0),
            );
        assert_eq!(plan.probe_delay(secs(0.5), 2), Some(span(0.05)));
        assert_eq!(plan.probe_delay(secs(1.5), 2), Some(span(0.2)));
        assert_eq!(plan.probe_delay(secs(3.0), 2), Some(span(0.05)));
        assert_eq!(plan.probe_delay(secs(5.0), 2), None);
    }

    #[test]
    fn transition_times_sorted_dedup() {
        let plan = FaultPlan::new()
            .inject(0, FaultKind::DiskStall, secs(2.0), span(1.0))
            .inject(1, FaultKind::ProbeLoss, secs(1.0), span(2.0));
        assert_eq!(
            plan.transition_times(),
            vec![secs(1.0), secs(2.0), secs(3.0)]
        );
    }

    #[test]
    fn overlapping_uses_half_open_intersection() {
        let plan = FaultPlan::new().inject(5, FaultKind::DiskStall, secs(2.0), span(1.0));
        assert_eq!(plan.overlapping(secs(0.0), secs(2.0), 5).count(), 0);
        assert_eq!(plan.overlapping(secs(2.5), secs(4.0), 5).count(), 1);
        assert_eq!(plan.overlapping(secs(0.0), secs(9.0), 5).count(), 1);
        assert_eq!(plan.overlapping(secs(3.0), secs(9.0), 5).count(), 0);
        assert_eq!(plan.overlapping(secs(2.0), secs(4.0), 6).count(), 0);
    }

    #[test]
    fn disk_stall_window_query() {
        let plan = FaultPlan::new().inject(5, FaultKind::DiskStall, secs(2.0), span(1.0));
        assert_eq!(
            plan.disk_stalls_starting(secs(0.0), secs(2.0), 5).count(),
            0
        );
        assert_eq!(
            plan.disk_stalls_starting(secs(2.0), secs(2.5), 5).count(),
            1
        );
        assert_eq!(
            plan.disk_stalls_starting(secs(2.5), secs(9.0), 5).count(),
            0
        );
    }

    #[test]
    fn random_storm_is_deterministic_per_seed() {
        let mk = || {
            let mut rng = RngFactory::new(17).stream("storm");
            FaultPlan::random_storm(&mut rng, &[8, 9], secs(0.0), span(10.0), 3)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 6);
        let mut rng = RngFactory::new(18).stream("storm");
        let c = FaultPlan::random_storm(&mut rng, &[8, 9], secs(0.0), span(10.0), 3);
        assert_ne!(a, c, "different seed should differ");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_factor() {
        let _ = FaultPlan::new().inject(
            0,
            FaultKind::CpuSlowdown { factor: 1.5 },
            secs(0.0),
            span(1.0),
        );
    }

    #[test]
    fn node_leave_is_total_absence() {
        let plan = FaultPlan::new().node_leave(4, secs(1.0), span(2.0));
        assert!(!plan.offline(secs(0.5), 4));
        assert!(plan.offline(secs(1.0), 4));
        assert!(plan.offline(secs(2.999), 4));
        assert!(!plan.offline(secs(3.0), 4), "rejoin at window end");
        assert!(!plan.offline(secs(1.5), 5), "other nodes unaffected");
        // Absence implies: no CPU, lost probes, a stalled disk.
        assert_eq!(plan.cpu_factor(secs(1.5), 4), 0.0);
        assert!(plan.probe_lost(secs(1.5), 4));
        assert_eq!(
            plan.disk_stalls_starting(secs(0.0), secs(2.0), 4).count(),
            1
        );
        // Net links are handled by fabric membership, not the dip factor.
        assert_eq!(plan.net_factor(secs(1.5), 4), 1.0);
    }

    #[test]
    fn node_join_is_a_leave_from_time_zero() {
        let plan = FaultPlan::new().node_join(2, secs(4.0));
        assert!(plan.offline(secs(0.0), 2));
        assert!(plan.offline(secs(3.999), 2));
        assert!(!plan.offline(secs(4.0), 2));
        assert_eq!(plan.transition_times(), vec![secs(0.0), secs(4.0)]);
    }

    #[test]
    fn zero_factor_models_a_full_stall() {
        let plan = FaultPlan::new()
            .inject(
                0,
                FaultKind::CpuSlowdown { factor: 0.0 },
                secs(1.0),
                span(2.0),
            )
            .inject(
                0,
                FaultKind::NetBandwidthDip { factor: 0.0 },
                secs(1.0),
                span(2.0),
            );
        assert_eq!(plan.cpu_factor(secs(2.0), 0), 0.0);
        assert_eq!(plan.net_factor(secs(2.0), 0), 0.0);
        assert_eq!(plan.cpu_factor(secs(4.0), 0), 1.0);
    }

    #[test]
    fn nodes_changing_at_lists_distinct_nodes_in_id_order() {
        let plan = FaultPlan::new()
            .inject(7, FaultKind::DiskStall, secs(1.0), span(1.0))
            .inject(2, FaultKind::ProbeLoss, secs(1.0), span(3.0))
            .inject(7, FaultKind::ProbeLoss, secs(1.0), span(1.0));
        assert_eq!(plan.nodes_changing_at(secs(1.0)), &[2, 7]);
        assert_eq!(plan.nodes_changing_at(secs(2.0)), &[7]);
        assert_eq!(plan.nodes_changing_at(secs(4.0)), &[2]);
        assert!(plan.nodes_changing_at(secs(3.0)).is_empty());
        assert_eq!(plan.active_count(secs(1.5)), 3);
        assert_eq!(plan.active_count(secs(2.0)), 1);
    }

    /// The linear scans the index replaced, kept as the reference the
    /// indexed queries must reproduce exactly.
    struct Scan<'a>(&'a [FaultEvent]);

    impl Scan<'_> {
        fn active(&self, now: SimTime, node: usize) -> impl Iterator<Item = &FaultEvent> {
            self.0
                .iter()
                .filter(move |e| e.node == node && e.active_at(now))
        }

        fn overlapping(&self, start: SimTime, end: SimTime, node: usize) -> Vec<*const FaultEvent> {
            self.0
                .iter()
                .filter(|e| e.node == node && e.start < end && start < e.end)
                .map(|e| e as *const _)
                .collect()
        }

        fn cpu_factor(&self, now: SimTime, node: usize) -> f64 {
            self.active(now, node)
                .filter_map(|e| match e.kind {
                    FaultKind::CpuSlowdown { factor } => Some(factor),
                    FaultKind::NodeLeave => Some(0.0),
                    _ => None,
                })
                .product()
        }

        fn offline(&self, now: SimTime, node: usize) -> bool {
            self.active(now, node)
                .any(|e| e.kind == FaultKind::NodeLeave)
        }

        fn net_factor(&self, now: SimTime, node: usize) -> f64 {
            self.active(now, node)
                .filter_map(|e| match e.kind {
                    FaultKind::NetBandwidthDip { factor } => Some(factor),
                    _ => None,
                })
                .product()
        }

        fn probe_lost(&self, now: SimTime, node: usize) -> bool {
            self.active(now, node)
                .any(|e| matches!(e.kind, FaultKind::ProbeLoss | FaultKind::NodeLeave))
        }

        fn probe_delay(&self, now: SimTime, node: usize) -> Option<SimSpan> {
            self.active(now, node)
                .filter_map(|e| match e.kind {
                    FaultKind::ProbeDelay { delay } => Some(delay),
                    _ => None,
                })
                .max()
        }

        fn checkpoint_ship_fails(&self, now: SimTime, node: usize) -> bool {
            self.active(now, node)
                .any(|e| e.kind == FaultKind::CheckpointShipFailure)
        }

        fn disk_stalls_starting(
            &self,
            from: SimTime,
            to: SimTime,
            node: usize,
        ) -> Vec<*const FaultEvent> {
            self.0
                .iter()
                .filter(|e| {
                    e.node == node
                        && matches!(e.kind, FaultKind::DiskStall | FaultKind::NodeLeave)
                        && from <= e.start
                        && e.start < to
                })
                .map(|e| e as *const _)
                .collect()
        }

        fn active_count(&self, now: SimTime) -> usize {
            self.0.iter().filter(|e| e.active_at(now)).count()
        }

        fn transition_times(&self) -> Vec<SimTime> {
            let mut times: Vec<SimTime> = self.0.iter().flat_map(|e| [e.start, e.end]).collect();
            times.sort();
            times.dedup();
            times
        }

        fn nodes_changing_at(&self, t: SimTime) -> Vec<usize> {
            let mut nodes: Vec<usize> = self
                .0
                .iter()
                .filter(|e| e.start == t || e.end == t)
                .map(|e| e.node)
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            nodes
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Node ids drawn for plans and queries: a few small ids that
        /// collide often, plus ids far beyond any cluster.
        const NODES: [usize; 6] = [0, 1, 2, 3, 70_000, usize::MAX];

        fn kind(k: u8, x: f64) -> FaultKind {
            match k {
                0 => FaultKind::CpuSlowdown { factor: x },
                1 => FaultKind::DiskStall,
                2 => FaultKind::NetBandwidthDip { factor: x },
                3 => FaultKind::ProbeLoss,
                4 => FaultKind::ProbeDelay {
                    delay: SimSpan::from_nanos((x * 5.0) as u64 + 1),
                },
                5 => FaultKind::CheckpointShipFailure,
                _ => FaultKind::NodeLeave,
            }
        }

        /// Every indexed query agrees with the linear scan: factor products
        /// bit for bit, iterators element for element in plan order. Times
        /// sit on a coarse nanosecond grid so windows overlap on one node
        /// and queries land exactly on starts and ends.
        #[test]
        fn indexed_queries_match_linear_scan() {
            proptest!(|(windows in proptest::collection::vec(
                            (0usize..6, 0u8..7, 0.0f64..=1.0, 0u64..20, 1u64..8), 0..24))| {
                let mut plan = FaultPlan::new();
                for &(n, k, x, start, dur) in &windows {
                    plan = plan.inject(
                        NODES[n],
                        kind(k, x),
                        SimTime::from_nanos(start),
                        SimSpan::from_nanos(dur),
                    );
                }
                let scan = Scan(plan.events());
                prop_assert_eq!(plan.transition_times(), scan.transition_times());
                let at = SimTime::from_nanos;
                let ptrs = |it: &mut dyn Iterator<Item = &FaultEvent>| {
                    it.map(|e| e as *const FaultEvent).collect::<Vec<_>>()
                };
                for t in 0..30 {
                    let now = at(t);
                    prop_assert_eq!(plan.active_count(now), scan.active_count(now));
                    prop_assert_eq!(plan.nodes_changing_at(now), scan.nodes_changing_at(now));
                    for node in NODES.into_iter().chain([4, 1 << 40]) {
                        prop_assert_eq!(
                            plan.cpu_factor(now, node).to_bits(),
                            scan.cpu_factor(now, node).to_bits()
                        );
                        prop_assert_eq!(
                            plan.net_factor(now, node).to_bits(),
                            scan.net_factor(now, node).to_bits()
                        );
                        prop_assert_eq!(plan.offline(now, node), scan.offline(now, node));
                        prop_assert_eq!(plan.probe_lost(now, node), scan.probe_lost(now, node));
                        prop_assert_eq!(plan.probe_delay(now, node), scan.probe_delay(now, node));
                        prop_assert_eq!(
                            plan.checkpoint_ship_fails(now, node),
                            scan.checkpoint_ship_fails(now, node)
                        );
                        for len in [1, 3, 9] {
                            let end = at(t + len);
                            prop_assert_eq!(
                                ptrs(&mut plan.overlapping(now, end, node)),
                                scan.overlapping(now, end, node)
                            );
                            prop_assert_eq!(
                                ptrs(&mut plan.disk_stalls_starting(now, end, node)),
                                scan.disk_stalls_starting(now, end, node)
                            );
                        }
                    }
                }
            });
        }
    }
}
