//! Deterministic failure-scenario harness for the CE/Runtime loop.
//!
//! Every scenario is a named, seed-driven [`FaultPlan`] injected into an
//! otherwise deterministic run. The invariants under test: the simulation
//! never wedges (all requests complete, all ranks finish), the CE degrades
//! gracefully (probe loss/staleness drives it into the static all-Active
//! fallback instead of acting on bad state), and every run is exactly
//! reproducible — same seed, same plan, same event trace.

use dosas_repro::prelude::*;
use dosas_repro::simkit::RngFactory;

const MIB: u64 = 1024 * 1024;

/// The storage node's plain node id on the default single-storage testbed
/// (storage ids follow the 8 compute nodes).
const STORAGE_NODE: usize = 8;

fn det(scheme: Scheme, fault_plan: FaultPlan) -> DriverConfig {
    DriverConfig {
        cluster: ClusterConfig::deterministic(),
        scheme,
        rates: OpRates::paper(),
        seed: 7,
        data_plane: false,
        trace: false,
        fault_plan,
        slos: Vec::new(),
        obs: ObsConfig::default(),
        autopsy: false,
    }
}

fn gaussians(n: usize) -> Workload {
    Workload::uniform_active(
        n,
        1,
        128 * MIB,
        "gaussian2d",
        KernelParams::with_width(1024),
    )
}

/// Two-wave workload that reliably triggers mid-kernel interruptions
/// (wave 2 lands at 0.5 s while wave 1's kernels run).
fn two_wave_gaussians() -> Workload {
    Workload::two_waves(
        4,
        1,
        128 * MIB,
        "gaussian2d",
        KernelParams::with_width(1024),
        SimSpan::from_millis(500),
    )
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn span(s: f64) -> SimSpan {
    SimSpan::from_secs_f64(s)
}

/// Run the scenario twice and insist on a bit-identical outcome: the fault
/// layer must not introduce any nondeterminism.
fn run_deterministic(cfg: &DriverConfig, w: &Workload) -> RunMetrics {
    let a = Driver::run(cfg.clone(), w);
    let b = Driver::run(cfg.clone(), w);
    assert_eq!(
        a.makespan_secs.to_bits(),
        b.makespan_secs.to_bits(),
        "same seed + same plan must give the same makespan"
    );
    assert_eq!(a.events, b.events, "event trace length diverged");
    assert_eq!(a.runtime, b.runtime, "runtime counters diverged");
    assert_eq!(a.ce, b.ce, "CE stats diverged");
    let json = |m: &RunMetrics| serde_json::to_string(m).expect("RunMetrics serializes");
    assert_eq!(json(&a), json(&b), "serialized metrics diverged");
    a
}

fn assert_all_complete(m: &RunMetrics, n: usize) {
    assert_eq!(m.records.len(), n, "every request must complete");
    assert!(m.makespan_secs > 0.0);
}

// ---------------------------------------------------------------------------
// Scenario 1: probe blackout
// ---------------------------------------------------------------------------

/// Every CE probe of the storage node is lost for the whole run. After the
/// retry budget the CE enters fallback and applies no policies; requests are
/// served as requested (static all-Active), and the run still finishes
/// within 2x of the fault-free DOSAS makespan.
#[test]
fn probe_blackout_falls_back_to_static_policy() {
    let w = gaussians(6);
    let clean = run_deterministic(&det(Scheme::dosas_default(), FaultPlan::new()), &w);
    assert!(
        clean.runtime.demoted > 0,
        "baseline sanity: fault-free DOSAS demotes under this load"
    );

    let plan = FaultPlan::new().inject(
        STORAGE_NODE,
        FaultKind::ProbeLoss,
        SimTime::ZERO,
        span(10_000.0),
    );
    let m = run_deterministic(&det(Scheme::dosas_default(), plan), &w);

    assert_all_complete(&m, 6);
    assert!(m.ce.probes_lost > 0, "probes were injected as lost");
    assert!(m.ce.fallback_entries >= 1, "CE must enter fallback");
    assert_eq!(m.ce.recoveries, 0, "probes never come back");
    assert_eq!(
        m.runtime.demoted + m.runtime.interrupted,
        0,
        "no policy may be applied while blind"
    );
    assert!(
        m.makespan_secs <= 2.0 * clean.makespan_secs,
        "degraded run too slow: {} vs fault-free {}",
        m.makespan_secs,
        clean.makespan_secs
    );
}

// ---------------------------------------------------------------------------
// Scenario 2: mid-kernel storage-node slowdown
// ---------------------------------------------------------------------------

/// The storage node's CPU halves while wave-1 kernels are mid-flight. The
/// CE keeps probing (probes are fine), kernels just run slower; everything
/// still completes, no faster than the fault-free run.
#[test]
fn mid_kernel_node_slowdown_completes_all() {
    let w = two_wave_gaussians();
    let clean = run_deterministic(&det(Scheme::dosas_default(), FaultPlan::new()), &w);

    let plan = FaultPlan::new().inject(
        STORAGE_NODE,
        FaultKind::CpuSlowdown { factor: 0.5 },
        secs(0.6),
        span(1.0),
    );
    let m = run_deterministic(&det(Scheme::dosas_default(), plan), &w);

    assert_all_complete(&m, 4);
    assert_eq!(m.ce.probes_lost, 0);
    assert!(
        m.makespan_secs >= clean.makespan_secs,
        "a slowdown cannot speed the run up: {} vs {}",
        m.makespan_secs,
        clean.makespan_secs
    );
}

// ---------------------------------------------------------------------------
// Scenario 3: bandwidth dip during migration
// ---------------------------------------------------------------------------

/// The storage node's NIC drops to a quarter bandwidth exactly while
/// interrupted kernels ship their residue + checkpoint. Transfers stretch
/// but deliver; the run completes with migrations intact.
#[test]
fn bandwidth_dip_during_migration_completes_all() {
    let w = two_wave_gaussians();
    let clean = run_deterministic(&det(Scheme::dosas_default(), FaultPlan::new()), &w);
    assert!(
        clean.runtime.interrupted > 0,
        "baseline sanity: the two-wave load interrupts running kernels"
    );

    let plan = FaultPlan::new().inject(
        STORAGE_NODE,
        FaultKind::NetBandwidthDip { factor: 0.25 },
        secs(0.7),
        span(2.0),
    );
    let m = run_deterministic(&det(Scheme::dosas_default(), plan), &w);

    assert_all_complete(&m, 4);
    assert!(m.runtime.interrupted > 0, "interruptions still happen");
    assert!(
        m.makespan_secs >= clean.makespan_secs,
        "a bandwidth dip cannot speed the run up"
    );
}

// ---------------------------------------------------------------------------
// Scenario 4: checkpoint shipment failure
// ---------------------------------------------------------------------------

/// Every checkpoint shipment leaving the storage node fails after consuming
/// its transfer time. Each failed request re-queues at the disk as a plain
/// normal read (progress discarded) and terminates on the second attempt —
/// the re-ship carries no checkpoint, so it cannot fail again.
#[test]
fn checkpoint_ship_failure_requeues_and_completes() {
    let w = two_wave_gaussians();
    let plan = FaultPlan::new().inject(
        STORAGE_NODE,
        FaultKind::CheckpointShipFailure,
        SimTime::ZERO,
        span(10_000.0),
    );
    let m = run_deterministic(&det(Scheme::dosas_default(), plan), &w);

    assert_all_complete(&m, 4);
    assert!(m.runtime.interrupted > 0, "interruptions produce shipments");
    assert!(
        m.runtime.checkpoint_failures >= 1,
        "doomed shipments must be recorded: {:?}",
        m.runtime
    );
    assert_eq!(
        m.runtime.checkpoint_failures, m.runtime.interrupted,
        "every migrated shipment is doomed exactly once under a full-run fault"
    );
}

// ---------------------------------------------------------------------------
// Scenario 5: disk stall
// ---------------------------------------------------------------------------

/// The storage node's disk serves nothing for a full second right as the
/// requests queue up. Queued reads wait the stall out and the run completes.
#[test]
fn disk_stall_delays_but_completes() {
    let w = gaussians(4);
    let clean = run_deterministic(&det(Scheme::dosas_default(), FaultPlan::new()), &w);

    let plan = FaultPlan::new().inject(STORAGE_NODE, FaultKind::DiskStall, secs(0.05), span(1.0));
    let m = run_deterministic(&det(Scheme::dosas_default(), plan), &w);

    assert_all_complete(&m, 4);
    assert!(
        m.makespan_secs >= clean.makespan_secs,
        "a stalled disk cannot speed the run up"
    );
}

// ---------------------------------------------------------------------------
// Scenario 6: delayed probes past the staleness bound
// ---------------------------------------------------------------------------

/// Probe replies arrive 400 ms late — beyond the 300 ms staleness bound —
/// so every generated policy is discarded on arrival. The CE behaves as if
/// blind: no demotions, eventual fallback, and the run still completes.
#[test]
fn stale_policies_are_discarded() {
    let w = gaussians(6);
    let plan = FaultPlan::new().inject(
        STORAGE_NODE,
        FaultKind::ProbeDelay {
            delay: SimSpan::from_millis(400),
        },
        SimTime::ZERO,
        span(10_000.0),
    );
    let m = run_deterministic(&det(Scheme::dosas_default(), plan), &w);

    assert_all_complete(&m, 6);
    assert!(m.ce.stale_discards > 0, "late policies must be discarded");
    assert_eq!(
        m.runtime.demoted + m.runtime.interrupted,
        0,
        "stale policies must never be applied"
    );
}

/// Probe replies arrive late but *within* the staleness bound: policies are
/// applied on arrival and scheduling proceeds (delayed, not blinded).
#[test]
fn fresh_delayed_policies_still_apply() {
    let w = gaussians(6);
    let plan = FaultPlan::new().inject(
        STORAGE_NODE,
        FaultKind::ProbeDelay {
            delay: SimSpan::from_millis(100),
        },
        SimTime::ZERO,
        span(10_000.0),
    );
    let m = run_deterministic(&det(Scheme::dosas_default(), plan), &w);

    assert_all_complete(&m, 6);
    assert_eq!(m.ce.stale_discards, 0, "100 ms < 300 ms bound: all fresh");
    assert!(
        m.runtime.demoted > 0,
        "delayed-but-fresh policies still reach the runtime: {:?}",
        m.runtime
    );
}

// ---------------------------------------------------------------------------
// Scenario 7: combined storm
// ---------------------------------------------------------------------------

/// A seeded random storm across every node — slowdowns, stalls, dips, probe
/// loss/delay, checkpoint failures all at once. The only promises: nothing
/// wedges, and the whole mess replays bit-identically from its seed.
#[test]
fn combined_storm_is_deterministic_and_completes() {
    let cluster = ClusterConfig::deterministic();
    let nodes: Vec<usize> = (0..cluster.total_nodes()).collect();
    let mut rng = RngFactory::new(2012).stream("storm");
    let plan = FaultPlan::random_storm(&mut rng, &nodes, SimTime::ZERO, span(6.0), 2);
    assert_eq!(plan.events().len(), nodes.len() * 2);

    let w = two_wave_gaussians();
    let m = run_deterministic(&det(Scheme::dosas_default(), plan.clone()), &w);
    assert_all_complete(&m, 4);

    // The storm itself is reproducible from its seed.
    let mut rng2 = RngFactory::new(2012).stream("storm");
    let replay = FaultPlan::random_storm(&mut rng2, &nodes, SimTime::ZERO, span(6.0), 2);
    assert_eq!(plan, replay, "same seed must rebuild the same storm");
}

// ---------------------------------------------------------------------------
// Cross-cutting: faults leave the fault-free path untouched
// ---------------------------------------------------------------------------

/// An empty plan must be byte-for-byte the run we had before the fault layer
/// existed, for every scheme (guards against the wiring perturbing the
/// fault-free event order).
#[test]
fn empty_plan_matches_across_schemes() {
    let w = gaussians(3);
    for scheme in [
        Scheme::Traditional,
        Scheme::ActiveStorage,
        Scheme::dosas_default(),
    ] {
        let m = run_deterministic(&det(scheme, FaultPlan::new()), &w);
        assert_all_complete(&m, 3);
        assert_eq!(m.ce.probes_lost, 0);
        assert_eq!(m.runtime.checkpoint_failures, 0);
    }
}

/// Faults confined to a window fully restore capacity afterwards: a fault
/// that ends before the workload starts changes nothing.
#[test]
fn expired_faults_restore_exact_capacity() {
    let w = gaussians(4);
    // Workload arrivals begin at t=0, but kernels run past 0.2 s; a fault
    // over [0, 1ms) perturbs nothing measurable in the deterministic setup
    // except a handful of extra Fault events.
    let plan = FaultPlan::new().inject(
        STORAGE_NODE,
        FaultKind::NetBandwidthDip { factor: 0.5 },
        secs(5_000.0),
        span(1.0),
    );
    let clean = run_deterministic(&det(Scheme::dosas_default(), FaultPlan::new()), &w);
    let faulted = run_deterministic(&det(Scheme::dosas_default(), plan), &w);
    assert_eq!(
        clean.makespan_secs.to_bits(),
        faulted.makespan_secs.to_bits(),
        "a fault window after the run ends must not change the outcome"
    );
    assert_eq!(clean.runtime, faulted.runtime);
}

// ---------------------------------------------------------------------------
// Scenario 8: full stall (factor 0)
// ---------------------------------------------------------------------------

/// A zero-factor window stalls the storage node's CPU *and* NIC outright.
/// While every task/flow runs at rate 0 the resources must report no
/// upcoming completion (a naive `remaining / rate` would be infinite and
/// panic inside `SimSpan::from_secs_f64`); when the window closes, capacity
/// is restored and every request still completes.
#[test]
fn zero_rate_stall_window_completes_after_recovery() {
    let w = gaussians(4);
    let plan = FaultPlan::new()
        .inject(
            STORAGE_NODE,
            FaultKind::CpuSlowdown { factor: 0.0 },
            secs(0.2),
            span(1.0),
        )
        .inject(
            STORAGE_NODE,
            FaultKind::NetBandwidthDip { factor: 0.0 },
            secs(0.2),
            span(1.0),
        );
    let clean = run_deterministic(&det(Scheme::dosas_default(), FaultPlan::new()), &w);
    let m = run_deterministic(&det(Scheme::dosas_default(), plan), &w);

    assert_all_complete(&m, 4);
    assert!(
        m.makespan_secs > clean.makespan_secs,
        "a 1 s full stall must cost wall-clock time: {} vs {}",
        m.makespan_secs,
        clean.makespan_secs
    );
}

// ---------------------------------------------------------------------------
// Scenario 9: node leave mid-transfer (elastic membership)
// ---------------------------------------------------------------------------

/// The storage node leaves the pool outright while transfers are in
/// flight — CPU to zero, disk stalled, probes lost, and its fabric links
/// offline — then rejoins a second later. Parked flows must not strand in
/// the fabric's epoch-tagged completion heap: every request completes
/// after the rejoin, the CE recovers from its probe blackout, and the
/// whole membership cycle replays byte-identically.
#[test]
fn node_leave_mid_transfer_completes_after_rejoin() {
    let w = gaussians(4);
    let clean = run_deterministic(&det(Scheme::dosas_default(), FaultPlan::new()), &w);

    let plan = FaultPlan::new().node_leave(STORAGE_NODE, secs(0.3), span(1.0));
    let m = run_deterministic(&det(Scheme::dosas_default(), plan), &w);

    assert_all_complete(&m, 4);
    assert!(m.ce.probes_lost > 0, "probes of an absent node are lost");
    assert!(
        m.ce.recoveries >= 1,
        "the CE must recover once the node rejoins: {:?}",
        m.ce
    );
    assert!(
        m.makespan_secs > clean.makespan_secs,
        "a 1 s absence must cost wall-clock time: {} vs {}",
        m.makespan_secs,
        clean.makespan_secs
    );
}
