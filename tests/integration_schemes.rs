//! Cross-crate integration: the paper's headline results end-to-end through
//! the public facade (`dosas_repro::prelude`).

use dosas_repro::prelude::*;

fn det(scheme: Scheme) -> DriverConfig {
    DriverConfig {
        cluster: ClusterConfig::deterministic(),
        scheme,
        rates: OpRates::paper(),
        seed: 3,
        data_plane: false,
        trace: false,
        fault_plan: FaultPlan::default(),
        slos: Vec::new(),
        obs: ObsConfig::default(),
        autopsy: false,
    }
}

fn gaussian(n: usize, mb: u64) -> Workload {
    Workload::uniform_active(n, 1, mb << 20, "gaussian2d", KernelParams::with_width(4096))
}

/// Paper Figure 2 / 4: the AS-vs-TS crossover sits between 3 and 4
/// concurrent Gaussian requests per 1-kernel-core storage node.
#[test]
fn crossover_is_between_three_and_four_requests() {
    let mk = |scheme: Scheme, n| Driver::run(det(scheme), &gaussian(n, 128)).makespan_secs;
    assert!(mk(Scheme::ActiveStorage, 3) < mk(Scheme::Traditional, 3));
    assert!(mk(Scheme::Traditional, 4) < mk(Scheme::ActiveStorage, 4));
}

/// Paper Figures 7–10: DOSAS never loses to either pure scheme by more than
/// scheduling noise, at any scale, for any request size.
#[test]
fn dosas_tracks_lower_envelope_across_grid() {
    for mb in [128u64, 512] {
        for n in [1usize, 4, 16, 64] {
            let ts = Driver::run(det(Scheme::Traditional), &gaussian(n, mb)).makespan_secs;
            let as_ = Driver::run(det(Scheme::ActiveStorage), &gaussian(n, mb)).makespan_secs;
            let ds = Driver::run(det(Scheme::dosas_default()), &gaussian(n, mb)).makespan_secs;
            let best = ts.min(as_);
            assert!(
                ds <= best * 1.05,
                "mb={mb} n={n}: DOSAS {ds:.2} vs best {best:.2}"
            );
        }
    }
}

/// Paper's headline improvement claims: ~40% over TS at small scale,
/// ~20% over AS at large scale (we assert the direction and a conservative
/// floor, not the exact percentage).
#[test]
fn dosas_improvement_magnitudes() {
    let small = 2usize;
    let ts = Driver::run(det(Scheme::Traditional), &gaussian(small, 128)).makespan_secs;
    let ds = Driver::run(det(Scheme::dosas_default()), &gaussian(small, 128)).makespan_secs;
    let gain_vs_ts = (ts - ds) / ts;
    assert!(
        gain_vs_ts > 0.10,
        "small scale: expected a substantial gain over TS, got {:.0}%",
        gain_vs_ts * 100.0
    );

    let large = 32usize;
    let as_ = Driver::run(det(Scheme::ActiveStorage), &gaussian(large, 128)).makespan_secs;
    let ds = Driver::run(det(Scheme::dosas_default()), &gaussian(large, 128)).makespan_secs;
    let gain_vs_as = (as_ - ds) / as_;
    assert!(
        gain_vs_as > 0.10,
        "large scale: expected a substantial gain over AS, got {:.0}%",
        gain_vs_as * 100.0
    );
}

/// Paper Figure 6: low-complexity kernels (SUM at 860 MB/s/core vs a
/// 118 MB/s network) never benefit from demotion.
#[test]
fn sum_stays_on_storage_at_every_scale() {
    for n in [1usize, 16, 64] {
        let w = Workload::uniform_active(n, 1, 128 << 20, "sum", KernelParams::default());
        let m = Driver::run(det(Scheme::dosas_default()), &w);
        assert_eq!(m.runtime.demoted, 0, "n={n}");
        assert_eq!(m.runtime.completed_active, n as u64, "n={n}");
    }
}

/// Bandwidth metric (Figures 11–12): TS approaches the wire limit at high
/// concurrency, AS is pinned at the kernel rate, DOSAS takes the max.
#[test]
fn bandwidth_envelope() {
    let w = gaussian(64, 256);
    let ts = Driver::run(det(Scheme::Traditional), &w).bandwidth_mb_per_s();
    let as_ = Driver::run(det(Scheme::ActiveStorage), &w).bandwidth_mb_per_s();
    let ds = Driver::run(det(Scheme::dosas_default()), &w).bandwidth_mb_per_s();
    assert!(ts > 100.0, "TS should approach the 118 MB/s wire: {ts:.1}");
    assert!((as_ - 80.0).abs() < 5.0, "AS pinned near 80 MB/s: {as_:.1}");
    assert!(
        ds >= ts.max(as_) * 0.95,
        "DOSAS {ds:.1} vs max {:.1}",
        ts.max(as_)
    );
}

/// The enhanced-call protocol (Table I) is exercised end to end: results
/// delivered with completed=1 from storage and completed=0 finished by the
/// ASC are byte-identical.
#[test]
fn protocol_equivalence_with_real_data() {
    let bytes = 256 * 1024u64;
    let content = kernels::calibrate::synthetic_f64_stream(bytes as usize);
    let run = |scheme: Scheme| {
        let mut w = Workload::uniform_active(4, 1, bytes, "stats", KernelParams::default());
        w.files[0].content = Some(content.clone());
        let mut cfg = det(scheme);
        cfg.data_plane = true;
        Driver::run(cfg, &w)
    };
    let ts = run(Scheme::Traditional);
    let as_ = run(Scheme::ActiveStorage);
    let ds = run(Scheme::dosas_default());
    for app in 0..4u64 {
        assert_eq!(ts.results[&app], as_.results[&app]);
        assert_eq!(ts.results[&app], ds.results[&app]);
    }
    // The stats digest is the real reduction of the real bytes.
    let (min, max, ..) = kernels::StatsKernel::decode_result(&ts.results[&0]).unwrap();
    assert!(min <= max);
}

/// Different request sizes in one queue: the heterogeneous solvers decide
/// per request and the run completes with every request accounted.
#[test]
fn heterogeneous_sizes_complete() {
    use mpiio::program::RankProgram;
    let mut w =
        Workload::uniform_active(1, 1, 64 << 20, "gaussian2d", KernelParams::with_width(4096));
    let path = "/data/server0.dat".into();
    let (op, params) = ("gaussian2d".into(), KernelParams::with_width(4096).into());
    for mb in [128u64, 256, 512] {
        w.programs.push(RankProgram::single_read_ex(
            &path,
            (mb << 20).min(64 << 20), // stay within the file
            &op,
            &params,
        ));
    }
    let m = Driver::run(det(Scheme::dosas_default()), &w);
    assert_eq!(m.records.len(), 4);
    let done =
        m.runtime.completed_active + m.runtime.completed_normal + m.runtime.completed_migrated;
    assert_eq!(done, 4);
}
