//! Extension/ablation studies beyond the paper (DESIGN.md §4, A1–A10).

use crate::report::Table;
use crate::{params_for, run_point_with, MIB, PAPER_NS};
use dosas::schedule::{self, SolverKind};
use dosas::{CostModel, Driver, DriverConfig, OpRates, RequestSpec, Scheme, Workload};
use simkit::{RngFactory, SimSpan};

/// A1 — sensitivity to reserved file-system service cores on the storage
/// node (the calibration choice discussed in DESIGN.md §2).
pub fn ablate_service_cores() -> Table {
    let mut t = Table::new(
        "A1: AS execution time vs reserved service cores (Gaussian, 128 MB)",
        &[
            "n_ios",
            "kernel_cores=1",
            "kernel_cores=2",
            "kernel_cores=3",
        ],
    );
    for &n in &[1usize, 4, 16, 64] {
        let mut row = vec![n.to_string()];
        for kernel_cores in [1usize, 2, 3] {
            let mut cfg = DriverConfig::paper(Scheme::ActiveStorage);
            cfg.cluster.cores_per_storage = 4;
            cfg.cluster.storage_service_cores = 4 - kernel_cores;
            let m = run_point_with(cfg, "gaussian2d", 128, n, 1);
            row.push(format!("{:.2}", m.makespan_secs));
        }
        t.push(row);
    }
    t
}

/// A2 — striping: one shared file striped over 1..8 storage nodes,
/// active reads fanning out to every server.
pub fn ablate_striping() -> Table {
    let mut t = Table::new(
        "A2: striped active reads (SUM, 256 MB per process, 8 processes)",
        &["storage_nodes", "AS_secs", "TS_secs"],
    );
    for &servers in &[1usize, 2, 4, 8] {
        let run = |scheme: Scheme| {
            let mut cfg = DriverConfig::paper(scheme);
            cfg.cluster.storage_nodes = servers;
            let w = Workload::striped_active(8, 1 << 20, 256 << 20, "sum", params_for("sum"));
            Driver::run(cfg, &w).makespan_secs
        };
        t.push(vec![
            servers.to_string(),
            format!("{:.2}", run(Scheme::ActiveStorage)),
            format!("{:.2}", run(Scheme::Traditional)),
        ]);
    }
    t
}

/// A3 — solver scaling: wall time and optimality of each solver as the
/// queue grows (the paper's 2^k method vs the production solvers).
pub fn ablate_solvers() -> Table {
    let mut t = Table::new(
        "A3: solver comparison on random heterogeneous queues",
        &["k", "solver", "micros", "time_vs_optimal"],
    );
    let rates = OpRates::paper();
    let model = CostModel::new(118.0 * MIB, 1.0, 1.0, rates);
    for &k in &[4usize, 8, 16, 32, 64] {
        // Deterministic pseudo-random sizes in [64, 1024] MB.
        let rng = RngFactory::new(99).stream_indexed("solver-ablate", k as u64);
        let mut state = rng;
        use rand::Rng;
        let reqs: Vec<RequestSpec> = (0..k)
            .map(|_| {
                let mb: f64 = state.random_range(64.0..1024.0);
                RequestSpec::new(mb * MIB, "gaussian2d")
            })
            .collect();
        let items = model.items(&reqs);
        let optimal = schedule::solve(SolverKind::Threshold, &items).time;
        for kind in [
            SolverKind::Exhaustive,
            SolverKind::Matrix,
            SolverKind::Threshold,
            SolverKind::BranchAndBound,
        ] {
            let applicable = match kind {
                SolverKind::Exhaustive => k <= 20,
                SolverKind::Matrix => k <= 12,
                _ => true,
            };
            if !applicable {
                t.push(vec![
                    k.to_string(),
                    kind.name().into(),
                    "-".into(),
                    "infeasible(2^k)".into(),
                ]);
                continue;
            }
            let start = std::time::Instant::now();
            let a = schedule::solve(kind, &items);
            let micros = start.elapsed().as_micros();
            let gap = (a.time - optimal) / optimal * 100.0;
            t.push(vec![
                k.to_string(),
                kind.name().into(),
                micros.to_string(),
                format!("{gap:+.2}%"),
            ]);
        }
    }
    t
}

/// A4 — disk-bound regime: a 100 MB/s disk makes the disk, not the network
/// or CPU, the bottleneck; active storage's advantage shrinks.
pub fn ablate_disk() -> Table {
    let mut t = Table::new(
        "A4: disk bandwidth sensitivity (Gaussian, 128 MB, AS vs TS)",
        &["n_ios", "disk_MBps", "AS_secs", "TS_secs"],
    );
    for &disk_mb in &[100.0f64, 1000.0] {
        for &n in &[2usize, 16] {
            let run = |scheme: Scheme| {
                let mut cfg = DriverConfig::paper(scheme);
                cfg.cluster.disk_bandwidth = disk_mb * MIB;
                run_point_with(cfg, "gaussian2d", 128, n, 1).makespan_secs
            };
            t.push(vec![
                n.to_string(),
                format!("{disk_mb:.0}"),
                format!("{:.2}", run(Scheme::ActiveStorage)),
                format!("{:.2}", run(Scheme::Traditional)),
            ]);
        }
    }
    t
}

/// A5 — the Figure-1 scenario: several applications with mixed normal and
/// active I/O sharing one storage node.
pub fn ablate_multi_app() -> Table {
    let mut t = Table::new(
        "A5: multi-application mix (2 active Gaussian apps + 1 normal-I/O app)",
        &[
            "scheme",
            "makespan_secs",
            "mean_latency_secs",
            "demoted",
            "interrupted",
        ],
    );
    let apps = vec![
        (
            "gaussian2d".to_string(),
            params_for("gaussian2d"),
            128 << 20,
            true,
            6,
        ),
        ("sum".to_string(), params_for("sum"), 256 << 20, true, 4),
        (
            "stats".to_string(),
            params_for("stats"),
            128 << 20,
            false,
            6,
        ),
    ];
    for scheme in [
        Scheme::Traditional,
        Scheme::ActiveStorage,
        Scheme::dosas_default(),
    ] {
        let w = Workload::multi_app(&apps, 1);
        let m = Driver::run(DriverConfig::paper(scheme.clone()), &w);
        t.push(vec![
            scheme.name().to_string(),
            format!("{:.2}", m.makespan_secs),
            format!("{:.2}", m.mean_latency_secs()),
            m.runtime.demoted.to_string(),
            m.runtime.interrupted.to_string(),
        ]);
    }
    t
}

/// A6 — Contention Estimator probe-period sensitivity on a two-wave
/// workload (shorter period ⇒ faster reaction ⇒ earlier interruption).
pub fn ablate_probe_period() -> Table {
    let mut t = Table::new(
        "A6: CE probe period on a two-wave Gaussian workload (4+4 × 128 MB)",
        &["probe_ms", "makespan_secs", "interrupted", "demoted"],
    );
    for &ms in &[10u64, 50, 100, 500, 1000] {
        let mut dosas = dosas::DosasConfig {
            probe_period: SimSpan::from_millis(ms),
            ..Default::default()
        };
        // Force reliance on the periodic probe alone.
        dosas.decide_on_arrival = false;
        let cfg = DriverConfig::paper(Scheme::Dosas(dosas));
        let w = Workload::two_waves(
            8,
            1,
            128 << 20,
            "gaussian2d",
            params_for("gaussian2d"),
            SimSpan::from_millis(300),
        );
        let m = Driver::run(cfg, &w);
        t.push(vec![
            ms.to_string(),
            format!("{:.2}", m.makespan_secs),
            m.runtime.interrupted.to_string(),
            m.runtime.demoted.to_string(),
        ]);
    }
    t
}

/// A7 — partial offloading (extension; `schedule::fractional`): split each
/// request between the storage node and the client so the storage CPU and
/// the network work concurrently.
pub fn ablate_partial() -> Table {
    let mut t = Table::new(
        "A7: partial offloading vs the paper's schemes (Gaussian, 128 MB)",
        &[
            "n_ios",
            "TS_secs",
            "AS_secs",
            "DOSAS_secs",
            "PARTIAL_secs",
            "gain_vs_best",
        ],
    );
    for &n in PAPER_NS.iter() {
        let run = |scheme: Scheme| crate::run_point(scheme, "gaussian2d", 128, n, 42).makespan_secs;
        let ts = run(Scheme::Traditional);
        let as_ = run(Scheme::ActiveStorage);
        let ds = run(Scheme::dosas_default());
        let dp = run(Scheme::dosas_partial());
        let best = ts.min(as_).min(ds);
        t.push(vec![
            n.to_string(),
            format!("{ts:.2}"),
            format!("{as_:.2}"),
            format!("{ds:.2}"),
            format!("{dp:.2}"),
            format!("{:+.1}%", (dp - best) / best * 100.0),
        ]);
    }
    t
}

/// A8 — online bandwidth estimation (extension): the CE plans with an EWMA
/// of the observed saturated-link throughput instead of the nominal
/// 118 MB/s, addressing the paper's first misjudgment cause. Shown at the
/// decision boundary where the bandwidth input matters most.
pub fn ablate_bandwidth_estimation() -> Table {
    let mut t = Table::new(
        "A8: online bandwidth estimation at the decision boundary (Gaussian)",
        &[
            "n_ios",
            "nominal_bw_secs",
            "estimated_bw_secs",
            "est_value_MBps",
        ],
    );
    for &n in &[3usize, 4, 5, 8] {
        let mean = |estimate: bool| {
            let seeds = [5u64, 6, 7, 8, 9];
            let mut total = 0.0;
            let mut est = None;
            for &seed in &seeds {
                let cfg = dosas::DosasConfig {
                    estimate_bandwidth: estimate,
                    ..Default::default()
                };
                let mut dc = DriverConfig::paper(Scheme::Dosas(cfg));
                dc.seed = seed;
                let w = Workload::uniform_active(
                    n,
                    1,
                    128 << 20,
                    "gaussian2d",
                    params_for("gaussian2d"),
                );
                let m = Driver::run(dc, &w);
                total += m.makespan_secs;
                if let Some(v) = m.estimated_bandwidth.values().next() {
                    est = Some(*v);
                }
            }
            (total / seeds.len() as f64, est)
        };
        let (nominal, _) = mean(false);
        let (estimated, est_val) = mean(true);
        t.push(vec![
            n.to_string(),
            format!("{nominal:.2}"),
            format!("{estimated:.2}"),
            est_val.map_or("-".into(), |v| format!("{:.1}", v / MIB)),
        ]);
    }
    t
}

/// A9 — server buffer cache (extension; `pfs::BlockCache`): repeated reads
/// of hot files skip the disk. Shown in the disk-bound regime where it
/// matters (the default configuration's disk never bottlenecks, which is
/// the paper's implicit always-hot-cache assumption).
pub fn ablate_server_cache() -> Table {
    let mut t = Table::new(
        "A9: server buffer cache, disk-bound regime (Gaussian, 128 MB, TS)",
        &["n_ios", "disk_MBps", "no_cache_secs", "cache_1GB_secs"],
    );
    for &n in &[4usize, 8, 16] {
        let run = |cache: f64| {
            let mut cfg = DriverConfig::paper(Scheme::Traditional);
            cfg.cluster.disk_bandwidth = 100.0 * MIB;
            cfg.cluster.server_cache_bytes = cache;
            run_point_with(cfg, "gaussian2d", 128, n, 1).makespan_secs
        };
        t.push(vec![
            n.to_string(),
            "100".into(),
            format!("{:.2}", run(0.0)),
            format!("{:.2}", run(1024.0 * MIB)),
        ]);
    }
    t
}

/// A10 — heterogeneous queue: when cheap (SUM) and expensive (Gaussian)
/// active requests share one queue, the optimal policy is *mixed* — the
/// binary all-or-nothing intuition from the homogeneous experiments does
/// not survive heterogeneity. Reports the per-op execution sites.
pub fn ablate_heterogeneous_queue() -> Table {
    use mpiio::status::ExecutionSite;
    let mut t = Table::new(
        "A10: mixed SUM + Gaussian queue under DOSAS (per-op placement)",
        &[
            "op",
            "requests",
            "on_storage",
            "on_compute",
            "makespan_secs",
        ],
    );
    let apps = vec![
        ("sum".to_string(), params_for("sum"), 256 << 20, true, 4),
        (
            "gaussian2d".to_string(),
            params_for("gaussian2d"),
            256 << 20,
            true,
            12,
        ),
    ];
    let w = Workload::multi_app(&apps, 1);
    let m = Driver::run(DriverConfig::paper(Scheme::dosas_default()), &w);
    for op in ["sum", "gaussian2d"] {
        let recs: Vec<_> = m
            .records
            .iter()
            .filter(|r| r.op.as_deref() == Some(op))
            .collect();
        let storage = recs
            .iter()
            .filter(|r| r.site == ExecutionSite::Storage)
            .count();
        let compute = recs
            .iter()
            .filter(|r| matches!(r.site, ExecutionSite::Compute | ExecutionSite::Migrated))
            .count();
        t.push(vec![
            op.to_string(),
            recs.len().to_string(),
            storage.to_string(),
            compute.to_string(),
            format!("{:.2}", m.makespan_secs),
        ]);
    }
    t
}

/// Full n-sweep for A1 (used by the binary; the short table above is for
/// quick looks).
pub fn ablate_service_cores_full() -> Table {
    let mut t = Table::new(
        "A1 (full sweep): AS execution time vs kernel cores (Gaussian, 128 MB)",
        &["n_ios", "kc=1", "kc=2", "kc=3"],
    );
    for &n in PAPER_NS.iter() {
        let mut row = vec![n.to_string()];
        for kernel_cores in [1usize, 2, 3] {
            let mut cfg = DriverConfig::paper(Scheme::ActiveStorage);
            cfg.cluster.cores_per_storage = 4;
            cfg.cluster.storage_service_cores = 4 - kernel_cores;
            let m = run_point_with(cfg, "gaussian2d", 128, n, 1);
            row.push(format!("{:.2}", m.makespan_secs));
        }
        t.push(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_kernel_cores_never_hurt() {
        let t = ablate_service_cores();
        for row in &t.rows {
            let a: f64 = row[1].parse().unwrap();
            let c: f64 = row[3].parse().unwrap();
            assert!(
                c <= a * 1.05,
                "3 kernel cores should not lose to 1: {row:?}"
            );
        }
    }

    #[test]
    fn solver_ablation_reports_all_solvers() {
        let t = ablate_solvers();
        // 5 k-values × 4 solvers.
        assert_eq!(t.rows.len(), 20);
        // Exact solvers show zero gap whenever they ran.
        for row in &t.rows {
            if row[1] == "threshold" || row[1] == "bnb" {
                assert_eq!(row[3], "+0.00%", "{row:?}");
            }
        }
    }

    #[test]
    fn heterogeneous_queue_is_split_by_op() {
        let t = ablate_heterogeneous_queue();
        // SUM requests stay on storage; the Gaussian flood is demoted.
        let sum_row = &t.rows[0];
        let gauss_row = &t.rows[1];
        assert_eq!(sum_row[2], "4", "all SUMs on storage: {sum_row:?}");
        assert!(
            gauss_row[3].parse::<usize>().unwrap() >= 10,
            "most Gaussians on compute: {gauss_row:?}"
        );
    }

    #[test]
    fn partial_never_loses_at_any_scale() {
        let t = ablate_partial();
        for row in &t.rows {
            let gain: f64 = row[5].trim_end_matches('%').parse().unwrap();
            assert!(
                gain <= 1.0,
                "partial must not lose to the best scheme: {row:?}"
            );
        }
        // And at mid contention it must win big.
        let mid = &t.rows[3]; // n = 8
        let gain: f64 = mid[5].trim_end_matches('%').parse().unwrap();
        assert!(gain < -20.0, "expected >20% gain at n=8, got {gain}%");
    }

    #[test]
    fn probe_period_affects_reaction() {
        let t = ablate_probe_period();
        assert_eq!(t.rows.len(), 5);
        // Some probing configuration must produce demotions.
        assert!(t.rows.iter().any(|r| r[3] != "0"));
    }
}
