//! One function per table/figure of the paper (see DESIGN.md §4).

use crate::report::Table;
use crate::{mean_makespan, run_point, PAPER_NS};
use dosas::estimator::{ContentionEstimator, Decision};
use dosas::{OpRates, Scheme, SolverKind};
use kernels::calibrate::{measure_rate, synthetic_f64_stream, synthetic_image};
use kernels::{GaussianFilter2D, GaussianOutput, SumKernel};

const MIB: f64 = 1024.0 * 1024.0;
const SEEDS: [u64; 3] = [11, 42, 1337];

/// Figures 2, 4, 5 (Gaussian) and 6 (SUM): execution time of AS vs TS as the
/// number of I/O requests per storage node grows.
pub fn fig_as_vs_ts(op: &str, size_mb: u64) -> Table {
    let mut t = Table::new(
        &format!("{op} under TS and AS, {size_mb} MB per I/O (execution time, s)"),
        &["n_ios", "TS_secs", "AS_secs", "winner"],
    );
    for &n in &PAPER_NS {
        let ts = mean_makespan(Scheme::Traditional, op, size_mb, n, &SEEDS);
        let as_ = mean_makespan(Scheme::ActiveStorage, op, size_mb, n, &SEEDS);
        t.push(vec![
            n.to_string(),
            format!("{ts:.2}"),
            format!("{as_:.2}"),
            if as_ <= ts { "AS" } else { "TS" }.to_string(),
        ]);
    }
    t
}

/// Figures 7–10: DOSAS vs AS vs TS execution time (Gaussian filter).
pub fn fig_three_schemes(size_mb: u64) -> Table {
    let mut t = Table::new(
        &format!("DOSAS vs AS vs TS, {size_mb} MB per I/O (execution time, s)"),
        &["n_ios", "TS_secs", "AS_secs", "DOSAS_secs", "dosas_vs_best"],
    );
    for &n in &PAPER_NS {
        let ts = mean_makespan(Scheme::Traditional, "gaussian2d", size_mb, n, &SEEDS);
        let as_ = mean_makespan(Scheme::ActiveStorage, "gaussian2d", size_mb, n, &SEEDS);
        let ds = mean_makespan(Scheme::dosas_default(), "gaussian2d", size_mb, n, &SEEDS);
        let best = ts.min(as_);
        t.push(vec![
            n.to_string(),
            format!("{ts:.2}"),
            format!("{as_:.2}"),
            format!("{ds:.2}"),
            format!("{:+.1}%", (ds - best) / best * 100.0),
        ]);
    }
    t
}

/// Figures 11–12: achieved bandwidth per scheme (Gaussian filter).
pub fn fig_bandwidth(size_mb: u64) -> Table {
    let mut t = Table::new(
        &format!("Achieved bandwidth, {size_mb} MB per I/O (MB/s)"),
        &["n_ios", "TS_MBps", "AS_MBps", "DOSAS_MBps"],
    );
    for &n in &PAPER_NS {
        let bw = |scheme: Scheme| {
            SEEDS
                .iter()
                .map(|&s| {
                    run_point(scheme.clone(), "gaussian2d", size_mb, n, s).bandwidth_mb_per_s()
                })
                .sum::<f64>()
                / SEEDS.len() as f64
        };
        t.push(vec![
            n.to_string(),
            format!("{:.1}", bw(Scheme::Traditional)),
            format!("{:.1}", bw(Scheme::ActiveStorage)),
            format!("{:.1}", bw(Scheme::dosas_default())),
        ]);
    }
    t
}

/// Table III: per-core kernel processing rates — the paper's measurements
/// alongside this host's (really measured with the real kernels).
///
/// `measure_secs` is the per-kernel measurement budget (0.05 s in tests,
/// 1 s+ in the binary).
pub fn table3(measure_secs: f64) -> Table {
    let mut t = Table::new(
        "Benchmarks (paper Table III): computation complexity and processing rate",
        &[
            "benchmark",
            "ops_per_item",
            "paper_MBps_per_core",
            "host_MBps_per_core",
        ],
    );
    let stream = synthetic_f64_stream(4 << 20);
    let image = synthetic_image(2048, 512);

    let mut sum = SumKernel::new();
    let sum_rate = measure_rate(&mut sum, &stream, 256 << 10, measure_secs).rate_mb_per_s;
    t.push(vec![
        "SUM".into(),
        "1 add".into(),
        "860".into(),
        format!("{sum_rate:.0}"),
    ]);

    let mut gauss = GaussianFilter2D::new(2048, GaussianOutput::Digest).unwrap();
    let gauss_rate = measure_rate(&mut gauss, &image, 256 << 10, measure_secs).rate_mb_per_s;
    t.push(vec![
        "2D Gaussian Filter".into(),
        "9 mul + 9 add + 1 div".into(),
        "80".into(),
        format!("{gauss_rate:.0}"),
    ]);
    t
}

/// One Table-IV situation.
#[derive(Debug, Clone)]
pub struct Situation {
    pub op: String,
    pub size_mb: u64,
    pub n: usize,
}

/// The 64 evaluated situations: the full 2 × 4 × 7 grid of §IV-A plus eight
/// boundary cases around the Gaussian small→large crossover.
pub fn table4_situations() -> Vec<Situation> {
    let mut out = Vec::with_capacity(64);
    for op in ["sum", "gaussian2d"] {
        for size_mb in crate::PAPER_SIZES_MB {
            for n in PAPER_NS {
                out.push(Situation {
                    op: op.to_string(),
                    size_mb,
                    n,
                });
            }
        }
    }
    // Eight boundary situations around the Gaussian small→large crossover
    // (the region where the paper reports its misjudgments).
    for (op, size_mb, n) in [
        ("gaussian2d", 128u64, 3usize),
        ("gaussian2d", 256, 3),
        ("gaussian2d", 512, 3),
        ("gaussian2d", 1024, 3),
        ("gaussian2d", 128, 5),
        ("gaussian2d", 256, 5),
        ("sum", 256, 3),
        ("sum", 512, 5),
    ] {
        out.push(Situation {
            op: op.to_string(),
            size_mb,
            n,
        });
    }
    assert_eq!(out.len(), 64);
    out
}

/// Table IV: the scheduling algorithm's decision vs. ground truth.
///
/// "Algorithm Decision" = the analytic model's choice (Eqs. 1–3) with the
/// paper's parameters. "Practice" = which of AS/TS actually finishes first
/// in the full simulation (bandwidth jitter on). Returns the table and the
/// measured accuracy.
pub fn table4() -> (Table, f64) {
    let estimator = ContentionEstimator::new(
        SolverKind::Threshold,
        OpRates::paper(),
        1.0, // storage kernel cores (2 cores − 1 service core)
        1.0,
        118.0 * MIB,
        16.0 * 1024.0 * MIB,
    );
    let mut t = Table::new(
        "Scheduling algorithm evaluation (paper Table IV)",
        &[
            "situation",
            "benchmark",
            "size_MB",
            "n_ios",
            "algorithm",
            "practice",
            "judgment",
        ],
    );
    let mut correct = 0usize;
    let situations = table4_situations();
    for (i, s) in situations.iter().enumerate() {
        let algorithm = estimator.static_decision(&s.op, s.size_mb as f64 * MIB, s.n);
        // Ground truth: simulate both pure schemes (one seed per situation,
        // like the paper's single measurement per cell).
        let seed = 1000 + i as u64;
        let ts = run_point(Scheme::Traditional, &s.op, s.size_mb, s.n, seed).makespan_secs;
        let as_ = run_point(Scheme::ActiveStorage, &s.op, s.size_mb, s.n, seed).makespan_secs;
        let practice = if as_ <= ts {
            Decision::Active
        } else {
            Decision::Normal
        };
        let judgment = algorithm == practice;
        correct += judgment as usize;
        let name = |d: Decision| match d {
            Decision::Active => "Active",
            Decision::Normal => "Normal",
        };
        t.push(vec![
            (i + 1).to_string(),
            s.op.clone(),
            s.size_mb.to_string(),
            s.n.to_string(),
            name(algorithm).to_string(),
            name(practice).to_string(),
            if judgment { "TRUE" } else { "FALSE" }.to_string(),
        ]);
    }
    let accuracy = correct as f64 / situations.len() as f64;
    (t, accuracy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn situations_cover_the_paper_grid() {
        let s = table4_situations();
        assert_eq!(s.len(), 64);
        assert!(s
            .iter()
            .any(|x| x.op == "sum" && x.size_mb == 1024 && x.n == 64));
        assert!(s.iter().any(|x| x.op == "gaussian2d" && x.n == 3));
    }

    #[test]
    fn table3_rates_order_matches_paper() {
        let t = table3(0.02);
        assert_eq!(t.rows.len(), 2);
        let sum_rate: f64 = t.rows[0][3].parse().unwrap();
        let gauss_rate: f64 = t.rows[1][3].parse().unwrap();
        assert!(
            sum_rate > gauss_rate,
            "SUM ({sum_rate}) must outpace the Gaussian ({gauss_rate})"
        );
    }

    #[test]
    fn fig6_sum_as_always_wins() {
        // Cheap subset: the SUM benchmark's qualitative result.
        for n in [1usize, 16, 64] {
            let ts = run_point(Scheme::Traditional, "sum", 128, n, 1).makespan_secs;
            let as_ = run_point(Scheme::ActiveStorage, "sum", 128, n, 1).makespan_secs;
            assert!(as_ < ts, "n={n}");
        }
    }
}
