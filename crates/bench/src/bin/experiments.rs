//! Regenerates every table and figure of the DOSAS paper (plus the
//! ablations) and writes CSVs under `results/`.
//!
//! ```text
//! cargo run -p bench --release --bin experiments            # everything
//! cargo run -p bench --release --bin experiments fig4 fig7  # a subset
//! ```

use bench::ablations;
use bench::report::{write_csv, Table};
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var("DOSAS_RESULTS_DIR").unwrap_or_else(|_| "results".into()))
}

fn emit(name: &str, table: &Table) {
    println!("{}", table.render());
    // Figure-style tables get a terminal chart plus an SVG figure.
    if name.starts_with("fig") {
        let value_cols: Vec<usize> = (1..table.columns.len())
            .filter(|&c| {
                table
                    .rows
                    .first()
                    .is_some_and(|r| r[c].trim_end_matches('%').parse::<f64>().is_ok())
            })
            .take(3)
            .collect();
        if !value_cols.is_empty() {
            println!("{}", table.chart(0, &value_cols));
            let y_label = if name == "fig11" || name == "fig12" {
                "bandwidth (MB/s)"
            } else {
                "execution time (s)"
            };
            let svg = bench::plot::line_plot(table, 0, &value_cols, y_label);
            let path = out_dir().join(format!("{name}.svg"));
            if let Err(e) = std::fs::write(&path, svg) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
    if let Err(e) = write_csv(&out_dir(), name, table) {
        eprintln!("warning: could not write {name}.csv: {e}");
    }
}

fn run(name: &str) -> bool {
    match name {
        "table3" => {
            let t = bench::table3(1.0);
            emit("table3", &t);
        }
        "fig2" => {
            // Figure 2 is the motivating instance of Figure 4 (Gaussian,
            // 128 MB); regenerated identically under its own name.
            let t = bench::fig_as_vs_ts("gaussian2d", 128);
            emit("fig2", &t);
        }
        "fig4" => emit("fig4", &bench::fig_as_vs_ts("gaussian2d", 128)),
        "fig5" => emit("fig5", &bench::fig_as_vs_ts("gaussian2d", 512)),
        "fig6" => emit("fig6", &bench::fig_as_vs_ts("sum", 128)),
        "table4" => {
            let (t, accuracy) = bench::table4();
            emit("table4", &t);
            println!(
                "Table IV accuracy: {:.1}% (paper: ~95%)\n",
                accuracy * 100.0
            );
        }
        "fig7" => emit("fig7", &bench::fig_three_schemes(128)),
        "fig8" => emit("fig8", &bench::fig_three_schemes(256)),
        "fig9" => emit("fig9", &bench::fig_three_schemes(512)),
        "fig10" => emit("fig10", &bench::fig_three_schemes(1024)),
        "fig11" => emit("fig11", &bench::fig_bandwidth(256)),
        "fig12" => emit("fig12", &bench::fig_bandwidth(512)),
        "ablate-cores" => emit("ablate_cores", &ablations::ablate_service_cores_full()),
        "ablate-stripes" => emit("ablate_stripes", &ablations::ablate_striping()),
        "ablate-solvers" => emit("ablate_solvers", &ablations::ablate_solvers()),
        "ablate-disk" => emit("ablate_disk", &ablations::ablate_disk()),
        "ablate-mixed" => emit("ablate_mixed", &ablations::ablate_multi_app()),
        "ablate-probe" => emit("ablate_probe", &ablations::ablate_probe_period()),
        "ablate-partial" => emit("ablate_partial", &ablations::ablate_partial()),
        "ablate-bwest" => emit("ablate_bwest", &ablations::ablate_bandwidth_estimation()),
        "ablate-cache" => emit("ablate_cache", &ablations::ablate_server_cache()),
        "ablate-hetero" => emit("ablate_hetero", &ablations::ablate_heterogeneous_queue()),
        other => {
            eprintln!("unknown experiment: {other}");
            return false;
        }
    }
    true
}

const ALL: &[&str] = &[
    "table3",
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "table4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablate-cores",
    "ablate-stripes",
    "ablate-solvers",
    "ablate-disk",
    "ablate-mixed",
    "ablate-probe",
    "ablate-partial",
    "ablate-bwest",
    "ablate-cache",
    "ablate-hetero",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    println!(
        "DOSAS reproduction experiments — CSVs land in {}/\n",
        out_dir().display()
    );
    let mut failed = false;
    for name in selected {
        failed |= !run(name);
    }
    if failed {
        eprintln!("known experiments: {}", ALL.join(" "));
        std::process::exit(2);
    }
}
