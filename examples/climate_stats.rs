//! Climate analytics: the multi-application contention scenario of the
//! paper's Figure 1.
//!
//! Several "applications" share one storage node: two active-storage
//! analyses (global statistics over temperature fields, SUM over
//! precipitation) and one traditional application streaming raw data.
//! The Contention Estimator must balance them.
//!
//! Also demonstrates the data plane: the statistics kernel really reduces a
//! synthetic temperature field, streamed in chunks on the "client" side.
//!
//! ```text
//! cargo run --release --example climate_stats
//! ```

use dosas_repro::prelude::*;
use kernels::StatsKernel;

/// A synthetic global temperature field (K), f64 grid points.
fn temperature_field(points: usize) -> Vec<u8> {
    (0..points)
        .flat_map(|i| {
            let lat_band = (i % 180) as f64 / 180.0; // 0 pole .. 1 equator-ish
            let season = ((i / 180) % 365) as f64 / 365.0;
            let t = 288.0 - 40.0 * (1.0 - lat_band)
                + 8.0 * (season * std::f64::consts::TAU).sin()
                + ((i * 2654435761) % 1000) as f64 / 500.0
                - 1.0;
            t.to_le_bytes()
        })
        .collect()
}

fn main() {
    // ---- data plane: reduce a real field with the real kernel ----
    let field = temperature_field(2_000_000);
    println!(
        "climate_stats — reducing {} MB of temperature data",
        field.len() >> 20
    );

    // Client-side completion path: the kernel consumes the field chunk by
    // chunk, as the ASC does with a demoted request's data.
    let mut k = StatsKernel::new();
    for chunk in field.chunks(1 << 20) {
        k.process_chunk(chunk);
    }
    let (min, max, mean, var, count) = StatsKernel::decode_result(&k.finalize()).unwrap();
    println!(
        "  {count} points: min {min:.1} K, max {max:.1} K, mean {mean:.2} K, stddev {:.2} K",
        var.sqrt()
    );
    println!(
        "  (40 bytes of answer instead of {} MB of data movement)\n",
        field.len() >> 20
    );

    // ---- performance plane: Figure-1 style application mix ----
    let apps = vec![
        // (op, params, bytes per request, active?, ranks)
        (
            "stats".to_string(),
            KernelParams::default(),
            256 << 20,
            true,
            8,
        ),
        (
            "sum".to_string(),
            KernelParams::default(),
            512 << 20,
            true,
            4,
        ),
        // A traditional visualization app pulling raw fields.
        (
            "stats".to_string(),
            KernelParams::default(),
            256 << 20,
            false,
            6,
        ),
    ];
    println!("three applications sharing one storage node (18 processes total):");
    println!(
        "{:>7}  {:>12}  {:>13}  {:>8}  {:>11}",
        "scheme", "makespan (s)", "mean lat (s)", "demoted", "interrupted"
    );
    for scheme in [
        Scheme::Traditional,
        Scheme::ActiveStorage,
        Scheme::dosas_default(),
    ] {
        let workload = Workload::multi_app(&apps, 1);
        let m = Driver::run(DriverConfig::paper(scheme.clone()), &workload);
        println!(
            "{:>7}  {:>12.1}  {:>13.1}  {:>8}  {:>11}",
            scheme.name(),
            m.makespan_secs,
            m.mean_latency_secs(),
            m.runtime.demoted,
            m.runtime.interrupted
        );
    }
    println!(
        "\nDOSAS serves the cheap reductions (sum/stats) on the storage node —\n\
         they beat the network by an order of magnitude — while keeping the\n\
         queue short enough that the traditional app isn't starved."
    );
}
