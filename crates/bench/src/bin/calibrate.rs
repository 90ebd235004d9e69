//! Table III on this host: measure every built-in kernel's single-core
//! rate with the real implementations.
//!
//! ```text
//! cargo run -p bench --release --bin calibrate
//! ```

use kernels::calibrate::{measure_rate, synthetic_f64_stream, synthetic_image};
use kernels::{
    GaussianFilter2D, GaussianOutput, GrepKernel, HistogramKernel, KMeansKernel, SmoothKernel,
    StatsKernel, SumKernel,
};

fn line(op: &str, paper: Option<f64>, rate: f64) {
    let paper = paper.map_or("     -".to_string(), |p| format!("{p:>6.0}"));
    println!("{op:<20} {paper}  {rate:>10.0}");
}

fn main() {
    let budget: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    println!("Kernel calibration (paper Table III), {budget:.1} s per kernel\n");
    println!("{:<20} {:>6}  {:>10}", "kernel", "paper", "host MB/s");
    println!("{}", "-".repeat(40));

    let stream = synthetic_f64_stream(8 << 20);
    let image = synthetic_image(2048, 1024);
    let chunk = 256 << 10;

    let mut sum = SumKernel::new();
    let r = measure_rate(&mut sum, &stream, chunk, budget);
    line("SUM", Some(860.0), r.rate_mb_per_s);

    let mut gauss = GaussianFilter2D::new(2048, GaussianOutput::Digest).unwrap();
    let r = measure_rate(&mut gauss, &image, chunk, budget);
    line("2D Gaussian Filter", Some(80.0), r.rate_mb_per_s);

    let mut stats = StatsKernel::new();
    let r = measure_rate(&mut stats, &stream, chunk, budget);
    line("stats", None, r.rate_mb_per_s);

    let mut grep = GrepKernel::new(b"needle").unwrap();
    let r = measure_rate(&mut grep, &stream, chunk, budget);
    line("grep", None, r.rate_mb_per_s);

    let mut hist = HistogramKernel::new();
    let r = measure_rate(&mut hist, &stream, chunk, budget);
    line("histogram", None, r.rate_mb_per_s);

    let mut smooth = SmoothKernel::new(16).unwrap();
    let r = measure_rate(&mut smooth, &stream, chunk, budget);
    line("smooth1d (w=16)", None, r.rate_mb_per_s);

    let mut km = KMeansKernel::new(vec![0.25, 0.5, 0.75]).unwrap();
    let r = measure_rate(&mut km, &stream, chunk, budget);
    line("kmeans1d (k=3)", None, r.rate_mb_per_s);

    println!(
        "\nnote: 'paper' rates were measured on 2012-era Dell R415 cores; \
         shapes (SUM >> Gaussian) transfer, absolute numbers do not."
    );
}
