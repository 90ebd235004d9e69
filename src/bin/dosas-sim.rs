//! `dosas-sim` — command-line front end to the DOSAS simulator.
//!
//! Runs one experiment point and prints human-readable metrics or JSON.
//!
//! ```text
//! dosas-sim --scheme dosas --op gaussian2d --n 16 --size-mb 128
//! dosas-sim --scheme ts,as,dosas,partial --n 8 --json
//! dosas-sim --help
//! ```

use dosas_repro::cluster::TopologySpec;
use dosas_repro::prelude::*;
use std::process::exit;

#[derive(Debug, Clone)]
struct Args {
    schemes: Vec<Scheme>,
    op: String,
    n: usize,
    size_mb: u64,
    storage_nodes: usize,
    topology: Option<TopologySpec>,
    seed: u64,
    deterministic: bool,
    json: bool,
    trace: Option<String>,
    obs_out: Option<String>,
    autopsy: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            schemes: vec![Scheme::dosas_default()],
            op: "gaussian2d".into(),
            n: 8,
            size_mb: 128,
            storage_nodes: 1,
            topology: None,
            seed: 42,
            deterministic: false,
            json: false,
            trace: None,
            obs_out: None,
            autopsy: None,
        }
    }
}

const HELP: &str = "\
dosas-sim — DOSAS active-storage simulator (CLUSTER 2012 reproduction)

USAGE:
    dosas-sim [OPTIONS]

OPTIONS:
    --scheme <list>      comma list of ts|as|dosas|partial  [default: dosas]
    --op <name>          sum|gaussian2d|stats|grep|histogram|kmeans1d|smooth1d
                         [default: gaussian2d]
    --n <count>          concurrent requests per storage node [default: 8]
    --size-mb <mb>       request size in MB                  [default: 128]
    --storage-nodes <k>  number of storage nodes             [default: 1]
    --topology <spec>    fabric wiring: star | tree[:arity] | fat-tree:k
                         [default: star — the paper's testbed]
    --seed <u64>         RNG seed                            [default: 42]
    --deterministic      disable bandwidth/CPU jitter and latencies
    --json               emit one JSON object per scheme
    --trace <path>       write a chrome://tracing timeline (last scheme)
    --obs-out <dir>      enable observability and write metrics.prom,
                         timeline.jsonl, trace.json and profile.json
                         (per-subsystem dispatch counts and wall time)
                         into <dir>
                         (last scheme; directory is created if absent)
    --autopsy <dir>      enable per-request causal tracing and write the
                         contention-attribution report (autopsy.txt,
                         autopsy.json) into <dir> for each scheme
    --check-obs <dir>    validate a previously written --obs-out directory
                         (Prometheus snapshot parses, timeline round-trips
                         through serde, profile counts dispatched events)
                         and exit
    -h, --help           this text
";

fn parse_scheme(s: &str) -> Result<Scheme, String> {
    match s {
        "ts" | "TS" => Ok(Scheme::Traditional),
        "as" | "AS" => Ok(Scheme::ActiveStorage),
        "dosas" | "DOSAS" => Ok(Scheme::dosas_default()),
        "partial" | "PARTIAL" | "split" => Ok(Scheme::dosas_partial()),
        other => Err(format!("unknown scheme {other:?} (ts|as|dosas|partial)")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--scheme" => {
                args.schemes = value("--scheme")?
                    .split(',')
                    .map(parse_scheme)
                    .collect::<Result<_, _>>()?;
            }
            "--op" => args.op = value("--op")?,
            "--n" => {
                args.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?;
            }
            "--size-mb" => {
                args.size_mb = value("--size-mb")?
                    .parse()
                    .map_err(|e| format!("--size-mb: {e}"))?;
            }
            "--storage-nodes" => {
                args.storage_nodes = value("--storage-nodes")?
                    .parse()
                    .map_err(|e| format!("--storage-nodes: {e}"))?;
            }
            "--topology" => {
                args.topology = Some(
                    TopologySpec::parse(&value("--topology")?)
                        .map_err(|e| format!("--topology: {e}"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--deterministic" => args.deterministic = true,
            "--json" => args.json = true,
            "--trace" => args.trace = Some(value("--trace")?),
            "--obs-out" => args.obs_out = Some(value("--obs-out")?),
            "--autopsy" => args.autopsy = Some(value("--autopsy")?),
            "--check-obs" => {
                let dir = value("--check-obs")?;
                match check_obs_dir(&dir) {
                    Ok((samples, lines)) => {
                        println!(
                            "ok: {dir}/metrics.prom ({samples} samples), \
                             {dir}/timeline.jsonl ({lines} records)"
                        );
                        exit(0);
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        exit(1);
                    }
                }
            }
            "-h" | "--help" => {
                print!("{HELP}");
                exit(0);
            }
            other => return Err(format!("unknown flag {other:?}; see --help")),
        }
    }
    if args.n == 0 || args.size_mb == 0 || args.storage_nodes == 0 {
        return Err("--n, --size-mb and --storage-nodes must be positive".into());
    }
    // Reject an unbuildable cluster before anything reaches stdout.
    cluster_config(&args)
        .validate()
        .map_err(|e| match &args.topology {
            Some(topo) => format!("--topology {topo}: {e}"),
            None => format!("cluster: {e}"),
        })?;
    Ok(args)
}

/// The cluster every scheme of the run shares: the paper's testbed (or its
/// jitter-free variant) resized and rewired by the command line.
fn cluster_config(args: &Args) -> ClusterConfig {
    let mut cluster = if args.deterministic {
        ClusterConfig::deterministic()
    } else {
        ClusterConfig::discfarm()
    };
    cluster.storage_nodes = args.storage_nodes;
    if let Some(topo) = &args.topology {
        cluster.topology = topo.clone();
    }
    cluster
}

fn params_for(op: &str) -> KernelParams {
    match op {
        "gaussian2d" => KernelParams::with_width(4096),
        "smooth1d" => KernelParams::with_width(32),
        "grep" => KernelParams::with_pattern(b"needle"),
        "kmeans1d" => KernelParams::with_centroids(vec![0.25, 0.5, 0.75]),
        _ => KernelParams::default(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    };
    let known_ops = [
        "sum",
        "gaussian2d",
        "stats",
        "grep",
        "histogram",
        "kmeans1d",
        "smooth1d",
    ];
    if !known_ops.contains(&args.op.as_str()) {
        eprintln!(
            "error: unknown op {:?}; known: {}",
            args.op,
            known_ops.join(", ")
        );
        exit(2);
    }

    let workload = Workload::uniform_active(
        args.n,
        args.storage_nodes,
        args.size_mb << 20,
        &args.op,
        params_for(&args.op),
    );

    if !args.json {
        println!(
            "dosas-sim: {} × {} MB {:?} per storage node ({} node{}), seed {}\n",
            args.n,
            args.size_mb,
            args.op,
            args.storage_nodes,
            if args.storage_nodes == 1 { "" } else { "s" },
            args.seed,
        );
        println!(
            "{:>8}  {:>11}  {:>9}  {:>7}  {:>7}  {:>6}  {:>11}",
            "scheme", "makespan(s)", "MB/s", "active", "demoted", "split", "interrupted"
        );
    }
    for scheme in &args.schemes {
        let mut cfg = DriverConfig::paper(scheme.clone());
        cfg.cluster = cluster_config(&args);
        cfg.seed = args.seed;
        cfg.trace = args.trace.is_some() || args.obs_out.is_some();
        if args.obs_out.is_some() {
            cfg.obs = ObsConfig::enabled();
        }
        cfg.autopsy = args.autopsy.is_some();
        let label = scheme_label(scheme);
        let (m, profile) = if args.obs_out.is_some() {
            let (m, p) = Driver::run_profiled(cfg, &workload, ExecMode::Serial);
            (m, Some(p))
        } else {
            (Driver::run(cfg, &workload), None)
        };
        if args.json {
            println!(
                "{}",
                serde_json::json!({
                    "scheme": label,
                    "op": args.op,
                    "n": args.n,
                    "size_mb": args.size_mb,
                    "storage_nodes": args.storage_nodes,
                    "seed": args.seed,
                    "makespan_secs": m.makespan_secs,
                    "bandwidth_mb_per_s": m.bandwidth_mb_per_s(),
                    "mean_latency_secs": m.mean_latency_secs(),
                    "latency_p95_secs": m.latency_quantile(0.95),
                    "completed_active": m.runtime.completed_active,
                    "demoted": m.runtime.demoted,
                    "interrupted": m.runtime.interrupted,
                    "split": m.runtime.split,
                    "events": m.events,
                })
            );
        } else {
            println!(
                "{:>8}  {:>11.2}  {:>9.1}  {:>7}  {:>7}  {:>6}  {:>11}",
                label,
                m.makespan_secs,
                m.bandwidth_mb_per_s(),
                m.runtime.completed_active,
                m.runtime.demoted,
                m.runtime.split,
                m.runtime.interrupted,
            );
        }
        if let (Some(path), Some(trace)) = (&args.trace, &m.trace) {
            let json = obs::chrome_trace_json(trace);
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warning: could not write trace to {path}: {e}");
            } else if !args.json {
                println!("          (timeline written to {path} — open in chrome://tracing)");
            }
        }
        if let Some(dir) = &args.obs_out {
            let profile = profile.as_ref().expect("profiled run under --obs-out");
            if let Err(e) = write_obs_dir(dir, &m, profile, args.json) {
                eprintln!("warning: could not write observability output to {dir}: {e}");
            }
        }
        if let Some(dir) = &args.autopsy {
            if let Err(e) = write_autopsy_dir(dir, label, &m, args.json) {
                eprintln!("warning: could not write autopsy report to {dir}: {e}");
            }
        }
    }
}

/// Write the contention-attribution report for one scheme: `autopsy.txt`
/// (the deterministic rendered report, byte-identical across replays) and
/// `autopsy.json` (the full structured breakdown). Files are prefixed with
/// the scheme label so a multi-scheme run keeps every report.
fn write_autopsy_dir(dir: &str, label: &str, m: &RunMetrics, quiet: bool) -> std::io::Result<()> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir)?;
    let report = m
        .autopsy
        .as_ref()
        .expect("autopsy enabled by --autopsy, so the run carries a report");
    let txt = dir.join(format!("{}-autopsy.txt", label.to_lowercase()));
    let json = dir.join(format!("{}-autopsy.json", label.to_lowercase()));
    std::fs::write(&txt, report.render(10))?;
    std::fs::write(
        &json,
        serde_json::to_string_pretty(report).expect("autopsy serializes"),
    )?;
    if !quiet {
        println!(
            "          (autopsy written to {} and {})",
            txt.display(),
            json.display()
        );
    }
    Ok(())
}

/// Write the observability artifacts — `metrics.prom` (Prometheus text
/// exposition), `timeline.jsonl` (merged samples + events), `trace.json`
/// (chrome://tracing) and `profile.json` (per-subsystem dispatch counts and
/// wall time) — into `dir`.
fn write_obs_dir(
    dir: &str,
    m: &RunMetrics,
    profile: &ExecProfile,
    quiet: bool,
) -> std::io::Result<()> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir)?;
    let report = m
        .obs
        .as_ref()
        .expect("obs enabled by --obs-out, so the run carries a report");
    std::fs::write(dir.join("metrics.prom"), report.to_prometheus())?;
    std::fs::write(dir.join("timeline.jsonl"), report.timeline_jsonl())?;
    let trace = m.trace.as_deref().unwrap_or(&[]);
    std::fs::write(dir.join("trace.json"), obs::chrome_trace_json(trace))?;
    std::fs::write(
        dir.join("profile.json"),
        serde_json::to_string_pretty(profile).expect("profile serializes"),
    )?;
    if !quiet {
        println!(
            "          (observability written to {}/{{metrics.prom,timeline.jsonl,trace.json,profile.json}})",
            dir.display()
        );
    }
    Ok(())
}

/// Validate an `--obs-out` directory: the Prometheus snapshot must pass the
/// text-exposition checker, every timeline line must round-trip through
/// serde byte-for-byte, and the profile must count at least one dispatched
/// event under every label. Returns (prometheus sample lines, timeline
/// records).
fn check_obs_dir(dir: &str) -> Result<(usize, usize), String> {
    let dir = std::path::Path::new(dir);
    let prom = std::fs::read_to_string(dir.join("metrics.prom"))
        .map_err(|e| format!("read metrics.prom: {e}"))?;
    let samples =
        dosas_repro::obs::validate_prometheus(&prom).map_err(|e| format!("metrics.prom: {e}"))?;
    let jsonl = std::fs::read_to_string(dir.join("timeline.jsonl"))
        .map_err(|e| format!("read timeline.jsonl: {e}"))?;
    let mut lines = 0usize;
    for (i, line) in jsonl.lines().enumerate() {
        let rec: TimelineRecord = serde_json::from_str(line)
            .map_err(|e| format!("timeline.jsonl line {}: {e}", i + 1))?;
        let again = serde_json::to_string(&rec).map_err(|e| e.to_string())?;
        if line != again {
            return Err(format!(
                "timeline.jsonl line {} did not round-trip through serde",
                i + 1
            ));
        }
        lines += 1;
    }
    let trace = std::fs::read_to_string(dir.join("trace.json"))
        .map_err(|e| format!("read trace.json: {e}"))?;
    serde_json::from_str::<serde_json::Value>(&trace).map_err(|e| format!("trace.json: {e}"))?;
    let profile = std::fs::read_to_string(dir.join("profile.json"))
        .map_err(|e| format!("read profile.json: {e}"))?;
    let p: serde_json::Value =
        serde_json::from_str(&profile).map_err(|e| format!("profile.json: {e}"))?;
    let dispatch = p
        .get("dispatch")
        .and_then(|d| d.as_object())
        .filter(|d| !d.is_empty())
        .ok_or("profile.json: no per-subsystem dispatch counts")?;
    for (label, stat) in dispatch {
        let events = stat.get("events").and_then(|e| e.as_u64()).unwrap_or(0);
        if events == 0 {
            return Err(format!(
                "profile.json: dispatch label {label:?} counts no events"
            ));
        }
    }
    Ok((samples, lines))
}

fn scheme_label(s: &Scheme) -> &'static str {
    match s {
        Scheme::Traditional => "TS",
        Scheme::ActiveStorage => "AS",
        Scheme::Dosas(c) if c.partial_offload => "PARTIAL",
        Scheme::Dosas(_) => "DOSAS",
    }
}
