//! Run one scenario from the multi-tenant scenario library by name.
//!
//! ```text
//! cargo run -p bench --bin scenario -- --list
//! cargo run -p bench --bin scenario -- <name> [--policy <name>] [--matrix]
//!                                             [--topology <star|tree[:D]|fat-tree:K>]
//!                                             [--stream <file>] [--obs-out <dir>]
//!                                             [--summary] [--explain]
//! ```
//!
//! Prints the full serialized `RunMetrics` to stdout (the same JSON the
//! golden snapshots pin down); `--summary` prints a short per-tenant table
//! to stderr instead of the full JSON. `--explain` enables per-request
//! causal tracing and prints the contention-attribution report (wait by
//! cause / tenant / node, the run's critical path, the slowest requests)
//! instead of the JSON — the "why was this run slow" view. `--policy
//! <name>` re-bases the scenario onto a different contention-control
//! policy (see `--list` for the arena); `--matrix` runs *every* policy
//! against the named scenario and prints the comparison table instead of
//! `RunMetrics`. `--stream <file>` points the obs timeline at a JSONL file
//! on disk (the soak scenario's mode of operation); `--obs-out <dir>`
//! streams `timeline.jsonl` into `dir` the same way and adds
//! `metrics.prom`, `trace.json` and `profile.json` at the end, producing
//! a directory `dosas-sim --check-obs` accepts. `--topology <spec>`
//! re-wires the scenario's fabric (`star`, `tree[:arity]`, `fat-tree:k`)
//! before running — `--matrix` respects the override, so the policy arena
//! can be replayed on an oversubscribed tree.

use bench::{policy_matrix, scenarios};
use dosas::policy::PolicyConfig;

fn usage() -> ! {
    eprintln!(
        "usage: scenario --list | <name> [--policy <name>] [--matrix] \
         [--topology <star|tree[:arity]|fat-tree:k>] \
         [--stream <file>] [--obs-out <dir>] [--summary] [--explain]"
    );
    eprintln!("scenarios:");
    for s in scenarios::all() {
        eprintln!(
            "  {:16} {:12} {}",
            s.name,
            s.cfg.cluster.topology.to_string(),
            s.summary
        );
    }
    eprintln!("policies: {}", PolicyConfig::all_names().join(", "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name: Option<String> = None;
    let mut policy: Option<String> = None;
    let mut matrix = false;
    let mut topology: Option<String> = None;
    let mut stream: Option<String> = None;
    let mut obs_out: Option<String> = None;
    let mut summary_only = false;
    let mut explain = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                for s in scenarios::all() {
                    println!(
                        "{:16} {:12} {}",
                        s.name,
                        s.cfg.cluster.topology.to_string(),
                        s.summary
                    );
                }
                println!("policies: {}", PolicyConfig::all_names().join(", "));
                return;
            }
            "--policy" => policy = Some(it.next().unwrap_or_else(|| usage())),
            "--matrix" => matrix = true,
            "--topology" => topology = Some(it.next().unwrap_or_else(|| usage())),
            "--stream" => stream = Some(it.next().unwrap_or_else(|| usage())),
            "--obs-out" => obs_out = Some(it.next().unwrap_or_else(|| usage())),
            "--summary" => summary_only = true,
            "--explain" => explain = true,
            _ if name.is_none() => name = Some(a),
            _ => usage(),
        }
    }
    let Some(name) = name else { usage() };
    let Some(mut s) = scenarios::by_name(&name) else {
        eprintln!("unknown scenario {name:?}");
        usage();
    };
    if let Some(t) = &topology {
        let spec = match cluster::TopologySpec::parse(t) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("--topology: {e}");
                std::process::exit(2);
            }
        };
        s.cfg.cluster.topology = spec;
        if let Err(e) = s.cfg.cluster.validate() {
            eprintln!("--topology {t}: {e}");
            std::process::exit(2);
        }
    }
    if matrix {
        let cells: Vec<_> = policy_matrix::policies()
            .iter()
            .map(|p| policy_matrix::run_cell(&s, p))
            .collect();
        print!("{}", policy_matrix::matrix_table(&cells));
        return;
    }
    if let Some(p) = &policy {
        let Some(p) = PolicyConfig::by_name(p) else {
            eprintln!("unknown policy {p:?}");
            usage();
        };
        s.cfg = policy_matrix::with_policy(&s.cfg, p);
    }
    if let Some(path) = stream {
        s.cfg.obs.enabled = true;
        s.cfg.obs.stream_path = Some(path);
    }
    if let Some(dir) = &obs_out {
        std::fs::create_dir_all(dir).expect("create --obs-out directory");
        s.cfg.obs.enabled = true;
        s.cfg.obs.stream_path = Some(format!("{dir}/timeline.jsonl"));
        s.cfg.trace = true;
    }
    if explain {
        s.cfg.autopsy = true;
    }
    let (m, profile) = if obs_out.is_some() {
        let (m, p) = s.run_profiled();
        (m, Some(p))
    } else {
        (s.run(), None)
    };
    if let Some(dir) = &obs_out {
        let report = m.obs.as_ref().expect("obs enabled by --obs-out");
        std::fs::write(format!("{dir}/metrics.prom"), report.to_prometheus())
            .expect("write metrics.prom");
        let trace = m.trace.as_deref().unwrap_or(&[]);
        std::fs::write(format!("{dir}/trace.json"), obs::chrome_trace_json(trace))
            .expect("write trace.json");
        let profile = profile.as_ref().expect("profiled run under --obs-out");
        std::fs::write(
            format!("{dir}/profile.json"),
            serde_json::to_string_pretty(profile).expect("profile serializes"),
        )
        .expect("write profile.json");
    }

    if let Some(t) = &m.tenants {
        eprintln!(
            "{}: makespan {:.3} s, jain fairness {:.4}",
            s.name, m.makespan_secs, t.jain_fairness
        );
        for p in &t.per_tenant {
            eprintln!(
                "  tenant {}: {} reqs, {:.1} MiB, {:.2} MiB/s, p95 latency {:.3} s",
                p.tenant,
                p.requests,
                p.bytes / bench::MIB,
                p.achieved_bandwidth / bench::MIB,
                p.p95_latency_secs
            );
        }
        for v in &t.slos {
            eprintln!(
                "  slo tenant {}: {}{}",
                v.tenant,
                if v.met { "met" } else { "VIOLATED" },
                if v.violations.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", v.violations.join("; "))
                }
            );
        }
    }
    if let Some(obs) = &m.obs {
        eprintln!("  obs: {} records streamed", obs.records_streamed);
    }
    if explain {
        let report = m.autopsy.as_ref().expect("autopsy enabled by --explain");
        println!("{}", report.render(10));
        print!(
            "{}",
            bench::plot::critical_path_table(&report.critical_path).render()
        );
    } else if !summary_only {
        println!(
            "{}",
            serde_json::to_string_pretty(&m).expect("RunMetrics serializes")
        );
    }
}
