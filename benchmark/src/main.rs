//! `benchmark`: the DOSAS simulator benchmark. Run it from the repository
//! root; see `README.md`.

use benchmark::measure::{self, Metric, Options, Report};
use benchmark::{compare, metrics, workloads};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  benchmark --list
  benchmark run --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
  benchmark all [--seed <n>] [--seconds <s>]
  benchmark compare <parent.jsonl> <change.jsonl>";

fn main() -> ExitCode {
    // The untraced runs use `Driver::run`, which picks its executor from
    // this variable; the benchmark always measures the serial executor.
    std::env::remove_var("DOSAS_EXEC");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--list") if args.len() == 1 => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => parse_run(&args[1..]).map(|(name, opts)| run(name, &opts)),
        Some("all") => parse_run(&args[1..]).and_then(|(name, opts)| match name {
            None => all(&opts),
            Some(_) => Err("all runs every workload; drop --workload".into()),
        }),
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        _ => Err("unknown command".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn list() {
    for w in workloads::ALL {
        println!("{:<24} ~{:.1} s  {}", w.name, w.rough_host_s, w.why);
    }
}

/// Parse `--workload`, `--seed`, `--seconds` and `--trace`.
fn parse_run(args: &[String]) -> Result<(Option<&'static str>, Options), String> {
    let mut opts = Options {
        seed: 1,
        seconds: 0.0,
        trace: false,
        scale: 1,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                let def = workloads::by_name(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?;
                workload = Some(def.name);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload, opts))
}

/// One workload: print one record per metric, then the summary line.
fn run(name: Option<&'static str>, opts: &Options) -> ExitCode {
    let Some(name) = name else {
        eprintln!("benchmark: run needs --workload\n{USAGE}");
        return ExitCode::from(2);
    };
    let def = workloads::by_name(name).expect("parsed workload names exist");
    let report = measure::measure(def, opts);
    for p in &report.verdict.problems {
        eprintln!("benchmark: {name}: {p}");
    }
    let record = |name: &str, unit: &str, value: f64| {
        Value::Object(vec![
            ("workload".into(), Value::String(def.name.into())),
            ("seed".into(), Value::UInt(opts.seed)),
            ("name".into(), Value::String(name.into())),
            ("unit".into(), Value::String(unit.into())),
            ("value".into(), Value::Float(value)),
        ])
    };
    let mut out = std::io::stdout().lock();
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        let _ = writeln!(out, "{}", record(m.name, m.unit, m.value));
    }
    let fail = metrics::FAIL_RATIO;
    let _ = writeln!(out, "{}", record(fail.name, fail.unit, report.fail_ratio()));
    let _ = writeln!(out, "{}", summary(&report, opts.trace));
    if report.verdict.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The last line of `run`: the end-to-end metrics, or the per-layer ones
/// when the traced phase was the measured one.
fn summary(report: &Report, trace: bool) -> Value {
    let shown: &[Metric] = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let metrics = shown
        .iter()
        .map(|m| {
            let v = Value::Object(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::String(m.unit.into())),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(report.verdict.ok())),
        ("attempted".into(), Value::UInt(report.verdict.attempted)),
        ("failed".into(), Value::UInt(report.verdict.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

/// Every workload, each in a process of its own so `peak_rss_mb` is the
/// workload's own. Forwards the record lines.
fn all(opts: &Options) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut failed = false;
    let mut out = std::io::stdout().lock();
    for w in workloads::ALL {
        let mut child = Command::new(&exe)
            .args(["run", "--workload", w.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start {}: {e}", w.name))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("read {} output: {e}", w.name))?;
            if serde_json::from_str::<Value>(&line).is_ok_and(|v| !v["workload"].is_null()) {
                let _ = writeln!(out, "{line}");
            }
        }
        let status = child.wait().map_err(|e| format!("wait {}: {e}", w.name))?;
        if !status.success() {
            eprintln!("benchmark: {} failed ({status})", w.name);
            failed = true;
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn compare(base: &str, change: &str) -> Result<ExitCode, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = compare::load_bounds(&read("BENCHMARK.json")?)?;
    let base = compare::load_samples(&read(base)?)?;
    let change = compare::load_samples(&read(change)?)?;
    let (text, regressed) = compare::report(&base, &change, &bounds);
    print!("{text}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
