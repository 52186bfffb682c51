//! ceu-benchmark: runs one workload (or all) and prints its metrics, or
//! compares two result sets.
//!
//! ```text
//! ceu-benchmark run --workload <name|all> --seed N [--seconds S] [--trace 0|1]
//!                   [--smoke] [--record FILE]
//! ceu-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! `run` prints a summary on stderr and, as the last line of stdout, one
//! JSON object per workload: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones,
//! from an untraced run; with `--trace 1` they are the per-layer ones:
//! the time is split between an untraced and a traced run of the same
//! inputs, and the spans of the traced run are written as JSONL under
//! `benchmark/out/`. `--record FILE` appends each result, labelled with
//! workload, seed and trace mode, for `compare`. The exit code is 1 when
//! an output check failed.

use ceu_benchmark::compare;
use ceu_benchmark::metrics::{Report, Spec};
use ceu_benchmark::span::Tracer;
use ceu_benchmark::stats::{median, quantile, sorted, tail_q};
use ceu_benchmark::workloads::{self, Outcome, Params};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  ceu-benchmark run --workload <name|all> --seed N [--seconds S] [--trace 0|1] [--smoke] [--record FILE]
  ceu-benchmark compare A.jsonl B.jsonl";

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record: Option<PathBuf>,
}

fn parse_run(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        smoke: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                r.workloads = if w == "all" {
                    workloads::NAMES.to_vec()
                } else {
                    let name = workloads::NAMES.iter().find(|n| *n == w);
                    vec![*name
                        .ok_or(format!("unknown workload {w}; one of {:?}", workloads::NAMES))?]
                };
            }
            "--seed" => r.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                r.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(r.seconds > 0.0 && r.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => r.smoke = true,
            "--record" => r.record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if r.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(r)
}

fn log_failures(name: &str, o: &Outcome) {
    for e in &o.errors {
        eprintln!("{name}: FAILED: {e}");
    }
}

/// The untraced run: end-to-end metrics.
fn end_to_end(name: &str, p: &Params, spec: &Spec) -> Result<Report, String> {
    let o = workloads::run(name, p, &mut Tracer::new(false)).expect("known workload");
    log_failures(name, &o);
    let s = sorted(&o.op_us);
    let q = |q: f64| quantile(&s, q).unwrap_or(0.0);
    eprintln!(
        "{name}: {} ops, us p10 {:.4} p25 {:.4} p50 {:.4} p75 {:.4} p90 {:.4}",
        s.len(),
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9)
    );
    let values = BTreeMap::from([
        ("op_us_p1".to_string(), o.op_us_p1().unwrap_or(0.0)),
        ("setup_s".to_string(), median(&o.setup_s).unwrap_or(0.0)),
        ("setup_heap_mb".to_string(), o.setup_heap_bytes as f64 / 1e6),
    ]);
    Report::new(o.attempted, o.failed, &spec.end_to_end, values)
}

/// An untraced and a traced run on the same inputs: per-layer metrics.
/// Metrics of layers a workload does not reach read 0.
fn per_layer(name: &str, p: &Params, spec: &Spec) -> Result<Report, String> {
    let half = Params { seconds: p.seconds / 2.0, per_layer: true, ..*p };
    let plain = workloads::run(name, &half, &mut Tracer::new(false)).expect("known workload");
    log_failures(name, &plain);
    let mut tr = Tracer::new(true);
    let traced = workloads::run(name, &half, &mut tr).expect("known workload");
    log_failures(name, &traced);

    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/spans-{name}-{}.jsonl", p.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("{name}: {} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("{name}: cannot write {}: {e}", path.display()),
    }
    let times = tr.self_times();
    let all_self: u64 = times.values().map(|t| t.self_ns).sum();
    eprintln!("{:<30} {:>9} {:>12} {:>12} {:>7}", "span", "count", "total ms", "self ms", "self %");
    for (span, t) in &times {
        eprintln!(
            "{span:<30} {:>9} {:>12.3} {:>12.3} {:>6.2}%",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / all_self.max(1) as f64
        );
    }

    let mut values: BTreeMap<String, f64> =
        spec.per_layer.iter().map(|d| (d.name.clone(), 0.0)).collect();
    for (k, v) in traced.layer.iter().chain(&plain.layer) {
        values.insert(k.to_string(), *v);
    }
    let samples = sorted(&plain.op_us);
    let q = tail_q(samples.len());
    values.insert("op_us_tail".into(), quantile(&samples, q).unwrap_or(0.0));
    values.insert("op_tail_q".into(), q);
    values.insert("op_samples".into(), samples.len() as f64);
    values.insert("allocs_per_op".into(), plain.allocs_per_op);
    let overhead =
        traced.op_us_p1().unwrap_or(f64::NAN) / plain.op_us_p1().unwrap_or(f64::NAN) - 1.0;
    values.insert("trace_overhead_pct".into(), 100.0 * overhead);
    Report::new(
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        &spec.per_layer,
        values,
    )
}

fn run(args: &[String]) -> ExitCode {
    let spec = Spec::load();
    let args = match parse_run(args, &spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for name in &args.workloads {
        let p =
            Params { seed: args.seed, seconds: args.seconds, smoke: args.smoke, per_layer: false };
        let report =
            if args.trace { per_layer(name, &p, &spec) } else { end_to_end(name, &p, &spec) };
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::from(3);
            }
        };
        eprintln!(
            "{name} (seed {}, trace {}): {} attempted, {} failed",
            args.seed, args.trace as u8, report.attempted, report.failed
        );
        for (metric, v, unit) in &report.metrics {
            eprintln!("  {metric:<32} {v:>16.4} {unit}");
        }
        let json = report.to_json();
        if let Some(path) = &args.record {
            let line = format!(
                r#"{{"workload": "{name}", "seed": {}, "trace": {}, "result": {json}}}"#,
                args.seed, args.trace as u8
            );
            let res = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = res {
                eprintln!("cannot record to {}: {e}", path.display());
                return ExitCode::from(3);
            }
        }
        println!("{json}");
        all_correct &= report.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| compare::load(&t))
    };
    match (load(a), load(b)) {
        (Ok(sa), Ok(sb)) => {
            print!("{}", compare::report(&Spec::load(), &sa, &sb));
            ExitCode::SUCCESS
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
