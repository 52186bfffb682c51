//! `ceu-trace` — analysis CLI for Céu machine and world traces.
//!
//! ```text
//! ceu-trace summary       <trace.jsonl>             trace shape & causal links
//! ceu-trace hot           <trace.jsonl> --src F     hot statements vs. source
//! ceu-trace to-perfetto   <trace.jsonl> [-o OUT]    Chrome trace w/ flow arrows
//!                         [--par-stats S.jsonl]     + scheduler worker tracks
//! ceu-trace critical-path <trace.jsonl>             longest causal chain
//! ceu-trace diff          <a.jsonl> <b.jsonl>       first divergence (exit 1)
//! ceu-trace par-report    <par-stats.jsonl>         stall attribution & speedup
//! ceu-trace blackbox      <dump.jsonl>              crash black-box triage page
//!                         [--src F] [--last N]      + source attribution, window cap
//! ```
//!
//! Inputs are the stable JSONL formats written by `ceuc run
//! --trace=jsonl` (machine traces) and `wsn_sim::write_trace_jsonl`
//! (world traces); `-` reads stdin. See docs/OBSERVABILITY.md for the
//! cookbook.

use ceu::runtime::telemetry::{to_perfetto, TimeAxis};
use std::io::Read as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ceu-trace: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str =
    "usage: ceu-trace <summary|hot|to-perfetto|critical-path|diff|par-report|blackbox> \
     <trace.jsonl> [<b.jsonl>] [--src FILE.ceu] [--top N] [-o OUT] \
     [--par-stats STATS.jsonl] [--last N]";

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).map_err(|e| format!("cannot read stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut pos: Vec<String> = Vec::new();
    let mut src: Option<String> = None;
    let mut out: Option<String> = None;
    let mut par_stats: Option<String> = None;
    let mut top = 10usize;
    let mut last = 12usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--src" => src = Some(it.next().ok_or("--src needs a path")?.clone()),
            "--last" => {
                last = it
                    .next()
                    .ok_or("--last needs a number")?
                    .parse()
                    .map_err(|_| "--last: bad number")?;
            }
            "-o" | "--out" => out = Some(it.next().ok_or("-o needs a path")?.clone()),
            "--par-stats" => {
                par_stats = Some(it.next().ok_or("--par-stats needs a path")?.clone());
            }
            "--top" => {
                top = it
                    .next()
                    .ok_or("--top needs a number")?
                    .parse()
                    .map_err(|_| "--top: bad number")?;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            _ => pos.push(a.clone()),
        }
    }
    let (cmd, trace_path) = match pos.as_slice() {
        [cmd, path, ..] => (cmd.as_str(), path.as_str()),
        _ => return Err(USAGE.into()),
    };

    match cmd {
        "summary" => {
            let records = ceu_trace::parse_jsonl(&read_input(trace_path)?)?;
            print!("{}", ceu_trace::summary(&records)?);
            Ok(ExitCode::SUCCESS)
        }
        "blackbox" => {
            let source = match &src {
                Some(p) => {
                    Some(std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?)
                }
                None => None,
            };
            let dump = ceu_trace::parse_blackbox(&read_input(trace_path)?)?;
            print!("{}", ceu_trace::render_blackbox(&dump, source.as_deref(), last));
            Ok(ExitCode::SUCCESS)
        }
        "hot" => {
            let src_path = src.ok_or("hot needs --src FILE.ceu (for the DebugMap)")?;
            let source = std::fs::read_to_string(&src_path)
                .map_err(|e| format!("cannot read {src_path}: {e}"))?;
            let records = ceu_trace::parse_jsonl(&read_input(trace_path)?)?;
            print!("{}", ceu_trace::hot(&records, &source, top)?);
            Ok(ExitCode::SUCCESS)
        }
        "to-perfetto" => {
            let records = ceu_trace::parse_jsonl(&read_input(trace_path)?)?;
            let extra = match par_stats {
                Some(path) => ceu_trace::par_stats_perfetto_events(&read_input(&path)?)?,
                None => Vec::new(),
            };
            let json = to_perfetto(&records, TimeAxis::Virtual, &extra);
            match out {
                Some(path) => {
                    std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
                    eprintln!("perfetto trace -> {path}");
                }
                None => print!("{json}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "critical-path" => {
            let records = ceu_trace::parse_jsonl(&read_input(trace_path)?)?;
            print!("{}", ceu_trace::render_critical_path(&ceu_trace::critical_path(&records)));
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let right_path = pos.get(2).ok_or("diff needs two traces")?;
            let result = ceu_trace::diff(&read_input(trace_path)?, &read_input(right_path)?)?;
            let (text, same) = ceu_trace::render_diff(&result);
            print!("{text}");
            Ok(if same { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        "par-report" => {
            let report = ceu_trace::par_report(&read_input(trace_path)?)?;
            match out {
                Some(path) => {
                    std::fs::write(&path, &report)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    eprintln!("par report -> {path}");
                }
                None => print!("{report}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}` — {USAGE}")),
    }
}
