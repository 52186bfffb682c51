//! `ceuc` — the Céu compiler driver.
//!
//! ```text
//! ceuc check   <file.ceu>             # parse + analyses, report diagnostics
//! ceuc fmt     <file.ceu>             # canonical formatting to stdout
//! ceuc emit-c  <file.ceu>             # generated C (paper §4.4) to stdout
//! ceuc emit-rust <file.ceu>           # native Rust backend (docs/NATIVE.md)
//! ceuc dfa     <file.ceu>             # temporal-analysis DFA as Graphviz dot
//! ceuc flow    <file.ceu>             # flow graph as Graphviz dot
//! ceuc report  <file.ceu>             # ROM/RAM memory report (Table 1 analog)
//! ceuc run     <file.ceu> [script]    # execute with a scripted input sequence
//! ```
//!
//! All subcommands that compile accept `-O` (optimize; the default) and
//! `--no-opt` (skip the flat-code optimizer pass — the ablation baseline
//! the benchmark harness measures against).
//!
//! `run` accepts observability flags (anywhere after the subcommand):
//!
//! ```text
//! --trace[=FMT]        trace execution; FMT is text (default), jsonl,
//!                      or chrome/perfetto (a Chrome trace-event JSON
//!                      array for ui.perfetto.dev, written at the end
//!                      of the run by the runtime's one Perfetto writer
//!                      on the host-time axis: a slice per reaction,
//!                      an instant per track, gate and emit)
//! --trace-out PATH     write the trace to PATH instead of stderr
//! --metrics            print the metrics summary after the run
//! --metrics-out PATH   write the metrics snapshot as JSON to PATH
//! --profile            per-block execution profile, rendered as hot
//!                      statements against the original source
//! --fuel N             reaction budget: abort any reaction chain that
//!                      runs more than N blocks (1 <= N <= 5,000,000; the
//!                      default is the cap, the runtime's safety net)
//! --faults PLAN        inject faults from a plan file (see below)
//! --deadline-ms N      whole-run wall-clock budget: if the run (scripted
//!                      reactions, output rendering, everything) exceeds
//!                      N ms, it stops with exit code 3. Checked
//!                      cooperatively between script directives and
//!                      enforced by a hard watchdog thread, so even a
//!                      reaction that never yields is bounded. N = 0
//!                      expires immediately (useful to test the path).
//! --blackbox PATH      always-on flight recorder: bounded ring of the
//!                      last reactions; if the machine crashes, a
//!                      `ceu-blackbox/v1` JSONL dump lands at PATH
//!                      (render it with `ceu-trace blackbox`)
//! ```
//!
//! Run scripts are plain text, one directive per line:
//!
//! ```text
//! event Restart 42      # emit input event (optional value)
//! time  100ms           # advance wall-clock time
//! async 1000            # run up to N async slices
//! print v               # print a variable (by source name)
//! ```
//!
//! Fault plans use the wsn-sim grammar restricted to the single machine
//! (mote 0):
//!
//! ```text
//! at 5ms   crash 0                 # power off, stay off
//! at 20ms  reboot 0 after 10ms     # power off, revive from fresh state
//! ```
//!
//! Multi-mote actions (`partition`, `heal`, `loss`, `skew`,
//! `drop-in-flight`) are noted and ignored — they need the WSN
//! simulator. Faults degrade gracefully rather than abort: a crashed
//! machine drops subsequent script directives until a scheduled reboot
//! revives it (metrics, profile, trace and black box span every boot).
//! Machine-level runtime errors (including an exhausted reaction
//! budget) follow the same path: the machine powers off instead of the
//! process exiting.
//!
//! Exit codes: `0` ok, `1` usage/compile/script error, `2` the program
//! ended powered off (crashed and never rebooted), `3` the run exceeded
//! its `--deadline-ms` wall-clock budget.

use ceu::runtime::telemetry::{
    blackbox_dump, to_json, BlackboxHeader, BlackboxStat, Stamper, TraceFormat,
};
use ceu::runtime::{FlightRecorder, NullHost, TraceEvent, TraceMask, TraceSink, Value};
use ceu::{Compiler, Simulator};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ceuc: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Observability options for `ceuc run`.
#[derive(Default)]
struct RunOpts {
    trace: Option<TraceFormat>,
    trace_out: Option<String>,
    metrics: bool,
    /// Write the metrics snapshot (JSON) to this path after the run.
    metrics_out: Option<String>,
    /// Per-block profile, rendered as hot statements against the source.
    profile: bool,
    /// Per-reaction fuel budget (`--fuel`).
    fuel: Option<u32>,
    /// Evaluate expressions by walking the IR trees instead of the flat
    /// postfix code (ablation / differential debugging).
    tree_eval: bool,
    /// Skip the flat-code optimizer pass (`--no-opt`; `-O` restores the
    /// default). Ablation baseline for the benchmark harness.
    no_opt: bool,
    /// Path to a fault plan (`--faults`); single-machine subset of the
    /// wsn-sim grammar (crash / reboot of mote 0).
    faults: Option<String>,
    /// Flight recorder: if the run ends crashed (or ever crashed), a
    /// `ceu-blackbox/v1` dump of the last reactions lands here.
    blackbox: Option<String>,
    /// Whole-run wall-clock budget (`--deadline-ms`); exceeding it exits
    /// with code 3.
    deadline_ms: Option<u64>,
}

/// Splits `--flag`-style options out of argv (valid anywhere), leaving
/// the positionals (`cmd file [script]`) in order.
fn parse_flags(args: &[String]) -> Result<(Vec<String>, RunOpts), String> {
    let mut pos = Vec::new();
    let mut opts = RunOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => opts.trace = Some(opts.trace.unwrap_or(TraceFormat::Text)),
            "--metrics" => opts.metrics = true,
            "--profile" => opts.profile = true,
            "--tree-eval" => opts.tree_eval = true,
            "-O" => opts.no_opt = false,
            "--no-opt" => opts.no_opt = true,
            "--metrics-out" => {
                let path = it.next().ok_or("--metrics-out needs a path")?;
                opts.metrics_out = Some(path.clone());
            }
            "--trace-out" => {
                let path = it.next().ok_or("--trace-out needs a path")?;
                opts.trace_out = Some(path.clone());
                opts.trace = Some(opts.trace.unwrap_or(TraceFormat::Text));
            }
            "--fuel" => {
                let n = it.next().ok_or("--fuel needs a number")?;
                let fuel = n.parse::<u64>().ok().filter(|&f| f > 0);
                let fuel = fuel.ok_or("--fuel: expected a number of steps >= 1")?;
                let cap = ceu::runtime::REACTION_BUDGET;
                let fuel = u32::try_from(fuel).ok().filter(|&f| f <= cap);
                opts.fuel = Some(fuel.ok_or(format!("--fuel: at most {cap} steps"))?);
            }
            "--faults" => {
                let path = it.next().ok_or("--faults needs a path")?;
                opts.faults = Some(path.clone());
            }
            "--blackbox" => {
                let path = it.next().ok_or("--blackbox needs a path")?;
                opts.blackbox = Some(path.clone());
            }
            "--deadline-ms" => {
                let n = it.next().ok_or("--deadline-ms needs a number")?;
                opts.deadline_ms = Some(n.parse().map_err(|_| "--deadline-ms: bad number")?);
            }
            other if other.starts_with("--trace=") => {
                let fmt = &other["--trace=".len()..];
                opts.trace = Some(fmt.parse()?);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            _ => pos.push(a.clone()),
        }
    }
    Ok((pos, opts))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (pos, opts) = parse_flags(args)?;
    let (cmd, file) = match pos.as_slice() {
        [cmd, file, ..] => (cmd.as_str(), file.as_str()),
        _ => {
            return Err("usage: ceuc <check|fmt|emit-c|emit-rust|dfa|flow|report|run> <file.ceu> [script] [-O|--no-opt] [--trace[=fmt]] [--trace-out PATH] [--metrics] [--metrics-out PATH] [--profile] [--tree-eval] [--fuel N] [--faults PLAN] [--blackbox PATH] [--deadline-ms N]".into())
        }
    };
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let compiler = if opts.no_opt { ceu::Compiler::unoptimized() } else { Compiler::new() };
    match cmd {
        "check" => {
            compiler.compile(&src).map_err(|e| e.to_string())?;
            println!("{file}: ok (bounded, deterministic)");
            Ok(ExitCode::SUCCESS)
        }
        "fmt" => {
            let ast = ceu::parser::parse(&src).map_err(|e| e.to_string())?;
            print!("{}", ceu::ast::pretty(&ast));
            Ok(ExitCode::SUCCESS)
        }
        "emit-c" => {
            let p = compiler.compile(&src).map_err(|e| e.to_string())?;
            println!("{}", ceu::codegen::cbackend::emit_c(&p));
            Ok(ExitCode::SUCCESS)
        }
        "emit-rust" => {
            let p = compiler.compile(&src).map_err(|e| e.to_string())?;
            println!("{}", ceu::codegen::rsbackend::emit_rust(&p));
            Ok(ExitCode::SUCCESS)
        }
        "dfa" => {
            let (p, dfa) = compiler.analyze(&src).map_err(|e| e.to_string())?;
            for c in &dfa.conflicts {
                eprintln!("{c}");
            }
            println!("{}", ceu::analysis::dfa::to_dot(&dfa, &p));
            Ok(ExitCode::SUCCESS)
        }
        "flow" => {
            let p = Compiler::unchecked().compile(&src).map_err(|e| e.to_string())?;
            println!("{}", ceu::analysis::flowgraph::to_dot(&p));
            Ok(ExitCode::SUCCESS)
        }
        "report" => {
            let p = compiler.compile(&src).map_err(|e| e.to_string())?;
            let r = ceu::codegen::memory_report(&p);
            println!("ROM (generated C bytes): {}", r.rom_bytes);
            println!("RAM (static state bytes): {}", r.ram_bytes);
            println!(
                "tracks: {}  gates: {}  data slots: {}  instructions: {}",
                r.tracks, r.gates, r.data_slots, r.instrs
            );
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let p = compiler.compile(&src).map_err(|e| e.to_string())?;
            let script = match pos.get(2) {
                Some(path) => {
                    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
                }
                None => String::new(),
            };
            exec_script(p, &src, &script, &opts)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// One entry of a single-machine fault plan (`--faults`): the subset of
/// the wsn-sim fault grammar that is meaningful with one mote.
enum FaultCmd {
    /// Power the machine off; it stays off unless a later `reboot` entry
    /// revives it.
    Crash,
    /// Power the machine off now, revive it from fresh state after
    /// `delay_us`.
    Reboot { delay_us: u64 },
}

struct FaultAt {
    at_us: u64,
    cmd: FaultCmd,
}

fn parse_time(tok: &str) -> Option<u64> {
    ceu::ast::TimeSpec::parse(tok).map(|t| t.us).or_else(|| tok.parse::<u64>().ok())
}

/// Parses the single-machine subset of the fault-plan grammar. Actions
/// that need the multi-mote simulator (and crash/reboot of motes other
/// than 0) are noted on stderr and skipped, not rejected, so one plan
/// file can serve both `ceuc run` and the WSN harness.
fn parse_fault_plan(text: &str) -> Result<Vec<FaultAt>, String> {
    let mut plan = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let note = |msg: String| eprintln!("ceuc: fault plan line {}: {msg}", lineno + 1);
        let fail = |msg: &str| format!("fault plan line {}: {msg}", lineno + 1);
        let mut it = line.split_whitespace();
        let head = it.next().unwrap();
        if head == "seed" {
            continue; // randomness only matters in the multi-mote simulator
        }
        if head != "at" {
            return Err(fail("expected `at <time> <action>`"));
        }
        let at_us = it.next().and_then(parse_time).ok_or_else(|| fail("bad time"))?;
        match it.next().ok_or_else(|| fail("missing action"))? {
            verb @ ("crash" | "reboot") => {
                let mote = it.next().ok_or_else(|| fail("missing mote id"))?;
                if mote != "0" {
                    note(format!("mote {mote} does not exist in a single-machine run; ignored"));
                    continue;
                }
                let cmd = match verb {
                    "crash" => FaultCmd::Crash,
                    _ => match (it.next(), it.next().and_then(parse_time)) {
                        (Some("after"), Some(delay_us)) => FaultCmd::Reboot { delay_us },
                        _ => return Err(fail("expected `reboot 0 after <delay>`")),
                    },
                };
                plan.push(FaultAt { at_us, cmd });
            }
            verb @ ("partition" | "heal" | "loss" | "skew" | "drop-in-flight") => {
                note(format!("`{verb}` needs the multi-mote simulator; ignored"));
            }
            other => return Err(fail(&format!("unknown action `{other}`"))),
        }
    }
    plan.sort_by_key(|f| f.at_us);
    Ok(plan)
}

/// Records a crash without aborting the run: graceful degradation means
/// the machine powers off and the script keeps going (directives to a
/// downed machine are dropped with a note).
fn note_crash(crashed: &mut Option<(u64, String)>, at: u64, cause: String) {
    eprintln!("ceuc: machine crashed at {at}us: {cause} (continuing powered off)");
    *crashed = Some((at, cause));
}

/// Ring capacity of the `--blackbox` machine flight recorder. Sized like
/// the per-shard default in the simulator: a few hundred reactions of
/// context around a crash without measurable steady-state cost.
const BLACKBOX_CAPACITY: usize = 4096;

/// The `--blackbox` sink: the flight-recorder ring plus the stamper that
/// gives each event the virtual clock and sequence number the wire
/// format needs (a bare machine has no world to stamp records for it).
/// Every event is also forwarded to the `--trace` format sink, if any.
struct BlackBox {
    rec: FlightRecorder,
    stamper: Stamper,
    inner: Option<Box<dyn TraceSink + Send>>,
}

impl TraceSink for BlackBox {
    fn on_event(&mut self, e: &TraceEvent) {
        let r = self.stamper.stamp(e);
        self.rec.record(r.t_us, r.mote, r.seq, e);
        if let Some(inner) = &mut self.inner {
            inner.on_event(e);
        }
    }

    fn finish(&mut self) {
        if let Some(inner) = &mut self.inner {
            inner.finish();
        }
    }
}

/// Writes a `ceu-blackbox/v1` dump for a single-machine run: the same
/// self-describing shape the simulator emits (header, stat lines, then
/// ring records in world-trace wire format), with `shards: 0` marking
/// the machine flavor.
fn write_blackbox_dump(
    path: &str,
    bb: &BlackBox,
    at: u64,
    cause: &str,
    boots: u32,
) -> Result<(), String> {
    let rec = &bb.rec;
    let header = BlackboxHeader {
        reason: "machine-crashed".into(),
        t_us: at,
        mote: Some(0),
        crash_us: Some(at),
        cause: Some(cause.into()),
        motes: 1,
        shards: 0,
        ring_capacity: rec.capacity(),
        ring_records: rec.len(),
        ring_dropped: rec.dropped(),
        ..BlackboxHeader::default()
    };
    let ring = BlackboxStat::Machine {
        boots,
        ring_len: rec.len(),
        ring_dropped: rec.dropped(),
        ring_recorded: rec.recorded(),
    };
    let out = blackbox_dump(&header, &[ring], rec.iter());
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))
}

fn exec_script(
    p: ceu::CompiledProgram,
    src: &str,
    script: &str,
    opts: &RunOpts,
) -> Result<ExitCode, String> {
    let faults = match &opts.faults {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_fault_plan(&text)?
        }
        None => Vec::new(),
    };
    // map original names to unique slots for `print`
    let names: Vec<String> = p.slots.iter().map(|s| s.name.clone()).collect();
    let mut sim = Simulator::new(p, NullHost);
    sim.machine_mut().use_tree_eval = opts.tree_eval;
    if opts.profile {
        sim.machine_mut().enable_profiling();
    }
    if opts.metrics || opts.metrics_out.is_some() {
        sim.enable_metrics();
    }
    sim.machine_mut().set_fuel_limit(opts.fuel);

    let fmt_sink = match opts.trace {
        Some(fmt) => {
            let out: Box<dyn std::io::Write + Send> = match &opts.trace_out {
                Some(path) => Box::new(std::io::BufWriter::new(
                    std::fs::File::create(path)
                        .map_err(|e| format!("cannot create {path}: {e}"))?,
                )),
                None => Box::new(std::io::stderr()),
            };
            Some(fmt.build(out))
        }
        None => None,
    };
    // with no --trace sink, run at recorder granularity: the per-track
    // firehose and host-clock samples are pure overhead
    let mask = if fmt_sink.is_some() { TraceMask::Full } else { TraceMask::Coarse };
    // `--blackbox` wraps the format sink (if any) in the recorder
    let sink = match &opts.blackbox {
        Some(_) => Some(Box::new(BlackBox {
            rec: FlightRecorder::new(BLACKBOX_CAPACITY),
            stamper: Stamper::default(),
            inner: fmt_sink,
        }) as Box<dyn TraceSink + Send>),
        None => fmt_sink,
    };
    if let Some(sink) = sink {
        sim.set_trace_sink(sink, mask);
    }

    // --deadline-ms: wall-clock budget for the whole run. Checked
    // cooperatively between directives; a detached watchdog thread is the
    // hard backstop for a reaction that never comes back (it can only
    // fire while the run is still in flight — the guard's Drop disarms it
    // on every exit path from this function).
    let run_started = std::time::Instant::now();
    let deadline = opts.deadline_ms.map(std::time::Duration::from_millis);
    struct DisarmOnDrop(Arc<std::sync::atomic::AtomicBool>);
    impl Drop for DisarmOnDrop {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }
    let _disarm = deadline.map(|d| {
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&done);
        std::thread::spawn(move || {
            // Grace beyond the cooperative deadline: the soft path gets
            // first shot at a clean exit (epilogue, dumps) before the
            // hard kill.
            std::thread::sleep(d + std::time::Duration::from_millis(500));
            if !flag.load(std::sync::atomic::Ordering::SeqCst) {
                eprintln!("ceuc: --deadline-ms {} exceeded (hard watchdog)", d.as_millis());
                std::process::exit(3);
            }
        });
        DisarmOnDrop(done)
    });
    let over_deadline = || deadline.is_some_and(|d| run_started.elapsed() >= d);
    let mut deadline_hit = false;

    // Degradation state. `clock` is the script's virtual time — it keeps
    // advancing while the machine is down so a scheduled reboot lands at
    // the right moment.
    let mut clock = 0u64;
    let mut crashed: Option<(u64, String)> = None;
    // the first crash of the run, kept even if a reboot clears `crashed`:
    // the black box documents it either way
    let mut first_crash: Option<(u64, String)> = None;
    let mut revive_at: Option<u64> = None;
    let mut boots = 1u32;
    let mut fault_idx = 0usize;

    if let Err(e) = sim.start() {
        note_crash(&mut crashed, sim.machine().now(), e.to_string());
    }
    for (lineno, line) in script.lines().enumerate() {
        if over_deadline() {
            eprintln!(
                "ceuc: --deadline-ms {} exceeded at script line {}; stopping",
                opts.deadline_ms.unwrap_or(0),
                lineno + 1
            );
            deadline_hit = true;
            break;
        }
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let down_note = |what: &str| {
            eprintln!("ceuc: script line {}: machine is down; {what} dropped", lineno + 1);
        };
        let mut it = line.split_whitespace();
        let word = it.next().unwrap();
        match word {
            "event" => {
                let name = it.next().ok_or_else(|| err(lineno, "event needs a name"))?;
                let value = it
                    .next()
                    .map(|v| v.parse::<i64>().map(Value::Int))
                    .transpose()
                    .map_err(|_| err(lineno, "event value must be an integer"))?;
                if crashed.is_some() {
                    down_note(&format!("`event {name}`"));
                } else if let Err(e) = sim.event(name, value) {
                    note_crash(&mut crashed, sim.machine().now(), e.to_string());
                }
            }
            "time" => {
                let t = it.next().ok_or_else(|| err(lineno, "time needs a duration"))?;
                let us = parse_time(t).ok_or_else(|| err(lineno, "bad duration"))?;
                let target = clock.saturating_add(us);
                // apply scheduled faults and reboots at their exact times
                // on the way to `target`
                loop {
                    let fault_at = faults.get(fault_idx).map(|f| f.at_us.max(clock));
                    let pick_revive = match (revive_at, fault_at) {
                        (Some(r), Some(f)) => r <= f,
                        (Some(_), None) => true,
                        _ => false,
                    };
                    let at = match if pick_revive { revive_at } else { fault_at } {
                        Some(at) if at <= target => at,
                        _ => break,
                    };
                    if crashed.is_none() {
                        if let Err(e) = sim.advance_to(at) {
                            note_crash(&mut crashed, sim.machine().now(), e.to_string());
                        }
                    }
                    clock = at;
                    if pick_revive {
                        revive_at = None;
                        if crashed.is_some() {
                            // settings, the trace sink and the black box
                            // stay with the machine into its next life
                            sim.machine_mut().reboot();
                            // the new life's clock starts at the reboot
                            // time, so its timers count from there
                            if let Err(e) = sim.machine_mut().go_time(at, &mut NullHost) {
                                return Err(e.to_string());
                            }
                            if let Some(c) = crashed.take() {
                                first_crash.get_or_insert(c);
                            }
                            boots += 1;
                            eprintln!("ceuc: machine rebooted at {at}us (boot #{boots})");
                            if let Err(e) = sim.start() {
                                note_crash(&mut crashed, at, e.to_string());
                            }
                        }
                    } else {
                        match faults[fault_idx].cmd {
                            FaultCmd::Crash => {
                                if crashed.is_none() {
                                    note_crash(&mut crashed, at, "fault-injected crash".into());
                                }
                            }
                            FaultCmd::Reboot { delay_us } => {
                                if crashed.is_none() {
                                    note_crash(&mut crashed, at, "fault-injected reboot".into());
                                }
                                // saturating: a reboot due at u64::MAX is never
                                // reached, so the machine stays down
                                let due = at.saturating_add(delay_us.max(1));
                                revive_at = (due < u64::MAX).then_some(due);
                            }
                        }
                        fault_idx += 1;
                    }
                }
                if crashed.is_none() {
                    if let Err(e) = sim.advance_to(target) {
                        note_crash(&mut crashed, sim.machine().now(), e.to_string());
                    }
                }
                clock = target;
            }
            "async" => {
                let n: usize = it
                    .next()
                    .unwrap_or("1000")
                    .parse()
                    .map_err(|_| err(lineno, "bad slice count"))?;
                if crashed.is_some() {
                    down_note("`async`");
                } else if let Err(e) = sim.run_asyncs(n) {
                    note_crash(&mut crashed, sim.machine().now(), e.to_string());
                }
            }
            "print" => {
                let name = it.next().ok_or_else(|| err(lineno, "print needs a variable"))?;
                if crashed.is_some() {
                    down_note(&format!("`print {name}`"));
                    continue;
                }
                let unique = names
                    .iter()
                    .find(|n| n.split('#').next() == Some(name))
                    .ok_or_else(|| err(lineno, &format!("no variable `{name}`")))?;
                match sim.read_var(unique) {
                    Some(Value::Str(s)) => println!("{name} = {}", sim.machine().program().str(*s)),
                    Some(v) => println!("{name} = {v}"),
                    None => return Err(err(lineno, "variable not readable")),
                }
            }
            other => return Err(err(lineno, &format!("unknown directive `{other}`"))),
        }
        if crashed.is_none() && sim.status().is_terminated() {
            break;
        }
    }
    let mut sink = sim.take_trace_sink();
    if let Some(sink) = &mut sink {
        sink.finish();
    }
    if opts.metrics {
        match sim.metrics() {
            Some(m) => {
                println!("--- metrics ---");
                print!("{}", m.summary());
            }
            None => eprintln!("ceuc: metrics unavailable (machine never booted cleanly)"),
        }
    }
    if let Some(path) = &opts.metrics_out {
        match sim.metrics() {
            Some(m) => std::fs::write(path, to_json(m) + "\n")
                .map_err(|e| format!("cannot write {path}: {e}"))?,
            None => eprintln!("ceuc: metrics unavailable; {path} not written"),
        }
    }
    if opts.profile {
        let machine = sim.machine();
        match machine.profile() {
            Some(profile) => {
                println!("--- profile (hot statements) ---");
                print!(
                    "{}",
                    ceu::runtime::render_hot_statements(src, &machine.program().debug, profile, 10)
                );
            }
            None => eprintln!("ceuc: profile unavailable (machine never booted cleanly)"),
        }
    }
    let blackbox = sink.as_deref().and_then(|s| (s as &dyn std::any::Any).downcast_ref());
    if let (Some(path), Some(bb)) = (&opts.blackbox, blackbox) {
        if let Some((at, cause)) = crashed.as_ref().or(first_crash.as_ref()) {
            write_blackbox_dump(path, bb, *at, cause, boots)?;
            eprintln!("ceuc: black-box dump written to {path}");
        }
    }
    // The deadline outranks the other outcomes: scripts bounding hostile
    // programs need one unambiguous code for "it ran too long".
    if deadline_hit {
        return Ok(ExitCode::from(3));
    }
    if let Some((at, cause)) = &crashed {
        println!("crashed at {at}us: {cause}");
        return Ok(ExitCode::from(2));
    }
    match sim.status() {
        ceu::Status::Terminated(Some(v)) => println!("terminated: {v}"),
        ceu::Status::Terminated(None) => println!("terminated"),
        ceu::Status::Running => println!("still reactive"),
    }
    Ok(ExitCode::SUCCESS)
}

fn err(lineno: usize, msg: &str) -> String {
    format!("script line {}: {msg}", lineno + 1)
}
