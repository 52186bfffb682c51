//! Trace analysis for Céu machine and world traces.
//!
//! Reads the stable JSONL wire formats emitted by the runtime and the
//! WSN simulator and turns them into human answers:
//!
//! * **machine traces** — one `TraceEvent` object per line, as written
//!   by `ceuc run --trace=jsonl` and the runtime's `JsonLinesSink`:
//!   `{"ev":"ReactionStart","id":{"mote":0,"seq":7},"cause":{…},…}`;
//! * **world traces** — one `FlightRecord` per line, as written by
//!   `wsn_sim::write_trace_jsonl`: `{"t_us":N,"mote":M,"seq":S,"ev":{…}}`.
//!
//! The two are distinguished per line: a world record's `ev` member is an
//! object, a machine record's `ev` member is the kind string. Each line
//! then decodes into the writer's own type (`FlightRecord` or
//! `TraceEvent`), so an unknown kind or a mistyped field is refused with
//! its line number. Every analysis works on either (a machine trace is a
//! world trace with one mote and no world clock).

use ceu::runtime::telemetry::{to_json, Fixed, FlightRecord};
use ceu::runtime::{Cause, ReactionId, TraceEvent};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt::Write as _;

pub mod blackbox;
pub mod parstats;

pub use blackbox::{parse_blackbox, render_blackbox, BlackboxDump};
pub use parstats::{par_report, par_stats_perfetto_events, render_par_run};

/// Human label for a reaction cause.
pub(crate) fn cause_label(cause: &Cause) -> String {
    match cause {
        Cause::Boot => "boot".into(),
        Cause::Event { event, .. } => format!("event #{}", event.0),
        Cause::Timer(deadline_us) => format!("timer {deadline_us}µs"),
        Cause::AsyncDone(_) => "async".into(),
    }
}

/// Parses a whole JSONL trace (machine- or world-format lines, blank
/// lines ignored) into world-trace records. A machine event gets the
/// last `now_us` seen as its time, the mote of its reaction id and its
/// 1-based line number as `seq`. Errors carry the offending line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<FlightRecord>, String> {
    let mut records = Vec::new();
    let mut clock = 0u64; // machine traces: carry now_us forward
    for (line_no, line) in (1..).zip(text.lines()).filter(|(_, l)| !l.trim().is_empty()) {
        let at = |e: serde_json::Error| format!("line {line_no}: {e}");
        let v = serde_json::from_str(line.trim()).map_err(at)?;
        let rec = if v.get("ev").is_some_and(|e| e.as_object().is_some()) {
            serde_json::from_value(v).map_err(at)?
        } else {
            let event = serde_json::from_value(v).map_err(at)?;
            let mote = match event {
                TraceEvent::ReactionStart { id, now_us, .. } => {
                    clock = now_us;
                    id.mote as usize
                }
                TraceEvent::ReactionEnd { now_us, .. } => {
                    clock = now_us;
                    0
                }
                _ => 0,
            };
            FlightRecord { t_us: clock, mote, seq: line_no, event }
        };
        records.push(rec);
    }
    Ok(records)
}

/// `summary` — shape of the trace: event mix, per-mote reaction counts,
/// causes, and causal cross-mote links. An empty record set is an error,
/// not an empty report: it almost always means the trace file was never
/// written (crashed run, wrong path) and deserves a loud answer.
pub fn summary(records: &[FlightRecord]) -> Result<String, String> {
    if records.is_empty() {
        return Err("no trace records in input (empty or never-written trace?)".into());
    }
    let mut kinds: HashMap<String, u64> = HashMap::new();
    let mut causes: HashMap<String, u64> = HashMap::new();
    let mut per_mote: HashMap<usize, u64> = HashMap::new();
    let mut cross_links = 0u64;
    let mut local_links = 0u64;
    let (mut t_min, mut t_max) = (u64::MAX, 0u64);
    for r in records {
        *kinds.entry(r.event.kind().to_string()).or_default() += 1;
        t_min = t_min.min(r.t_us);
        t_max = t_max.max(r.t_us);
        if let TraceEvent::ReactionStart { cause, .. } = r.event {
            *per_mote.entry(r.mote).or_default() += 1;
            *causes.entry(cause_label(&cause)).or_default() += 1;
            if let Some(p) = cause.parent() {
                if p.mote as usize == r.mote {
                    local_links += 1;
                } else {
                    cross_links += 1;
                }
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "events: {}", records.len());
    let _ = writeln!(out, "span:   {t_min}µs .. {t_max}µs");
    let mut motes: Vec<_> = per_mote.into_iter().collect();
    motes.sort();
    for (mote, n) in motes {
        let _ = writeln!(out, "mote {mote}: {n} reactions");
    }
    let _ = writeln!(out, "causal links: {cross_links} cross-mote, {local_links} same-mote");
    let mut kinds: Vec<_> = kinds.into_iter().collect();
    kinds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let _ = writeln!(out, "by kind:");
    for (k, n) in kinds {
        let _ = writeln!(out, "  {n:>8}  {k}");
    }
    let mut causes: Vec<_> = causes.into_iter().collect();
    causes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    if !causes.is_empty() {
        let _ = writeln!(out, "by cause:");
        for (c, n) in causes {
            let _ = writeln!(out, "  {n:>8}  {c}");
        }
    }
    Ok(out)
}

/// `hot` — source-attributed execution counts: aggregates `TrackRun`
/// events per block and renders them against the original `.ceu` source
/// via the compiler's `DebugMap`.
pub fn hot(records: &[FlightRecord], src: &str, top: usize) -> Result<String, String> {
    let prog =
        ceu::Compiler::new().compile(src).map_err(|e| format!("--src does not compile: {e}"))?;
    let mut counts: HashMap<u32, u64> = HashMap::new();
    for r in records {
        if let TraceEvent::TrackRun { block, .. } = r.event {
            *counts.entry(block).or_default() += 1;
        }
    }
    if counts.is_empty() {
        return Ok("no TrackRun events in the trace (was it recorded with tracing on?)\n".into());
    }
    let total: u64 = counts.values().sum();
    let mut rows: Vec<(u32, u64)> = counts.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let lines: Vec<&str> = src.lines().collect();
    let mut out = String::from("   count     %  block  source\n");
    for (block, count) in rows.into_iter().take(top) {
        let span = prog.debug.block_span(block);
        let pct = 100.0 * count as f64 / total as f64;
        let loc = if span.line > 0 {
            let text = lines.get(span.line as usize - 1).map(|l| l.trim()).unwrap_or("");
            format!("{}:{}: {}", span.line, span.col, text)
        } else {
            "<no span>".to_string()
        };
        let _ = writeln!(out, "{count:>8} {pct:>5.1}%  #{block:<4} {loc}");
    }
    Ok(out)
}

/// One Chrome trace-event object, as `to-perfetto` writes it; `None`
/// members are left out.
#[derive(Default, Serialize)]
pub(crate) struct ChromeEvent<'a> {
    ph: &'a str,
    #[serde(skip_serializing_if = "Option::is_none")]
    bp: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    s: Option<&'a str>,
    pid: u64,
    tid: u64,
    /// Virtual time, whole µs (the mote tracks).
    #[serde(skip_serializing_if = "Option::is_none")]
    ts: Option<u64>,
    /// Host time in µs with three decimals (the scheduler tracks).
    #[serde(rename = "ts", skip_serializing_if = "Option::is_none")]
    wall_ts: Option<Fixed<3>>,
    #[serde(skip_serializing_if = "Option::is_none")]
    dur: Option<Fixed<3>>,
    #[serde(skip_serializing_if = "Option::is_none")]
    id: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    name: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    cat: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    args: Option<Args<'a>>,
}

/// The `args` of a [`ChromeEvent`]; `None` members are left out.
#[derive(Default, Serialize)]
pub(crate) struct Args<'a> {
    #[serde(skip_serializing_if = "Option::is_none")]
    name: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    events: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    span_us: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    cross_sends: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    worker: Option<u32>,
}

/// Host nanoseconds as the µs a scheduler-track `ts`/`dur` shows.
pub(crate) fn wall_us(ns: u64) -> Fixed<3> {
    Fixed(ns as f64 / 1_000.0)
}

/// `to-perfetto` — a Chrome trace-event JSON array for ui.perfetto.dev:
/// one process per mote, `B`/`E` slices per reaction, instants for the
/// in-reaction events, and `s`/`f` flow arrows from each causal parent
/// reaction to the reaction it triggered (cross-mote arrows are the
/// radio packets).
pub fn to_perfetto(records: &[FlightRecord]) -> String {
    to_perfetto_merged(records, &[])
}

/// [`to_perfetto`] plus extra pre-rendered Chrome-trace events appended to
/// the same array — how `to-perfetto --par-stats` folds the scheduler's
/// wall-clock worker tracks ([`par_stats_perfetto_events`]) into the
/// virtual-time mote view.
pub fn to_perfetto_merged(records: &[FlightRecord], extra: &[String]) -> String {
    // index reaction starts so flows can anchor on the parent slice
    let mut starts: HashMap<ReactionId, u64> = HashMap::new();
    let mut motes: Vec<usize> = Vec::new();
    for r in records {
        if !motes.contains(&r.mote) {
            motes.push(r.mote);
        }
        if let TraceEvent::ReactionStart { id, .. } = r.event {
            starts.entry(id).or_insert(r.t_us);
        }
    }
    motes.sort();
    let mut out: Vec<String> = Vec::new();
    for &m in &motes {
        let name = format!("mote {m}");
        out.push(to_json(&ChromeEvent {
            ph: "M",
            pid: m as u64,
            tid: m as u64,
            name: Some("process_name"),
            args: Some(Args { name: Some(&name), ..Args::default() }),
            ..ChromeEvent::default()
        }));
    }
    let mut flow_id = 0u64;
    for r in records {
        let (pid, tid, ts) = (r.mote as u64, r.mote as u64, Some(r.t_us));
        match r.event {
            TraceEvent::ReactionStart { id, cause, .. } => {
                let label = format!("reaction m{}.{} ({})", id.mote, id.seq, cause_label(&cause));
                let (name, cat) = (Some(label.as_str()), Some("reaction"));
                out.push(to_json(&ChromeEvent {
                    ph: "B",
                    pid,
                    tid,
                    ts,
                    name,
                    cat,
                    ..ChromeEvent::default()
                }));
                // flow arrow from the causal parent's slice to this one
                if let Some(p) = cause.parent() {
                    if let Some(&pt) = starts.get(&p) {
                        let pm = p.mote as u64;
                        flow_id += 1;
                        let flow = ChromeEvent {
                            ph: "s",
                            pid: pm,
                            tid: pm,
                            ts: Some(pt),
                            id: Some(flow_id),
                            name: Some("cause"),
                            cat: Some("flow"),
                            ..ChromeEvent::default()
                        };
                        out.push(to_json(&flow));
                        out.push(to_json(&ChromeEvent {
                            ph: "f",
                            bp: Some("e"),
                            pid,
                            tid,
                            ts,
                            ..flow
                        }));
                    }
                }
            }
            TraceEvent::ReactionEnd { .. } => {
                out.push(to_json(&ChromeEvent { ph: "E", pid, tid, ts, ..ChromeEvent::default() }))
            }
            ev => {
                // in-reaction detail as thread-scoped instants
                let kind = ev.kind();
                let name = match ev {
                    TraceEvent::TrackRun { block, .. } => format!("TrackRun #{block}"),
                    TraceEvent::GateFired { gate } | TraceEvent::GateArmed { gate } => {
                        format!("{kind} g{gate}")
                    }
                    TraceEvent::EmitInt { event, .. } | TraceEvent::Discarded { event } => {
                        format!("{kind} #{}", event.0)
                    }
                    _ => kind.to_string(),
                };
                out.push(to_json(&ChromeEvent {
                    ph: "i",
                    s: Some("t"),
                    pid,
                    tid,
                    ts,
                    name: Some(&name),
                    cat: Some("vm"),
                    ..ChromeEvent::default()
                }));
            }
        }
    }
    out.extend(extra.iter().cloned());
    format!("[\n{}\n]\n", out.join(",\n"))
}

/// One hop of a causal chain (see [`critical_path`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Hop {
    pub mote: u64,
    pub seq: u64,
    pub t_us: u64,
    pub cause: String,
}

/// The longest causal chain in the trace: follows `parent` links from
/// every reaction back to its root and returns the deepest chain,
/// root-first. This is the critical path of the distributed computation —
/// the sequence of reactions (and radio hops) nothing could overlap with.
pub fn critical_path(records: &[FlightRecord]) -> Vec<Hop> {
    struct Node {
        t_us: u64,
        cause: String,
        parent: Option<ReactionId>,
    }
    let mut nodes: HashMap<ReactionId, Node> = HashMap::new();
    for r in records {
        if let TraceEvent::ReactionStart { id, cause, .. } = r.event {
            nodes.entry(id).or_insert(Node {
                t_us: r.t_us,
                cause: cause_label(&cause),
                parent: cause.parent(),
            });
        }
    }
    // depth of every reaction: walk parent links up to a reaction whose
    // depth is known or to a root (a missing parent — trimmed trace —
    // roots the chain there; so does a link back into the walk, which
    // only a malformed trace has), then number the walk back down
    let mut memo: HashMap<ReactionId, u64> = HashMap::new();
    let mut best: Option<(ReactionId, u64)> = None;
    let mut ids: Vec<_> = nodes.keys().copied().collect();
    ids.sort();
    for &id in &ids {
        if !memo.contains_key(&id) {
            let mut walk = vec![id];
            memo.insert(id, 0); // 0 marks the walk in progress
            let mut base = 0;
            while let Some(p) = nodes[walk.last().unwrap()].parent {
                match memo.get(&p) {
                    Some(&d) => {
                        base = d; // 0: a link back into this walk
                        break;
                    }
                    None if nodes.contains_key(&p) => {
                        memo.insert(p, 0);
                        walk.push(p);
                    }
                    None => break,
                }
            }
            for (i, &n) in walk.iter().rev().enumerate() {
                memo.insert(n, base + i as u64 + 1);
            }
        }
        let d = memo[&id];
        if best.map(|(_, bd)| d > bd).unwrap_or(true) {
            best = Some((id, d));
        }
    }
    let Some((mut id, depth)) = best else { return Vec::new() };
    let mut chain = Vec::new();
    for _ in 0..depth {
        let n = &nodes[&id];
        chain.push(Hop { mote: id.mote as u64, seq: id.seq, t_us: n.t_us, cause: n.cause.clone() });
        match n.parent {
            Some(p) if nodes.contains_key(&p) => id = p,
            _ => break,
        }
    }
    chain.reverse();
    chain
}

/// Renders a [`critical_path`] chain for the terminal.
pub fn render_critical_path(chain: &[Hop]) -> String {
    if chain.is_empty() {
        return "no reactions in the trace\n".into();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "critical path: {} reactions, {}µs end to end",
        chain.len(),
        chain.last().unwrap().t_us.saturating_sub(chain[0].t_us)
    );
    render_hops(&mut out, chain);
    out
}

/// One line per hop, each annotated with its latency from the previous
/// hop (a mote change is a radio hop).
fn render_hops(out: &mut String, chain: &[Hop]) {
    let mut prev: Option<&Hop> = None;
    for hop in chain {
        let lat = match prev {
            Some(p) if hop.mote != p.mote => {
                format!("  (+{}µs, radio hop)", hop.t_us.saturating_sub(p.t_us))
            }
            Some(p) => format!("  (+{}µs)", hop.t_us.saturating_sub(p.t_us)),
            None => String::new(),
        };
        let _ = writeln!(out, "  m{}.{} @{}µs  {}{}", hop.mote, hop.seq, hop.t_us, hop.cause, lat);
        prev = Some(hop);
    }
}

/// The outcome of [`diff`].
#[derive(Clone, Debug, PartialEq)]
pub enum DiffResult {
    /// Both traces are identical after normalisation.
    Match { events: usize },
    /// First divergence: the 1-based record index and both raw lines
    /// (`None` when one trace ended early).
    Divergence { index: usize, left: Option<String>, right: Option<String> },
}

/// Compares two traces event by event, ignoring host-clock (`wall_ns`)
/// fields — the only nondeterminism the runtime ever records (see
/// `TraceEvent::normalized`). Reports the
/// first divergence; identical traces (e.g. sequential vs parallel world
/// runs, or flat vs tree-eval machine runs) yield [`DiffResult::Match`].
pub fn diff(left: &str, right: &str) -> Result<DiffResult, String> {
    let l = parse_jsonl(left).map_err(|e| format!("left: {e}"))?;
    let r = parse_jsonl(right).map_err(|e| format!("right: {e}"))?;
    for (i, (a, b)) in l.iter().zip(r.iter()).enumerate() {
        if normalized_key(a) != normalized_key(b) {
            return Ok(DiffResult::Divergence {
                index: i + 1,
                left: Some(render_record(a)),
                right: Some(render_record(b)),
            });
        }
    }
    if l.len() != r.len() {
        let index = l.len().min(r.len()) + 1;
        return Ok(DiffResult::Divergence {
            index,
            left: l.get(index - 1).map(render_record),
            right: r.get(index - 1).map(render_record),
        });
    }
    Ok(DiffResult::Match { events: l.len() })
}

fn render_record(r: &FlightRecord) -> String {
    format!("t={}µs mote={} seq={} {}", r.t_us, r.mote, r.seq, to_json(&r.event))
}

/// The comparison key of a record: position + wall-clock-normalized
/// event.
fn normalized_key(r: &FlightRecord) -> (u64, usize, u64, TraceEvent) {
    (r.t_us, r.mote, r.seq, r.event.normalized())
}

/// Renders a [`DiffResult`] for the terminal; `true` means "no
/// divergence".
pub fn render_diff(result: &DiffResult) -> (String, bool) {
    match result {
        DiffResult::Match { events } => (format!("traces are identical ({events} events)\n"), true),
        DiffResult::Divergence { index, left, right } => {
            let mut out = format!("first divergence at event {index}:\n");
            let _ = writeln!(out, "  left:  {}", left.as_deref().unwrap_or("<trace ended>"));
            let _ = writeln!(out, "  right: {}", right.as_deref().unwrap_or("<trace ended>"));
            (out, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORLD: &str = r#"
{"t_us":0,"mote":0,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":0,"seq":1},"cause":{"type":"boot"},"now_us":0,"wall_ns":0}}
{"t_us":0,"mote":0,"seq":2,"ev":{"ev":"TrackRun","block":0,"rank":0}}
{"t_us":0,"mote":0,"seq":3,"ev":{"ev":"ReactionEnd","now_us":0,"wall_ns":0,"tracks":1,"emits":0,"gates_fired":0,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}
{"t_us":1000,"mote":1,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":1,"seq":1},"cause":{"type":"event","id":0,"parent":{"mote":0,"seq":1}},"now_us":1000,"wall_ns":0}}
{"t_us":1000,"mote":1,"seq":2,"ev":{"ev":"ReactionEnd","now_us":1000,"wall_ns":0,"tracks":1,"emits":0,"gates_fired":1,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}
{"t_us":2000,"mote":0,"seq":4,"ev":{"ev":"ReactionStart","id":{"mote":0,"seq":2},"cause":{"type":"event","id":0,"parent":{"mote":1,"seq":1}},"now_us":2000,"wall_ns":0}}
{"t_us":2000,"mote":0,"seq":5,"ev":{"ev":"ReactionEnd","now_us":2000,"wall_ns":0,"tracks":1,"emits":0,"gates_fired":1,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}
"#;

    #[test]
    fn parses_world_and_machine_lines() {
        let recs = parse_jsonl(WORLD).unwrap();
        assert_eq!(recs.len(), 7);
        assert_eq!(recs[3].mote, 1);
        let TraceEvent::ReactionStart { cause, .. } = recs[3].event else { panic!("{recs:?}") };
        assert_eq!(cause.parent(), Some(ReactionId::new(0, 1)));
        let machine = r#"{"ev":"ReactionStart","id":{"mote":0,"seq":1},"cause":{"type":"boot"},"now_us":42,"wall_ns":5}"#;
        let recs = parse_jsonl(machine).unwrap();
        assert_eq!(recs[0].t_us, 42);
        assert_eq!(recs[0].event.kind(), "ReactionStart");
    }

    #[test]
    fn summary_counts_cross_mote_links() {
        let s = summary(&parse_jsonl(WORLD).unwrap()).unwrap();
        assert!(s.contains("causal links: 2 cross-mote"), "{s}");
        assert!(s.contains("mote 0: 2 reactions"), "{s}");
    }

    #[test]
    fn summary_errors_on_empty_input() {
        let err = summary(&[]).unwrap_err();
        assert!(err.contains("no trace records"), "{err}");
        let err = summary(&parse_jsonl("\n  \n").unwrap()).unwrap_err();
        assert!(err.contains("no trace records"), "{err}");
    }

    #[test]
    fn truncated_jsonl_is_a_clean_line_error() {
        // a trace cut off mid-line (killed process) names the bad line
        let cut = &WORLD.trim_start()[..80];
        let err = parse_jsonl(cut).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        // par-report on an empty stream is an error, not a panic
        let err = par_report("").unwrap_err();
        assert!(err.contains("no ceu-par-stats run records"), "{err}");
    }

    #[test]
    fn perfetto_export_has_flow_pairs() {
        let json = to_perfetto(&parse_jsonl(WORLD).unwrap());
        let doc = serde_json::from_str(&json).expect("valid JSON");
        let events = doc.as_array().expect("an array");
        let s = events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s")).count();
        let f = events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f")).count();
        assert_eq!(s, 2);
        assert_eq!(f, 2);
        // the first flow starts on mote 0's slice and finishes on mote 1's
        let start =
            events.iter().find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s")).unwrap();
        assert_eq!(start.get("pid").and_then(|p| p.as_u64()), Some(0));
    }

    #[test]
    fn perfetto_names_are_escaped() {
        // instant names come from the decoded event, so a kind the
        // runtime never writes is refused instead of copied into one
        let trace = r#"{"ev":"x\"y\\z\u0001","now_us":1}"#;
        let err = parse_jsonl(trace).unwrap_err();
        assert_eq!(err, "line 1: `ev` names no known kind: \"x\\\"y\\\\z\\u{1}\"");
    }

    #[test]
    fn unknown_kinds_and_mistyped_fields_are_refused_with_their_line() {
        let start = r#"{"ev":"ReactionStart","id":{"mote":0,"seq":1},"cause":{"type":"boot"},"now_us":0,"wall_ns":0}"#;
        let unknown = format!("{start}\n\n{}", r#"{"ev":"ReactionPaused","now_us":1}"#);
        let err = parse_jsonl(&unknown).unwrap_err();
        assert!(err.starts_with("line 3: `ev` names no known kind: \"ReactionPaused\""), "{err}");
        let mistyped = start.replace(r#""seq":1"#, r#""seq":"1""#);
        let err = parse_jsonl(&format!("{start}\n{mistyped}")).unwrap_err();
        assert!(err.starts_with("line 2: `id.seq` does not fit a u64"), "{err}");
        // the same holds inside a world record's `ev` object
        let world = r#"{"t_us":0,"mote":0,"seq":1,"ev":{"ev":"TrackRun","block":-1,"rank":0}}"#;
        let err = parse_jsonl(world).unwrap_err();
        assert!(err.starts_with("line 1: `ev.block` does not fit a u32"), "{err}");
    }

    #[test]
    fn critical_path_follows_parents_across_motes() {
        let chain = critical_path(&parse_jsonl(WORLD).unwrap());
        let path: Vec<(u64, u64)> = chain.iter().map(|h| (h.mote, h.seq)).collect();
        assert_eq!(path, vec![(0, 1), (1, 1), (0, 2)]);
        let rendered = render_critical_path(&chain);
        assert!(rendered.contains("3 reactions, 2000µs"), "{rendered}");
        assert!(rendered.contains("radio hop"), "{rendered}");
    }

    #[test]
    fn critical_path_survives_parent_cycles() {
        // only a malformed trace has one; it must not recurse forever
        let looped = WORLD.trim().replace(
            r#""cause":{"type":"boot"}"#,
            r#""cause":{"type":"event","id":0,"parent":{"mote":0,"seq":2}}"#,
        );
        let chain = critical_path(&parse_jsonl(&looped).unwrap());
        assert_eq!(chain.len(), 3, "{chain:?}");
        let own = r#"{"ev":"ReactionStart","id":{"mote":0,"seq":1},"cause":{"type":"event","id":0,"parent":{"mote":0,"seq":1}},"now_us":0,"wall_ns":0}"#;
        assert_eq!(critical_path(&parse_jsonl(own).unwrap()).len(), 1);
    }

    #[test]
    fn diff_ignores_wall_clock_but_not_structure() {
        let a = r#"{"ev":"ReactionStart","id":{"mote":0,"seq":1},"cause":{"type":"boot"},"now_us":0,"wall_ns":123}"#;
        let b = r#"{"ev":"ReactionStart","id":{"mote":0,"seq":1},"cause":{"type":"boot"},"now_us":0,"wall_ns":456}"#;
        assert_eq!(diff(a, b).unwrap(), DiffResult::Match { events: 1 });
        let c = r#"{"ev":"ReactionStart","id":{"mote":0,"seq":2},"cause":{"type":"boot"},"now_us":0,"wall_ns":123}"#;
        assert!(matches!(diff(a, c).unwrap(), DiffResult::Divergence { index: 1, .. }));
        // length mismatch is a divergence past the common prefix
        let two = format!("{a}\n{a}");
        assert!(matches!(diff(a, &two).unwrap(), DiffResult::Divergence { index: 2, .. }));
    }

    #[test]
    fn hot_renders_source_lines() {
        let src = "input void GO;\nloop do\n await GO;\n _f();\nend";
        let trace = r#"
{"ev":"TrackRun","block":0,"rank":0}
{"ev":"TrackRun","block":1,"rank":0}
{"ev":"TrackRun","block":1,"rank":0}
"#;
        let out = hot(&parse_jsonl(trace).unwrap(), src, 10).unwrap();
        assert!(out.contains("#1"), "{out}");
        assert!(out.contains("66.7%"), "{out}");
    }
}
