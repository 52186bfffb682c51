//! `ceu-trace blackbox` — renders a `ceu-blackbox/v1` crash dump (the
//! flight-recorder snapshot written by the WSN simulator or `ceuc run
//! --blackbox`) into a triage page: what crashed and why, the recent
//! scheduler windows, the crashed mote's final recorded reactions, and
//! the cross-mote causal chain that led into the crash.
//!
//! Dump lines are discriminated by key: `"schema"` → the header,
//! `"blackbox"` → a stats/window line, `"ev"` → a flight record in the
//! world-trace wire shape (so [`crate::parse_jsonl`] reads them as-is).

use crate::Record;
use ceu::runtime::telemetry::BLACKBOX_SCHEMA;
use serde_json::Value;
use std::fmt::Write as _;

/// A parsed `ceu-blackbox/v1` dump.
#[derive(Debug)]
pub struct BlackboxDump {
    /// The header object (`schema`, `reason`, `t_us`, optional crash
    /// attribution, ring totals).
    pub header: Value,
    /// `{"blackbox":"shard"|"machine",…}` ring-stat lines, in file order.
    pub shards: Vec<Value>,
    /// `{"blackbox":"window",…}` scheduler window marks, in file order.
    pub windows: Vec<Value>,
    /// `{"blackbox":"mote",…}` per-mote stat lines, in file order.
    pub motes: Vec<Value>,
    /// The flight records, parsed to the normalised trace shape.
    pub records: Vec<Record>,
}

impl BlackboxDump {
    fn header_u64(&self, key: &str) -> Option<u64> {
        self.header.get(key).and_then(|v| v.as_u64())
    }

    fn header_str(&self, key: &str) -> Option<&str> {
        self.header.get(key).and_then(|v| v.as_str())
    }

    /// The crashed mote named by the dump, if any.
    pub fn crashed_mote(&self) -> Option<u64> {
        self.header_u64("mote")
    }
}

/// Parses a `ceu-blackbox/v1` dump. Fails with a one-line error on
/// empty input, a missing/foreign header, or a malformed line.
pub fn parse_blackbox(text: &str) -> Result<BlackboxDump, String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (first_no, first) = lines
        .next()
        .ok_or("empty input: not a ceu-blackbox/v1 dump (did the crash produce one?)")?;
    let header: Value =
        serde_json::from_str(first.trim()).map_err(|e| format!("line {}: {e}", first_no + 1))?;
    match header.get("schema").and_then(|v| v.as_str()) {
        Some(BLACKBOX_SCHEMA) => {}
        Some(other) => return Err(format!("not a ceu-blackbox/v1 dump (schema {other:?})")),
        None => return Err("not a ceu-blackbox/v1 dump (no schema header)".into()),
    }
    let mut dump = BlackboxDump {
        header,
        shards: Vec::new(),
        windows: Vec::new(),
        motes: Vec::new(),
        records: Vec::new(),
    };
    let mut record_lines = String::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let v: Value =
            serde_json::from_str(line.trim()).map_err(|e| format!("line {line_no}: {e}"))?;
        match v.get("blackbox").and_then(|b| b.as_str()) {
            Some("shard") | Some("machine") => dump.shards.push(v),
            Some("window") => dump.windows.push(v),
            Some("mote") => dump.motes.push(v),
            Some(other) => return Err(format!("line {line_no}: unknown blackbox kind {other:?}")),
            None if v.get("ev").is_some() => {
                record_lines.push_str(line);
                record_lines.push('\n');
            }
            None => return Err(format!("line {line_no}: neither a stat line nor a record")),
        }
    }
    dump.records = crate::parse_jsonl(&record_lines)?;
    Ok(dump)
}

fn get_u64(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(|x| x.as_u64()).unwrap_or(0)
}

/// Renders the triage page. `src` is the original `.ceu` source (enables
/// source attribution of the crash site); `last_windows` bounds the
/// scheduler-window timeline.
pub fn render_blackbox(dump: &BlackboxDump, src: Option<&str>, last_windows: usize) -> String {
    let mut out = String::new();
    let reason = dump.header_str("reason").unwrap_or("?");
    let t_us = dump.header_u64("t_us").unwrap_or(0);
    let _ = writeln!(out, "black box: {reason} at {t_us}µs");

    // -- what crashed ---------------------------------------------------
    if let Some(mote) = dump.crashed_mote() {
        let mut line = format!("  mote {mote}");
        if let Some(at) = dump.header_u64("crash_us") {
            let _ = write!(line, " crashed at {at}µs");
        }
        if let Some(kind) = dump.header_str("kind") {
            let _ = write!(line, " ({kind})");
        }
        if let Some(cause) = dump.header_str("cause") {
            let _ = write!(line, ": {cause}");
        }
        let _ = writeln!(out, "{line}");
        if let (Some(l), Some(c)) = (dump.header_u64("line"), dump.header_u64("col")) {
            if l > 0 {
                let _ = writeln!(out, "{}", render_source_site(src, l, c));
            }
        }
    }
    let _ = writeln!(
        out,
        "  {} motes, {} shards, ring {}/{} records ({} dropped)",
        dump.header_u64("motes").unwrap_or(0),
        dump.header_u64("shards").unwrap_or(0),
        dump.header_u64("ring_records").unwrap_or(0),
        dump.header_u64("ring_capacity").unwrap_or(0),
        dump.header_u64("ring_dropped").unwrap_or(0),
    );

    // -- ring occupancy per shard --------------------------------------
    if !dump.shards.is_empty() {
        let _ = writeln!(out, "\nrings:");
        for s in &dump.shards {
            if s.get("blackbox").and_then(|b| b.as_str()) == Some("machine") {
                let _ = writeln!(
                    out,
                    "  machine: {} kept, {} dropped, {} recorded ({} boots)",
                    get_u64(s, "ring_len"),
                    get_u64(s, "ring_dropped"),
                    get_u64(s, "ring_recorded"),
                    get_u64(s, "boots"),
                );
            } else {
                let _ = writeln!(
                    out,
                    "  shard {}: {} motes, lookahead {}µs, {} kept, {} dropped, {} recorded",
                    get_u64(s, "shard"),
                    get_u64(s, "motes"),
                    get_u64(s, "lookahead_us"),
                    get_u64(s, "ring_len"),
                    get_u64(s, "ring_dropped"),
                    get_u64(s, "ring_recorded"),
                );
            }
        }
    }

    // -- scheduler windows ----------------------------------------------
    if !dump.windows.is_empty() {
        let shown = dump.windows.len().min(last_windows);
        let skipped = dump.windows.len() - shown;
        let _ = writeln!(out, "\nscheduler windows (last {shown} of {}):", dump.windows.len());
        let tail = &dump.windows[skipped..];
        let peak = tail.iter().map(|w| get_u64(w, "events")).max().unwrap_or(1).max(1);
        for w in tail {
            let events = get_u64(w, "events");
            let bar_len = (events as u128 * 24).div_ceil(peak as u128) as usize;
            let _ = writeln!(
                out,
                "  shard {} [{:>8} .. {:>8})µs {:>6} events  {}",
                get_u64(w, "shard"),
                get_u64(w, "start_us"),
                get_u64(w, "end_us"),
                events,
                "#".repeat(bar_len),
            );
        }
    }

    // -- per-mote health ------------------------------------------------
    if !dump.motes.is_empty() {
        let _ = writeln!(out, "\nmotes on the record:");
        for m in &dump.motes {
            let up = m.get("up").and_then(|u| u.as_bool()).unwrap_or(false);
            let _ = writeln!(
                out,
                "  mote {:>4} {}  sent {} received {} ({} in-flight drops, {} crashes, {} reboots)",
                get_u64(m, "mote"),
                if up { "up  " } else { "DOWN" },
                get_u64(m, "sent"),
                get_u64(m, "received"),
                get_u64(m, "dropped_in_flight"),
                get_u64(m, "crashes"),
                get_u64(m, "reboots"),
            );
        }
    }

    // -- final reactions of the crashed mote ----------------------------
    let focus = dump.crashed_mote();
    if let Some(mote) = focus {
        let last: Vec<&Record> = dump.records.iter().filter(|r| r.mote as u64 == mote).collect();
        if !last.is_empty() {
            let tail_from = last.len().saturating_sub(12);
            let _ = writeln!(
                out,
                "\nmote {mote}: final {} recorded events (of {} on the ring):",
                last.len() - tail_from,
                last.len()
            );
            for r in &last[tail_from..] {
                let _ = writeln!(out, "  @{:>8}µs  {}", r.t_us, describe_record(r, src));
            }
        }
    }

    // -- causal context -------------------------------------------------
    let chain = causal_context(&dump.records, focus);
    if chain.len() > 1 {
        let _ = writeln!(out, "\ncausal context (parent chain into the crash):");
        crate::render_hops(&mut out, &chain);
    }
    out
}

/// One recorded event, one human line. With `src`, crash records point
/// at the offending source line.
fn describe_record(r: &Record, src: Option<&str>) -> String {
    match r.kind() {
        "ReactionStart" => {
            let id =
                r.reaction_id().map(|(m, s)| format!("m{m}.{s}")).unwrap_or_else(|| "?".into());
            format!("reaction {id} begins ({})", r.cause_label())
        }
        "ReactionEnd" => format!(
            "reaction ends: {} tracks, {} emits, queue peak {}",
            get_u64(&r.ev, "tracks"),
            get_u64(&r.ev, "emits"),
            get_u64(&r.ev, "queue_peak"),
        ),
        "EmitInt" => {
            format!("emit #{} (depth {})", get_u64(&r.ev, "event"), get_u64(&r.ev, "depth"))
        }
        "Discarded" => format!("event #{} discarded (no active gates)", get_u64(&r.ev, "event")),
        "BudgetExceeded" => {
            format!("WATCHDOG: budget exceeded after {} tracks", get_u64(&r.ev, "tracks"))
        }
        "Terminated" => "terminated".into(),
        "MoteRebooted" => format!("rebooted (boot {})", get_u64(&r.ev, "boots")),
        "MoteCrashed" => {
            let kind = r.ev.get("kind").and_then(|k| k.as_str()).unwrap_or("?");
            let (line, col) = (get_u64(&r.ev, "line"), get_u64(&r.ev, "col"));
            let mut s = format!("CRASHED ({kind})");
            if line > 0 {
                let _ = write!(s, " at {line}:{col}");
                let site = render_source_site(src, line, col);
                if !site.is_empty() {
                    let _ = write!(s, "\n{site}");
                }
            }
            s
        }
        other => other.to_string(),
    }
}

/// The crash site against the original source, caret included; empty
/// when no source is available or the span is out of range. A column
/// past the end of the line puts the caret just after it.
fn render_source_site(src: Option<&str>, line: u64, col: u64) -> String {
    let Some(src) = src else { return String::new() };
    let Some(text) = src.lines().nth(line as usize - 1) else { return String::new() };
    let text = text.trim_end();
    let col = (col.max(1) - 1).min(text.chars().count() as u64) as usize;
    let caret = " ".repeat(col + 8 + line.to_string().len());
    format!("      {line} | {text}\n{caret}^")
}

/// The parent chain leading into the crashed mote's last reaction (or,
/// without a focus mote, the trace-wide critical path): who caused the
/// reaction that caused the reaction that crashed.
fn causal_context(records: &[Record], focus: Option<u64>) -> Vec<crate::Hop> {
    let Some(mote) = focus else { return crate::critical_path(records) };
    // anchor on the crashed mote's last ReactionStart and walk parents
    let mut starts = std::collections::HashMap::new();
    for r in records {
        if r.kind() == "ReactionStart" {
            if let Some(id) = r.reaction_id() {
                starts.insert(id, (r.t_us, r.cause_label(), r.parent()));
            }
        }
    }
    let Some(&anchor) = starts.keys().filter(|(m, _)| *m == mote).max_by_key(|(_, s)| *s) else {
        return Vec::new();
    };
    let mut chain = Vec::new();
    let mut id = anchor;
    loop {
        let (t_us, cause, parent) = starts[&id].clone();
        chain.push(crate::Hop { mote: id.0, seq: id.1, t_us, cause });
        match parent {
            Some(p) if starts.contains_key(&p) && chain.len() < 64 => id = p,
            _ => break,
        }
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUMP: &str = r#"{"schema":"ceu-blackbox/v1","reason":"mote-crashed","t_us":5000,"mote":1,"crash_us":5000,"kind":"fault-injected","cause":"fault-injected crash","line":0,"col":0,"motes":3,"shards":2,"ring_capacity":512,"ring_records":6,"ring_dropped":1}
{"blackbox":"shard","shard":0,"motes":2,"lookahead_us":1000,"ring_len":3,"ring_dropped":1,"ring_recorded":4}
{"blackbox":"shard","shard":1,"motes":1,"lookahead_us":1000,"ring_len":3,"ring_dropped":0,"ring_recorded":3}
{"blackbox":"window","shard":0,"start_us":0,"end_us":1000,"events":4}
{"blackbox":"window","shard":0,"start_us":1000,"end_us":2000,"events":2}
{"blackbox":"mote","mote":0,"up":true,"sent":2,"received":1,"dropped_in_flight":0,"crashes":0,"reboots":0}
{"blackbox":"mote","mote":1,"up":false,"sent":1,"received":1,"dropped_in_flight":0,"crashes":1,"reboots":0}
{"t_us":0,"mote":0,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":0,"seq":1},"cause":{"type":"boot"},"now_us":0,"wall_ns":0}}
{"t_us":1000,"mote":1,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":1,"seq":1},"cause":{"type":"event","id":0,"parent":{"mote":0,"seq":1}},"now_us":1000,"wall_ns":0}}
{"t_us":1000,"mote":1,"seq":2,"ev":{"ev":"ReactionEnd","now_us":1000,"wall_ns":0,"tracks":1,"emits":0,"gates_fired":1,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}
{"t_us":5000,"mote":1,"seq":3,"ev":{"ev":"MoteCrashed","kind":"fault-injected","line":0,"col":0}}
"#;

    #[test]
    fn parses_every_line_kind() {
        let d = parse_blackbox(DUMP).unwrap();
        assert_eq!(d.crashed_mote(), Some(1));
        assert_eq!(d.shards.len(), 2);
        assert_eq!(d.windows.len(), 2);
        assert_eq!(d.motes.len(), 2);
        assert_eq!(d.records.len(), 4);
    }

    #[test]
    fn rejects_empty_and_foreign_input() {
        assert!(parse_blackbox("").unwrap_err().contains("empty input"));
        assert!(parse_blackbox("\n\n").unwrap_err().contains("empty input"));
        let world = r#"{"t_us":0,"mote":0,"seq":1,"ev":{"ev":"Terminated","value":null}}"#;
        assert!(parse_blackbox(world).unwrap_err().contains("no schema header"));
        // truncated mid-line JSON fails with the line number, not a panic
        let cut = &DUMP[..DUMP.len() - 30];
        assert!(parse_blackbox(cut).unwrap_err().contains("line"));
    }

    #[test]
    fn renders_the_triage_page() {
        let d = parse_blackbox(DUMP).unwrap();
        let page = render_blackbox(&d, None, 8);
        assert!(page.contains("black box: mote-crashed at 5000µs"), "{page}");
        assert!(page.contains("mote 1 crashed at 5000µs (fault-injected)"), "{page}");
        assert!(page.contains("shard 0: 2 motes"), "{page}");
        assert!(page.contains("scheduler windows (last 2 of 2)"), "{page}");
        assert!(page.contains("mote    1 DOWN"), "{page}");
        assert!(page.contains("CRASHED (fault-injected)"), "{page}");
        // the causal chain crosses from mote 0 into the crashed mote
        assert!(page.contains("radio hop"), "{page}");
    }

    #[test]
    fn window_timeline_is_bounded_by_last_n() {
        let d = parse_blackbox(DUMP).unwrap();
        let page = render_blackbox(&d, None, 1);
        assert!(page.contains("scheduler windows (last 1 of 2)"), "{page}");
        assert!(!page.contains("[       0 ..     1000)"), "{page}");
    }

    #[test]
    fn source_attribution_points_at_the_line() {
        let src = "input void GO;\nawait GO;\n_boom();\n";
        let mut d = parse_blackbox(DUMP).unwrap();
        if let Value::Object(h) = &mut d.header {
            h.insert("line".into(), Value::Number(3u64.into()));
            h.insert("col".into(), Value::Number(1u64.into()));
        }
        let page = render_blackbox(&d, Some(src), 8);
        assert!(page.contains("3 | _boom();"), "{page}");
        assert!(page.contains('^'), "{page}");
    }
}
