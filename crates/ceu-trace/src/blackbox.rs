//! `ceu-trace blackbox` — renders a `ceu-blackbox/v1` crash dump (the
//! flight-recorder snapshot written by the WSN simulator or `ceuc run
//! --blackbox`) into a triage page: what crashed and why, the recent
//! scheduler windows, the crashed mote's final recorded reactions, and
//! the cross-mote causal chain that led into the crash.
//!
//! The first line is the header (`"schema"`); after it a line with a
//! `"blackbox"` key is a `BlackboxStat` and any other line a
//! `FlightRecord` (the world-trace wire shape). Each decodes into that
//! type, and a line that does not is refused with its line number.

use crate::cause_label;
use ceu::runtime::telemetry::{
    BlackboxHeader, BlackboxStat, FlightRecord, WindowMark, BLACKBOX_SCHEMA,
};
use ceu::runtime::TraceEvent;
use std::fmt::Write as _;

/// A parsed `ceu-blackbox/v1` dump, decoded into the types its writer
/// serializes.
#[derive(Debug)]
pub struct BlackboxDump {
    /// The header (`reason`, `t_us`, optional crash attribution, ring
    /// totals).
    pub header: BlackboxHeader,
    /// `shard` and `machine` ring-stat lines, in file order.
    pub shards: Vec<BlackboxStat>,
    /// `window` scheduler marks with their shard, in file order.
    pub windows: Vec<(u32, WindowMark)>,
    /// `mote` stat lines, in file order.
    pub motes: Vec<BlackboxStat>,
    /// The flight records.
    pub records: Vec<FlightRecord>,
}

impl BlackboxDump {
    /// The crashed mote named by the dump, if any.
    pub fn crashed_mote(&self) -> Option<u64> {
        self.header.mote.map(|m| m as u64)
    }
}

/// Parses a `ceu-blackbox/v1` dump. Fails with a one-line error on
/// empty input, a missing/foreign header, or a malformed line.
pub fn parse_blackbox(text: &str) -> Result<BlackboxDump, String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (first_no, first) = lines
        .next()
        .ok_or("empty input: not a ceu-blackbox/v1 dump (did the crash produce one?)")?;
    let at = |idx: usize| move |e: serde_json::Error| format!("line {}: {e}", idx + 1);
    let header = serde_json::from_str(first.trim()).map_err(at(first_no))?;
    match header.get("schema").and_then(|v| v.as_str()) {
        Some(BLACKBOX_SCHEMA) => {}
        Some(other) => return Err(format!("not a ceu-blackbox/v1 dump (schema {other:?})")),
        None => return Err("not a ceu-blackbox/v1 dump (no schema header)".into()),
    }
    let mut dump = BlackboxDump {
        header: serde_json::from_value(header).map_err(at(first_no))?,
        shards: Vec::new(),
        windows: Vec::new(),
        motes: Vec::new(),
        records: Vec::new(),
    };
    for (idx, line) in lines {
        let v = serde_json::from_str(line.trim()).map_err(at(idx))?;
        if v.get("blackbox").is_none() {
            dump.records.push(serde_json::from_value(v).map_err(at(idx))?);
            continue;
        }
        match serde_json::from_value(v).map_err(at(idx))? {
            BlackboxStat::Window { shard, mark } => dump.windows.push((shard, mark)),
            stat @ BlackboxStat::Mote { .. } => dump.motes.push(stat),
            stat => dump.shards.push(stat),
        }
    }
    Ok(dump)
}

/// Renders the triage page. `src` is the original `.ceu` source (enables
/// source attribution of the crash site); `last_windows` bounds the
/// scheduler-window timeline.
pub fn render_blackbox(dump: &BlackboxDump, src: Option<&str>, last_windows: usize) -> String {
    let mut out = String::new();
    let h = &dump.header;
    let _ = writeln!(out, "black box: {} at {}µs", h.reason, h.t_us);

    // -- what crashed ---------------------------------------------------
    if let Some(mote) = h.mote {
        let mut line = format!("  mote {mote}");
        if let Some(at) = h.crash_us {
            let _ = write!(line, " crashed at {at}µs");
        }
        if let Some(kind) = h.kind {
            let _ = write!(line, " ({kind})");
        }
        if let Some(cause) = &h.cause {
            let _ = write!(line, ": {cause}");
        }
        let _ = writeln!(out, "{line}");
        if let (Some(l), Some(c)) = (h.line, h.col) {
            if l > 0 {
                let _ = writeln!(out, "{}", render_source_site(src, l, c));
            }
        }
    }
    let _ = writeln!(
        out,
        "  {} motes, {} shards, ring {}/{} records ({} dropped)",
        h.motes, h.shards, h.ring_records, h.ring_capacity, h.ring_dropped,
    );

    // -- ring occupancy per shard --------------------------------------
    if !dump.shards.is_empty() {
        let _ = writeln!(out, "\nrings:");
        for s in &dump.shards {
            match *s {
                BlackboxStat::Machine { boots, ring_len, ring_dropped, ring_recorded } => {
                    let _ = writeln!(
                        out,
                        "  machine: {ring_len} kept, {ring_dropped} dropped, \
                         {ring_recorded} recorded ({boots} boots)",
                    );
                }
                BlackboxStat::Shard {
                    shard,
                    motes,
                    lookahead_us,
                    ring_len,
                    ring_dropped,
                    ring_recorded,
                } => {
                    let _ = writeln!(
                        out,
                        "  shard {shard}: {motes} motes, lookahead {lookahead_us}µs, \
                         {ring_len} kept, {ring_dropped} dropped, {ring_recorded} recorded",
                    );
                }
                _ => {}
            }
        }
    }

    // -- scheduler windows ----------------------------------------------
    let windows = &dump.windows;
    if !windows.is_empty() {
        let shown = windows.len().min(last_windows);
        let _ = writeln!(out, "\nscheduler windows (last {shown} of {}):", windows.len());
        let tail = &windows[windows.len() - shown..];
        let peak = tail.iter().map(|(_, m)| m.events).max().unwrap_or(1).max(1);
        for (shard, m) in tail {
            let bar_len = (m.events as u128 * 24).div_ceil(peak as u128) as usize;
            let _ = writeln!(
                out,
                "  shard {shard} [{:>8} .. {:>8})µs {:>6} events  {}",
                m.start_us,
                m.end_us,
                m.events,
                "#".repeat(bar_len),
            );
        }
    }

    // -- per-mote health ------------------------------------------------
    if !dump.motes.is_empty() {
        let _ = writeln!(out, "\nmotes on the record:");
        for m in &dump.motes {
            if let BlackboxStat::Mote {
                mote,
                up,
                sent,
                received,
                dropped_in_flight,
                crashes,
                reboots,
            } = *m
            {
                let _ = writeln!(
                    out,
                    "  mote {mote:>4} {}  sent {sent} received {received} ({dropped_in_flight} \
                     in-flight drops, {crashes} crashes, {reboots} reboots)",
                    if up { "up  " } else { "DOWN" },
                );
            }
        }
    }

    // -- final reactions of the crashed mote ----------------------------
    let focus = dump.crashed_mote();
    if let Some(mote) = focus {
        let last: Vec<&FlightRecord> =
            dump.records.iter().filter(|r| r.mote as u64 == mote).collect();
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
fn describe_record(r: &FlightRecord, src: Option<&str>) -> String {
    match r.event {
        TraceEvent::ReactionStart { id, cause, .. } => {
            format!("reaction m{}.{} begins ({})", id.mote, id.seq, cause_label(&cause))
        }
        TraceEvent::ReactionEnd { tracks, emits, queue_peak, .. } => {
            format!("reaction ends: {tracks} tracks, {emits} emits, queue peak {queue_peak}")
        }
        TraceEvent::EmitInt { event, depth } => format!("emit #{} (depth {depth})", event.0),
        TraceEvent::Discarded { event } => {
            format!("event #{} discarded (no active gates)", event.0)
        }
        TraceEvent::BudgetExceeded { tracks, .. } => {
            format!("WATCHDOG: budget exceeded after {tracks} tracks")
        }
        TraceEvent::Terminated { .. } => "terminated".into(),
        TraceEvent::MoteRebooted { boots } => format!("rebooted (boot {boots})"),
        TraceEvent::MoteCrashed { kind, line, col } => {
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
        ev => ev.kind().to_string(),
    }
}

/// The crash site against the original source, caret included; empty
/// when no source is available or the span is out of range. A column
/// past the end of the line puts the caret just after it.
fn render_source_site(src: Option<&str>, line: u32, col: u32) -> String {
    let Some(src) = src else { return String::new() };
    let Some(text) = src.lines().nth(line as usize - 1) else { return String::new() };
    let text = text.trim_end();
    let col = (col.max(1) as usize - 1).min(text.chars().count());
    let caret = " ".repeat(col + 8 + line.to_string().len());
    format!("      {line} | {text}\n{caret}^")
}

/// The parent chain leading into the crashed mote's last reaction (or,
/// without a focus mote, the trace-wide critical path): who caused the
/// reaction that caused the reaction that crashed.
fn causal_context(records: &[FlightRecord], focus: Option<u64>) -> Vec<crate::Hop> {
    let Some(mote) = focus else { return crate::critical_path(records) };
    // anchor on the crashed mote's last ReactionStart and walk parents
    let mut starts = std::collections::HashMap::new();
    for r in records {
        if let TraceEvent::ReactionStart { id, cause, .. } = r.event {
            starts.insert(id, (r.t_us, cause));
        }
    }
    let mine = starts.keys().filter(|id| id.mote as u64 == mote);
    let Some(&anchor) = mine.max_by_key(|id| id.seq) else {
        return Vec::new();
    };
    let mut chain = Vec::new();
    let mut id = anchor;
    loop {
        let (t_us, cause) = starts[&id];
        let hop =
            crate::Hop { mote: id.mote as u64, seq: id.seq, t_us, cause: cause_label(&cause) };
        chain.push(hop);
        match cause.parent() {
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
    fn a_mistyped_record_is_refused_with_its_line_in_the_dump() {
        let bad = DUMP.replace(
            r#""seq":2,"ev":{"ev":"ReactionEnd""#,
            r#""seq":"2","ev":{"ev":"ReactionEnd""#,
        );
        let err = parse_blackbox(&bad).unwrap_err();
        assert!(err.starts_with("line 10: `seq` does not fit a u64"), "{err}");
    }

    #[test]
    fn source_attribution_points_at_the_line() {
        let src = "input void GO;\nawait GO;\n_boom();\n";
        let mut d = parse_blackbox(DUMP).unwrap();
        (d.header.line, d.header.col) = (Some(3), Some(1));
        let page = render_blackbox(&d, Some(src), 8);
        assert!(page.contains("3 | _boom();"), "{page}");
        assert!(page.contains('^'), "{page}");
    }
}
