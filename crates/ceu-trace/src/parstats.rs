//! `ceu-par-stats/v1|v2` analysis: renders the parallel-scheduler
//! introspection that `wsn_sim::write_par_stats_jsonl` writes and
//! `wsn_sim::parse_par_stats` reads back.
//!
//! The input is one `kind:"run"` header line, (v2) one `kind:"shard"`
//! summary line per shard, plus one `kind:"window"` line per recorded
//! window. [`par_report`] turns that into the terminal instrument panel
//! (utilization, exact stall attribution, per-worker and per-shard load
//! tables, shard-imbalance call-out, achievable-speedup bound) and
//! [`par_stats_perfetto_events`] turns it into Chrome-trace events — a
//! `scheduler` process with one track per worker thread, one track per
//! shard (v2), and the simulation thread's drain/merge track, with flow
//! arrows for the cross-window sends — that `to-perfetto --par-stats`
//! merges alongside the virtual-time mote tracks.
//!
//! v1 streams (no shard records, no `shard_busy`) parse unchanged; the
//! shard table and shard tracks simply stay empty.

use ceu::runtime::telemetry::{to_json, Args, ChromeEvent, Micros};
use std::fmt::Write as _;
use wsn_sim::{parse_par_stats, ParStats};

fn fmt_ns(ns: impl Into<u128>) -> String {
    let ns = ns.into();
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn bar(frac: f64, width: usize) -> String {
    let n = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = "#".repeat(n);
    s.push_str(&" ".repeat(width - n.min(width)));
    s
}

/// `par-report` — renders one run's instrument panel. The stall table is
/// in *thread-time*: capacity = `threads × wall_ns`, and the five
/// categories (busy + four stall causes) partition the windowed part of
/// it exactly; `coverage` says how much of the measured wall-clock the
/// windows account for (the rest is inter-window bookkeeping such as
/// fault barriers). When the detailed-window cap truncated collection,
/// the coverage line says so explicitly — run totals stay exact either
/// way, but the per-worker histogram only spans the retained windows.
pub fn render_par_run(run: &ParStats) -> String {
    let (t, a) = (&run.totals, &run.totals.attribution);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ceu-par-stats: {} motes, {} threads, {} shards, lookahead {}µs{}",
        run.motes,
        run.threads,
        run.shards,
        run.lookahead_us,
        if run.fallback { " (sequential fallback)" } else { "" },
    );
    let _ = writeln!(
        out,
        "run wall-clock {}; {} windows ({} dropped past cap), {} events, \
         {} cross-window sends, heap {}push/{}pop",
        fmt_ns(run.wall_ns),
        t.windows,
        run.dropped_windows,
        t.events,
        t.cross_sends,
        t.heap_pushes,
        t.heap_pops,
    );

    let capacity = run.capacity_ns();
    let attributed = a.total_ns();
    let pct = |ns: u64| if capacity == 0 { 0.0 } else { 100.0 * ns as f64 / capacity as f64 };
    let coverage = pct(attributed);

    let _ = writeln!(
        out,
        "\nstall attribution (thread-time capacity {} = {} threads x {}):",
        fmt_ns(capacity),
        run.threads,
        fmt_ns(run.wall_ns)
    );
    let rows = [
        ("busy (stepping motes)", a.busy_ns),
        ("imbalance-bound", a.imbalance_ns),
        ("lookahead-bound", a.lookahead_ns),
        ("barrier-bound", a.barrier_ns),
        ("merge-bound", a.merge_ns),
    ];
    for (label, ns) in rows {
        let p = pct(ns);
        let _ =
            writeln!(out, "  {label:<22} {:>10}  {p:>5.1}%  |{}|", fmt_ns(ns), bar(p / 100.0, 20));
    }
    let _ = writeln!(
        out,
        "  {:<22} {:>10}  {:>5.1}%  (inter-window bookkeeping)",
        "uncovered",
        fmt_ns(capacity.saturating_sub(attributed as u128)),
        100.0 - coverage,
    );
    let _ = write!(out, "coverage: {coverage:.1}% of measured wall-clock attributed");
    if run.dropped_windows > 0 {
        let _ = writeln!(
            out,
            " — detailed-window cap hit: {} of {} windows kept no per-window \
             detail (run totals stay exact; the tables below span only the {} \
             retained windows)",
            run.dropped_windows,
            t.windows,
            t.windows.saturating_sub(run.dropped_windows),
        );
    } else {
        out.push('\n');
    }

    let dominant = a.dominant_stall();
    if run.fallback || dominant.1 == 0 {
        let _ = writeln!(out, "dominant stall: none (no parallel windows recorded)");
    } else {
        let _ =
            writeln!(out, "dominant stall: {} ({:.1}% of capacity)", dominant.0, pct(dominant.1));
    }

    // per-shard load table + imbalance call-out (v2 streams)
    let shards = &run.per_shard;
    if let Some(heaviest) = shards.iter().max_by_key(|s| s.busy_ns) {
        let total_busy = shards.iter().fold(0u64, |sum, s| sum.saturating_add(s.busy_ns));
        let _ = writeln!(out, "\nper-shard load ({} shards):", shards.len());
        for s in shards {
            let share = if total_busy == 0 { 0.0 } else { s.busy_ns as f64 / total_busy as f64 };
            let _ = writeln!(
                out,
                "  s{:<3} |{}| {:>10} busy ({:>4.1}%), {} motes, {} windows, \
                 {} events, {} cross-sends, ch-wait {}",
                s.shard,
                bar(share, 20),
                fmt_ns(s.busy_ns),
                100.0 * share,
                s.motes,
                s.windows,
                s.events,
                s.cross_sends,
                fmt_ns(s.channel_wait_ns),
            );
        }
        let mean = total_busy as f64 / shards.len() as f64;
        let ratio = if mean == 0.0 { 1.0 } else { heaviest.busy_ns as f64 / mean };
        let _ = writeln!(
            out,
            "shard imbalance: max/mean busy {ratio:.2}x (shard {} heaviest){}",
            heaviest.shard,
            if ratio > 1.5 {
                " — skewed partition; consider more target shards or a different topology split"
            } else {
                ""
            },
        );
    }

    // per-worker load histogram, aggregated over the detailed windows
    let windows = &run.windows;
    let max_workers = windows.iter().map(|w| w.busy_ns.len()).max().unwrap_or(0);
    if max_workers > 0 {
        let mut busy = vec![0u64; max_workers];
        let mut events = vec![0u64; max_workers];
        for w in windows {
            for (i, b) in w.busy_ns.iter().enumerate() {
                busy[i] = busy[i].saturating_add(*b);
            }
            for (i, e) in w.events_per_worker.iter().enumerate().take(max_workers) {
                events[i] = events[i].saturating_add(*e);
            }
        }
        let total_busy = busy.iter().fold(0u64, |sum, b| sum.saturating_add(*b));
        let _ = writeln!(out, "\nper-worker load ({} detailed windows):", windows.len());
        for (i, (b, e)) in busy.iter().zip(&events).enumerate() {
            let share = if total_busy == 0 { 0.0 } else { *b as f64 / total_busy as f64 };
            let _ = writeln!(
                out,
                "  w{i}  |{}| {:>10} busy ({:.1}%), {e} events",
                bar(share, 20),
                fmt_ns(*b),
                100.0 * share,
            );
        }
    }

    let _ = writeln!(out, "\nutilization: {:.1}%", 100.0 * run.utilization());
    let _ = writeln!(
        out,
        "achievable speedup (work/critical-path, this window structure): {:.2}x",
        run.achievable_speedup(),
    );
    out
}

/// `par-report` over a whole `ceu-par-stats/v1|v2` stream (every run).
pub fn par_report(text: &str) -> Result<String, String> {
    let runs = parse_par_stats(text)?;
    Ok(runs.iter().map(render_par_run).collect::<Vec<_>>().join("\n"))
}

/// Synthetic pid for the scheduler process in the merged Perfetto view
/// (mote pids are small integers; this stays clear of them).
const SCHED_PID: u64 = 9_000;

/// Worker tracks are tids `1..=N`; shard tracks start here (a shard's tid
/// is `SHARD_TID_BASE + shard`), well clear of any plausible worker count.
const SHARD_TID_BASE: u64 = 100;

/// Chrome-trace events for the scheduler timeline: tid 0 is the
/// simulation thread (drain + merge slices per window), tids 1..=N are
/// the worker threads (busy + stall slices per window), tids 100+ are one
/// track per shard (v2 streams — each slice is that shard's busy span in
/// a window, serialized after any shard the same worker stepped first),
/// and `s`/`f` flow arrows connect a window's merge to the later window
/// where its sampled cross-window sends land. Timestamps are host
/// wall-clock µs since the run started (the mote tracks are virtual-time
/// — Perfetto shows both; the scheduler process is the wall-clock view).
pub fn par_stats_perfetto_events(text: &str) -> Result<Vec<String>, String> {
    let runs = parse_par_stats(text)?;
    let mut out: Vec<String> = Vec::new();
    let meta = |tid: u64, kind: &str, name: &str| {
        to_json(&ChromeEvent {
            ph: "M",
            pid: SCHED_PID,
            tid,
            name: Some(kind),
            args: Some(Args { name: Some(name), ..Args::default() }),
            ..ChromeEvent::default()
        })
    };
    out.push(meta(0, "process_name", "parallel scheduler"));
    out.push(meta(0, "thread_name", "sim thread (drain+merge)"));
    let mut named_workers = 0usize;
    let mut named_shards = std::collections::BTreeSet::new();
    let mut flow_id = 500_000u64; // clear of the reaction-flow ids
    for run in &runs {
        for w in &run.windows {
            for tid in named_workers..w.busy_ns.len() {
                out.push(meta(tid as u64 + 1, "thread_name", &format!("worker {tid}")));
            }
            named_workers = named_workers.max(w.busy_ns.len());
            for &(shard, ..) in &w.shard_busy {
                if named_shards.insert(shard) {
                    let tid = SHARD_TID_BASE + shard as u64;
                    out.push(meta(tid, "thread_name", &format!("shard {shard}")));
                }
            }
            let drain_end = w.t_wall_ns.saturating_add(w.drain_ns);
            let par_end = drain_end.saturating_add(w.par_ns);
            let slice = |tid: u64, ts: u64, dur: u64, name: &str, cat: &str, args: Option<Args>| {
                to_json(&ChromeEvent {
                    ph: "X",
                    pid: SCHED_PID,
                    tid,
                    ts: Micros::HostNs(ts),
                    dur: Some(Micros::HostNs(dur)),
                    name: Some(name),
                    cat: Some(cat),
                    args,
                    ..ChromeEvent::default()
                })
            };
            let span = format!("{}..{}", w.start_us, w.end_us);
            let args = Args { events: Some(w.events), span_us: Some(&span), ..Args::default() };
            out.push(slice(
                0,
                w.t_wall_ns,
                w.drain_ns,
                &format!("drain w{}", w.index),
                "sched",
                Some(args),
            ));
            let args = Args { cross_sends: Some(w.cross_sends), ..Args::default() };
            out.push(slice(
                0,
                par_end,
                w.merge_ns,
                &format!("merge w{}", w.index),
                "sched",
                Some(args),
            ));
            let window = format!("window w{} [{}..{})µs", w.index, w.start_us, w.end_us);
            for (i, &busy) in w.busy_ns.iter().enumerate() {
                let tid = i as u64 + 1;
                let events = w.events_per_worker.get(i).copied().unwrap_or(0);
                let args = Args { events: Some(events), ..Args::default() };
                out.push(slice(tid, drain_end, busy, &window, "sched", Some(args)));
                let stall = w.par_ns.saturating_sub(busy);
                if stall > 0 {
                    out.push(slice(
                        tid,
                        drain_end.saturating_add(busy),
                        stall,
                        "stall",
                        "sched-stall",
                        None,
                    ));
                }
            }
            // shard tracks: a worker steps its shards back-to-back, so
            // offset each shard slice by what the same worker ran first
            let mut worker_off: std::collections::HashMap<u32, u64> =
                std::collections::HashMap::new();
            for &(shard, worker, busy, events) in &w.shard_busy {
                let off = worker_off.entry(worker).or_insert(0);
                let args = Args { events: Some(events), worker: Some(worker), ..Args::default() };
                let name = format!("shard {shard} w{}", w.index);
                let tid = SHARD_TID_BASE + shard as u64;
                out.push(slice(
                    tid,
                    drain_end.saturating_add(*off),
                    busy,
                    &name,
                    "sched-shard",
                    Some(args),
                ));
                *off = off.saturating_add(busy);
            }
            // flow arrows: this window's merge routes each sampled send;
            // it lands in the first later window whose virtual span can
            // contain the arrival (emit + lookahead at the earliest)
            for &(at_us, from, to) in &w.send_sample {
                let arrival_floor = at_us.saturating_add(run.lookahead_us);
                let Some(target) = run
                    .windows
                    .iter()
                    .find(|t| t.t_wall_ns > w.t_wall_ns && t.end_us > arrival_floor)
                else {
                    continue;
                };
                flow_id += 1;
                let name = format!("send m{from}->m{to}");
                let flow = |ph, bp, ts| ChromeEvent {
                    ph,
                    bp,
                    pid: SCHED_PID,
                    tid: 0,
                    ts: Micros::HostNs(ts),
                    id: Some(flow_id),
                    name: Some(&name),
                    cat: Some("sched-flow"),
                    ..ChromeEvent::default()
                };
                out.push(to_json(&flow("s", None, par_end)));
                out.push(to_json(&flow("f", Some("e"), target.t_wall_ns)));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    const STATS: &str = r#"
{"schema":"ceu-par-stats/v2","kind":"run","threads":2,"lookahead_us":700,"motes":4,"shards":2,"fallback":false,"wall_ns":10000,"window_wall_ns":9000,"windows":2,"dropped_windows":0,"events":30,"motes_stepped":8,"cross_sends":6,"heap_pushes":40,"heap_pops":38,"busy_ns":6000,"imbalance_ns":1000,"lookahead_ns":2000,"barrier_ns":4000,"merge_ns":5000,"critical_busy_ns":4000,"drain_wall_ns":1000,"par_wall_ns":6500,"merge_wall_ns":1500}
{"schema":"ceu-par-stats/v2","kind":"shard","shard":0,"motes":2,"windows":2,"events":20,"busy_ns":4000,"cross_sends":4,"channel_wait_ns":300}
{"schema":"ceu-par-stats/v2","kind":"shard","shard":1,"motes":2,"windows":2,"events":10,"busy_ns":2000,"cross_sends":2,"channel_wait_ns":100}
{"schema":"ceu-par-stats/v2","kind":"window","i":0,"t_wall_ns":0,"start_us":1000,"end_us":1700,"lookahead_us":700,"clipped":false,"threads":2,"workers":2,"motes":4,"events":16,"busy_ns":[2000,1500],"events_per_worker":[9,7],"motes_per_worker":[2,2],"drain_ns":500,"par_ns":3000,"merge_ns":800,"wall_ns":4300,"heap_pushes":20,"heap_pops":19,"cross_sends":3,"sends":[{"at_us":1200,"from":0,"to":1}],"shard_busy":[{"shard":0,"worker":0,"busy_ns":2000,"events":9},{"shard":1,"worker":1,"busy_ns":1500,"events":7}]}
{"schema":"ceu-par-stats/v2","kind":"window","i":1,"t_wall_ns":4500,"start_us":1700,"end_us":2400,"lookahead_us":700,"clipped":false,"threads":2,"workers":2,"motes":4,"events":14,"busy_ns":[1400,1100],"events_per_worker":[8,6],"motes_per_worker":[2,2],"drain_ns":400,"par_ns":3200,"merge_ns":700,"wall_ns":4300,"heap_pushes":20,"heap_pops":19,"cross_sends":3,"sends":[],"shard_busy":[{"shard":0,"worker":0,"busy_ns":1400,"events":8},{"shard":1,"worker":1,"busy_ns":1100,"events":6}]}
"#;

    const STATS_V1: &str = r#"
{"schema":"ceu-par-stats/v1","kind":"run","threads":2,"lookahead_us":700,"motes":4,"fallback":false,"wall_ns":10000,"window_wall_ns":9000,"windows":2,"dropped_windows":0,"events":30,"motes_stepped":8,"cross_sends":6,"heap_pushes":40,"heap_pops":38,"busy_ns":6000,"imbalance_ns":1000,"lookahead_ns":2000,"barrier_ns":4000,"merge_ns":5000,"critical_busy_ns":4000,"drain_wall_ns":1000,"par_wall_ns":6500,"merge_wall_ns":1500}
{"schema":"ceu-par-stats/v1","kind":"window","i":0,"t_wall_ns":0,"start_us":1000,"end_us":1700,"lookahead_us":700,"clipped":false,"threads":2,"workers":2,"motes":4,"events":16,"busy_ns":[2000,1500],"events_per_worker":[9,7],"motes_per_worker":[2,2],"drain_ns":500,"par_ns":3000,"merge_ns":800,"wall_ns":4300,"heap_pushes":20,"heap_pops":19,"cross_sends":3,"sends":[{"at_us":1200,"from":0,"to":1}]}
"#;

    #[test]
    fn parses_runs_shards_and_windows() {
        let runs = parse_par_stats(STATS).unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        let (shards, windows) = (&run.per_shard, &run.windows);
        assert_eq!(run.threads, 2);
        assert_eq!(run.shards, 2);
        assert!(!run.fallback);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].busy_ns, 4000);
        assert_eq!(shards[1].channel_wait_ns, 100);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].busy_ns, vec![2000, 1500]);
        assert_eq!(windows[0].send_sample, vec![(1200, 0, 1)]);
        assert_eq!(windows[0].shard_busy, vec![(0, 0, 2000, 9), (1, 1, 1500, 7)]);
    }

    #[test]
    fn v1_streams_still_parse_without_shard_records() {
        let runs = parse_par_stats(STATS_V1).unwrap();
        let run = &runs[0];
        let (shards, windows) = (&run.per_shard, &run.windows);
        assert_eq!(run.threads, 2);
        assert_eq!(run.shards, 0);
        assert!(shards.is_empty());
        assert_eq!(windows.len(), 1);
        assert!(windows[0].shard_busy.is_empty());
        // and the report renders without a shard table
        let report = par_report(STATS_V1).unwrap();
        assert!(!report.contains("per-shard load"), "{report}");
        assert!(report.contains("dominant stall:"), "{report}");
    }

    #[test]
    fn report_names_the_dominant_stall_and_coverage() {
        let report = par_report(STATS).unwrap();
        assert!(report.contains("utilization: 30.0%"), "{report}");
        assert!(report.contains("dominant stall: merge-bound"), "{report}");
        // attributed 18000 of 20000 capacity
        assert!(report.contains("coverage: 90.0%"), "{report}");
        assert!(report.contains("per-worker load"), "{report}");
        assert!(report.contains("w0"), "{report}");
        assert!(report.contains("achievable speedup"), "{report}");
    }

    #[test]
    fn report_renders_the_shard_table_and_imbalance() {
        let report = par_report(STATS).unwrap();
        assert!(report.contains("per-shard load (2 shards):"), "{report}");
        assert!(report.contains("s0"), "{report}");
        assert!(report.contains("s1"), "{report}");
        // shard 0 busy 4000 of mean 3000 => 1.33x, under the call-out bar
        assert!(
            report.contains("shard imbalance: max/mean busy 1.33x (shard 0 heaviest)"),
            "{report}"
        );
        assert!(!report.contains("skewed partition"), "{report}");
    }

    #[test]
    fn skewed_shards_get_the_imbalance_call_out() {
        let skewed = STATS.replace(
            r#""shard":0,"motes":2,"windows":2,"events":20,"busy_ns":4000"#,
            r#""shard":0,"motes":2,"windows":2,"events":20,"busy_ns":40000"#,
        );
        let report = par_report(&skewed).unwrap();
        assert!(report.contains("skewed partition"), "{report}");
    }

    #[test]
    fn truncated_collection_is_called_out_on_the_coverage_line() {
        let truncated = STATS
            .replace(r#""dropped_windows":0"#, r#""dropped_windows":7"#)
            .replace(r#""windows":2,"#, r#""windows":9,"#);
        let report = par_report(&truncated).unwrap();
        assert!(
            report.contains(
                "coverage: 90.0% of measured wall-clock attributed — detailed-window \
                 cap hit: 7 of 9 windows kept no per-window detail"
            ),
            "{report}"
        );
        // the untruncated report must NOT carry the notice
        let clean = par_report(STATS).unwrap();
        assert!(!clean.contains("detailed-window cap hit"), "{clean}");
    }

    #[test]
    fn fallback_run_still_reports_utilization_fields() {
        let text = r#"{"schema":"ceu-par-stats/v2","kind":"run","threads":1,"lookahead_us":0,"motes":1,"shards":1,"fallback":true,"wall_ns":5000,"window_wall_ns":0,"windows":0,"dropped_windows":0,"events":0,"motes_stepped":0,"cross_sends":0,"heap_pushes":0,"heap_pops":0,"busy_ns":0,"imbalance_ns":0,"lookahead_ns":0,"barrier_ns":0,"merge_ns":0,"critical_busy_ns":0,"drain_wall_ns":0,"par_wall_ns":0,"merge_wall_ns":0}"#;
        let report = par_report(text).unwrap();
        assert!(report.contains("sequential fallback"), "{report}");
        assert!(report.contains("utilization:"), "{report}");
        assert!(report.contains("dominant stall: none"), "{report}");
    }

    #[test]
    fn perfetto_events_have_worker_shard_tracks_and_flows() {
        let events = par_stats_perfetto_events(STATS).unwrap();
        let all = format!("[{}]", events.join(","));
        let doc: Value = serde_json::from_str(&all).expect("valid JSON");
        let arr = doc.as_array().unwrap();
        let names: Vec<&str> =
            arr.iter().filter_map(|e| e.get("name").and_then(|n| n.as_str())).collect();
        assert!(names.contains(&"drain w0"), "{names:?}");
        assert!(names.contains(&"merge w1"), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("window w0")), "{names:?}");
        assert!(names.contains(&"stall"), "{names:?}");
        assert!(names.contains(&"shard 0 w0"), "{names:?}");
        assert!(names.contains(&"shard 1 w1"), "{names:?}");
        let thread_names: Vec<&str> = arr
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(thread_names.contains(&"worker 1"), "{thread_names:?}");
        assert!(thread_names.contains(&"shard 0"), "{thread_names:?}");
        assert!(thread_names.contains(&"shard 1"), "{thread_names:?}");
        assert!(thread_names.contains(&"sim thread (drain+merge)"), "{thread_names:?}");
        // shard tracks sit clear of worker tids
        let shard_tids: Vec<u64> = arr
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("sched-shard"))
            .filter_map(|e| e.get("tid").and_then(|t| t.as_u64()))
            .collect();
        assert!(shard_tids.iter().all(|&t| t >= SHARD_TID_BASE), "{shard_tids:?}");
        // the sampled send becomes an s/f flow pair landing on window 1
        let s = arr.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s")).count();
        let f = arr.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f")).count();
        assert_eq!(s, 1);
        assert_eq!(f, 1);
    }

    #[test]
    fn rejects_foreign_schemas() {
        assert!(parse_par_stats(r#"{"schema":"ceu-world/v1"}"#).is_err());
        assert!(parse_par_stats(r#"{"schema":"ceu-par-stats/v3"}"#).is_err());
        assert!(parse_par_stats("").is_err());
        // a window with no preceding run header is malformed
        let orphan = r#"{"schema":"ceu-par-stats/v2","kind":"window","i":0}"#;
        assert!(parse_par_stats(orphan).is_err());
        // so is an orphan shard summary
        let orphan_shard = r#"{"schema":"ceu-par-stats/v2","kind":"shard","shard":0}"#;
        assert!(parse_par_stats(orphan_shard).is_err());
    }
}
