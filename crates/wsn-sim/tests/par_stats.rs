//! `ceu-par-stats/v2` acceptance: schema stability, non-interference
//! with the deterministic parallel stepper, and the exact stall-
//! attribution identity — the three properties `ceu-trace par-report`
//! and the `soak` bin's `par_stats.jsonl` rely on.

use ceu::runtime::TraceEvent;
use wsn_sim::{write_par_stats_jsonl, Backend, MoteCtx, MoteId, Packet, Radio, Topology, World};

/// A mote that pings its peer every millisecond and traces one event per
/// callback, so runs produce both cross-window sends and a world trace.
struct Pinger {
    peer: MoteId,
}

impl Backend for Pinger {
    fn boot(&mut self, ctx: &mut MoteCtx) {
        ctx.vm_events.push(TraceEvent::Terminated { value: Some(-1) });
        ctx.set_timer_at(1_000);
    }
    fn deliver(&mut self, ctx: &mut MoteCtx, p: Packet) {
        ctx.vm_events.push(TraceEvent::Terminated { value: Some(p.value()) });
        ctx.leds.toggle(ctx.now, (p.value() % 3) as u8);
    }
    fn timer(&mut self, ctx: &mut MoteCtx) {
        ctx.vm_events.push(TraceEvent::Terminated { value: Some(ctx.now as i64) });
        ctx.send(self.peer, Packet::with_value(ctx.id, self.peer, ctx.now as i64));
        ctx.set_timer_at(ctx.now + 1_000);
        ctx.wants_cpu = true;
    }
    fn cpu(&mut self, _: &mut MoteCtx) {}
}

/// Lossy full-mesh medium: exercises the merge order and in-flight drops.
fn lossy_world() -> World {
    let mut w = World::new(Radio::new(Topology::Full, 700, 0.25, 9));
    w.enable_trace();
    for peer in [1, 2, 3, 0] {
        w.add_mote(Box::new(Pinger { peer }));
    }
    w.boot();
    w
}

#[test]
fn stats_collection_preserves_trace_bit_identity_across_thread_counts() {
    // reference: sequential fallback (threads=1) *with stats enabled*
    let mut base = lossy_world();
    base.enable_par_stats();
    base.run_until_parallel(40_000, 1);
    let stats = base.par_stats().expect("enabled");
    assert!(stats.fallback, "threads=1 falls back to the sequential stepper");
    assert!(stats.wall_ns > 0);
    let reference: Vec<String> = base.take_trace().iter().map(|e| e.to_json()).collect();
    assert!(!reference.is_empty());

    for threads in [2, 4] {
        let mut w = lossy_world();
        w.enable_par_stats();
        w.run_until_parallel(40_000, threads);
        let jsonl: Vec<String> = w.take_trace().iter().map(|e| e.to_json()).collect();
        assert_eq!(reference, jsonl, "threads={threads}: stats must not perturb the run");
        let stats = w.take_par_stats().expect("enabled");
        assert!(!stats.fallback);
        assert_eq!(stats.threads, threads as u32);
        assert!(stats.totals.windows > 0, "windows were recorded");
        assert_eq!(stats.totals.windows, stats.windows.len() as u64 + stats.dropped_windows);
        assert!(stats.totals.events > 0);
        assert!(stats.totals.cross_sends > 0, "pingers send across windows");
    }
}

#[test]
fn stall_attribution_sums_to_thread_time_per_window() {
    let mut w = lossy_world();
    w.enable_par_stats();
    w.run_until_parallel(40_000, 2);
    let stats = w.par_stats().expect("enabled");
    assert!(!stats.windows.is_empty());
    let mut agg = 0u64;
    for win in &stats.windows {
        let a = win.attribution();
        assert_eq!(
            a.total_ns(),
            win.threads as u64 * win.wall_ns(),
            "window {}: busy+imbalance+lookahead+barrier+merge must equal \
             threads x wall exactly",
            win.index
        );
        assert_eq!(win.threads, 2);
        assert_eq!(win.busy_ns.len(), win.workers as usize);
        assert_eq!(win.events_per_worker.len(), win.workers as usize);
        assert!(win.workers <= win.threads);
        assert_eq!(win.events, win.events_per_worker.iter().sum::<u64>());
        assert_eq!(win.motes, win.motes_per_worker.iter().sum::<u32>());
        assert!(win.start_us < win.end_us);
        agg += a.total_ns();
    }
    if stats.dropped_windows == 0 {
        // the run-level aggregate is the same identity, window-summed
        assert_eq!(agg, stats.totals.attribution.total_ns());
        assert_eq!(agg, 2 * stats.window_wall_ns());
    }
    // windows never account for more than the measured run wall-clock
    assert!(stats.window_wall_ns() <= stats.wall_ns);
    let u = stats.utilization();
    assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    assert!(stats.achievable_speedup() >= 1.0);
}

#[test]
fn jsonl_export_is_schema_stable_golden() {
    let mut w = lossy_world();
    w.enable_par_stats();
    w.run_until_parallel(20_000, 2);
    let stats = w.take_par_stats().expect("enabled");
    let mut buf = Vec::new();
    write_par_stats_jsonl(&stats, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let mut lines = text.lines();

    let run: serde_json::Value = serde_json::from_str(lines.next().expect("run line")).unwrap();
    assert_eq!(run["schema"].as_str(), Some("ceu-par-stats/v2"));
    assert_eq!(run["kind"].as_str(), Some("run"));
    // the golden key set: additions are fine, removals/renames are a
    // schema break and must bump /v2
    for key in [
        "threads",
        "lookahead_us",
        "motes",
        "shards",
        "fallback",
        "wall_ns",
        "window_wall_ns",
        "windows",
        "dropped_windows",
        "events",
        "motes_stepped",
        "cross_sends",
        "heap_pushes",
        "heap_pops",
        "busy_ns",
        "imbalance_ns",
        "lookahead_ns",
        "barrier_ns",
        "merge_ns",
        "critical_busy_ns",
        "drain_wall_ns",
        "par_wall_ns",
        "merge_wall_ns",
    ] {
        assert!(run.get(key).is_some(), "run line lost key {key}");
    }
    let mut windows = 0u64;
    let mut shards = 0u64;
    for line in lines {
        let rec: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(rec["schema"].as_str(), Some("ceu-par-stats/v2"));
        if rec["kind"].as_str() == Some("shard") {
            for key in
                ["shard", "motes", "windows", "events", "busy_ns", "cross_sends", "channel_wait_ns"]
            {
                assert!(rec.get(key).is_some(), "shard line lost key {key}");
            }
            assert_eq!(rec["shard"].as_u64(), Some(shards), "shard rows come in id order");
            shards += 1;
            continue;
        }
        let win = rec;
        assert_eq!(win["kind"].as_str(), Some("window"));
        for key in [
            "i",
            "t_wall_ns",
            "start_us",
            "end_us",
            "lookahead_us",
            "clipped",
            "threads",
            "workers",
            "motes",
            "events",
            "busy_ns",
            "events_per_worker",
            "motes_per_worker",
            "drain_ns",
            "par_ns",
            "merge_ns",
            "wall_ns",
            "heap_pushes",
            "heap_pops",
            "cross_sends",
            "sends",
            "shard_busy",
        ] {
            assert!(win.get(key).is_some(), "window line lost key {key}");
        }
        let wall = win["drain_ns"].as_u64().unwrap()
            + win["par_ns"].as_u64().unwrap()
            + win["merge_ns"].as_u64().unwrap();
        assert_eq!(win["wall_ns"].as_u64(), Some(wall));
        windows += 1;
    }
    assert_eq!(run["windows"].as_u64(), Some(windows));
    assert_eq!(run["shards"].as_u64(), Some(shards), "one shard line per shard");
    assert!(shards >= 2, "the 4-mote full mesh splits into multiple shards");
}
