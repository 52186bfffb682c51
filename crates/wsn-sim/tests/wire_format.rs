//! Byte-exact pins of the simulator's JSON wire records, built from fixed
//! values: a world-trace run, `World::metrics_json`, a world
//! `ceu-blackbox/v1` dump, and one `run`, `shard` and `window` line of
//! `ceu-par-stats/v2`. `ceu-trace` and the CI scripts read these keys,
//! in this order, with this number formatting.

use wsn_sim::parstats::DEFAULT_WINDOW_CAP;
use wsn_sim::{
    write_par_stats_jsonl, write_trace_jsonl, CeuMote, FaultPlan, ParShardStats, ParStats,
    ParWindowStats, Radio, World,
};

/// Two idle motes; a fault plan takes mote 1 down at 1.5 ms.
fn crashed_world() -> World {
    let prog = ceu::Compiler::new().compile("input void Never;\nawait Never;\n").unwrap();
    let mut w = World::new(Radio::ideal(1_000));
    w.enable_trace();
    for id in 0..2 {
        let mut mote = CeuMote::new(prog.clone(), id);
        mote.enable_trace();
        w.add_mote(Box::new(mote));
    }
    w.enable_flight_recorder(4);
    w.boot();
    w.set_fault_plan(&FaultPlan::parse("at 1500 crash 1").unwrap()).unwrap();
    w.run_until(2_500);
    w
}

#[test]
fn world_trace_lines_keep_their_bytes() {
    let mut w = crashed_world();
    let mut buf = Vec::new();
    write_trace_jsonl(&w.take_trace(), &mut buf).unwrap();
    assert_eq!(
        String::from_utf8(buf).unwrap(),
        concat!(
            r#"{"t_us":0,"mote":0,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":0,"seq":1},"cause":{"type":"boot"},"now_us":0,"wall_ns":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":0,"seq":2,"ev":{"ev":"TrackRun","block":0,"rank":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":0,"seq":3,"ev":{"ev":"GateArmed","gate":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":0,"seq":4,"ev":{"ev":"ReactionEnd","now_us":0,"wall_ns":0,"tracks":1,"emits":0,"gates_fired":0,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":1,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":1,"seq":1},"cause":{"type":"boot"},"now_us":0,"wall_ns":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":1,"seq":2,"ev":{"ev":"TrackRun","block":0,"rank":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":1,"seq":3,"ev":{"ev":"GateArmed","gate":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":1,"seq":4,"ev":{"ev":"ReactionEnd","now_us":0,"wall_ns":0,"tracks":1,"emits":0,"gates_fired":0,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}"#,
            "\n",
            r#"{"t_us":1500,"mote":1,"seq":5,"ev":{"ev":"MoteCrashed","kind":"fault-injected","line":0,"col":0}}"#,
            "\n"
        )
    );
}

#[test]
fn world_metrics_keep_their_bytes() {
    assert_eq!(
        crashed_world().metrics_json(),
        r#"{"now_us":2500,"delivered":0,"lost":0,"cpu_slices":0,"dropped_in_flight":0,"crashes":1,"reboots":0,"radio":{"attempts":0,"delivered":0,"dropped_link":0,"dropped_loss":0,"dropped_partition":0,"dropped_burst":0,"dropped_in_flight":0},"motes":[{"mote":0,"up":true,"sent":0,"received":0,"lost":0,"dropped_in_flight":0,"timer_firings":0,"cpu_slices":0,"crashes":0,"reboots":0},{"mote":1,"up":false,"sent":0,"received":0,"lost":0,"dropped_in_flight":0,"timer_firings":0,"cpu_slices":0,"crashes":1,"reboots":0}]}"#
    );
}

#[test]
fn world_blackbox_dump_keeps_its_bytes() {
    assert_eq!(
        crashed_world().blackbox_json("mote-crashed", Some(1)),
        concat!(
            r#"{"schema":"ceu-blackbox/v1","reason":"mote-crashed","t_us":2500,"mote":1,"crash_us":1500,"kind":"fault-injected","cause":"fault plan took the mote down","line":0,"col":0,"motes":2,"shards":2,"ring_capacity":8,"ring_records":5,"ring_dropped":0}"#,
            "\n",
            r#"{"blackbox":"shard","shard":0,"motes":1,"lookahead_us":1000,"ring_len":2,"ring_dropped":0,"ring_recorded":2}"#,
            "\n",
            r#"{"blackbox":"shard","shard":1,"motes":1,"lookahead_us":1000,"ring_len":3,"ring_dropped":0,"ring_recorded":3}"#,
            "\n",
            r#"{"blackbox":"mote","mote":0,"up":true,"sent":0,"received":0,"dropped_in_flight":0,"crashes":0,"reboots":0}"#,
            "\n",
            r#"{"blackbox":"mote","mote":1,"up":false,"sent":0,"received":0,"dropped_in_flight":0,"crashes":1,"reboots":0}"#,
            "\n",
            r#"{"t_us":0,"mote":0,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":0,"seq":1},"cause":{"type":"boot"},"now_us":0,"wall_ns":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":0,"seq":4,"ev":{"ev":"ReactionEnd","now_us":0,"wall_ns":0,"tracks":1,"emits":0,"gates_fired":0,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":1,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":1,"seq":1},"cause":{"type":"boot"},"now_us":0,"wall_ns":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":1,"seq":4,"ev":{"ev":"ReactionEnd","now_us":0,"wall_ns":0,"tracks":1,"emits":0,"gates_fired":0,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}"#,
            "\n",
            r#"{"t_us":1500,"mote":1,"seq":5,"ev":{"ev":"MoteCrashed","kind":"fault-injected","line":0,"col":0}}"#,
            "\n"
        )
    );
}

/// A run of two shards and one window, every number distinct.
fn fixed_par_stats() -> ParStats {
    let mut s = ParStats::new(DEFAULT_WINDOW_CAP);
    s.threads = 4;
    s.lookahead_us = 700;
    s.motes = 3;
    s.shards = 2;
    s.wall_ns = 5_000;
    s.windows.push(ParWindowStats {
        index: 3,
        t_wall_ns: 10_000,
        start_us: 2_000,
        end_us: 2_700,
        lookahead_us: 700,
        clipped: true,
        threads: 4,
        workers: 2,
        motes: 3,
        events: 9,
        busy_ns: vec![900, 400],
        events_per_worker: vec![6, 3],
        motes_per_worker: vec![2, 1],
        drain_ns: 150,
        par_ns: 1_200,
        merge_ns: 250,
        heap_pushes: 4,
        heap_pops: 11,
        cross_sends: 3,
        send_sample: vec![(2_100, 0, 1), (2_200, 2, 0)],
        shard_busy: vec![(0, 0, 900, 6), (1, 1, 400, 3)],
    });
    s.dropped_windows = 1;
    s.totals.windows = 2;
    s.totals.events = 17;
    s.totals.motes_stepped = 5;
    s.totals.cross_sends = 6;
    s.totals.heap_pushes = 8;
    s.totals.heap_pops = 19;
    s.totals.drain_ns = 300;
    s.totals.par_ns = 2_400;
    s.totals.merge_ns = 500;
    s.totals.critical_busy_ns = 1_800;
    s.totals.attribution.busy_ns = 2_600;
    s.totals.attribution.imbalance_ns = 1_000;
    s.totals.attribution.lookahead_ns = 3_600;
    s.totals.attribution.barrier_ns = 2_400;
    s.totals.attribution.merge_ns = 3_200;
    s.per_shard.push(ParShardStats {
        shard: 0,
        motes: 2,
        windows: 2,
        events: 12,
        busy_ns: 1_800,
        cross_sends: 4,
        channel_wait_ns: 60,
    });
    s.per_shard.push(ParShardStats {
        shard: 1,
        motes: 1,
        windows: 1,
        events: 5,
        busy_ns: 800,
        cross_sends: 2,
        channel_wait_ns: 40,
    });
    s
}

#[test]
fn par_stats_lines_keep_their_bytes() {
    let mut buf = Vec::new();
    write_par_stats_jsonl(&fixed_par_stats(), &mut buf).unwrap();
    assert_eq!(
        String::from_utf8(buf).unwrap(),
        concat!(
            r#"{"schema":"ceu-par-stats/v2","kind":"run","threads":4,"lookahead_us":700,"motes":3,"shards":2,"fallback":false,"wall_ns":5000,"window_wall_ns":3200,"windows":2,"dropped_windows":1,"events":17,"motes_stepped":5,"cross_sends":6,"heap_pushes":8,"heap_pops":19,"busy_ns":2600,"imbalance_ns":1000,"lookahead_ns":3600,"barrier_ns":2400,"merge_ns":3200,"critical_busy_ns":1800,"drain_wall_ns":300,"par_wall_ns":2400,"merge_wall_ns":500}"#,
            "\n",
            r#"{"schema":"ceu-par-stats/v2","kind":"shard","shard":0,"motes":2,"windows":2,"events":12,"busy_ns":1800,"cross_sends":4,"channel_wait_ns":60}"#,
            "\n",
            r#"{"schema":"ceu-par-stats/v2","kind":"shard","shard":1,"motes":1,"windows":1,"events":5,"busy_ns":800,"cross_sends":2,"channel_wait_ns":40}"#,
            "\n",
            r#"{"schema":"ceu-par-stats/v2","kind":"window","i":3,"t_wall_ns":10000,"start_us":2000,"end_us":2700,"lookahead_us":700,"clipped":true,"threads":4,"workers":2,"motes":3,"events":9,"busy_ns":[900,400],"events_per_worker":[6,3],"motes_per_worker":[2,1],"drain_ns":150,"par_ns":1200,"merge_ns":250,"wall_ns":1600,"heap_pushes":4,"heap_pops":11,"cross_sends":3,"sends":[{"at_us":2100,"from":0,"to":1},{"at_us":2200,"from":2,"to":0}],"shard_busy":[{"shard":0,"worker":0,"busy_ns":900,"events":6},{"shard":1,"worker":1,"busy_ns":400,"events":3}]}"#,
            "\n"
        )
    );
}
