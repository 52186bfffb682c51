//! Byte-exact pins of the runtime's JSON wire records, built from fixed
//! values: every `TraceEvent` and `Cause` variant, `Metrics` with a
//! non-empty histogram, `BlockProfile`, a flight record, and one
//! `ChromeTraceSink` begin/end/instant triple. Readers (`ceu-trace`,
//! Perfetto, scripts) depend on these exact keys, key order and number
//! formatting. Beside the pins, every record a reader decodes (trace
//! events, flight records, black-box headers and stat lines) must decode
//! back into the value that was written.

use ceu_ast::EventId;
use ceu_runtime::telemetry::{
    blackbox_dump, event_to_json, to_json, BlackboxHeader, BlackboxStat, ChromeTraceSink, TraceSink,
};
use ceu_runtime::{
    BlockProfile, Cause, CrashKind, FlightRecord, Metrics, ReactionId, TraceEvent, WindowMark,
};

fn start(cause: Cause) -> TraceEvent {
    TraceEvent::ReactionStart { id: ReactionId::new(2, 7), cause, now_us: 42, wall_ns: 1500 }
}

#[test]
fn every_cause_variant_keeps_its_bytes() {
    let pins = [
        (
            Cause::Boot,
            r#"{"ev":"ReactionStart","id":{"mote":2,"seq":7},"cause":{"type":"boot"},"now_us":42,"wall_ns":1500}"#,
        ),
        (
            Cause::event(EventId(3)),
            r#"{"ev":"ReactionStart","id":{"mote":2,"seq":7},"cause":{"type":"event","id":3},"now_us":42,"wall_ns":1500}"#,
        ),
        (
            Cause::Event { event: EventId(3), parent: Some(ReactionId::new(0, 9)) },
            r#"{"ev":"ReactionStart","id":{"mote":2,"seq":7},"cause":{"type":"event","id":3,"parent":{"mote":0,"seq":9}},"now_us":42,"wall_ns":1500}"#,
        ),
        (
            Cause::Timer(5000),
            r#"{"ev":"ReactionStart","id":{"mote":2,"seq":7},"cause":{"type":"timer","deadline_us":5000},"now_us":42,"wall_ns":1500}"#,
        ),
        (
            Cause::AsyncDone(4),
            r#"{"ev":"ReactionStart","id":{"mote":2,"seq":7},"cause":{"type":"async","id":4},"now_us":42,"wall_ns":1500}"#,
        ),
    ];
    for (cause, want) in pins {
        assert_eq!(event_to_json(&start(cause)), want);
    }
}

#[test]
fn every_trace_event_variant_keeps_its_bytes() {
    let pins = [
        (TraceEvent::Discarded { event: EventId(5) }, r#"{"ev":"Discarded","event":5}"#),
        (TraceEvent::TrackRun { block: 3, rank: 1 }, r#"{"ev":"TrackRun","block":3,"rank":1}"#),
        (TraceEvent::GateArmed { gate: 6 }, r#"{"ev":"GateArmed","gate":6}"#),
        (TraceEvent::GateFired { gate: 6 }, r#"{"ev":"GateFired","gate":6}"#),
        (
            TraceEvent::EmitInt { event: EventId(2), depth: 1 },
            r#"{"ev":"EmitInt","event":2,"depth":1}"#,
        ),
        (TraceEvent::AsyncSlice { async_id: 8 }, r#"{"ev":"AsyncSlice","async_id":8}"#),
        (
            TraceEvent::BudgetExceeded { tracks: 1000, wall_ns: 77 },
            r#"{"ev":"BudgetExceeded","tracks":1000,"wall_ns":77}"#,
        ),
        (
            TraceEvent::ReactionEnd {
                now_us: 42,
                wall_ns: 1900,
                tracks: 4,
                emits: 2,
                gates_fired: 1,
                gates_armed: 3,
                queue_peak: 2,
                emit_depth_max: 1,
            },
            r#"{"ev":"ReactionEnd","now_us":42,"wall_ns":1900,"tracks":4,"emits":2,"gates_fired":1,"gates_armed":3,"queue_peak":2,"emit_depth_max":1}"#,
        ),
        (TraceEvent::Terminated { value: Some(-7) }, r#"{"ev":"Terminated","value":-7}"#),
        (TraceEvent::Terminated { value: None }, r#"{"ev":"Terminated","value":null}"#),
        (
            TraceEvent::MoteCrashed { kind: CrashKind::Watchdog, line: 3, col: 5 },
            r#"{"ev":"MoteCrashed","kind":"watchdog","line":3,"col":5}"#,
        ),
        (TraceEvent::MoteRebooted { boots: 2 }, r#"{"ev":"MoteRebooted","boots":2}"#),
    ];
    for (event, want) in pins {
        assert_eq!(event_to_json(&event), want);
    }
}

#[test]
fn metrics_with_a_histogram_keep_their_bytes() {
    let mut m = Metrics { reactions: 3, reactions_by_cause: [1, 2, 0, 0], ..Metrics::default() };
    m.tracks_run = 9;
    m.emit_depth_hwm = 2;
    m.queue_peak = 4;
    for ns in [100, 250, 4000] {
        m.reaction_wall_ns.record(ns);
    }
    assert_eq!(
        m.to_json(),
        concat!(
            r#"{"reactions":3,"reactions_by_cause":[1,2,0,0],"tracks_run":9,"trail_spawns":0,"#,
            r#""trail_kills":0,"emits_int":0,"emits_ext":0,"emits_out":0,"timer_firings":0,"#,
            r#""discarded_events":0,"async_slices":0,"gates_armed":0,"gates_fired":0,"#,
            r#""emit_depth_hwm":2,"queue_peak":4,"watchdog_trips":0,"#,
            r#""reaction_wall_ns":{"count":3,"sum":4350,"min":100,"max":4000,"mean":1450.000,"p50":255,"p90":4000,"p99":4000},"#,
            r#""tracks_per_reaction":{"count":0,"sum":0,"min":0,"max":0,"mean":0.000,"p50":0,"p90":0,"p99":0}}"#
        )
    );
}

#[test]
fn block_profile_keeps_its_bytes() {
    let mut p = BlockProfile::new(4);
    p.record(1, 100);
    p.record(3, 900);
    p.record(3, 100);
    assert_eq!(
        p.to_json(),
        r#"{"blocks":[{"block":3,"count":2,"wall_ns":1000},{"block":1,"count":1,"wall_ns":100}]}"#
    );
    assert_eq!(BlockProfile::new(2).to_json(), r#"{"blocks":[]}"#);
}

#[test]
fn flight_record_keeps_the_world_trace_line() {
    let rec = FlightRecord {
        t_us: 7000,
        mote: 3,
        seq: 9,
        event: TraceEvent::MoteCrashed { kind: CrashKind::FaultInjected, line: 0, col: 0 },
    };
    assert_eq!(
        rec.to_json(),
        r#"{"t_us":7000,"mote":3,"seq":9,"ev":{"ev":"MoteCrashed","kind":"fault-injected","line":0,"col":0}}"#
    );
}

#[test]
fn chrome_sink_begin_end_instant_keep_their_bytes() {
    let mut sink = ChromeTraceSink::with_pid(Vec::new(), 4);
    sink.on_event(&start(Cause::Event { event: EventId(1), parent: Some(ReactionId::new(0, 3)) }));
    sink.on_event(&TraceEvent::EmitInt { event: EventId(2), depth: 1 });
    sink.on_event(&TraceEvent::ReactionEnd {
        now_us: 42,
        wall_ns: 2250,
        tracks: 4,
        emits: 1,
        gates_fired: 1,
        gates_armed: 1,
        queue_peak: 2,
        emit_depth_max: 1,
    });
    sink.finish();
    let text = String::from_utf8(std::mem::take(sink.writer_mut())).unwrap();
    assert_eq!(
        text,
        concat!(
            "[\n",
            r#"{"name":"reaction:event:1<m0.3","ph":"B","ts":1.500,"pid":4,"tid":1,"args":{"id":{"mote":2,"seq":7},"now_us":42,"cause":{"type":"event","id":1,"parent":{"mote":0,"seq":3}}}}"#,
            ",\n",
            r#"{"name":"emit","ph":"i","ts":1.500,"pid":4,"tid":1,"s":"t","args":{"event":2,"depth":1}}"#,
            ",\n",
            r#"{"name":"reaction:event:1<m0.3","ph":"E","ts":2.250,"pid":4,"tid":1,"args":{"tracks":4,"emits":1,"queue_peak":2}}"#,
            "\n]\n"
        )
    );
}

/// What a reader decodes from one written line.
fn decode<T: serde::Deserialize>(json: &str) -> T {
    let value = serde_json::from_str(json).expect("valid JSON");
    serde_json::from_value(value).unwrap_or_else(|e| panic!("{json}: {e}"))
}

fn every_event() -> Vec<TraceEvent> {
    let causes = [
        Cause::Boot,
        Cause::event(EventId(3)),
        Cause::Event { event: EventId(3), parent: Some(ReactionId::new(0, 9)) },
        Cause::Timer(5000),
        Cause::AsyncDone(4),
    ];
    let kinds = [CrashKind::RuntimeError, CrashKind::Watchdog, CrashKind::FaultInjected];
    let mut events: Vec<TraceEvent> = causes.into_iter().map(start).collect();
    events.extend(kinds.map(|kind| TraceEvent::MoteCrashed { kind, line: 3, col: 5 }));
    events.extend([
        TraceEvent::Discarded { event: EventId(5) },
        TraceEvent::TrackRun { block: 3, rank: 1 },
        TraceEvent::GateArmed { gate: 6 },
        TraceEvent::GateFired { gate: 6 },
        TraceEvent::EmitInt { event: EventId(2), depth: 1 },
        TraceEvent::AsyncSlice { async_id: 8 },
        TraceEvent::BudgetExceeded { tracks: 1000, wall_ns: 77 },
        TraceEvent::ReactionEnd {
            now_us: 42,
            wall_ns: 1900,
            tracks: 4,
            emits: 2,
            gates_fired: 1,
            gates_armed: 3,
            queue_peak: 2,
            emit_depth_max: 1,
        },
        TraceEvent::Terminated { value: Some(-7) },
        TraceEvent::Terminated { value: None },
        TraceEvent::MoteRebooted { boots: 2 },
    ]);
    events
}

#[test]
fn every_trace_event_decodes_to_itself() {
    for event in every_event() {
        assert_eq!(decode::<TraceEvent>(&event_to_json(&event)), event);
    }
}

#[test]
fn flight_records_decode_to_themselves() {
    for (i, event) in every_event().into_iter().enumerate() {
        let rec = FlightRecord { t_us: 7000 + i as u64, mote: i, seq: 9, event };
        assert_eq!(decode::<FlightRecord>(&rec.to_json()), rec);
    }
}

#[test]
fn blackbox_headers_and_stats_decode_to_themselves() {
    let stats = [
        BlackboxStat::Shard {
            shard: 1,
            motes: 2,
            lookahead_us: 1000,
            ring_len: 3,
            ring_dropped: 4,
            ring_recorded: 7,
        },
        BlackboxStat::Window {
            shard: 1,
            mark: WindowMark { start_us: 0, end_us: 1000, events: 5 },
        },
        BlackboxStat::Mote {
            mote: 3,
            up: false,
            sent: 4,
            received: 5,
            dropped_in_flight: 1,
            crashes: 2,
            reboots: 1,
        },
        BlackboxStat::Machine { boots: 2, ring_len: 3, ring_dropped: 0, ring_recorded: 3 },
    ];
    for stat in &stats {
        assert_eq!(&decode::<BlackboxStat>(&to_json(stat)), stat);
    }
    let world = BlackboxHeader {
        reason: "mote-crashed".into(),
        t_us: 5000,
        mote: Some(1),
        crash_us: Some(4000),
        kind: Some(CrashKind::RuntimeError),
        cause: Some("division by zero".into()),
        line: Some(2),
        col: Some(3),
        motes: 3,
        shards: 2,
        ring_capacity: 512,
        ring_records: 6,
        ring_dropped: 1,
    };
    let machine = BlackboxHeader {
        reason: "machine-crashed".into(),
        t_us: 10,
        mote: Some(0),
        motes: 1,
        ..BlackboxHeader::default()
    };
    for header in [world, machine] {
        // the header is the first line of a dump, behind its schema tag
        let dump = blackbox_dump(&header, &stats, &[]);
        assert_eq!(decode::<BlackboxHeader>(dump.lines().next().unwrap()), header);
    }
}
