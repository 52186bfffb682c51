//! Observability integration tests: the figure-1 reaction chains seen
//! through the span API, the Chrome/Perfetto exporter producing a
//! structurally valid trace for the same run, the event mask's contract,
//! and the JSON writers producing parseable output.

use ceu_ast::EventId;
use ceu_codegen::compile_source;
use ceu_runtime::telemetry::event_to_json;
use ceu_runtime::{
    Cause, ChromeTraceSink, CrashKind, Machine, Metrics, NullHost, ReactionId, SpanCollector,
    TraceEvent, TraceMask, TraceSink,
};

/// The paper's Figure 1 program (§2): boot splits one trail into three,
/// `A` awakes trails 1 and 3, a second `A` is discarded, `B` finishes.
const FIG1: &str = r#"
    input void A, B, C;
    par do
       await A;
    with
       await B;
    with
       await A;
       par do
          await B;
       with
          await B;
       end
    end
"#;

/// A figure-1 machine with its event channel on at `mask`.
fn fig1(mask: TraceMask) -> Machine {
    let mut m = Machine::new(compile_source(FIG1).unwrap());
    m.enable_events(mask);
    m
}

/// Drives the figure-1 input sequence — boot, A, A (discarded), B — and
/// returns everything the machine buffered.
fn drive_fig1(m: &mut Machine) -> Vec<TraceEvent> {
    let a = m.event_id("A").unwrap();
    let b = m.event_id("B").unwrap();
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    m.go_event(a, None, &mut h).unwrap();
    m.go_event(a, None, &mut h).unwrap();
    m.go_event(b, None, &mut h).unwrap();
    let mut events = Vec::new();
    m.drain_events_into(&mut events);
    events
}

fn feed<S: TraceSink>(events: &[TraceEvent], mut sink: S) -> S {
    events.iter().for_each(|e| sink.on_event(e));
    sink
}

#[test]
fn fig1_reaction_chains_through_the_span_api() {
    let sink = feed(&drive_fig1(&mut fig1(TraceMask::Full)), SpanCollector::new());
    let spans = sink.spans();
    assert_eq!(spans.len(), 4, "boot + A + discarded A + B");
    assert!(sink.orphans().is_empty(), "every event belongs to a chain");

    // golden structure, chain by chain (the figure's shape)
    let a = Machine::new(compile_source(FIG1).unwrap()).event_id("A").unwrap();
    let b = Machine::new(compile_source(FIG1).unwrap()).event_id("B").unwrap();
    assert_eq!(spans[0].cause, Cause::Boot);
    assert_eq!(spans[1].cause, Cause::event(a));
    assert_eq!(spans[2].cause, Cause::event(a));
    assert_eq!(spans[3].cause, Cause::event(b));

    // boot: the par arms one gate per awaiting trail, nothing fires yet
    assert!(spans[0].tracks >= 1);
    assert!(spans[0].gates_armed >= 3, "three trails await after boot");
    assert_eq!(spans[0].gates_fired, 0);

    // first A: trails 1 and 3 awake; trail 3 forks two awaiters of B
    assert_eq!(spans[1].gates_fired, 2);
    assert!(spans[1].gates_armed >= 2, "the inner par arms two B-gates");

    // second A: no one awaits A anymore — discarded, no tracks run
    assert_eq!(spans[2].tracks, 0);
    let discards: Vec<_> =
        spans[2].events.iter().filter(|e| matches!(e, TraceEvent::Discarded { .. })).collect();
    assert_eq!(discards.len(), 1);

    // B: everything left awakes and the program terminates
    assert!(spans[3].gates_fired >= 1);
    assert!(spans[3].events.iter().any(|e| matches!(e, TraceEvent::Terminated { .. })));

    // wall-clock accounting is monotone across chains
    for w in spans.windows(2) {
        assert!(w[1].wall_start_ns >= w[0].wall_start_ns + w[0].wall_dur_ns);
    }
}

#[test]
fn chrome_export_is_valid_json_with_matching_begin_end_pairs() {
    let events = drive_fig1(&mut fig1(TraceMask::Full));
    let mut sink = feed(&events, ChromeTraceSink::new(Vec::new()));
    sink.finish();

    let text = String::from_utf8(std::mem::take(sink.writer_mut())).unwrap();
    let doc = serde_json::from_str(&text).expect("exporter output must parse as JSON");
    let entries = doc.as_array().expect("a trace-event JSON array");
    assert!(!entries.is_empty());

    // duration events must nest: every B has its E, never negative depth
    let mut depth = 0i64;
    let (mut begins, mut ends, mut instants) = (0, 0, 0);
    let mut last_ts = 0.0f64;
    for e in entries {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("every entry has ph");
        let ts = e.get("ts").and_then(|v| v.as_f64()).expect("every entry has ts");
        assert!(ts >= last_ts, "timestamps are monotone ({ts} < {last_ts})");
        last_ts = ts;
        match ph {
            "B" => {
                depth += 1;
                begins += 1;
                let name = e.get("name").and_then(|v| v.as_str()).unwrap();
                assert!(name.starts_with("reaction:"), "span name is the cause: {name}");
            }
            "E" => {
                depth -= 1;
                ends += 1;
                assert!(depth >= 0, "E without a matching B");
            }
            "i" => instants += 1,
            other => panic!("unexpected phase {other}"),
        }
        assert!(e.get("pid").is_some() && e.get("tid").is_some());
    }
    assert_eq!(depth, 0, "unclosed span at end of trace");
    assert_eq!(begins, 4, "one B/E pair per reaction chain");
    assert_eq!(begins, ends);
    assert!(instants >= 1, "the discarded A shows up as an instant");
}

#[test]
fn metrics_agree_with_the_span_view() {
    let mut m = fig1(TraceMask::Full);
    m.enable_metrics();
    let sink = feed(&drive_fig1(&mut m), SpanCollector::new());
    let metrics = m.metrics().unwrap();
    let spans = sink.spans();
    assert_eq!(metrics.reactions, spans.len() as u64);
    assert_eq!(metrics.tracks_run, spans.iter().map(|s| s.tracks as u64).sum::<u64>());
    assert_eq!(metrics.discarded_events, 1);
    assert_eq!(metrics.reactions_by_cause[Cause::Boot.index()], 1);
    assert_eq!(metrics.reaction_wall_ns.count, 4);
}

/// The host-clock field of an event, if it has one.
fn wall_of(e: &TraceEvent) -> Option<u64> {
    match e {
        TraceEvent::ReactionStart { wall_ns, .. }
        | TraceEvent::ReactionEnd { wall_ns, .. }
        | TraceEvent::BudgetExceeded { wall_ns, .. } => Some(*wall_ns),
        _ => None,
    }
}

#[test]
fn the_mask_decides_granularity_and_wall_sampling() {
    // no metrics or profile: only the mask can ask for clocks
    let coarse = drive_fig1(&mut fig1(TraceMask::Coarse));
    assert!(coarse.iter().any(|e| matches!(e, TraceEvent::ReactionStart { .. })));
    for e in &coarse {
        assert!(e.is_coarse(), "Coarse buffers no per-track/gate event: {e:?}");
        assert_eq!(wall_of(e).unwrap_or(0), 0, "Coarse reads no host clock: {e:?}");
    }

    let full = drive_fig1(&mut fig1(TraceMask::Full));
    assert!(full.iter().any(|e| matches!(e, TraceEvent::TrackRun { .. })));
    let walls: Vec<u64> = full.iter().filter_map(wall_of).collect();
    assert_eq!(walls.len(), 8, "a start and an end stamp per chain");
    assert!(walls.windows(2).all(|w| w[0] <= w[1]), "wall_ns never decreases: {walls:?}");
    assert!(walls[7] > 0, "Full samples the host clock");
}

/// One sample of every [`TraceEvent`] variant — `ReactionStart` once per
/// [`Cause`] — chained through an exhaustive `match`: a new variant fails
/// to compile here until it names its successor.
fn every_variant() -> Vec<TraceEvent> {
    let parent = Some(ReactionId::new(1, 9));
    let causes = [
        Cause::event(EventId(3)),
        Cause::Event { event: EventId(3), parent },
        Cause::Timer(1_500),
        Cause::AsyncDone(2),
    ];
    let start = |seq, cause| TraceEvent::ReactionStart {
        id: ReactionId::new(0, seq),
        cause,
        now_us: 1_500,
        wall_ns: 2_000,
    };
    let mut out: Vec<TraceEvent> = (2..).zip(causes).map(|(seq, c)| start(seq, c)).collect();
    let mut next = Some(start(1, Cause::Boot));
    while let Some(e) = next {
        out.push(e);
        next = match e {
            TraceEvent::ReactionStart { .. } => Some(TraceEvent::Discarded { event: EventId(4) }),
            TraceEvent::Discarded { .. } => Some(TraceEvent::TrackRun { block: 9, rank: 3 }),
            TraceEvent::TrackRun { .. } => Some(TraceEvent::GateArmed { gate: 5 }),
            TraceEvent::GateArmed { .. } => Some(TraceEvent::GateFired { gate: 5 }),
            TraceEvent::GateFired { .. } => {
                Some(TraceEvent::EmitInt { event: EventId(1), depth: 2 })
            }
            TraceEvent::EmitInt { .. } => Some(TraceEvent::AsyncSlice { async_id: 0 }),
            TraceEvent::AsyncSlice { .. } => {
                Some(TraceEvent::BudgetExceeded { tracks: 4_096, wall_ns: 1_000_000 })
            }
            TraceEvent::BudgetExceeded { .. } => Some(TraceEvent::ReactionEnd {
                now_us: 1_500,
                wall_ns: 3_000,
                tracks: 12,
                emits: 2,
                gates_fired: 3,
                gates_armed: 4,
                queue_peak: 5,
                emit_depth_max: 1,
            }),
            TraceEvent::ReactionEnd { .. } => Some(TraceEvent::Terminated { value: Some(-7) }),
            TraceEvent::Terminated { value: Some(_) } => {
                Some(TraceEvent::Terminated { value: None })
            }
            TraceEvent::Terminated { value: None } => {
                Some(TraceEvent::MoteCrashed { kind: CrashKind::Watchdog, line: 3, col: 7 })
            }
            TraceEvent::MoteCrashed { .. } => Some(TraceEvent::MoteRebooted { boots: 1 }),
            TraceEvent::MoteRebooted { .. } => None,
        };
    }
    out
}

#[test]
fn every_event_serializes_to_parseable_json_with_its_kind() {
    let samples = every_variant();
    let kinds: std::collections::BTreeSet<&str> = samples.iter().map(|e| e.kind()).collect();
    assert_eq!(kinds.len(), 12, "every variant is sampled: {kinds:?}");
    for e in samples {
        let text = event_to_json(&e);
        let doc = serde_json::from_str(&text)
            .unwrap_or_else(|err| panic!("{}: bad JSON {text}: {err:?}", e.kind()));
        let ev = doc.get("ev").and_then(|v| v.as_str());
        assert_eq!(ev, Some(e.kind()), "the `ev` discriminant names the variant");
    }
}

#[test]
fn metrics_json_round_trips_through_the_parser() {
    let mut m = Metrics { reactions: 3, ..Default::default() };
    m.reaction_wall_ns.record(1_000);
    m.reaction_wall_ns.record(2_000);
    let doc = serde_json::from_str(&m.to_json()).expect("metrics JSON parses");
    assert_eq!(doc.get("reactions").and_then(|v| v.as_u64()), Some(3));
}
