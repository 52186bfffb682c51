//! Executable semantics of the paper, §2: every numbered behaviour the text
//! describes is pinned down here against the real pipeline
//! (parse → resolve → compile → run).

use ceu_codegen::compile_source;
use ceu_runtime::*;

fn machine(src: &str) -> Machine {
    Machine::new(compile_source(src).unwrap_or_else(|e| panic!("compile: {e}")))
}

/// Everything the machine buffered since the last drain.
fn drained(m: &mut Machine) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    m.drain_events_into(&mut events);
    events
}

/// Drives asyncs (and their emitted input) until quiescent.
fn run_asyncs(m: &mut Machine, host: &mut dyn Host) {
    let mut guard = 0;
    while !m.status().is_terminated() && m.go_async(host).unwrap() {
        guard += 1;
        assert!(guard < 1_000_000, "async did not converge");
    }
}

#[test]
fn intro_example_counts_and_restarts() {
    let src = r#"
        input int Restart;
        internal void changed;
        int v = 0;
        par do
           loop do
              await 1s;
              v = v + 1;
              emit changed;
           end
        with
           loop do
              v = await Restart;
              emit changed;
           end
        with
           loop do
              await changed;
              _printf("v = %d\n", v);
           end
        end
    "#;
    let mut m = machine(src);
    let mut h = RecordingHost::new();
    m.go_init(&mut h).unwrap();
    m.go_time(1_000_000, &mut h).unwrap();
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(1)));
    m.go_time(2_000_000, &mut h).unwrap();
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(2)));
    let restart = m.event_id("Restart").unwrap();
    m.go_event(restart, Some(Value::Int(40)), &mut h).unwrap();
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(40)));
    // every change was notified to the printer trail
    assert_eq!(h.call_names(), vec!["printf", "printf", "printf"]);
    // the timer keeps its own cadence
    m.go_time(3_000_000, &mut h).unwrap();
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(41)));
}

#[test]
fn dataflow_chain_follows_stack_policy() {
    // §2.2: two emits in sequence both propagate within one reaction
    let src = r#"
        input void Go;
        int v1, v2, v3;
        internal void v1_evt, v2_evt, v3_evt;
        par do
           loop do
              await v1_evt;
              v2 = v1 + 1;
              emit v2_evt;
           end
        with
           loop do
              await v2_evt;
              v3 = v2 * 2;
              emit v3_evt;
           end
        with
           await Go;
           v1 = 10;
           emit v1_evt;
           _checkpoint(v1, v2, v3);
           v1 = 15;
           emit v1_evt;
           await forever;
        end
    "#;
    let mut m = machine(src);
    let mut h = RecordingHost::new();
    m.go_init(&mut h).unwrap();
    let go = m.event_id("Go").unwrap();
    m.go_event(go, None, &mut h).unwrap();
    // after the first emit (checkpoint): v1=10 → v2=11 → v3=22,
    // all within the same reaction, before the emitter resumed
    assert_eq!(
        h.calls[0],
        ("checkpoint".to_string(), vec![Value::Int(10), Value::Int(11), Value::Int(22)])
    );
    // after the second emit: 15 → 16 → 32
    assert_eq!(m.read_var("v2#1"), Some(&Value::Int(16)));
    assert_eq!(m.read_var("v3#2"), Some(&Value::Int(32)));
}

#[test]
fn mutual_dependency_does_not_cycle() {
    // §2.2 temperature example: no runtime cycles thanks to the stack
    let src = r#"
        input int SetC;
        int tc, tf;
        internal void tc_evt, tf_evt;
        par do
           loop do
              await tc_evt;
              tf = 9 * tc / 5 + 32;
              emit tf_evt;
           end
        with
           loop do
              await tf_evt;
              tc = 5 * (tf-32) / 9;
              emit tc_evt;
           end
        with
           loop do
              tc = await SetC;
              emit tc_evt;
           end
        end
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    let set = m.event_id("SetC").unwrap();
    m.go_event(set, Some(Value::Int(0)), &mut h).unwrap();
    assert_eq!(m.read_var("tf#1"), Some(&Value::Int(32)));
    m.go_event(set, Some(Value::Int(100)), &mut h).unwrap();
    assert_eq!(m.read_var("tf#1"), Some(&Value::Int(212)));
}

#[test]
fn residual_delta_propagates() {
    // §2.3: a late 15ms poll fires the 10ms timer with delta=5ms; the
    // following 1ms await has already expired and fires immediately
    let src = "int v;\nawait 10ms;\nv = 1;\nawait 1ms;\nv = 2;";
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    let st = m.go_time(15_000, &mut h).unwrap();
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(2)));
    assert_eq!(st, Status::Terminated(None));
}

#[test]
fn sequential_timers_beat_single_longer_timer() {
    // §2.3/§2.6: 50ms+49ms terminates before 100ms
    let src = r#"
        int v;
        par/or do
            await 50ms;
            await 49ms;
            v = 1;
        with
            await 100ms;
            v = 2;
        end
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    m.go_time(200_000, &mut h).unwrap();
    // the first trail finishes at 99ms and kills the second
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(1)));
}

#[test]
fn equal_deadlines_share_one_reaction() {
    let src = r#"
        int a, b;
        par/and do
            await 10ms;
            a = 1;
        with
            await 10ms;
            b = 1;
        end
    "#;
    let mut m = machine(src);
    m.enable_events(TraceMask::Full);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    m.go_time(10_000, &mut h).unwrap();
    assert_eq!(m.read_var("a#0"), Some(&Value::Int(1)));
    assert_eq!(m.read_var("b#1"), Some(&Value::Int(1)));
    let reactions = drained(&mut m)
        .iter()
        .filter(|e| matches!(e, TraceEvent::ReactionStart { cause: Cause::Timer(_), .. }))
        .count();
    assert_eq!(reactions, 1, "simultaneous deadlines must share a reaction");
}

#[test]
fn par_and_waits_for_all() {
    let src = r#"
        input void A, B;
        int done;
        par/and do
           await A;
        with
           await B;
        end
        done = 1;
        await forever;
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    let a = m.event_id("A").unwrap();
    let b = m.event_id("B").unwrap();
    m.go_event(a, None, &mut h).unwrap();
    assert_eq!(m.read_var("done#0"), Some(&Value::Int(0)));
    m.go_event(b, None, &mut h).unwrap();
    assert_eq!(m.read_var("done#0"), Some(&Value::Int(1)));
}

#[test]
fn par_or_kills_siblings() {
    let src = r#"
        input void A, B;
        int which;
        par/or do
           await A;
           which = 1;
        with
           await B;
           which = 2;
        end
        await B;
        which = 3;
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    let a = m.event_id("A").unwrap();
    let b = m.event_id("B").unwrap();
    m.go_event(a, None, &mut h).unwrap();
    assert_eq!(m.read_var("which#0"), Some(&Value::Int(1)));
    // the B-arm is dead; the *new* await B after the par/or is armed
    let st = m.go_event(b, None, &mut h).unwrap();
    assert_eq!(m.read_var("which#0"), Some(&Value::Int(3)));
    assert_eq!(st, Status::Terminated(None));
}

#[test]
fn double_termination_rejoins_once() {
    // both arms terminate in the same reaction; the continuation must
    // run exactly once, after both arms executed (§2.1)
    let src = r#"
        input void E;
        par/or do
           await E;
           _first();
        with
           await E;
           _second();
        end
        _after();
        await forever;
    "#;
    let mut m = machine(src);
    let mut h = RecordingHost::new();
    m.go_init(&mut h).unwrap();
    let e = m.event_id("E").unwrap();
    m.go_event(e, None, &mut h).unwrap();
    assert_eq!(h.call_names(), vec!["first", "second", "after"]);
}

#[test]
fn rejoin_runs_after_all_normal_trails() {
    // the priority scheme: a sibling awakened by the same event runs
    // before the par/or continuation even if the terminating arm was
    // spawned first (glitch avoidance)
    let src = r#"
        input void E;
        par do
           par/or do
              await E;
              _term();
           with
              await forever;
           end
           _after();
           await forever;
        with
           loop do
              await E;
              _sibling();
           end
        end
    "#;
    let mut m = machine(src);
    let mut h = RecordingHost::new();
    m.go_init(&mut h).unwrap();
    let e = m.event_id("E").unwrap();
    m.go_event(e, None, &mut h).unwrap();
    assert_eq!(h.call_names(), vec!["term", "sibling", "after"]);
}

#[test]
fn value_par_returns_winner() {
    let src = r#"
        input void Key;
        internal void collision;
        int v;
        par/or do
            v = par do
                    await Key;
                    return 1;
                with
                    await collision;
                    return 0;
                end;
        with
            await forever;
        end
        await forever;
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    let key = m.event_id("Key").unwrap();
    m.go_event(key, None, &mut h).unwrap();
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(1)));
}

#[test]
fn top_level_return_terminates_with_value() {
    let src = "return 41 + 1;";
    let mut m = machine(src);
    let st = m.go_init(&mut NullHost).unwrap();
    assert_eq!(st, Status::Terminated(Some(42)));
}

#[test]
fn discarded_events_do_not_buffer() {
    // §2: an event with no awaiting trails is discarded, not buffered
    let src = r#"
        input void A, B;
        int v;
        await B;
        await A;
        v = 1;
    "#;
    let mut m = machine(src);
    m.enable_events(TraceMask::Full);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    let a = m.event_id("A").unwrap();
    let b = m.event_id("B").unwrap();
    m.go_event(a, None, &mut h).unwrap(); // nobody awaits A yet
    assert!(drained(&mut m).iter().any(|e| matches!(e, TraceEvent::Discarded { .. })));
    m.go_event(b, None, &mut h).unwrap();
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(0)), "A was not buffered");
    m.go_event(a, None, &mut h).unwrap();
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(1)));
}

#[test]
fn program_terminates_when_no_trails_await() {
    let src = "input void A;\nint v;\nawait A;\nv = 1;";
    let mut m = machine(src);
    let mut h = NullHost;
    assert_eq!(m.go_init(&mut h).unwrap(), Status::Running);
    let a = m.event_id("A").unwrap();
    assert_eq!(m.go_event(a, None, &mut h).unwrap(), Status::Terminated(None));
    // further calls are no-ops
    assert_eq!(m.go_event(a, None, &mut h).unwrap(), Status::Terminated(None));
}

#[test]
fn async_sum_arithmetic_progression() {
    // §2.7 example (sum 1..100, no watchdog timeout reached)
    let src = r#"
        int ret;
        par/or do
           ret = async do
              int sum = 0;
              int i = 1;
              loop do
                 sum = sum + i;
                 if i == 100 then
                    break;
                 else
                    i = i + 1;
                 end
              end
              return sum;
           end;
        with
           await 10ms;
           ret = 0;
        end
        return ret;
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    run_asyncs(&mut m, &mut h);
    assert_eq!(m.status(), Status::Terminated(Some(5050)));
}

#[test]
fn watchdog_aborts_slow_async() {
    let src = r#"
        int ret;
        par/or do
           ret = async do
              int i = 0;
              loop do
                 i = i + 1;
              end
              return i;
           end;
        with
           await 10ms;
           ret = 7;
        end
        return ret;
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    // run a few async slices, then the deadline hits
    for _ in 0..10 {
        m.go_async(&mut h).unwrap();
    }
    let st = m.go_time(10_000, &mut h).unwrap();
    assert_eq!(st, Status::Terminated(Some(7)));
    // the async was aborted with the watchdog
    assert!(!m.has_runnable_async());
}

#[test]
fn simulation_example_runs_entirely_inside_the_language() {
    // §2.8, verbatim: the original code is pasted into a simulation
    // template; the async drives Start and the passage of 1h35min
    let src = r#"
        input int Start;
        par/or do
           int v = await Start;
           par/or do
              loop do
                 await 10min;
                 v = v + 1;
              end
           with
              await 1h35min;
              _assert(v == 19);
           end
        with
           async do
              emit Start = 10;
              emit 1h35min;
           end
           _assert(0);
        end
    "#;
    let mut m = machine(src);
    let mut h = RecordingHost::new();
    m.go_init(&mut h).unwrap();
    run_asyncs(&mut m, &mut h);
    assert!(m.status().is_terminated());
    // assert(v==19) ran with a truthy argument; assert(0) never ran
    assert_eq!(h.calls.len(), 1);
    assert_eq!(h.calls[0], ("assert".to_string(), vec![Value::Int(1)]));
}

#[test]
fn break_kills_parallel_siblings_in_loop() {
    let src = r#"
        input void A, B;
        int v;
        loop do
           par do
              await B;
              break;
           with
              loop do
                 await A;
                 v = v + 1;
              end
           end
        end
        await A;
        v = 100;
        await forever;
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    let a = m.event_id("A").unwrap();
    let b = m.event_id("B").unwrap();
    m.go_event(a, None, &mut h).unwrap();
    m.go_event(a, None, &mut h).unwrap();
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(2)));
    m.go_event(b, None, &mut h).unwrap(); // break: kills the counting trail
    m.go_event(a, None, &mut h).unwrap(); // … now handled after the loop
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(100)));
}

#[test]
fn loop_restarts_trails_each_iteration() {
    // the watchdog archetype from §2.1
    let src = r#"
        input void E;
        int tries;
        loop do
           par/or do
              await E;
              tries = tries + 1;
           with
              await 100ms;
           end
        end
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    let e = m.event_id("E").unwrap();
    m.go_event(e, None, &mut h).unwrap();
    m.go_event(e, None, &mut h).unwrap();
    m.go_time(250_000, &mut h).unwrap(); // two watchdog restarts
    m.go_event(e, None, &mut h).unwrap();
    assert_eq!(m.read_var("tries#0"), Some(&Value::Int(3)));
    assert_eq!(m.status(), Status::Running);
}

#[test]
fn arrays_and_pointers_work() {
    let src = r#"
        input void E;
        int[4] keys;
        int idx;
        int* p;
        keys[0] = 7;
        idx = 1;
        keys[idx] = keys[0] + 1;
        p = &keys[1];
        *p = *p + 10;
        keys[2] = *p;
        await E;
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    assert_eq!(m.data()[0], Value::Int(7));
    assert_eq!(m.data()[1], Value::Int(18));
    assert_eq!(m.data()[2], Value::Int(18));
}

#[test]
fn array_index_out_of_bounds_is_an_error() {
    let src = "int[2] a;\nint i;\ni = 100000;\na[i] = 1;\nawait 1s;";
    let mut m = machine(src);
    let err = m.go_init(&mut NullHost).unwrap_err();
    assert!(err.message.contains("out of bounds"), "{err}");
}

#[test]
fn division_by_zero_is_an_error() {
    let src = "int a, b;\nb = 0;\na = 1 / b;\nawait 1s;";
    let mut m = machine(src);
    let err = m.go_init(&mut NullHost).unwrap_err();
    assert!(err.message.contains("division by zero"), "{err}");
}

#[test]
fn emit_with_no_listeners_is_discarded() {
    let src = r#"
        internal void nobody;
        int v;
        emit nobody;
        v = 1;
        await 1s;
    "#;
    let mut m = machine(src);
    m.go_init(&mut NullHost).unwrap();
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(1)));
}

#[test]
fn emitter_killed_by_nested_reaction_stops() {
    // arm 1 emits; arm 2 reacts by terminating the par/or, killing
    // arm 1 — the emitter must not run its continuation
    let src = r#"
        input void Go;
        internal void e;
        par/or do
           await Go;
           emit e;
           _never();
           await forever;
        with
           await e;
        end
        _after();
        await forever;
    "#;
    let mut m = machine(src);
    let mut h = RecordingHost::new();
    m.go_init(&mut h).unwrap();
    let go = m.event_id("Go").unwrap();
    m.go_event(go, None, &mut h).unwrap();
    assert_eq!(h.call_names(), vec!["after"]);
}

#[test]
fn c_globals_and_calls_flow_through_host() {
    let src = r#"
        input void E;
        int v;
        v = _TOS_NODE_ID + _abs(0 - 4);
        await E;
    "#;
    let mut m = machine(src);
    let mut h = RecordingHost::new().with_global("TOS_NODE_ID", 2).with_return("abs", 4);
    m.go_init(&mut h).unwrap();
    assert_eq!(m.read_var("v#0"), Some(&Value::Int(6)));
    assert_eq!(h.calls[0].1, vec![Value::Int(-4)]);
}

#[test]
fn await_expr_times_out_dynamically() {
    // the ship game's `await(dt*1000)`
    let src = r#"
        int dt, steps;
        dt = 500;
        loop do
           await (dt * 1000);
           steps = steps + 1;
        end
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    m.go_time(2_000_000, &mut h).unwrap(); // 2s / 500ms = 4 steps
    assert_eq!(m.read_var("steps#1"), Some(&Value::Int(4)));
}

#[test]
fn multiple_asyncs_round_robin() {
    let src = r#"
        int a, b;
        par/and do
           a = async do
              int i = 0;
              loop do
                 if i == 10 then break; end
                 i = i + 1;
              end
              return i;
           end;
        with
           b = async do
              int j = 0;
              loop do
                 if j == 5 then break; end
                 j = j + 1;
              end
              return j;
           end;
        end
        return a + b;
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    run_asyncs(&mut m, &mut h);
    assert_eq!(m.status(), Status::Terminated(Some(15)));
}

#[test]
fn figure1_reaction_chains() {
    // Figure 1: boot splits into three trails; A awakes trails 1 and 3;
    // a second A is discarded; B awakes trail 2 and spawns trail 4,
    // then the program terminates (C never gets a reaction)
    let src = r#"
        input void A, B;
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
    let mut m = machine(src);
    m.enable_events(TraceMask::Full);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    let a = m.event_id("A").unwrap();
    let b = m.event_id("B").unwrap();
    assert_eq!(m.go_event(a, None, &mut h).unwrap(), Status::Running);
    assert_eq!(m.go_event(a, None, &mut h).unwrap(), Status::Running); // discarded
    assert_eq!(m.go_event(b, None, &mut h).unwrap(), Status::Terminated(None));
    let events = drained(&mut m);
    let discards = events.iter().filter(|e| matches!(e, TraceEvent::Discarded { .. })).count();
    assert_eq!(discards, 1);
}

/// Runs `drive` over `src` on a bare machine and on a traced one (full
/// event buffer plus metrics), checks that both end with the same status,
/// data and host calls, and returns the traced machine's metrics and the
/// arguments of its `_log` calls, in call order.
fn bare_and_traced(
    src: &str,
    drive: impl Fn(&mut Machine, &mut RecordingHost),
) -> (Metrics, Vec<i64>) {
    let prog = std::sync::Arc::new(compile_source(src).unwrap_or_else(|e| panic!("compile: {e}")));
    let run = |traced: bool| {
        let mut m = Machine::from_arc(prog.clone());
        if traced {
            m.enable_metrics();
            m.enable_events(TraceMask::Full);
        }
        let mut h = RecordingHost::new();
        drive(&mut m, &mut h);
        (m, h)
    };
    let (bare, bare_host) = run(false);
    let (mut traced, traced_host) = run(true);
    assert_eq!(bare.status(), traced.status(), "status");
    assert_eq!(bare.data(), traced.data(), "data");
    assert_eq!(bare_host.calls, traced_host.calls, "host calls");
    let log = traced_host
        .calls
        .iter()
        .filter(|(name, _)| name == "log")
        .map(|(_, args)| args[0].as_int().unwrap())
        .collect();
    (traced.take_metrics().unwrap(), log)
}

/// Boots, then sends `Go` `n` times; the metrics count the `Go`
/// reactions only.
fn go_times(n: usize) -> impl Fn(&mut Machine, &mut RecordingHost) {
    move |m, h| {
        m.go_init(h).unwrap();
        m.take_metrics();
        let go = m.event_id("Go").unwrap();
        for _ in 0..n {
            m.go_event(go, None, h).unwrap();
        }
    }
}

#[test]
fn emit_with_a_track_still_queued_runs_the_nested_reaction_first() {
    // `Go` wakes two trails; the first emits while the second is still
    // queued on the same level, so the nested reaction must run (and the
    // emitter resume) before the second trail does
    let src = r#"
        input void Go;
        internal void e;
        par do
           loop do
              await Go;
              _log(1);
              emit e;
              _log(11);
           end
        with
           loop do
              await Go;
              _log(2);
           end
        with
           loop do
              await e;
              _log(3);
           end
        end
    "#;
    let (metrics, log) = bare_and_traced(src, go_times(2));
    assert_eq!(log, [1, 3, 11, 2, 1, 3, 11, 2]);
    // each Go spawns 2 + 1
    assert_eq!(metrics.trail_spawns, 2 * 3);
    assert_eq!(metrics.queue_peak, 2);
    assert_eq!(metrics.emit_depth_hwm, 1);
}

#[test]
fn emit_with_two_roots_runs_both_before_the_emitter_resumes() {
    let src = r#"
        input void Go;
        internal void e;
        par do
           loop do
              await Go;
              _log(1);
              emit e;
              _log(11);
           end
        with
           loop do
              await e;
              _log(2);
           end
        with
           loop do
              await e;
              _log(3);
           end
        end
    "#;
    let (metrics, log) = bare_and_traced(src, go_times(2));
    assert_eq!(log, [1, 2, 3, 11, 1, 2, 3, 11]);
    assert_eq!(metrics.trail_spawns, 2 * 3);
    assert_eq!(metrics.queue_peak, 2);
    assert_eq!(metrics.emit_depth_hwm, 1);
}

#[test]
fn lone_root_killing_the_emitters_region_stops_the_emitter() {
    // the one trail awaiting `e` ends the par/or, which kills the emitter
    let src = r#"
        input void Go;
        internal void e;
        par/or do
           await Go;
           _log(1);
           emit e;
           _log(11);
           await forever;
        with
           await e;
           _log(2);
        end
        _log(3);
        await Go;
        _log(4);
    "#;
    let (metrics, log) = bare_and_traced(src, go_times(2));
    assert_eq!(log, [1, 2, 3, 4]);
    // the emitter, the lone root and the par/or's rejoin; then `await Go`
    assert_eq!(metrics.trail_spawns, 3 + 1);
    assert_eq!(metrics.queue_peak, 1);
    assert_eq!(metrics.emit_depth_hwm, 1);
}

#[test]
fn lone_root_terminating_the_program_stops_the_emitter() {
    let src = r#"
        input void Go;
        internal void e;
        par do
           await Go;
           _log(1);
           emit e;
           _log(11);
           await forever;
        with
           await e;
           _log(2);
           return 7;
        end
    "#;
    let drive = |m: &mut Machine, h: &mut RecordingHost| {
        go_times(1)(m, h);
        assert_eq!(m.status(), Status::Terminated(Some(7)));
    };
    let (metrics, log) = bare_and_traced(src, drive);
    assert_eq!(log, [1, 2]);
    assert_eq!(metrics.trail_spawns, 2);
    assert_eq!(metrics.queue_peak, 1);
    assert_eq!(metrics.emit_depth_hwm, 1);
}

#[test]
fn a_64_deep_chain_of_nested_emits_runs_to_the_end() {
    // `Go` emits e0; the trail awaiting e(k) emits e(k+1), up to e63
    const DEPTH: usize = 64;
    let events: Vec<String> = (0..DEPTH).map(|k| format!("e{k}")).collect();
    let mut src = format!("input void Go;\ninternal void {};\nint n;\npar do\n", events.join(", "));
    src.push_str("   loop do\n      await Go;\n      emit e0;\n      _log(0);\n   end\n");
    for k in 0..DEPTH {
        let next = if k + 1 < DEPTH { format!("emit e{};", k + 1) } else { "_log(64);".into() };
        src.push_str(&format!(
            "with\n   loop do\n      await e{k};\n      n = n + 1;\n      {next}\n   end\n"
        ));
    }
    src.push_str("end\n");
    let (metrics, log) = bare_and_traced(&src, go_times(3));
    assert_eq!(log, [64, 0, 64, 0, 64, 0], "the innermost trail runs before the emitters resume");
    assert_eq!(metrics.trail_spawns as usize, 3 * (DEPTH + 1));
    assert_eq!(metrics.queue_peak, 1);
    assert_eq!(metrics.emit_depth_hwm, DEPTH as u32);
}

#[test]
fn a_paused_timer_has_no_next_deadline() {
    // `go_time` skips a timer inside a paused `suspend`, so
    // `next_deadline` must too — and report the shifted deadline once the
    // region resumes
    let src = r#"
        input int Pause;
        suspend Pause do
           await 100ms;
        end
        await forever;
    "#;
    let mut m = machine(src);
    let mut h = NullHost;
    m.go_init(&mut h).unwrap();
    assert_eq!(m.next_deadline(), Some(100_000));
    let pause = m.event_id("Pause").unwrap();
    m.go_time(40_000, &mut h).unwrap();
    m.go_event(pause, Some(Value::Int(1)), &mut h).unwrap();
    assert_eq!(m.next_deadline(), None, "paused");
    m.go_time(240_000, &mut h).unwrap();
    m.go_event(pause, Some(Value::Int(0)), &mut h).unwrap();
    assert_eq!(m.next_deadline(), Some(300_000), "shifted by the 200 ms pause");
}
