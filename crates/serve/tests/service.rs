//! End-to-end supervision tests for the session service: healthy
//! completion, deterministic fuel eviction, runtime/panic quarantine with
//! zero cross-session propagation, shed-on-overload, restart backoff, and
//! graceful drain.

use ceu::Value;
use ceu_serve::{
    AdmitError, EvictCause, RebootPolicy, RestartError, SendError, ServeConfig, SessionService,
    SessionState,
};
use std::sync::Once;
use std::time::Duration;

/// Sums `Go` payloads until ≥ 12, then returns the total.
const HEALTHY: &str = "input int Go;
    int total = 0;
    loop do
        int t = await Go;
        total = total + t;
        if total >= 12 then break; end
    end
    return total;";

/// Counts five 10 ms periods, then returns the count.
const TIMER: &str = "int n = 0;
    loop do
        await 10ms;
        n = n + 1;
        if n >= 5 then break; end
    end
    return n;";

/// Divides by the `Go` payload — payload 0 is the poison pill.
const POISON: &str = "input int Go;
    int acc = 0;
    loop do
        int v = await Go;
        acc = acc + 100 / v;
    end";

/// Statically unbounded: spins forever at boot. Only admissible through
/// the unchecked compiler; fuel is the backstop.
const RUNAWAY_BOOT: &str = "int x = 0; loop do x = x + 1; end";

/// Spins forever on the first `Go` — fuel evicts mid-session.
const RUNAWAY_EVENT: &str = "input int Go;
    await Go;
    int x = 0;
    loop do x = x + 1; end";

/// Calls the chaos-hook host function, which panics.
const PANICKER: &str = "input int Go; await Go; _chaos_panic(); return 0;";

const SETTLE: Duration = Duration::from_secs(10);

/// The chaos tests intentionally panic inside caught reactions; silence
/// the default hook's backtrace spam for those payloads only.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info.payload().downcast_ref::<String>().cloned().unwrap_or_else(|| {
                info.payload().downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default()
            });
            if !msg.contains("injected host fault") {
                prev(info);
            }
        }));
    });
}

fn drive_to_completion(svc: &SessionService, id: ceu_serve::SessionId, src_kind: &str) {
    match src_kind {
        "event" => {
            for _ in 0..4 {
                // Retry shed sends — backpressure, not failure.
                loop {
                    match svc.send_event(id, "Go", Some(Value::Int(3))) {
                        Ok(()) => break,
                        Err(SendError::Shed { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected send error: {e:?}"),
                    }
                }
            }
        }
        "timer" => {
            for _ in 0..6 {
                loop {
                    match svc.advance_time(id, 10_000) {
                        Ok(()) => break,
                        Err(SendError::Shed { .. }) => std::thread::yield_now(),
                        Err(SendError::Terminated) => return,
                        Err(e) => panic!("unexpected send error: {e:?}"),
                    }
                }
            }
        }
        other => panic!("unknown kind {other}"),
    }
}

#[test]
fn healthy_sessions_complete_with_expected_values() {
    let svc = SessionService::start(ServeConfig::default());
    let ev = svc.open_session(HEALTHY).unwrap();
    let tm = svc.open_session(TIMER).unwrap();
    drive_to_completion(&svc, ev, "event");
    drive_to_completion(&svc, tm, "timer");
    assert!(svc.settle(ev, SETTLE) && svc.settle(tm, SETTLE));
    assert_eq!(svc.status(ev).unwrap().state, SessionState::Terminated(Some(12)));
    assert_eq!(svc.status(tm).unwrap().state, SessionState::Terminated(Some(5)));
    let report = svc.drain(SETTLE);
    assert!(report.clean);
    assert_eq!(report.stats.completed, 2);
    assert_eq!(report.stats.crashes(), 0);
    assert_eq!(report.stats.worker_deaths, 0);
}

#[test]
fn compile_errors_are_rejected_at_admission() {
    let svc = SessionService::start(ServeConfig::default());
    let e1 = svc.open_session("await Missing;").unwrap_err();
    let e2 = svc.open_session("await Missing;").unwrap_err();
    match (e1, e2) {
        (
            AdmitError::CompileError { cached: false, .. },
            AdmitError::CompileError { cached: true, .. },
        ) => {}
        other => panic!("expected negative-cached rejection, got {other:?}"),
    }
    // A statically unbounded program is rejected by the checked pipeline…
    assert!(matches!(svc.open_session(RUNAWAY_BOOT), Err(AdmitError::CompileError { .. })));
    // …and admitted by the unchecked one (fuel will contain it).
    assert!(svc.open_session_unchecked(RUNAWAY_BOOT).is_ok());
}

#[test]
fn deeply_nested_sources_are_rejected_at_admission() {
    // compiled in-process: a source nested past the parser's limit must be
    // a compile error, not a stack overflow that takes the service down
    let svc = SessionService::start(ServeConfig::default());
    let parens = format!("int x;\nx = {}1{};", "(".repeat(100_000), ")".repeat(100_000));
    let blocks = format!("{}nothing;{}", "do\n".repeat(100_000), "\nend".repeat(100_000));
    for src in [parens, blocks] {
        match svc.open_session_unchecked(&src) {
            Err(AdmitError::CompileError { message, .. }) => {
                assert!(message.contains("nesting deeper than"), "{message}");
            }
            other => panic!("expected a nesting error, got {other:?}"),
        }
    }
    assert!(svc.open_session(HEALTHY).is_ok(), "the service still admits sessions");
}

#[test]
fn runaway_is_fuel_evicted_and_neighbours_survive() {
    let cfg = ServeConfig { fuel_limit: Some(10_000), workers: 2, ..ServeConfig::default() };
    let svc = SessionService::start(cfg);
    let healthy = svc.open_session(HEALTHY).unwrap();
    let boot_spin = svc.open_session_unchecked(RUNAWAY_BOOT).unwrap();
    let event_spin = svc.open_session_unchecked(RUNAWAY_EVENT).unwrap();
    svc.send_event(event_spin, "Go", Some(Value::Int(1))).unwrap();
    drive_to_completion(&svc, healthy, "event");
    for id in [healthy, boot_spin, event_spin] {
        assert!(svc.settle(id, SETTLE), "session {id:?} did not settle");
    }
    // Both runaways died of fuel, with the limit attributed.
    for id in [boot_spin, event_spin] {
        match svc.status(id).unwrap().state {
            SessionState::Crashed { cause: EvictCause::Fuel { limit } } => {
                assert_eq!(limit, 10_000)
            }
            other => panic!("expected fuel eviction for {id:?}, got {other:?}"),
        }
    }
    // The tenant next door never noticed.
    assert_eq!(svc.status(healthy).unwrap().state, SessionState::Terminated(Some(12)));
    let stats = svc.stats();
    assert_eq!(stats.evicted_fuel, 2);
    assert_eq!(stats.worker_deaths, 0);
}

#[test]
fn without_a_fuel_limit_the_default_budget_evicts_as_fuel() {
    let cfg = ServeConfig { fuel_limit: None, workers: 1, ..ServeConfig::default() };
    let svc = SessionService::start(cfg);
    let spin = svc.open_session_unchecked(RUNAWAY_EVENT).unwrap();
    svc.send_event(spin, "Go", Some(Value::Int(1))).unwrap();
    assert!(svc.settle(spin, SETTLE), "the runaway did not settle");
    match svc.status(spin).unwrap().state {
        SessionState::Crashed { cause: EvictCause::Fuel { limit } } => {
            assert_eq!(limit, 5_000_000)
        }
        other => panic!("expected a fuel eviction, got {other:?}"),
    }
    let stats = svc.stats();
    assert_eq!((stats.evicted_fuel, stats.crashes()), (1, 1));
}

#[test]
fn fuel_evictions_are_deterministic_across_reruns() {
    let run = || {
        let cfg = ServeConfig { fuel_limit: Some(7_777), workers: 3, ..ServeConfig::default() };
        let svc = SessionService::start(cfg);
        let a = svc.open_session_unchecked(RUNAWAY_BOOT).unwrap();
        let b = svc.open_session_unchecked(RUNAWAY_EVENT).unwrap();
        svc.send_event(b, "Go", Some(Value::Int(1))).unwrap();
        assert!(svc.settle(a, SETTLE) && svc.settle(b, SETTLE));
        let fp = |id| {
            let s = svc.status(id).unwrap();
            (s.state.clone(), s.reactions, s.events_processed)
        };
        (fp(a), fp(b))
    };
    let first = run();
    for _ in 0..3 {
        assert_eq!(run(), first, "fuel eviction fingerprint must be bit-identical");
    }
}

#[test]
fn poison_input_quarantines_only_that_session() {
    let svc = SessionService::start(ServeConfig::default());
    let poison = svc.open_session(POISON).unwrap();
    let healthy = svc.open_session(HEALTHY).unwrap();
    svc.send_event(poison, "Go", Some(Value::Int(0))).unwrap();
    drive_to_completion(&svc, healthy, "event");
    assert!(svc.settle(poison, SETTLE) && svc.settle(healthy, SETTLE));
    match svc.status(poison).unwrap().state {
        SessionState::Crashed { cause: EvictCause::Runtime { message } } => {
            assert!(message.contains("division by zero"), "got: {message}")
        }
        other => panic!("expected runtime quarantine, got {other:?}"),
    }
    assert_eq!(svc.status(healthy).unwrap().state, SessionState::Terminated(Some(12)));
    // Further sends to the quarantined session are refused, not queued.
    assert_eq!(svc.send_event(poison, "Go", Some(Value::Int(1))), Err(SendError::Quarantined));
}

#[test]
fn host_panic_is_caught_and_attributed() {
    quiet_injected_panics();
    let cfg = ServeConfig { panic_on_call: Some("chaos_panic".into()), ..ServeConfig::default() };
    let svc = SessionService::start(cfg);
    let bomb = svc.open_session(PANICKER).unwrap();
    let healthy = svc.open_session(HEALTHY).unwrap();
    svc.send_event(bomb, "Go", None).unwrap();
    drive_to_completion(&svc, healthy, "event");
    assert!(svc.settle(bomb, SETTLE) && svc.settle(healthy, SETTLE));
    match svc.status(bomb).unwrap().state {
        SessionState::Crashed { cause: EvictCause::Panic { message } } => {
            assert!(message.contains("injected host fault"), "got: {message}")
        }
        other => panic!("expected panic quarantine, got {other:?}"),
    }
    assert_eq!(svc.status(healthy).unwrap().state, SessionState::Terminated(Some(12)));
    let stats = svc.stats();
    assert_eq!(stats.quarantined_panic, 1);
    assert_eq!(stats.worker_deaths, 0, "the worker must survive the panic");
}

#[test]
fn junk_event_names_are_refused_at_the_edge() {
    let svc = SessionService::start(ServeConfig::default());
    let id = svc.open_session(HEALTHY).unwrap();
    assert!(matches!(svc.send_event(id, "NoSuchEvent", None), Err(SendError::UnknownEvent(_))));
    // Internal machinery events are not addressable from outside either.
    assert!(svc.settle(id, SETTLE));
    assert_eq!(svc.status(id).unwrap().state, SessionState::Running);
}

#[test]
fn overload_sheds_instead_of_buffering() {
    quiet_injected_panics();
    // One worker, kept busy by a large fuel runaway, so mailboxes back up.
    let cfg = ServeConfig {
        workers: 1,
        fuel_limit: Some(4_000_000),
        session_queue_cap: 3,
        ..ServeConfig::default()
    };
    let svc = SessionService::start(cfg);
    let hog = svc.open_session_unchecked(RUNAWAY_BOOT).unwrap();
    let victim = svc.open_session(HEALTHY).unwrap();
    let mut shed = 0;
    for _ in 0..16 {
        if let Err(SendError::Shed { retry_after_us }) =
            svc.send_event(victim, "Go", Some(Value::Int(1)))
        {
            assert!(retry_after_us > 0);
            shed += 1;
        }
    }
    assert!(shed > 0, "a full mailbox must shed, not buffer");
    assert!(svc.settle(hog, SETTLE));
    let stats = svc.stats();
    assert!(stats.events_shed >= shed);
    assert_eq!(stats.evicted_fuel, 1);
}

#[test]
fn a_queued_boot_does_not_count_against_the_mailbox_cap() {
    // One worker, kept busy by a large fuel runaway, so the victim's boot
    // waits in its mailbox while the client sends.
    let cfg = ServeConfig {
        workers: 1,
        fuel_limit: Some(4_000_000),
        session_queue_cap: 1,
        ..ServeConfig::default()
    };
    let svc = SessionService::start(cfg);
    let hog = svc.open_session_unchecked(RUNAWAY_BOOT).unwrap();
    let victim = svc.open_session(HEALTHY).unwrap();
    assert_eq!(svc.send_event(victim, "Go", Some(Value::Int(5))), Ok(()));
    assert!(matches!(
        svc.send_event(victim, "Go", Some(Value::Int(5))),
        Err(SendError::Shed { .. })
    ));
    assert!(svc.settle(hog, SETTLE) && svc.settle(victim, SETTLE));
    let status = svc.status(victim).unwrap();
    assert_eq!(status.state, SessionState::Running);
    assert_eq!(status.events_processed, 1);
    assert_eq!(svc.stats().events_shed, 1);
}

#[test]
fn admission_cap_sheds_sessions() {
    let cfg = ServeConfig { max_sessions: 2, ..ServeConfig::default() };
    let svc = SessionService::start(cfg);
    let _a = svc.open_session(HEALTHY).unwrap();
    let _b = svc.open_session(TIMER).unwrap();
    assert!(matches!(svc.open_session(POISON), Err(AdmitError::Shed { .. })));
    assert_eq!(svc.stats().sessions_shed, 1);
}

#[test]
fn restart_respects_backoff_and_crash_cap() {
    let cfg = ServeConfig {
        restart_policy: RebootPolicy::Backoff { base_us: 30_000, max_us: 120_000 },
        max_crashes: 2,
        ..ServeConfig::default()
    };
    let svc = SessionService::start(cfg);
    let id = svc.open_session(POISON).unwrap();
    svc.send_event(id, "Go", Some(Value::Int(0))).unwrap();
    assert!(svc.settle(id, SETTLE));
    assert!(matches!(svc.status(id).unwrap().state, SessionState::Crashed { .. }));

    // Inside the backoff window: deferred with a retry hint.
    match svc.restart(id) {
        Err(RestartError::RetryAfter { us }) => assert!(us > 0 && us <= 30_000),
        other => panic!("expected RetryAfter, got {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(35));
    svc.restart(id).expect("backoff window passed");
    assert!(svc.settle(id, SETTLE));
    assert_eq!(svc.status(id).unwrap().state, SessionState::Running);

    // Crash it again: cap reached, restarts now refused outright.
    svc.send_event(id, "Go", Some(Value::Int(0))).unwrap();
    assert!(svc.settle(id, SETTLE));
    assert_eq!(svc.status(id).unwrap().crashes, 2);
    std::thread::sleep(Duration::from_millis(70));
    assert_eq!(svc.restart(id), Err(RestartError::Refused));
    let stats = svc.stats();
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.restarts_refused, 1);
}

#[test]
fn reboot_policy_never_refuses_restarts() {
    let cfg = ServeConfig { restart_policy: RebootPolicy::Never, ..ServeConfig::default() };
    let svc = SessionService::start(cfg);
    let id = svc.open_session(POISON).unwrap();
    svc.send_event(id, "Go", Some(Value::Int(0))).unwrap();
    assert!(svc.settle(id, SETTLE));
    assert_eq!(svc.restart(id), Err(RestartError::Refused));
}

#[test]
fn drain_stops_admission_and_reports_all_sessions() {
    let svc = SessionService::start(ServeConfig::default());
    let a = svc.open_session(HEALTHY).unwrap();
    let b = svc.open_session(POISON).unwrap();
    drive_to_completion(&svc, a, "event");
    svc.send_event(b, "Go", Some(Value::Int(0))).unwrap();
    let report = svc.drain(SETTLE);
    assert!(report.clean, "all queued epochs must flush");
    assert_eq!(report.sessions.len(), 2);
    let final_state = |id| &report.sessions.iter().find(|s| s.id == id).unwrap().state;
    assert_eq!(*final_state(a), SessionState::Terminated(Some(12)));
    assert!(matches!(final_state(b), SessionState::Crashed { cause: EvictCause::Runtime { .. } }));
    assert_eq!(report.stats.worker_deaths, 0);
}

#[test]
fn sessions_share_one_compiled_artifact() {
    let svc = SessionService::start(ServeConfig::default());
    let ids: Vec<_> = (0..8).map(|_| svc.open_session(HEALTHY).unwrap()).collect();
    let hashes: Vec<_> = ids.iter().map(|id| svc.status(*id).unwrap().program_hash).collect();
    assert!(hashes.windows(2).all(|w| w[0] == w[1]));
    let cache = svc.stats().cache;
    assert_eq!(cache.misses, 1, "one compile for eight sessions");
    assert_eq!(cache.hits, 7);
}
