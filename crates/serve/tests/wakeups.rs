//! No wake-up is lost: a parked worker is woken for every push, and a
//! thread blocked in `settle` is woken when the epoch it waits on ends.
//! The worker only spins when the host has more cores than workers, so
//! `workers: 1` (spin on, where there are ≥2 cores) and `workers:
//! available_parallelism()` (spin off) cover both paths.

use ceu::Value;
use ceu_serve::{SendError, ServeConfig, SessionId, SessionService, SessionState};
use std::time::{Duration, Instant};

const SENDERS: usize = 4;
const SESSIONS_PER_SENDER: usize = 200;
const EVENTS: i64 = 50;

/// Sums its `Go` payloads and returns the total after `EVENTS` inputs.
fn summer() -> String {
    format!(
        "input int Go;\nint total = 0;\nint n = 0;\nloop do\n   int t = await Go;\n   total = total + t;\n   n = n + 1;\n   if n >= {EVENTS} then break; end\nend\nreturn total;\n"
    )
}

fn payload(session: usize, event: i64) -> i64 {
    (session as i64 * 7 + event) % 13
}

fn every_event_is_served(workers: usize) {
    let svc = SessionService::start(ServeConfig {
        workers,
        max_sessions: SENDERS * SESSIONS_PER_SENDER,
        ..ServeConfig::default()
    });
    let src = summer();
    // A lost wake-up leaves the queues full and every send shed.
    let deadline = Instant::now() + Duration::from_secs(60);
    let ids: Vec<SessionId> =
        (0..SENDERS * SESSIONS_PER_SENDER).map(|_| svc.open_session(&src).unwrap()).collect();
    std::thread::scope(|s| {
        for chunk in ids.chunks(SESSIONS_PER_SENDER) {
            let svc = &svc;
            s.spawn(move || {
                for event in 0..EVENTS {
                    for &id in chunk {
                        let v = Value::Int(payload(id.0 as usize, event));
                        loop {
                            match svc.send_event(id, "Go", Some(v)) {
                                Ok(()) => break,
                                // backpressure: retry
                                Err(SendError::Shed { .. }) => {
                                    assert!(
                                        Instant::now() < deadline,
                                        "session {id:?} shed for 60 s"
                                    );
                                    std::thread::yield_now()
                                }
                                Err(e) => panic!("session {id:?}: {e:?}"),
                            }
                        }
                    }
                }
            });
        }
    });
    let report = svc.drain(deadline.saturating_duration_since(Instant::now()));
    assert!(report.clean, "drain with {workers} workers was not clean");
    assert_eq!(report.sessions.len(), ids.len());
    for s in &report.sessions {
        let want: i64 = (0..EVENTS).map(|e| payload(s.id.0 as usize, e)).sum();
        assert_eq!(s.state, SessionState::Terminated(Some(want)), "session {:?}", s.id);
    }
    assert_eq!(report.stats.events_processed, (ids.len() as i64 * EVENTS) as u64);
}

#[test]
fn no_wake_up_is_lost_with_the_spin() {
    every_event_is_served(1);
}

#[test]
fn no_wake_up_is_lost_without_the_spin() {
    every_event_is_served(std::thread::available_parallelism().map_or(1, |n| n.get()));
}

#[test]
fn settle_is_woken_by_the_epoch_it_waits_on() {
    // A runaway boot keeps the only worker in one long epoch until fuel
    // evicts it; `settle` waits on that epoch, not on its timeout.
    let svc = SessionService::start(ServeConfig {
        workers: 1,
        fuel_limit: Some(2_000_000),
        ..ServeConfig::default()
    });
    let hog = svc.open_session_unchecked("int x = 0; loop do x = x + 1; end").unwrap();
    let timeout = Duration::from_secs(30);
    let t0 = Instant::now();
    assert!(svc.settle(hog, timeout));
    let waited = t0.elapsed();
    assert!(waited < timeout / 3, "settle returned after {waited:?}");
    assert!(matches!(svc.status(hog).unwrap().state, SessionState::Crashed { .. }));
}
