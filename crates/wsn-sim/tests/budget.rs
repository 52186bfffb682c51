//! A mote whose reaction never ends exhausts its reaction budget: the
//! world records the crash as `CrashKind::Watchdog` and keeps running.

use ceu::runtime::{CrashKind, TraceEvent};
use wsn_sim::{CeuMote, MoteStatus, Radio, World};

#[test]
fn a_runaway_mote_crashes_on_its_reaction_budget() {
    // statically unbounded, so only the unchecked compiler admits it; no
    // fuel limit is set, so the runtime's default budget trips
    let src = "int n;\nawait 5ms;\nloop do\n n = n + 1;\nend";
    let prog = ceu::Compiler::unchecked().compile(src).unwrap();
    let mut w = World::new(Radio::ideal(1_000));
    w.enable_trace();
    w.add_mote(Box::new(CeuMote::new(prog, 0)));
    w.boot();
    w.run_until(10_000);
    match w.mote_status(0) {
        MoteStatus::Crashed { at, cause } => {
            assert_eq!(*at, 5_000);
            assert_eq!(cause.kind, CrashKind::Watchdog);
            assert!(cause.message.contains("5000000"), "{}", cause.message);
        }
        MoteStatus::Up => panic!("the runaway mote should have crashed"),
    }
    let crashed = w
        .take_trace()
        .into_iter()
        .any(|e| matches!(e.event, TraceEvent::MoteCrashed { kind: CrashKind::Watchdog, .. }));
    assert!(crashed, "the world trace records the budget crash");
}
