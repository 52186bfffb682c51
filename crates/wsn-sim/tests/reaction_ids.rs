//! Reaction ids name one reaction for the whole run: a rebooted mote's
//! machine keeps counting, so no `ReactionStart` id of the world trace
//! repeats, under the sequential and the parallel stepper alike.

use ceu::runtime::TraceEvent;
use std::collections::HashSet;
use wsn_sim::{CeuMote, FaultPlan, Radio, RebootPolicy, Topology, World};

/// Three motes passing a counter around a ring; each kicks its own first
/// packet at boot, so traffic flows from time zero.
const RING: &str = r#"
    input _message_t* Radio_receive;
    par do
       loop do
          _message_t* msg = await Radio_receive;
          int* cnt = _Radio_getPayload(msg);
          _Leds_set(*cnt);
          *cnt = *cnt + 1;
          _Radio_send((_TOS_NODE_ID+1)%3, msg);
       end
    with
       _message_t msg;
       int* cnt = _Radio_getPayload(&msg);
       *cnt = _TOS_NODE_ID;
       _Radio_send((_TOS_NODE_ID+1)%3, &msg);
       await forever;
    end
"#;

/// The ring with mote 1 crashed at 5 ms and revived 2 ms later.
fn build() -> World {
    let prog = ceu::Compiler::new().compile(RING).unwrap();
    let mut w = World::new(Radio::new(Topology::Full, 1_000, 0.0, 7));
    w.set_reboot_policy(RebootPolicy::After(2_000));
    w.enable_trace();
    for id in 0..3 {
        let mut mote = CeuMote::new(prog.clone(), id);
        mote.enable_trace();
        w.add_mote(Box::new(mote));
    }
    w.boot();
    w.set_fault_plan(&FaultPlan::parse("at 5000 crash 1").unwrap()).unwrap();
    w
}

/// Asserts that no `ReactionStart` id repeats and that the run rebooted.
fn assert_unique_ids(w: &mut World, stepper: &str) {
    let trace = w.take_trace();
    let rebooted = trace.iter().any(|e| matches!(e.event, TraceEvent::MoteRebooted { .. }));
    assert!(rebooted, "{stepper}: the plan's crash must be followed by a reboot");
    let mut seen = HashSet::new();
    let repeated: Vec<_> = trace
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::ReactionStart { id, .. } => Some(id),
            _ => None,
        })
        .filter(|id| !seen.insert(*id))
        .collect();
    assert!(repeated.is_empty(), "{stepper}: repeated reaction ids {repeated:?}");
}

#[test]
fn reaction_ids_stay_unique_across_a_reboot() {
    let mut seq = build();
    seq.run_until(30_000);
    assert_unique_ids(&mut seq, "run_until");
    for threads in [2, 4] {
        let mut par = build();
        par.run_until_parallel(30_000, threads);
        assert_unique_ids(&mut par, &format!("run_until_parallel({threads})"));
    }
}
