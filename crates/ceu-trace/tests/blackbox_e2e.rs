//! End-to-end black-box triage: a fault-plan crash in the WSN simulator
//! dumps the flight-recorder rings, and `ceu-trace blackbox` renders the
//! dump into the full triage page — header, ring stats, per-mote health,
//! the crashed mote's final reactions, and the cross-mote causal chain.

use wsn_sim::{CeuMote, FaultPlan, Radio, Topology, World};

/// Three motes passing a counter around a ring; each kicks its own first
/// packet at boot, so cross-mote traffic flows from time zero.
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

/// Runs the ring to its crash and returns the dump, written in a
/// directory of the caller's own (`case`): tests run concurrently, and
/// each removes its directory when done.
fn crash_dump(case: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ceu-blackbox-e2e-{}-{case}", std::process::id()));
    let path = dir.join("dump.jsonl");
    let prog = ceu::Compiler::new().compile(RING).unwrap();
    let mut w = World::new(Radio::new(Topology::Full, 1_000, 0.0, 7));
    for id in 0..3 {
        let mut mote = CeuMote::new(prog.clone(), id);
        mote.enable_trace();
        w.add_mote(Box::new(mote));
    }
    let plan = FaultPlan::parse("at 9000 crash 1").unwrap();
    w.enable_flight_recorder(256);
    w.set_blackbox_out(&path);
    w.boot();
    w.set_fault_plan(&plan).unwrap();
    w.run_until(20_000);
    let dump = std::fs::read_to_string(&path).expect("crash must write the armed dump");
    let _ = std::fs::remove_dir_all(&dir);
    dump
}

#[test]
fn fault_plan_crash_renders_a_full_triage_page() {
    let dump_text = crash_dump("triage");
    let dump = ceu_trace::parse_blackbox(&dump_text).expect("dump parses");
    assert_eq!(dump.crashed_mote(), Some(1), "header attributes the crash");
    assert!(!dump.records.is_empty(), "ring records made it into the dump");
    assert!(!dump.motes.is_empty(), "per-mote stats made it into the dump");

    let page = ceu_trace::render_blackbox(&dump, Some(RING), 8);
    // what crashed and why
    assert!(page.starts_with("black box: mote-crashed"), "{page}");
    assert!(page.contains("mote 1 crashed at 9000µs (fault-injected)"), "{page}");
    // ring accounting and per-mote health
    assert!(page.contains("\nrings:"), "{page}");
    assert!(page.contains("motes on the record:"), "{page}");
    assert!(page.contains("DOWN"), "the crashed mote is marked down:\n{page}");
    // the crashed mote's final recorded reactions
    assert!(page.contains("mote 1: final"), "{page}");
    assert!(page.contains("recorded events"), "{page}");
    // ring traffic means the last reaction has a cross-mote parent chain
    assert!(page.contains("causal context (parent chain into the crash):"), "{page}");
    assert!(page.contains("radio hop"), "causal chain crosses motes:\n{page}");
}

/// Mote 1 divides by zero on its first packet — a machine-level
/// `RuntimeError` whose crash record carries the source span.
const DIV0: &str = r#"
    input _message_t* Radio_receive;
    loop do
       _message_t* msg = await Radio_receive;
       int* cnt = _Radio_getPayload(msg);
       *cnt = *cnt / (*cnt - *cnt);
    end
"#;

#[test]
fn runtime_error_crash_renders_the_offending_source_line() {
    let dir = std::env::temp_dir().join(format!("ceu-blackbox-div0-{}", std::process::id()));
    let path = dir.join("dump.jsonl");
    let ring = ceu::Compiler::new().compile(RING).unwrap();
    let div0 = ceu::Compiler::new().compile(DIV0).unwrap();
    let mut w = World::new(Radio::new(Topology::Full, 1_000, 0.0, 7));
    for id in 0..3 {
        let prog = if id == 1 { div0.clone() } else { ring.clone() };
        let mut mote = CeuMote::new(prog, id);
        mote.enable_trace();
        w.add_mote(Box::new(mote));
    }
    w.enable_flight_recorder(256);
    w.set_blackbox_out(&path);
    w.boot();
    w.run_until(20_000);
    let text = std::fs::read_to_string(&path).expect("runtime error must write the dump");
    let _ = std::fs::remove_dir_all(&dir);

    let dump = ceu_trace::parse_blackbox(&text).expect("dump parses");
    assert_eq!(dump.crashed_mote(), Some(1));
    let page = ceu_trace::render_blackbox(&dump, Some(DIV0), 8);
    assert!(page.contains("(runtime-error)"), "{page}");
    assert!(page.contains("*cnt / (*cnt - *cnt)"), "offending source line renders: {page}");
    assert!(page.contains('^'), "caret marks the crash column: {page}");
}

#[test]
fn truncated_dump_fails_with_a_one_line_error() {
    let dump_text = crash_dump("truncated");
    // slice mid-line: a truncated tail must not panic the parser
    let cut = &dump_text[..dump_text.len() - dump_text.len() / 3];
    match ceu_trace::parse_blackbox(cut) {
        Ok(_) => { /* the cut landed on a line boundary — acceptable */ }
        Err(e) => {
            assert!(!e.contains('\n'), "one-line error, got: {e}");
            assert!(e.contains("line "), "error locates the bad line: {e}");
        }
    }
    let empty = ceu_trace::parse_blackbox("");
    assert!(empty.unwrap_err().contains("empty input"));
}
