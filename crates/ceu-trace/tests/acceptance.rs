//! The PR's acceptance criteria, end to end:
//!
//! * `to-perfetto` on a three-mote radio scenario produces a valid Chrome
//!   trace with at least one cross-mote flow (`s`/`f`) pair;
//! * `diff` of the sequential vs the 4-thread parallel world trace
//!   reports zero divergence.

use ceu::runtime::telemetry::{to_perfetto, TimeAxis};
use wsn_sim::{write_trace_jsonl, CeuMote, Radio, World};

/// Each mote forwards the counter to the next mote in a 3-ring.
const RING: &str = r#"
    input _message_t* Radio_receive;
    loop do
       _message_t* msg = await Radio_receive;
       int* cnt = _Radio_getPayload(msg);
       *cnt = *cnt + 1;
       _Radio_send((_TOS_NODE_ID+1)%3, msg);
    end
"#;

/// Mote 0: the ring forwarder plus a boot-time kick.
const KICK: &str = r#"
    input _message_t* Radio_receive;
    par do
       loop do
          _message_t* msg = await Radio_receive;
          int* cnt = _Radio_getPayload(msg);
          *cnt = *cnt + 1;
          _Radio_send((_TOS_NODE_ID+1)%3, msg);
       end
    with
       _message_t msg;
       int* cnt = _Radio_getPayload(&msg);
       *cnt = 1;
       _Radio_send(1, &msg)
       await forever;
    end
"#;

fn three_mote_world() -> World {
    let mut w = World::new(Radio::ideal(1_000));
    w.enable_trace();
    for id in 0..3i64 {
        let src = if id == 0 { KICK } else { RING };
        let prog = ceu::Compiler::new().compile(src).expect("ring program compiles");
        let mut mote = CeuMote::new(prog, id);
        mote.enable_trace();
        w.add_mote(Box::new(mote));
    }
    w.boot();
    w
}

fn trace_jsonl(w: &mut World) -> String {
    let mut buf = Vec::new();
    write_trace_jsonl(&w.take_trace(), &mut buf).expect("write jsonl");
    String::from_utf8(buf).expect("utf8")
}

#[test]
fn perfetto_export_of_three_mote_run_has_cross_mote_flows() {
    let mut w = three_mote_world();
    w.run_until(15_000);
    let jsonl = trace_jsonl(&mut w);
    let records = ceu_trace::parse_jsonl(&jsonl).expect("world trace parses");
    let json = to_perfetto(&records, TimeAxis::Virtual, &[]);
    let doc = serde_json::from_str(&json).expect("perfetto export is valid JSON");
    let events = doc.as_array().expect("a Chrome trace array");

    // flow pairs whose start and finish sit on different motes
    let phase = |e: &serde_json::Value, ph| e.get("ph").and_then(|p| p.as_str()) == Some(ph);
    let flow_key = |e: &serde_json::Value| {
        (e.get("id").and_then(|i| i.as_u64()), e.get("pid").and_then(|p| p.as_u64()))
    };
    let starts: Vec<_> = events.iter().filter(|e| phase(e, "s")).map(flow_key).collect();
    let finishes: Vec<_> = events.iter().filter(|e| phase(e, "f")).map(flow_key).collect();
    assert_eq!(starts.len(), finishes.len(), "every flow start has a finish");
    let cross = starts
        .iter()
        .filter(|(id, s_pid)| finishes.iter().any(|(fid, f_pid)| fid == id && f_pid != s_pid))
        .count();
    assert!(cross >= 1, "expected cross-mote flow pairs, got {cross}");

    // slices are balanced per mote (valid B/E nesting at depth 1)
    for mote in 0..3u64 {
        let b = events
            .iter()
            .filter(|e| phase(e, "B") && e.get("pid").and_then(|p| p.as_u64()) == Some(mote))
            .count();
        let e = events
            .iter()
            .filter(|e| phase(e, "E") && e.get("pid").and_then(|p| p.as_u64()) == Some(mote))
            .count();
        assert_eq!(b, e, "mote {mote}: unbalanced B/E slices");
        assert!(b > 0, "mote {mote} reacted");
    }

    // the causal chain crosses motes: m0 -> m1 -> m2 -> m0 -> …
    let chain = ceu_trace::critical_path(&records);
    assert!(chain.len() >= 4, "ring bounced {} hops", chain.len());
    let motes: Vec<u64> = chain.iter().map(|h| h.mote).collect();
    assert!(motes.windows(2).all(|w| w[0] != w[1]), "every hop is a radio hop: {motes:?}");
}

#[test]
fn sequential_and_parallel_world_traces_diff_clean() {
    let mut seq = three_mote_world();
    seq.run_until(15_000);
    let seq_jsonl = trace_jsonl(&mut seq);

    let mut par = three_mote_world();
    par.run_until_parallel(15_000, 4);
    let par_jsonl = trace_jsonl(&mut par);

    match ceu_trace::diff(&seq_jsonl, &par_jsonl).expect("diff runs") {
        ceu_trace::DiffResult::Match { events } => {
            assert!(events > 0, "the run must produce events")
        }
        ceu_trace::DiffResult::Divergence { index, left, right } => {
            panic!("seq vs 4-thread diverged at {index}:\n  {left:?}\n  {right:?}")
        }
    }
}
