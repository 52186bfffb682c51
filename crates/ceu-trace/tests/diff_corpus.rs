//! `ceu-trace diff` over the full corpus: every program driven through an
//! identical scripted schedule on the flat evaluator and on the
//! `use_tree_eval` ablation must produce machine JSONL traces that diff
//! clean (the CLI's differential-debugging workflow, exercised as a
//! library call).

use ceu::runtime::telemetry::event_to_json;
use ceu::runtime::{Machine, RecordingHost, TraceMask, Value};
use ceu_bench::{
    receiver_ceu, BLINK_CEU, BLINK_SYNC_CEU, CLIENT_CEU, DATAFLOW_CHAIN, FIG1_PROGRAM,
    GUIDING_EXAMPLE, SENSE_CEU, SERVER_CEU,
};
use std::sync::Arc;

fn host() -> RecordingHost {
    RecordingHost::new()
        .with_return("Read_read", 5)
        .with_return("Radio_getPayload", Value::Ptr(ceu::runtime::Ptr::Host(1)))
        .with_return("Radio_source", 0)
        .with_global("TOS_NODE_ID", 0)
}

/// Drives one machine through the corpus schedule, capturing the trace as
/// machine JSONL — the `ceuc run --trace=jsonl` wire format.
fn drive_jsonl(prog: Arc<ceu::CompiledProgram>, tree_eval: bool) -> String {
    let mut m = Machine::from_arc(Arc::clone(&prog));
    m.use_tree_eval = tree_eval;
    m.enable_events(TraceMask::Full);
    let mut h = host();
    let _ = m.go_init(&mut h);
    let inputs: Vec<_> = (0..prog.events.len())
        .filter_map(|i| {
            let info = prog.events.get(ceu_ast::EventId(i as u16));
            info.external().then_some(ceu_ast::EventId(i as u16))
        })
        .collect();
    for round in 0..3i64 {
        for &ev in &inputs {
            if m.status().is_terminated() {
                break;
            }
            let _ = m.go_event(ev, Some(Value::Int(round + 1)), &mut h);
        }
        if !m.status().is_terminated() {
            let _ = m.go_time(m.now() + 1_000_000, &mut h);
        }
        for _ in 0..100 {
            if m.status().is_terminated() || !matches!(m.go_async(&mut h), Ok(true)) {
                break;
            }
        }
    }
    let mut events = Vec::new();
    m.drain_events_into(&mut events);
    events.iter().map(|e| event_to_json(e) + "\n").collect()
}

#[test]
fn flat_vs_tree_eval_traces_diff_clean_on_the_whole_corpus() {
    let corpus: Vec<(&str, String)> = vec![
        ("blink", BLINK_CEU.into()),
        ("sense", SENSE_CEU.into()),
        ("client", CLIENT_CEU.into()),
        ("server", SERVER_CEU.into()),
        ("guiding", GUIDING_EXAMPLE.into()),
        ("fig1", FIG1_PROGRAM.into()),
        ("dataflow", DATAFLOW_CHAIN.into()),
        ("blink_sync", BLINK_SYNC_CEU.into()),
        ("receiver0", receiver_ceu(0)),
        ("receiver5", receiver_ceu(5)),
    ];
    for (name, src) in corpus {
        let prog =
            Arc::new(ceu::Compiler::new().compile(&src).unwrap_or_else(|e| panic!("{name}: {e}")));
        let flat = drive_jsonl(Arc::clone(&prog), false);
        let tree = drive_jsonl(prog, true);
        assert!(!flat.is_empty(), "{name}: schedule must drive reactions");
        match ceu_trace::diff(&flat, &tree).unwrap_or_else(|e| panic!("{name}: {e}")) {
            ceu_trace::DiffResult::Match { events } => {
                assert!(events > 0, "{name}: empty trace")
            }
            ceu_trace::DiffResult::Divergence { index, left, right } => {
                panic!("{name}: flat vs tree diverged at {index}:\n  {left:?}\n  {right:?}")
            }
        }
    }
}
