//! Cross-crate integration: the full pipeline (parse → desugar → resolve →
//! bounded check → codegen → temporal analysis → VM) on the paper's
//! guiding examples, plus the C backend and the analysis artifacts.

use ceu::analysis::{self, ConflictKind, DfaOptions};
use ceu::codegen::{cbackend, memory_report};
use ceu::runtime::{RecordingHost, Status, Value};
use ceu::{CompileOptions, Compiler, Error, Simulator};

/// The §4 guiding example used throughout the implementation section.
const GUIDING: &str = r#"
    input int A, B;
    input void C;
    int ret;
    loop do
       par/or do
          int a = await A;
          int b = await B;
          ret = a + b;
          break;
       with
          par/and do
             await C;
          with
             await A;
          end
       end
    end
    return ret;
"#;

#[test]
fn guiding_example_compiles_and_runs() {
    let program = Compiler::new().compile(GUIDING).expect("guiding example is safe");
    // four awaits → four gates, as §4.3 describes
    assert_eq!(program.gates.len(), 4);

    let mut sim = Simulator::new(program, RecordingHost::new());
    sim.start().unwrap();
    // A then B completes the first arm, breaks the loop, returns a+b
    sim.event("A", Some(Value::Int(40))).unwrap();
    sim.event("B", Some(Value::Int(2))).unwrap();
    assert_eq!(sim.status(), Status::Terminated(Some(42)));
}

#[test]
fn guiding_example_second_arm_restarts_loop() {
    let program = Compiler::new().compile(GUIDING).unwrap();
    let mut sim = Simulator::new(program, RecordingHost::new());
    sim.start().unwrap();
    // C and A complete the par/and → the par/or rejoins → loop restarts
    sim.event("C", None).unwrap();
    sim.event("A", Some(Value::Int(1))).unwrap();
    assert_eq!(sim.status(), Status::Running);
    // now the first arm again: a fresh await A is active
    sim.event("A", Some(Value::Int(20))).unwrap();
    sim.event("B", Some(Value::Int(22))).unwrap();
    assert_eq!(sim.status(), Status::Terminated(Some(42)));
}

#[test]
fn c_backend_renders_the_guiding_example() {
    let program = Compiler::new().compile(GUIDING).unwrap();
    let c = cbackend::emit_c(&program);
    // the paper's §4.4 shape
    for needle in [
        "_SWITCH:",
        "switch (track)",
        "void ceu_go_init",
        "void ceu_go_event",
        "memset(GATES",
        "#define EVT_A 0",
    ] {
        assert!(c.contains(needle), "generated C must contain `{needle}`");
    }
    // one case per track
    let cases = c.matches("case ").count();
    assert!(cases >= program.blocks.len(), "{cases} cases");
}

#[test]
fn pipeline_error_reporting_names_the_construct() {
    // tight loop
    let err = Compiler::new().compile("loop do nothing; end").unwrap_err();
    assert!(matches!(err, Error::Unbounded(_)));
    // nondeterminism, with the variable named
    let err = Compiler::new()
        .compile("int v;\npar/and do v = 1; with v = 2; end\nreturn v;")
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("`v`"), "{msg}");
    assert!(msg.contains("concurrent access"), "{msg}");
}

#[test]
fn analyze_exposes_dfa_for_nondeterministic_programs() {
    let (program, dfa) = Compiler::new()
        .analyze(
            "input void A;\nint v;\npar do\n loop do\n  await A;\n  await A;\n  v = 1;\n end\nwith\n loop do\n  await A;\n  await A;\n  await A;\n  v = 2;\n end\nend",
        )
        .unwrap();
    assert_eq!(dfa.conflicts.len(), 1);
    assert_eq!(dfa.conflict_depth(&dfa.conflicts[0]), Some(6));
    let dot = analysis::dfa::to_dot(&dfa, &program);
    assert!(dot.contains("color=red"), "conflicting state highlighted");
}

#[test]
fn memory_report_tracks_app_growth() {
    // Céu's fixed runtime cost amortises: bigger app → smaller relative
    // overhead (the Table-1 trend)
    let blink = Compiler::new().compile("loop do\n _led0Toggle();\n await 250ms;\nend").unwrap();
    let bigger = Compiler::new()
        .compile(
            r#"
            input _message_t* Radio_receive;
            internal void retry;
            pure _Radio_getPayload;
            deterministic _Radio_send, _Leds_set, _Leds_led0Toggle;
            par do
               loop do
                  _message_t* msg = await Radio_receive;
                  int* cnt = _Radio_getPayload(msg);
                  _Leds_set(*cnt);
                  await 1s;
                  *cnt = *cnt + 1;
                  _Radio_send((_TOS_NODE_ID+1)%3, msg);
               end
            with
               loop do
                  par/or do
                     await 5s;
                     loop do
                        emit retry;
                        await 10s;
                     end
                  with
                     await Radio_receive;
                  end
               end
            with
               await forever;
            end
        "#,
        )
        .unwrap();
    let (small, big) = (memory_report(&blink), memory_report(&bigger));
    assert!(big.rom_bytes > small.rom_bytes);
    assert!(big.ram_bytes > small.ram_bytes);
    let small_rel = small.rom_bytes as f64 / small.instrs as f64;
    let big_rel = big.rom_bytes as f64 / big.instrs as f64;
    assert!(
        big_rel < small_rel,
        "per-instruction ROM must shrink as apps grow: {small_rel:.0} vs {big_rel:.0}"
    );
}

#[test]
fn determinism_analysis_never_blocks_gals_asyncs() {
    // §2.9: async completion order is *globally* nondeterministic but the
    // analysis only enforces local determinism — this program is accepted
    let src = r#"
        int ret;
        par/or do
            ret = async do
               int i = 0;
               loop do
                  if i == 1000 then break; end
                  i = i + 1;
               end
               return 1;
            end;
        with
            await 1s;
            ret = 2;
        end
        return ret;
    "#;
    Compiler::new().compile(src).expect("GALS nondeterminism is allowed");
}

#[test]
fn dfa_options_cap_state_explosion() {
    // a program with many independent timer loops explodes the product
    // state space; the cap must kick in instead of hanging
    let mut src = String::from("int x;\npar do\n");
    for i in 0..6 {
        src.push_str(&format!(" loop do\n  await {}ms;\n  x = x + 0;\n end\nwith\n", 7 + i * 13));
    }
    src.push_str(" await forever;\nend");
    let program = Compiler::unchecked().compile(&src).unwrap();
    let opts = DfaOptions { max_states: 200, ..Default::default() };
    let dfa = analysis::analyze(&program, &opts);
    assert!(dfa.truncated || dfa.states.len() <= 200);
}

#[test]
fn unbounded_program_analysis_runs_on_a_default_stack() {
    // with the bounded check off, a loop whose else path never awaits
    // forks at every iteration until the step limit; the explorer keeps
    // the suspended branches on the heap, so this default-size test
    // thread does not overflow
    let src = include_str!("../corpus/reject/tight_if_without_await.ceu");
    let compiler =
        Compiler::with_options(CompileOptions { check_bounded: false, ..Default::default() });
    let (_, dfa) = compiler.analyze(src).expect("the analysis returns");
    assert!(dfa.truncated, "the step limit must cut the path");
}

#[test]
fn flowgraph_and_c_are_consistent_on_track_count() {
    let program = Compiler::new().compile(GUIDING).unwrap();
    let dot = analysis::flowgraph::to_dot(&program);
    let nodes = dot.matches("\n  b").count();
    assert!(nodes >= program.blocks.len(), "every track appears in the flow graph");
}

#[test]
fn event_values_are_conveyed_through_the_whole_stack() {
    let program = Compiler::new()
        .compile("input int X;\nint a, b;\na = await X;\nb = await X;\nreturn a * 100 + b;")
        .unwrap();
    let mut sim = Simulator::new(program, RecordingHost::new());
    sim.start().unwrap();
    sim.event("X", Some(Value::Int(4))).unwrap();
    sim.event("X", Some(Value::Int(2))).unwrap();
    assert_eq!(sim.status(), Status::Terminated(Some(402)));
}

#[test]
fn conflict_kinds_cover_all_three_sources() {
    // §2.6: variables, internal events, C calls
    let var = Compiler::new()
        .compile("int v;\npar/and do v = 1; with v = 2; end\nreturn v;")
        .unwrap_err();
    let evt = Compiler::new()
        .compile(
            "input void A;\ninternal void e;\npar do\n loop do\n await A;\n emit e;\n end\nwith\n loop do\n await A;\n emit e;\n end\nwith\n loop do await e; end\nend",
        )
        .unwrap_err();
    let ccall = Compiler::new().compile("par/and do _led1On(); with _led2On(); end").unwrap_err();
    for (err, kind) in [
        (var, ConflictKind::Variable),
        (evt, ConflictKind::InternalEvent),
        (ccall, ConflictKind::CCall),
    ] {
        match err {
            Error::Nondeterministic(cs) => {
                assert!(cs.iter().any(|c| c.kind == kind), "{cs:?}")
            }
            other => panic!("expected nondeterminism, got {other}"),
        }
    }
}
