//! Céu temporal analysis (§2.5–2.6, §4.1): bounded-execution checking,
//! DFA-based nondeterminism detection (variables, internal events, C calls
//! with `pure`/`deterministic` annotations, wall-clock time), and Graphviz
//! renderings of the flow graph and the DFA.

pub mod bounded;
pub mod dfa;
pub mod flowgraph;

pub use bounded::{check_bounded, TightLoop};
pub use dfa::{
    analyze, check_determinism, Conflict, ConflictKind, Dfa, DfaOptions, GateSt, Label, State,
    Trans, Verdict,
};

#[cfg(test)]
mod tests {
    use super::*;
    use ceu_codegen::compile_source;

    fn conflicts(src: &str) -> Vec<Conflict> {
        let p = compile_source(src).unwrap_or_else(|e| panic!("compile: {e}"));
        check_determinism(&p, &DfaOptions::default()).conflicts
    }

    fn dfa_of(src: &str) -> (Dfa, ceu_codegen::CompiledProgram) {
        let p = compile_source(src).unwrap_or_else(|e| panic!("compile: {e}"));
        let d = analyze(&p, &DfaOptions::default());
        (d, p)
    }

    #[test]
    fn immediate_concurrent_writes_conflict() {
        // §2.1: "it is easy to write nondeterministic programs"
        let cs = conflicts("int v;\npar/and do\n v = 1;\nwith\n v = 2;\nend\nreturn v;");
        assert_eq!(cs.len(), 1, "{cs:?}");
        assert_eq!(cs[0].kind, ConflictKind::Variable);
        assert!(cs[0].what.contains('v'));
    }

    #[test]
    fn same_value_writes_still_conflict() {
        // the paper's admitted false positive: values are not tracked
        let cs = conflicts("int v;\npar/and do\n v = 1;\nwith\n v = 1;\nend\nreturn v;");
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn different_events_do_not_conflict() {
        // §2.6: A and B can never happen at the same time
        let cs = conflicts(
            "input void A, B;\nint v;\npar/and do\n await A;\n v = 1;\nwith\n await B;\n v = 2;\nend\nreturn v;",
        );
        assert!(cs.is_empty(), "{cs:?}");
    }

    #[test]
    fn paper_dfa_example_conflicts_on_sixth_a() {
        // §2.6 / Figure 2: periods 2 and 3 collide at the 6th occurrence
        let src = r#"
            input void A;
            int v;
            par do
               loop do
                  await A;
                  await A;
                  v = 1;
               end
            with
               loop do
                  await A;
                  await A;
                  await A;
                  v = 2;
               end
            end
        "#;
        let (d, _p) = dfa_of(src);
        assert!(!d.deterministic());
        let c = &d.conflicts[0];
        assert_eq!(c.kind, ConflictKind::Variable);
        assert_eq!(d.conflict_depth(c), Some(6), "conflict must hit on the 6th A");
        // the DFA is finite: lcm(2,3)=6 awaits → a bounded state machine
        assert!(d.states.len() <= 16, "{} states", d.states.len());
        assert!(!d.truncated);
    }

    #[test]
    fn read_write_conflicts_too() {
        let cs = conflicts(
            "input void A;\nint v, w;\npar/and do\n await A;\n v = 1;\nwith\n await A;\n w = v;\nend\nreturn w;",
        );
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].kind, ConflictKind::Variable);
    }

    #[test]
    fn sequenced_timer_chains_are_deterministic() {
        // §2.6: 50+49 < 100 ⇒ deterministic
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
        let cs = conflicts(src);
        assert!(cs.is_empty(), "{cs:?}");
    }

    #[test]
    fn looping_timer_collides_with_longer_timer() {
        // §2.6: 10ms×10 == 100ms ⇒ nondeterministic
        let src = r#"
            int v;
            par/or do
                loop do
                    await 10ms;
                    v = 1;
                end
            with
                await 100ms;
                v = 2;
            end
        "#;
        let (d, _) = dfa_of(src);
        assert!(!d.deterministic());
        assert_eq!(d.conflicts[0].kind, ConflictKind::Variable);
        // ten reactions of the 10ms loop → collision on the 10th
        assert_eq!(d.conflict_depth(&d.conflicts[0]), Some(10));
    }

    #[test]
    fn concurrent_c_calls_conflict_without_annotations() {
        let src = "par/and do\n _led1On();\nwith\n _led2On();\nend";
        let cs = conflicts(src);
        assert_eq!(cs.len(), 1, "{cs:?}");
        assert_eq!(cs[0].kind, ConflictKind::CCall);
    }

    #[test]
    fn deterministic_annotation_allows_concurrent_calls() {
        let src =
            "deterministic _led1On, _led2On;\npar/and do\n _led1On();\nwith\n _led2On();\nend";
        assert!(conflicts(src).is_empty());
    }

    #[test]
    fn pure_annotation_allows_concurrency_with_anything() {
        let src =
            "pure _abs;\nint a, b;\npar/and do\n a = _abs(1);\nwith\n b = _f(2);\nend\nreturn a+b;";
        assert!(conflicts(src).is_empty());
    }

    #[test]
    fn unannotated_against_annotated_still_conflicts() {
        let src = "deterministic _led1On, _led2On;\npar/and do\n _led1On();\nwith\n _other();\nend";
        let cs = conflicts(src);
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn concurrent_emit_emit_conflicts() {
        let src = r#"
            input void A;
            internal void e;
            par do
               loop do
                  await A;
                  emit e;
               end
            with
               loop do
                  await A;
                  emit e;
               end
            with
               loop do
                  await e;
               end
            end
        "#;
        let cs = conflicts(src);
        assert!(cs.iter().any(|c| c.kind == ConflictKind::InternalEvent), "{cs:?}");
    }

    #[test]
    fn emit_vs_concurrent_await_arming_conflicts() {
        // one trail arrives at `await e` while another emits e, in the same
        // reaction: catching the emit depends on scheduling order
        let src = r#"
            input void A;
            internal void e;
            int v;
            par do
               loop do
                  await A;
                  emit e;
               end
            with
               loop do
                  await A;
                  await e;
                  v = 1;
               end
            end
        "#;
        let cs = conflicts(src);
        assert!(cs.iter().any(|c| c.kind == ConflictKind::InternalEvent), "{cs:?}");
    }

    #[test]
    fn emit_chain_is_sequenced_not_concurrent() {
        // the §2.2 dataflow chain must pass the analysis: the awakened
        // trails are sequenced with the emitter
        let src = r#"
            input void Go;
            int v1, v2, v3;
            internal void v1_evt, v2_evt;
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
               end
            with
               loop do
                  await Go;
                  v1 = 10;
                  emit v1_evt;
               end
            end
        "#;
        let cs = conflicts(src);
        assert!(cs.is_empty(), "{cs:?}");
    }

    #[test]
    fn temperature_mutual_dependency_is_deterministic() {
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
        let cs = conflicts(src);
        assert!(cs.is_empty(), "{cs:?}");
    }

    #[test]
    fn unknown_duration_timer_may_coincide_with_known() {
        // the ship-game situation: an expression timeout against a 50ms
        // sampler — concurrent C calls must be flagged…
        let src = r#"
            int dt = 500;
            par do
               loop do
                  await (dt * 1000);
                  _redraw(1);
               end
            with
               loop do
                  await 50ms;
                  _analogRead(0);
               end
            end
        "#;
        let cs = conflicts(src);
        assert!(cs.iter().any(|c| c.kind == ConflictKind::CCall), "{cs:?}");
        // …and the annotations from the paper make it pass
        let annotated = format!("deterministic _analogRead, _redraw;\n{src}");
        assert!(conflicts(&annotated).is_empty());
    }

    #[test]
    fn ship_game_key_and_timer_trails_do_not_race_on_ship() {
        // §3.2: "no possible race conditions on variable ship because the
        // two loops react to different events"
        let src = r#"
            input int Key;
            int dt = 500, ship;
            par do
               loop do
                  await (dt*1000);
                  _redraw(ship);
               end
            with
               loop do
                  int key = await Key;
                  if key == 1 then
                     ship = 0;
                  end
                  if key == 2 then
                     ship = 1;
                  end
               end
            end
        "#;
        let cs = conflicts(src);
        assert!(
            !cs.iter().any(|c| c.kind == ConflictKind::Variable && c.what.contains("ship")),
            "{cs:?}"
        );
    }

    #[test]
    fn glitch_free_continuation_is_not_concurrent_with_arms() {
        // the par/or continuation is sequenced after normal trails by the
        // priority scheme — no conflict with the arm that terminated
        let src = r#"
            input void E;
            int v;
            loop do
               par/or do
                  await E;
                  v = 1;
               with
                  await forever;
               end
               v = 2;
            end
        "#;
        let cs = conflicts(src);
        assert!(cs.is_empty(), "{cs:?}");
    }

    #[test]
    fn boot_time_parallel_writes_conflict() {
        let cs = conflicts(
            "int v;\npar do\n v = 1;\n await forever;\nwith\n v = 2;\n await forever;\nend",
        );
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn dfa_dot_output_is_renderable() {
        let (d, p) = dfa_of("input void A;\nloop do\n await A;\nend");
        let dot = dfa::to_dot(&d, &p);
        assert!(dot.starts_with("digraph dfa {"));
        assert!(dot.contains("await A"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn flowgraph_dot_shows_priorities() {
        // the §4 guiding example
        let src = r#"
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
            _after();
        "#;
        let p = compile_source(src).unwrap();
        let dot = flowgraph::to_dot(&p);
        assert!(dot.contains("prio"), "escape nodes carry priorities:\n{dot}");
        assert!(dot.contains("style=dashed"));
        // and the program is deterministic per the analysis
        let cs = check_determinism(&p, &DfaOptions::default()).conflicts;
        assert!(cs.is_empty(), "{cs:?}");
    }

    #[test]
    fn dfa_terminates_on_terminating_programs() {
        let (d, _) = dfa_of("input void A;\nawait A;\nreturn 1;");
        assert!(d.states.len() >= 2);
        assert!(d.deterministic());
        // the Event(A) transition leads to a quiescent (gate-free) state
        let quiescent = d
            .transitions
            .iter()
            .find(|t| matches!(t.label, Label::Event(_)))
            .map(|t| d.states[t.to].gates.is_empty());
        assert_eq!(quiescent, Some(true));
    }
}
