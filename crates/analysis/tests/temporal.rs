//! Deeper temporal-analysis scenarios: DFA state structure, cross-reaction
//! par/and flags, async gates, unknown-duration timers, and the extension
//! statements.

use ceu_analysis::{analyze, check_determinism, ConflictKind, DfaOptions, Label};
use ceu_codegen::compile_source;

fn conflicts(src: &str) -> Vec<ceu_analysis::Conflict> {
    let p = compile_source(src).unwrap_or_else(|e| panic!("{e}"));
    check_determinism(&p, &DfaOptions::default()).conflicts
}

fn dfa(src: &str) -> ceu_analysis::Dfa {
    analyze(&compile_source(src).unwrap_or_else(|e| panic!("{e}")), &DfaOptions::default())
}

#[test]
fn par_and_flags_are_dfa_state() {
    // arm completions happen in different reactions; the join must be
    // tracked through the flag bits in the state
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
    let d = dfa(src);
    assert!(d.deterministic());
    // some states differ only in their flags
    let with_flags = d.states.iter().filter(|s| !s.flags.is_empty()).count();
    assert!(with_flags >= 2, "flag-carrying states: {with_flags}");
}

#[test]
fn async_gates_get_their_own_transitions() {
    let src = r#"
        int r;
        par/or do
           r = async do
              return 1;
           end;
        with
           await 1s;
        end
        return r;
    "#;
    let d = dfa(src);
    assert!(d.deterministic());
    assert!(
        d.transitions.iter().any(|t| matches!(t.label, Label::AsyncDone(_))),
        "async completion must be a DFA transition"
    );
}

#[test]
fn two_unknown_timers_may_coincide() {
    // both loops await computed durations; their C calls may coincide
    let src = r#"
        int a = 5, b = 7;
        par do
           loop do
              await (a * 1000);
              _f();
           end
        with
           loop do
              await (b * 1000);
              _g();
           end
        end
    "#;
    let cs = conflicts(src);
    assert!(cs.iter().any(|c| c.kind == ConflictKind::CCall), "{cs:?}");
    // the pairwise-unknown transition exists
    let d = dfa(src);
    assert!(d.transitions.iter().any(|t| matches!(&t.label, Label::Unknown(gs) if gs.len() == 2)));
}

#[test]
fn annotations_silence_unknown_timer_coincidence() {
    let src = r#"
        deterministic _f, _g;
        int a = 5, b = 7;
        par do
           loop do
              await (a * 1000);
              _f();
           end
        with
           loop do
              await (b * 1000);
              _g();
           end
        end
    "#;
    assert!(conflicts(src).is_empty());
}

#[test]
fn same_function_concurrently_conflicts_unless_pure() {
    let racy = "par/and do\n _log(1);\nwith\n _log(2);\nend";
    let cs = conflicts(racy);
    assert_eq!(cs.len(), 1);
    assert_eq!(cs[0].kind, ConflictKind::CCall);
    assert!(conflicts(&format!("pure _log;\n{racy}")).is_empty());
}

#[test]
fn conflict_metadata_is_usable() {
    let src = "input void A;\nint v;\npar/and do\n await A;\n v = 1;\nwith\n await A;\n v = 2;\nend\nreturn v;";
    let d = dfa(src);
    assert_eq!(d.conflicts.len(), 1);
    let c = &d.conflicts[0];
    assert!(c.state < d.states.len());
    assert!(matches!(c.label, Label::Event(_)));
    assert_eq!(d.conflict_depth(c), Some(1), "first A triggers it");
    // spans point at the two assignments (lines 5 and 8 of the source)
    assert_eq!(c.spans.0.line, 5);
    assert_eq!(c.spans.1.line, 8);
}

#[test]
fn boot_conflicts_are_attributed_to_the_boot_reaction() {
    // the conflicting writes run at boot; the state after boot has a
    // listener of its own, which must not take the conflict over
    let src = "input void A;\nint v;\npar do\n v = 1;\n await A;\nwith\n v = 2;\n await A;\nend";
    let d = dfa(src);
    assert_eq!(d.conflicts.len(), 1);
    let c = &d.conflicts[0];
    assert_eq!((c.state, &c.label), (0, &Label::Boot));
    assert_eq!(d.conflict_depth(c), Some(0));
    assert_eq!((c.spans.0.line, c.spans.1.line), (4, 7));
}

#[test]
fn suspend_bodies_are_analyzed_conservatively() {
    // the pause could serialise these, but the analysis ignores pausing
    // (may-analysis): still flagged
    let src = r#"
        input int P;
        input void E;
        int v;
        par do
           suspend P do
              loop do
                 await E;
                 v = 1;
              end
           end
           await forever;
        with
           loop do
              await E;
              v = 2;
           end
        end
    "#;
    let cs = conflicts(src);
    assert_eq!(cs.len(), 1, "{cs:?}");
}

#[test]
fn deterministic_suspend_program_passes() {
    let src = r#"
        input int P;
        input void E;
        int v;
        suspend P do
           loop do
              await E;
              v = v + 1;
           end
        end
    "#;
    assert!(conflicts(src).is_empty());
}

#[test]
fn watchdog_loop_has_small_dfa() {
    let src = r#"
        input void Done;
        loop do
           par/or do
              await Done;
           with
              await 100ms;
           end
        end
    "#;
    let d = dfa(src);
    assert!(d.deterministic());
    assert!(!d.truncated);
    // the configuration recurs: {Done, 100ms} → small machine
    assert!(d.states.len() <= 6, "{} states", d.states.len());
}

#[test]
fn three_phase_timer_cycle_converges() {
    let src = r#"
        int v;
        loop do
           await 10ms;
           v = 1;
           await 20ms;
           v = 2;
           await 30ms;
           v = 3;
        end
    "#;
    let d = dfa(src);
    assert!(d.deterministic());
    assert!(d.states.len() <= 8);
    // relative deadlines appear in the states
    use ceu_analysis::GateSt;
    assert!(d.states.iter().any(|s| s.gates.iter().any(|(_, g)| matches!(g, GateSt::Time(_)))));
}

#[test]
fn emit_to_self_loop_terminates_analysis() {
    // the guard: a trail that emits an event it later awaits — the
    // abstract execution must not ping-pong forever
    let src = r#"
        input void A;
        internal void e;
        loop do
           await A;
           emit e;
           await e;
        end
    "#;
    let d = dfa(src);
    assert!(!d.truncated, "analysis must converge");
}

#[test]
fn bounded_check_runs_before_dfa_in_pipeline() {
    // a tight loop would hang the abstract execution; the bounded check
    // (run first by the facade) protects it — but even called directly the
    // DFA must bail out via its own limits rather than hang
    let p = compile_source("int v;\nloop do\n v = v + 1;\nend").unwrap();
    let d = analyze(&p, &DfaOptions { max_states: 50, ..Default::default() });
    assert!(d.truncated, "tight loop must trip the step limit, not hang");
}

#[test]
fn discarded_events_self_loop_in_dfa() {
    // an event with no listeners leaves the configuration unchanged:
    // either no transition or a self-loop, never a new state
    let src = "input void A, B;\nloop do\n await A;\nend";
    let d = dfa(src);
    // B never appears as a transition (no gates for it)
    let p = compile_source(src).unwrap();
    let b = p.events.lookup("B").unwrap();
    assert!(d.transitions.iter().all(|t| t.label != Label::Event(b)));
}

/// `check_determinism`'s conflicts as (kind, text, ordered spans), and
/// its run count; `analyze`'s conflicts the same way.
fn check_and_product(src: &str) -> (Vec<String>, usize, Vec<String>) {
    let p = compile_source(src).unwrap_or_else(|e| panic!("{e}"));
    let key = |cs: &[ceu_analysis::Conflict]| {
        let mut v: Vec<String> = cs
            .iter()
            .map(|c| {
                let mut s = [c.spans.0, c.spans.1];
                s.sort_by_key(|s| (s.line, s.col));
                format!("{:?} {} {} {}", c.kind, c.what, s[0], s[1])
            })
            .collect();
        v.sort();
        v
    };
    let v = check_determinism(&p, &DfaOptions::default());
    let d = analyze(&p, &DfaOptions::default());
    (key(&v.conflicts), v.runs, key(&d.conflicts))
}

#[test]
fn a_timer_of_another_trail_slices_time_for_an_input_driven_group() {
    // The DFA lets `B` arrive only between reactions. The bare 10 ms loop
    // adds instants (10, 20, …), so in the product `B` can come at 20 ms
    // and its 10 ms timer then expires with the 15 ms loop's at 30 ms:
    // both emit `O`. Without that loop the 15 ms loop's instants alone
    // never line up, so the loop must stay live: a constant timer couples
    // with an input-driven arm.
    let src = r#"
        input void B;
        output int O;
        int a, b;
        par do
           await B;
           await 10ms;
           emit O = a;
           await forever;
        with
           loop do
              emit O = b;
              await 15ms;
           end
        with
           loop do
              await 10ms;
           end
        end
    "#;
    let (check, runs, product) = check_and_product(src);
    assert_eq!(product.len(), 1, "{product:?}");
    assert_eq!(check, product);
    assert_eq!(runs, 1);
}

#[test]
fn an_arm_sharing_an_event_with_the_context_stays_live() {
    // The inner `par`'s arms share nothing with each other, but the first
    // emits `e`, which ends the enclosing `par/or` and so kills the
    // second. Were the first dead in the second's run, the second would
    // keep writing `x` on every `A` and race the outer loop's write on
    // the second `A`, a conflict the product never reaches. Keys shared
    // with blocks outside a `par` make an arm main, live in every run.
    let src = r#"
        input void A;
        internal void e;
        int x;
        par do
           par/or do
              par do
                 loop do
                    await A;
                    emit e;
                 end
              with
                 loop do
                    await A;
                    x = 1;
                 end
              end
           with
              await e;
           end
           await forever;
        with
           await A;
           await A;
           x = 2;
           await forever;
        end
    "#;
    let (check, _, product) = check_and_product(src);
    assert!(product.is_empty(), "{product:?}");
    assert_eq!(check, product);
}
