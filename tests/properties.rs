//! Property-based tests (proptest) over the core invariants:
//!
//! * time literals round-trip through print/parse;
//! * pretty-printing is a fixpoint of parsing;
//! * compiled programs are structurally well-formed (valid block/gate/slot
//!   references, well-nested regions) for arbitrary generated programs;
//! * the machine is deterministic: the same program and input sequence
//!   produce identical states and host-call logs — the language's central
//!   promise;
//! * the overlay allocator never exceeds the sum layout and never loses a
//!   variable.

use ceu::runtime::{RecordingHost, Value};
use ceu::{Compiler, Simulator};
use proptest::prelude::*;

mod programs;
use programs::arb_program;

// ---- generators ---------------------------------------------------------------

/// An input script: events and time advancement.
#[derive(Clone, Debug)]
enum Input {
    A,
    B,
    X(i64),
    Time(u64),
}

fn arb_script() -> impl Strategy<Value = Vec<Input>> {
    prop::collection::vec(
        prop_oneof![
            Just(Input::A),
            Just(Input::B),
            (-50i64..50).prop_map(Input::X),
            (1u64..80).prop_map(|ms| Input::Time(ms * 1_000)),
        ],
        0..12,
    )
}

fn run_script(program: ceu::CompiledProgram, script: &[Input]) -> (Vec<Value>, Vec<String>) {
    let mut sim = Simulator::new(program, RecordingHost::new());
    sim.start().expect("boot");
    for inp in script {
        if sim.status().is_terminated() {
            break;
        }
        match inp {
            Input::A => sim.event("A", None).map(|_| ()).expect("A"),
            Input::B => sim.event("B", None).map(|_| ()).expect("B"),
            Input::X(v) => sim.event("X", Some(Value::Int(*v))).map(|_| ()).expect("X"),
            Input::Time(us) => sim.advance_by(*us).map(|_| ()).expect("time"),
        }
    }
    let data = sim.machine().data().to_vec();
    let calls = sim.host().calls.iter().map(|(n, a)| format!("{n}{a:?}")).collect();
    (data, calls)
}

// ---- properties ----------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn time_literals_roundtrip(us in 0u64..1_000_000_000_000) {
        let t = ceu::ast::TimeSpec::from_us(us);
        let printed = t.to_string();
        prop_assert_eq!(ceu::ast::TimeSpec::parse(&printed), Some(t));
    }

    #[test]
    fn pretty_print_is_a_parse_fixpoint(src in arb_program()) {
        let p1 = ceu::parser::parse(&src).expect("generated programs parse");
        let printed = ceu::ast::pretty(&p1);
        let p2 = ceu::parser::parse(&printed).expect("printed programs parse");
        prop_assert_eq!(&printed, &ceu::ast::pretty(&p2));
    }

    #[test]
    fn compiled_programs_are_well_formed(src in arb_program()) {
        // unchecked: generated programs may be (detectably) nondeterministic,
        // but they must still compile into a structurally sound artifact
        let p = Compiler::unchecked().compile(&src).expect("generated programs compile");
        let nblocks = p.blocks.len() as u32;
        for g in &p.gates {
            prop_assert!(g.cont < nblocks);
        }
        for r in &p.regions {
            prop_assert!(r.lo <= r.hi && r.hi as usize <= p.gates.len());
        }
        // regions are well nested or disjoint (gate ranges never partially
        // overlap) — the precondition of the memset-style kill
        for (i, a) in p.regions.iter().enumerate() {
            for b in p.regions.iter().skip(i + 1) {
                let disjoint = a.hi <= b.lo || b.hi <= a.lo;
                let nested = (a.lo <= b.lo && b.hi <= a.hi) || (b.lo <= a.lo && a.hi <= b.hi);
                prop_assert!(disjoint || nested, "regions {a:?} vs {b:?}");
            }
        }
        use ceu::codegen::{Op, Term};
        for b in &p.blocks {
            for i in &b.instrs {
                match &i.op {
                    Op::Spawn(t) => prop_assert!(*t < nblocks),
                    Op::ActivateEvt { gate }
                    | Op::ActivateTime { gate, .. }
                    | Op::ActivateNever { gate }
                    | Op::ActivateAsync { gate, .. } => {
                        prop_assert!((*gate as usize) < p.gates.len())
                    }
                    Op::ClearRegion(r) => prop_assert!((*r as usize) < p.regions.len()),
                    _ => {}
                }
            }
            match &b.term {
                Term::Goto(t) => prop_assert!(*t < nblocks),
                Term::If { then_b, else_b, .. } => {
                    prop_assert!(*then_b < nblocks && *else_b < nblocks)
                }
                Term::JoinAnd { lo, hi, cont } => {
                    prop_assert!(*cont < nblocks && lo <= hi && *hi <= p.data_len)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn execution_is_deterministic(src in arb_program(), script in arb_script()) {
        // the language's core promise, checked end-to-end: identical runs
        let p1 = Compiler::unchecked().compile(&src).expect("compiles");
        let (d1, c1) = run_script(p1.clone(), &script);
        let (d2, c2) = run_script(p1, &script);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn accepted_programs_never_trap_on_structure(src in arb_program(), script in arb_script()) {
        // programs that pass the full analyses must run the script without
        // runtime errors (no panics, no structural traps)
        if let Ok(p) = Compiler::new().compile(&src) {
            let _ = run_script(p, &script);
        }
    }

    #[test]
    fn overlay_never_exceeds_linear_allocation(n in 1u32..6, m in 1u32..6) {
        // two sequential scopes overlay: data = max, not sum
        let decls_a: String = (0..n).map(|i| format!("int a{i};\n")).collect();
        let decls_b: String = (0..m).map(|i| format!("int b{i};\n")).collect();
        let src = format!(
            "do\n{decls_a}nothing;\nend\ndo\n{decls_b}nothing;\nend\nawait 1ms;"
        );
        let p = Compiler::new().compile(&src).expect("compiles");
        prop_assert_eq!(p.data_len, n.max(m));
        // …while parallel scopes must sum
        let src = format!(
            "input void A, B;\npar/and do\n{decls_a}await A;\nwith\n{decls_b}await B;\nend"
        );
        let p = Compiler::new().compile(&src).expect("compiles");
        prop_assert_eq!(p.data_len, n + m + 2); // + two par/and flags
    }

    #[test]
    fn rejections_are_stable(src in arb_program()) {
        // the checked compiler either accepts or rejects, and does so
        // consistently across runs (the analysis itself is deterministic)
        let r1 = Compiler::new().compile(&src).is_ok();
        let r2 = Compiler::new().compile(&src).is_ok();
        prop_assert_eq!(r1, r2);
    }
}
