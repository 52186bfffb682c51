//! Property-based tests (proptest) over the core invariants:
//!
//! * time literals round-trip through print/parse;
//! * pretty-printing is a fixpoint of parsing;
//! * compiled programs are structurally well-formed (valid block/gate/slot
//!   references, well-nested regions) for arbitrary generated programs;
//! * compilation and execution are deterministic: two independent compiles
//!   of one source build the same artifact, and the same input sequence
//!   produces identical states and host-call logs — the language's central
//!   promise;
//! * every expression lane agrees: the tree walker, the raw flat code and
//!   the optimized flat code end a script with the same data, host calls,
//!   status and error, on generated programs, on string literals, and on
//!   generated integer expressions that exercise the interpreter's typed
//!   flat code and its fallback to the generic code;
//! * a rebooted machine runs a script exactly as a fresh one does, even
//!   after a prefix that failed mid-reaction; only its reaction ids keep
//!   counting;
//! * the overlay allocator never exceeds the sum layout and never loses a
//!   variable;
//! * the §2.6 check the compiler acts on, which explores each coupled
//!   group of trails apart, finds exactly the conflicts of the full
//!   product on generated `par`s whose arms may share nothing.

use ceu::analysis::{check_determinism, DfaOptions};
use ceu::runtime::{Host, HostResult, Ptr, RecordingHost, TraceEvent, TraceMask, Value};
use ceu::{CompileOptions, CompiledProgram, Compiler, Machine, Simulator, Status};
use proptest::prelude::*;
use std::sync::Arc;

mod programs;
use programs::{arb_int_expr, arb_par_program, arb_program, conflict_set};

// ---- generators ---------------------------------------------------------------

/// An input script: events and time advancement.
#[derive(Clone, Debug)]
enum Input {
    A,
    B,
    X(i64),
    Time(u64),
    /// `X` with any payload: none, `null` or a pointer as well as an int.
    Xraw(Option<Value>),
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
            Input::Xraw(v) => sim.event("X", *v).map(|_| ()).expect("X"),
        }
    }
    let data = sim.machine().data().to_vec();
    let calls = sim.host().calls.iter().map(|(n, a)| format!("{n}{a:?}")).collect();
    (data, calls)
}

/// What one lane observed: data, host calls, status, and the error that
/// stopped the script (if any).
type Observed = (Vec<Value>, Vec<(String, Vec<Value>)>, Status, Option<String>);

/// Runs `script` to its end or its first error; `tree` switches the
/// machine to the tree-walking evaluator.
fn run_lane(program: CompiledProgram, tree: bool, script: &[Input]) -> Observed {
    let mut sim = Simulator::new(program, RecordingHost::new());
    sim.machine_mut().use_tree_eval = tree;
    let mut err = sim.start().err();
    for inp in script {
        if err.is_some() || sim.status().is_terminated() {
            break;
        }
        err = match inp {
            Input::A => sim.event("A", None),
            Input::B => sim.event("B", None),
            Input::X(v) => sim.event("X", Some(Value::Int(*v))),
            Input::Time(us) => sim.advance_by(*us),
            Input::Xraw(v) => sim.event("X", *v),
        }
        .err();
    }
    let calls = sim.host().calls.clone();
    (sim.machine().data().to_vec(), calls, sim.status(), err.map(|e| e.to_string()))
}

/// The three lanes of `src` on one script: tree walker and flat code on
/// the raw artifact, flat code on the optimized one. The analyses are off:
/// lanes share one scheduler, so they must agree on any program.
fn lanes(src: &str, script: &[Input]) -> [Observed; 3] {
    let compile = |optimize| {
        let opts = CompileOptions {
            check_bounded: false,
            check_determinism: false,
            optimize,
            ..CompileOptions::default()
        };
        Compiler::with_options(opts).compile(src).expect("compiles")
    };
    let raw = compile(false);
    [
        run_lane(raw.clone(), true, script),
        run_lane(raw, false, script),
        run_lane(compile(true), false, script),
    ]
}

#[test]
fn string_literals_agree_on_every_lane() {
    let src = "input void A;\nint a, b;\na = \"hi\" == \"hi\";\nb = \"hi\" != \"ho\";\n\
               _f(\"hi\", a, b);\nawait A;\n_f(\"ho\", \"hi\" == \"ho\");";
    let p = Compiler::unoptimized().compile(src).expect("compiles");
    let [tree, flat, opt] = lanes(src, &[Input::A]);
    assert_eq!(tree, flat, "tree vs raw flat");
    assert_eq!(flat, opt, "raw flat vs optimized flat");
    let (data, calls, status, err) = flat;
    assert_eq!(
        (&data[..2], status, err),
        (&[Value::Int(1), Value::Int(1)][..], Status::Terminated(None), None)
    );
    let text = |v: &Value| match v {
        Value::Str(s) => p.str(*s).to_string(),
        other => other.to_string(),
    };
    let calls: Vec<Vec<String>> =
        calls.iter().map(|(_, args)| args.iter().map(text).collect()).collect();
    assert_eq!(calls, [vec!["hi", "1", "1"], vec!["ho", "0"]]);
    // equal text, equal id: the pool holds each literal once
    assert_eq!(p.strs.len(), 2);
}

/// A program for the typed-path property: each `X` sets `v0` and then
/// runs generated statements, which assign [`arb_int_expr`]s to `v1..v3`
/// and test them as `if` conditions; `_f` reports `v0..v3` to the host.
/// `k0..k3` hold the edge values the generator's operands rely on.
fn arb_int_program() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        (1u8..4, arb_int_expr()).prop_map(|(i, e)| format!("   v{i} = {e};")),
        (arb_int_expr(), 1u8..4).prop_map(|(c, i)| {
            format!("   if {c} then\n      _t(v{i});\n   else\n      _e({i});\n   end")
        }),
    ];
    prop::collection::vec(stmt, 1..6).prop_map(|stmts| {
        format!(
            "input int X;\nint v0, v1, v2, v3, k0, k1, k2, k3, s;\nint* p;\n\
             k0 = (-9223372036854775807) - 1;\nk1 = -1;\nk2 = 0;\nk3 = 64;\n\
             p = &v0;\ns = \"hi\";\nv1 = 3;\nv2 = -7;\nv3 = 100;\n\
             loop do\n   v0 = await X;\n{}\n   _f(v0, v1, v2, v3);\nend",
            stmts.join("\n")
        )
    })
}

/// `X` events whose payloads reach the typed path's guards: ints (edge
/// values among them), no value, `null` and a host pointer.
fn arb_int_script() -> impl Strategy<Value = Vec<Input>> {
    let payload = prop_oneof![
        (-100i64..100).prop_map(|n| Some(Value::Int(n))),
        prop::sample::select(vec![i64::MIN, i64::MAX, -1, 0, 64]).prop_map(|n| Some(Value::Int(n))),
        Just(None),
        Just(Some(Value::Null)),
        Just(Some(Value::Ptr(Ptr::Host(3)))),
    ];
    prop::collection::vec(payload.prop_map(Input::Xraw), 1..8)
}

/// A recording host whose call number `fail_at` (0-based) fails, so a
/// run against it can stop in the middle of a reaction.
struct FailingHost {
    rec: RecordingHost,
    fail_at: usize,
}

impl Host for FailingHost {
    fn call(&mut self, name: &str, args: &[Value]) -> HostResult<Value> {
        if self.rec.calls.len() == self.fail_at {
            self.fail_at = usize::MAX;
            return Err(format!("`_{name}` failed on purpose"));
        }
        self.rec.call(name, args)
    }
}

/// Feeds `script` to a booted machine up to its end, its termination or
/// its first error, which is returned as text with its span.
fn drive(m: &mut Machine, host: &mut dyn Host, script: &[Input]) -> Option<String> {
    let evt = |m: &Machine, name| m.event_id(name).expect("the programs declare A, B and X");
    for inp in script {
        if m.status().is_terminated() {
            return None;
        }
        let r = match inp {
            Input::A => m.go_event(evt(m, "A"), None, host),
            Input::B => m.go_event(evt(m, "B"), None, host),
            Input::X(v) => m.go_event(evt(m, "X"), Some(Value::Int(*v)), host),
            Input::Xraw(v) => m.go_event(evt(m, "X"), *v, host),
            Input::Time(us) => m.go_time(m.now() + us, host),
        };
        if let Err(e) = r {
            return Some(e.to_string());
        }
    }
    None
}

/// What one life of a machine showed: outputs, data, host calls, status,
/// the error with its span, and the coarse trace.
type Life = (
    Vec<(ceu::ast::EventId, Option<Value>)>,
    Vec<Value>,
    Vec<String>,
    Status,
    Option<String>,
    Vec<TraceEvent>,
);

/// Boots `m` and runs `script` against a fresh recording host.
fn life(m: &mut Machine, script: &[Input]) -> Life {
    let mut host = RecordingHost::new();
    let err = match m.go_init(&mut host) {
        Ok(_) => drive(m, &mut host, script),
        Err(e) => Some(e.to_string()),
    };
    let calls = host.calls.iter().map(|(n, a)| format!("{n}{a:?}")).collect();
    let mut trace = Vec::new();
    m.drain_events_into(&mut trace);
    (m.take_outputs(), m.data().to_vec(), calls, m.status(), err, trace)
}

/// Runs `prefix` against a host that fails its call `fail_at`, reboots
/// the machine and runs `script`; returns that life, a fresh machine's
/// run of `script` with the same settings, and the rebooted machine's
/// reaction ids moved back by the prefix's count.
fn reboot_vs_fresh(
    src: &str,
    prefix: &[Input],
    fail_at: usize,
    script: &[Input],
) -> (Life, Life, bool) {
    let prog = Arc::new(Compiler::unchecked().compile(src).expect("compiles"));
    let machine = || {
        let mut m = Machine::from_arc(Arc::clone(&prog));
        m.enable_events(TraceMask::Coarse);
        m.set_fuel_limit(Some(100_000));
        m.set_trace_mote(3);
        m
    };
    let mut m = machine();
    let mut host = FailingHost { rec: RecordingHost::new(), fail_at };
    if m.go_init(&mut host).is_ok() {
        drive(&mut m, &mut host, prefix);
    }
    m.drain_events_into(&mut Vec::new());
    let lived = m.reactions_started();
    m.reboot();
    let mut rebooted = life(&mut m, script);
    for e in &mut rebooted.5 {
        if let TraceEvent::ReactionStart { id, .. } = e {
            id.seq -= lived;
        }
    }
    let mut fresh = machine();
    let fresh_life = life(&mut fresh, script);
    let counted_on = m.reactions_started() == lived + fresh.reactions_started();
    (rebooted, fresh_life, counted_on)
}

#[test]
fn a_reboot_clears_a_reaction_cut_short() {
    // `A` queues both trails' tracks; the first one emits an output and
    // then its `_f` fails, so the reaction dies with an output buffered
    // and the second track still queued
    let src = "input void A, B;\ninput int X;\noutput int Out;\nint v, w;\npar do\n\
               loop do\n      await A;\n      emit Out = v;\n      _f(v);\n      v = v + 1;\n\
               end\nwith\n   loop do\n      await A;\n      w = w + 1;\n   end\nend";
    let script = [Input::A, Input::Time(5_000), Input::A];
    let (rebooted, fresh, counted_on) = reboot_vs_fresh(src, &[Input::A], 0, &script);
    assert_eq!(rebooted, fresh);
    assert!(counted_on, "reaction ids keep counting across the reboot");
    assert_eq!((fresh.0.len(), &fresh.1[..2]), (2, &[Value::Int(2), Value::Int(2)][..]));
}

#[test]
fn a_reboot_restarts_the_async_round_robin_and_the_status() {
    let src = "int a, b;\npar/and do\n   a = async do\n      _f(1);\n      return 1;\n   end;\n\
               with\n   b = async do\n      _f(2);\n      return 2;\n   end;\nend\nreturn a + b;";
    let prog = Arc::new(Compiler::unchecked().compile(src).expect("compiles"));
    // boots `m` and runs its asyncs to the end
    let run = |m: &mut Machine| {
        let mut host = RecordingHost::new();
        m.go_init(&mut host).expect("boot");
        while m.go_async(&mut host).expect("slice") {}
        (host.calls, m.status())
    };
    let fresh = run(&mut Machine::from_arc(Arc::clone(&prog)));
    assert_eq!(fresh.1, Status::Terminated(Some(3)));
    let mut m = Machine::from_arc(prog);
    m.go_init(&mut RecordingHost::new()).expect("boot");
    // one slice moves the round-robin past the first async
    m.go_async(&mut RecordingHost::new()).expect("slice");
    m.reboot();
    assert_eq!(run(&mut m), fresh, "rebooted mid-run");
    m.reboot();
    assert_eq!(run(&mut m), fresh, "rebooted after termination");
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
        // the language's core promise, checked end-to-end: two independent
        // compiles (each with fresh hash-map keys) build the same artifact,
        // and the two runs observe the same data and host calls
        let p1 = Compiler::unchecked().compile(&src).expect("compiles");
        let p2 = Compiler::unchecked().compile(&src).expect("compiles");
        prop_assert_eq!(p1.fingerprint(), p2.fingerprint(), "two compiles differ on\n{}", src);
        let (d1, c1) = run_script(p1, &script);
        let (d2, c2) = run_script(p2, &script);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn lanes_agree_on_generated_programs(src in arb_program(), script in arb_script()) {
        let [tree, flat, opt] = lanes(&src, &script);
        prop_assert_eq!(&tree, &flat, "tree vs raw flat on\n{}", src);
        prop_assert_eq!(&flat, &opt, "raw flat vs optimized flat on\n{}", src);
    }

    #[test]
    fn lanes_agree_on_int_expressions(src in arb_int_program(), script in arb_int_script()) {
        let [tree, flat, opt] = lanes(&src, &script);
        prop_assert_eq!(&tree, &flat, "tree vs raw flat on\n{}", src);
        prop_assert_eq!(&flat, &opt, "raw flat vs optimized flat on\n{}", src);
    }

    #[test]
    fn a_rebooted_machine_runs_like_a_fresh_one(
        src in arb_program(),
        prefix in arb_script(),
        fail_at in 0usize..4,
        script in arb_script(),
    ) {
        let (rebooted, fresh, counted_on) = reboot_vs_fresh(&src, &prefix, fail_at, &script);
        prop_assert_eq!(rebooted, fresh, "rebooted vs fresh on\n{}", src);
        prop_assert!(counted_on, "reaction ids restarted on\n{}", src);
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
    fn check_agrees_with_the_product(src in arb_par_program()) {
        // both run the bounded check first; a refused source has no DFA
        let Ok((p, product)) = Compiler::new().analyze(&src) else { return Ok(()) };
        let check = check_determinism(&p, &DfaOptions::default());
        if !product.truncated && !check.truncated {
            prop_assert_eq!(
                conflict_set(&check.conflicts),
                conflict_set(&product.conflicts),
                "{} runs over\n{}",
                check.runs,
                src
            );
        }
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

/// The agreement property above means something only if its programs
/// split: some must explore more than one group, some must stay one
/// product, and some must be refused.
#[test]
fn generated_pars_split_couple_and_conflict() {
    let (mut split, mut whole, mut refused) = (0, 0, 0);
    for seed in 0..64 {
        let src =
            arb_par_program().new_value(&mut proptest::test_runner::TestRng::seed_from_u64(seed));
        let p = Compiler::unchecked().compile(&src).expect("generated programs compile");
        let check = check_determinism(&p, &DfaOptions::default());
        if check.runs > 1 {
            split += 1;
        } else {
            whole += 1;
        }
        refused += usize::from(!check.deterministic());
    }
    assert!(
        split >= 8 && whole >= 8 && refused >= 8,
        "{split} split, {whole} whole, {refused} refused"
    );
}
