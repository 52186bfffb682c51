//! The random Céu program generator shared by the property tests and the
//! DFA golden test.

use proptest::prelude::*;

/// Small arithmetic expression over v0..v3 and constants.
fn arb_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0u8..4).prop_map(|i| format!("v{i}")),
        (-20i64..100).prop_map(|n| if n < 0 { format!("(0 - {})", -n) } else { n.to_string() }),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (inner.clone(), prop::sample::select(vec!["+", "-", "*"]), inner)
            .prop_map(|(a, op, b)| format!("({a} {op} {b})"))
    })
}

/// A zero-time statement.
fn arb_instant() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u8..4, arb_expr()).prop_map(|(i, e)| format!("v{i} = {e};")),
        arb_expr().prop_map(|e| format!("_f({e});")),
        Just("emit tick;".to_string()),
        Just("nothing;".to_string()),
    ]
}

/// A statement that consumes time.
fn arb_await() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("await A;".to_string()),
        Just("await B;".to_string()),
        (1u64..50).prop_map(|ms| format!("await {ms}ms;")),
        Just("v0 = await X;".to_string()),
    ]
}

/// A statement block, recursively composed; every loop body awaits, so
/// generated programs always pass the bounded-execution check.
fn arb_block(depth: u32) -> BoxedStrategy<String> {
    if depth == 0 {
        return prop::collection::vec(
            prop_oneof![arb_instant().boxed(), arb_await().boxed()],
            1..4,
        )
        .prop_map(|v| v.join("\n"))
        .boxed();
    }
    let inner = arb_block(depth - 1);
    prop_oneof![
        prop::collection::vec(prop_oneof![arb_instant().boxed(), arb_await().boxed()], 1..4)
            .prop_map(|v| v.join("\n")),
        (inner.clone(), arb_await()).prop_map(|(b, a)| format!("loop do\n{b}\n{a}\nbreak;\nend")),
        (inner.clone(), inner.clone())
            .prop_map(|(a, b)| format!("par/or do\n{a}\nawait A;\nwith\n{b}\nawait B;\nend")),
        (inner.clone(), inner.clone())
            .prop_map(|(a, b)| format!("par/and do\n{a}\nawait A;\nwith\n{b}\nawait B;\nend")),
        (arb_expr(), inner.clone(), inner)
            .prop_map(|(c, a, b)| format!("if {c} then\n{a}\nelse\n{b}\nend")),
    ]
    .boxed()
}

/// A full program: declarations + generated body (one trail) in parallel
/// with a `tick` listener, so generated `emit tick;` statements exercise
/// the internal-event stack policy.
pub fn arb_program() -> impl Strategy<Value = String> {
    arb_block(2).prop_map(|body| {
        format!(
            "input void A, B;\ninput int X;\ninternal void tick;\n\
             int v0, v1, v2, v3;\npar do\n{body}\nawait forever;\nwith\n\
             loop do\n   await tick;\n   v3 = v3 + 1;\nend\nend"
        )
    })
}

// ---- plain `par`s whose arms may share nothing -----------------------------
//
// Arm text names its variables by placeholder: `$0`..`$3` are the arm's
// own, `$s` is the shared `s` when the arm shares and its own `$0` when
// it does not. `arb_par_program` fills them in per arm.

/// A small expression over an arm's variables.
fn arb_par_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        prop::sample::select(vec!["$0", "$1", "$0", "$1", "$s"]).prop_map(str::to_string),
        (0i64..20).prop_map(|n| n.to_string()),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        (inner.clone(), prop::sample::select(vec!["+", "-", "*"]), inner)
            .prop_map(|(a, op, b)| format!("({a} {op} {b})"))
    })
}

/// A zero-time statement: a write, a C call (`_f` and `_h` form a
/// `deterministic` clique, `_g` is compatible with nothing), an output,
/// an internal emit.
fn arb_par_instant() -> impl Strategy<Value = String> {
    let write = (prop::sample::select(vec!["$0", "$1", "$s"]), arb_par_expr())
        .prop_map(|(v, e)| format!("{v} = {e};"));
    prop_oneof![
        write.clone(),
        write.clone(),
        write,
        arb_par_expr().prop_map(|e| format!("_f({e});")),
        prop::sample::select(vec!["_g();", "_h();", "emit tick;"]).prop_map(str::to_string),
        arb_par_expr().prop_map(|e| format!("emit O = {e};")),
    ]
}

/// A statement that takes time: an input, an internal event or a timer.
fn arb_par_await() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::sample::select(vec!["await A;", "await B;", "await tick;", "$0 = await X;"])
            .prop_map(str::to_string),
        prop::sample::select(vec![5u64, 10, 15, 20]).prop_map(|ms| format!("await {ms}ms;")),
    ]
}

/// Instants around one await, now and then inside a `par/or` whose
/// other arm awaits on its own.
fn arb_par_step() -> impl Strategy<Value = String> {
    let seq = (
        prop::collection::vec(arb_par_instant(), 0..3),
        arb_par_await(),
        prop::collection::vec(arb_par_instant(), 0..2),
    )
        .prop_map(|(pre, a, post)| [pre.join("\n"), a, post.join("\n")].join("\n"));
    prop_oneof![
        seq.clone(),
        seq.clone(),
        seq.clone(),
        (seq, arb_par_await(), arb_par_instant())
            .prop_map(|(a, w, i)| format!("par/or do\n{a}\nwith\n{w}\n{i}\nend")),
    ]
}

/// One arm: a loop, steps that end in `await forever` or in a program
/// `return`, or (at `depth` 1) steps that end in a nested plain `par`
/// whose two arms use the arm's variables `$2` and `$3`.
fn arb_par_arm(depth: u32) -> BoxedStrategy<String> {
    let steps = prop::collection::vec(arb_par_step(), 1..3).prop_map(|s| s.join("\n"));
    let looped = steps.clone().prop_map(|s| format!("loop do\n{s}\nend"));
    let mut arms = vec![
        looped.clone().boxed(),
        looped.clone().boxed(),
        looped.boxed(),
        steps.clone().prop_map(|s| format!("{s}\nawait forever;")).boxed(),
        steps.clone().prop_map(|s| format!("{s}\nreturn $0;")).boxed(),
    ];
    if depth > 0 {
        let nested = (steps, arb_par_arm(0), arb_par_arm(0)).prop_map(|(s, x, y)| {
            let own = |arm: String, v: &str| arm.replace("$0", v).replace("$1", v);
            format!("{s}\npar do\n{}\nwith\n{}\nend", own(x, "$2"), own(y, "$3"))
        });
        arms.push(nested.boxed());
    }
    prop::strategy::Union::new(arms).boxed()
}

/// A plain `par` of 2–4 arms, each over its own variables and sharing
/// `s` with a one-in-four chance; timers, inputs, `emit tick`, C calls,
/// outputs, now and then a `return`, a nested `par/or` or a nested `par`. Unlike
/// [`arb_program`], whose body and `tick` listener share `v3` and
/// `tick`, its arms are often uncoupled, so the §2.6 check splits them.
#[allow(dead_code)] // properties.rs uses it, the other includers do not
pub fn arb_par_program() -> impl Strategy<Value = String> {
    let arms = prop::collection::vec((arb_par_arm(1), 0u8..4), 2..5);
    (arms, 0u8..3).prop_map(|(arms, clock)| {
        let body: Vec<String> = arms
            .into_iter()
            .zip(["a", "b", "c", "d"])
            .map(|((arm, share), own)| {
                let shared = if share == 0 { "s".to_string() } else { format!("{own}0") };
                (0..4).fold(arm.replace("$s", &shared), |arm, i| {
                    arm.replace(&format!("${i}"), &format!("{own}{i}"))
                })
            })
            .collect();
        // a constant timer couples with an input-driven arm (DESIGN.md,
        // "The §2.6 check by coupled groups"), so a third of the programs
        // wait on inputs only and a third on timers only
        let mut body = body.join("\nwith\n");
        let swaps: &[(&str, &str)] = match clock {
            0 => &[],
            1 => &[("5ms;", "A;"), ("10ms;", "B;"), ("15ms;", "A;"), ("20ms;", "B;")],
            _ => &[("A;", "5ms;"), ("B;", "10ms;"), ("X;", "15ms;")],
        };
        for (from, to) in swaps {
            body = body.replace(&format!("await {from}"), &format!("await {to}"));
        }
        let vars: Vec<String> = ["a", "b", "c", "d"]
            .iter()
            .flat_map(|p| (0..4).map(move |i| format!("{p}{i}")))
            .collect();
        format!(
            "input void A, B;\ninput int X;\ninternal void tick;\noutput int O;\n\
             deterministic _f, _h;\nint s, {};\npar do\n{}\nend",
            vars.join(", "),
            body
        )
    })
}

/// An expression for the interpreter's typed flat code: every integer
/// operator (`/ % << >> & | ^ < <= > >= == != && ||` and unary `! ~ - +`)
/// over `v0..v3`, the edge-value slots `k0..k3` (`i64::MIN`, `-1`, `0`,
/// `64`; see [`int_expr_program`]) and constants, so divisors are zero,
/// shift counts reach 64 and go negative, and `i64::MIN / -1` comes up.
/// A few leaves miss the typed path's guard: `p` holds `&v0`, `s` holds a
/// string, and a string literal makes the expression generic. `v0` is
/// read from an input event, which may carry no value (the event value
/// was never emitted) or a non-integer.
#[allow(dead_code)] // dfa_golden.rs shares this module, not this generator
pub fn arb_int_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        prop::sample::select(vec![
            "v0",
            "v1",
            "v2",
            "v3",
            "v0",
            "v1",
            "v2",
            "v3",
            "k0",
            "k1",
            "k2",
            "k3",
            "0",
            "1",
            "63",
            "64",
            "65",
            "9223372036854775807",
            "p",
            "s",
            "\"hi\"",
        ])
        .prop_map(str::to_string),
        (-70i64..70).prop_map(|n| if n < 0 { format!("(-{})", -n) } else { n.to_string() }),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (
                inner.clone(),
                prop::sample::select(vec![
                    "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "<", "<=", ">", ">=", "==",
                    "!=", "&&", "||",
                ]),
                inner.clone()
            )
                .prop_map(|(a, op, b)| format!("({a} {op} {b})")),
            (prop::sample::select(vec!["!", "~", "-", "+"]), inner)
                .prop_map(|(op, a)| format!("({op}{a})")),
        ]
    })
}

/// One conflict as `conflict_set` lists it: kind, text, ordered spans.
#[allow(dead_code)]
pub type ConflictKey = (u8, String, [(u32, u32); 2]);

/// A conflict list as `Compiler::compile` reports it — kind, text and
/// the two spans, unordered as the analysis deduplicates them — sorted,
/// so two lists compare as multisets.
#[allow(dead_code)] // properties.rs and dfa_golden.rs use it, the others do not
pub fn conflict_set(cs: &[ceu::analysis::Conflict]) -> Vec<ConflictKey> {
    let mut set: Vec<_> = cs
        .iter()
        .map(|c| {
            let mut spans = [(c.spans.0.line, c.spans.0.col), (c.spans.1.line, c.spans.1.col)];
            spans.sort();
            (c.kind as u8, c.what.clone(), spans)
        })
        .collect();
    set.sort();
    set
}
