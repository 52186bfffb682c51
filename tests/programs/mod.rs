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
