//! The parser's nesting limit: a source nested up to
//! [`MAX_NESTING`](ceu::parser::MAX_NESTING) goes through every phase —
//! the checked compile, `emit_rust`, and a run on the tree-walking
//! evaluator — on a default-size test thread, and anything deeper is
//! refused with a spanned parse error naming the limit instead of
//! overflowing the stack of whichever phase recurses deepest.

use ceu::codegen::rsbackend::emit_rust;
use ceu::parser::MAX_NESTING;
use ceu::{Compiler, Error, NullHost, Simulator, Status};

/// A source of some shape nested `n` deep.
type Shape = fn(usize) -> String;

/// The shapes, with the levels one unit of `n` takes: a nested statement
/// is a block and a statement.
fn shapes() -> [(&'static str, usize, Shape); 6] {
    [
        ("parentheses", 1, |n| format!("int x;\nx = {}1{};", "(".repeat(n), ")".repeat(n))),
        ("unary minus", 1, |n| format!("int x;\nx = {}1;", "- ".repeat(n))),
        ("+ chain", 1, |n| format!("int x;\nx = 1{};", " + 1".repeat(n))),
        ("&& chain", 1, |n| format!("int x;\nx = 1{};", " && 1".repeat(n))),
        ("nested do", 2, |n| format!("int x;\n{}x = 1;{}", "do\n".repeat(n), "\nend".repeat(n))),
        ("nested if", 2, |n| {
            format!("int x;\n{}x = 1;{}", "if 1 then\n".repeat(n), "\nend".repeat(n))
        }),
    ]
}

fn refusal(src: &str) -> Option<String> {
    match ceu::parser::parse(src) {
        Ok(_) => None,
        Err(e) => Some(e.to_string()),
    }
}

#[test]
fn the_deepest_accepted_source_of_every_shape_runs_and_one_more_level_is_refused() {
    let limit = MAX_NESTING as usize;
    for (name, per, shape) in shapes() {
        // the deepest accepted `n`: the program block and the assignment
        // statement take the first two levels
        let refused = (1..=limit + 1)
            .find(|&n| refusal(&shape(n)).is_some())
            .unwrap_or_else(|| panic!("{name}: {} levels must be refused", limit + 1));
        let at_limit = refused - 1;
        assert_eq!(2 + at_limit * per, limit, "{name}: {at_limit} accepted");
        let msg = refusal(&shape(refused)).unwrap();
        assert!(msg.contains(&format!("nesting deeper than {limit}")), "{name}: {msg}");

        let src = shape(at_limit);
        let p = Compiler::new().compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(emit_rust(&p).contains("FINGERPRINT"), "{name}");
        let mut sim = Simulator::new(p, NullHost);
        sim.machine_mut().use_tree_eval = true;
        let status = sim.start().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(status, Status::Terminated(None), "{name}");
    }
}

#[test]
fn any_depth_is_refused_without_overflowing_the_stack() {
    for (name, _, shape) in shapes() {
        let src = shape(100_000);
        match Compiler::new().compile(&src) {
            Err(Error::Parse(e)) => {
                assert!(e.message.contains("nesting deeper than"), "{name}: {e}");
                assert!(e.span.line > 0, "{name}: the error carries a span");
            }
            other => panic!("{name}: expected a nesting error, got {:?}", other.map(|_| ())),
        }
    }
}
