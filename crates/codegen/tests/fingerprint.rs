//! Coverage of `CompiledProgram::fingerprint`: every field it hashes moves
//! it when changed by one, and its value is pinned, so an encoding that
//! depends on the toolchain, the `usize` width or the byte order fails
//! here.

use ceu_ast::EventId;
use ceu_codegen::flat::FlatOp;
use ceu_codegen::ir::{GateKind, Op, Term, TimeAmount};
use ceu_codegen::{compile_source, CompiledProgram};

/// Asyncs, a `suspend`, a `par/or` region, string and C-call flat ops,
/// and timers.
const SRC: &str = r#"
input int Pause, Go;
int ret, n;
par/or do
   suspend Pause do
      loop do
         await 10ms;
         n = n + 1;
         _printf("tick %d\n", n);
      end
   end
with
   ret = async do
      return 7;
   end;
   await Go;
end
return ret;
"#;

fn program() -> CompiledProgram {
    compile_source(SRC).unwrap()
}

/// Asserts that `change` moves the fingerprint.
fn moves(what: &str, change: impl FnOnce(&mut CompiledProgram)) {
    let p = program();
    let mut q = p.clone();
    change(&mut q);
    assert_ne!(p.fingerprint(), q.fingerprint(), "changing {what} must move the fingerprint");
}

#[test]
fn every_hashed_field_moves_the_fingerprint() {
    let p = program();
    assert!(!p.asyncs.is_empty() && !p.suspends.is_empty() && p.regions.len() > 1);
    assert!(p.gates.iter().any(|g| g.kind == GateKind::Timer));
    assert!(p.flat.code.iter().any(|op| matches!(op, FlatOp::Str(_))));
    let ccall = p.flat.code.iter().position(|op| matches!(op, FlatOp::CCall { .. })).unwrap();
    let goto = p.blocks.iter().position(|b| matches!(b.term, Term::Goto(_))).unwrap();
    let spanned = p.blocks.iter().position(|b| !b.instrs.is_empty()).unwrap();
    let nested = p.blocks.iter().position(|b| !b.regions.is_empty()).unwrap();

    moves("data_len", |q| q.data_len += 1);
    moves("boot", |q| q.boot += 1);
    moves("a rank", |q| q.blocks[1].rank += 1);
    moves("an instruction span", |q| q.blocks[spanned].instrs[0].span.col += 1);
    moves("an instruction", |q| {
        let timer = q.blocks.iter_mut().flat_map(|b| &mut b.instrs).find_map(|i| match &mut i.op {
            Op::ActivateTime { us: TimeAmount::Const(us), .. } => Some(us),
            _ => None,
        });
        *timer.unwrap() += 1;
    });
    moves("a terminator target", |q| {
        if let Term::Goto(t) = &mut q.blocks[goto].term {
            *t += 1;
        }
    });
    moves("a block's regions", |q| q.blocks[nested].regions[0] += 1);
    moves("a region bound", |q| q.regions[0].hi += 1);
    moves("a gate's kind", |q| {
        let g = q.gates.iter_mut().find(|g| g.kind == GateKind::Timer).unwrap();
        g.kind = GateKind::Never;
    });
    moves("a gate's continuation", |q| q.gates[0].cont += 1);
    moves("an async's result slot", |q| {
        let r = q.asyncs[0].result.as_mut().unwrap();
        *r += 1;
    });
    moves("an async's entry", |q| q.asyncs[0].entry += 1);
    moves("an async's done gate", |q| q.asyncs[0].done_gate += 1);
    moves("a suspend's event", |q| q.suspends[0].event = EventId(q.suspends[0].event.0 + 1));
    moves("a suspend's region", |q| q.suspends[0].region += 1);
    moves("an event name", |q| q.events.events[0].name.push('X'));
    moves("a string literal's text", |q| q.strs[0] = "tock %d\n".into());
    moves("a C call's argument count", |q| {
        if let FlatOp::CCall { argc, .. } = &mut q.flat.code[ccall] {
            *argc += 1;
        }
    });
    moves("a C call's name", |q| {
        if let FlatOp::CCall { name, .. } = &mut q.flat.code[ccall] {
            *name = "printg".into();
        }
    });
    moves("a range", |q| q.flat.ranges[0].1 += 1);
}

#[test]
fn the_fingerprint_is_pinned() {
    // Integers are hashed as values and strings as little-endian words:
    // this number is the same on every platform and toolchain. It changes
    // only when the program's lowering or the hash's definition does.
    assert_eq!(program().fingerprint(), 0xffb8_e57f_94b7_e1d6);
}
