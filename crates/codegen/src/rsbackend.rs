//! The Rust source backend: AOT-compiles a [`CompiledProgram`] to native
//! code the runtime can execute in place of the block interpreter.
//!
//! Where [`cbackend`](crate::cbackend) prints the paper's switch/case C
//! for inspection, this backend emits Rust that is actually *run*: the
//! output implements `ceu_runtime::native::NativeProgram`, and
//! `Machine::set_native` steps it instead of interpreting block
//! instructions. Build the emitted file with a `build.rs` (see
//! `crates/native-corpus`) or via `ceuc emit-rust`, then `include!` it.
//!
//! Lowering strategy (docs/NATIVE.md has the full design):
//!
//! * one `match` arm per [`BlockId`] — the paper's `switch (track)` —
//!   with `Goto` chains followed natively inside the `step` loop;
//! * flat postfix expressions become straight-line `let` bindings: each
//!   operand lands in a local, so the emitted code has no operand stack
//!   at all and rustc sees plain data flow;
//! * int-pure expressions (arithmetic over slots/constants/event values,
//!   as [`flat::int_pure`](crate::flat::int_pure) defines them for the
//!   interpreter's typed flat code too) additionally get an **i64 fast
//!   path**: each operand is guarded for
//!   `Value::Int` at entry, the computation runs in plain `i64` locals
//!   (registers, no `Value` moves), and any non-int operand
//!   or division by zero falls back to the generic lowering, which
//!   re-derives the result and raises the real error;
//! * dispatch tables (`GATE_CONT`, `BLOCK_RANK`) are baked as `const`
//!   arrays;
//! * scheduler-visible instructions (spawn, emits, region kills, async
//!   starts) are not lowered — they call `ctx.sched(block, ip)`, which
//!   runs that one instruction through the machine's scheduler in place
//!   (an internal emit's whole nested reaction included) and says whether
//!   the track must stop; otherwise native execution carries on with the
//!   next instruction;
//! * operator semantics are *not* re-emitted: generated code calls the
//!   same `ceu_runtime::native::{bin_op, un_op}` the interpreter uses.
//!
//! The emission is deterministic: identical `CompiledProgram`s produce
//! byte-identical source (golden-snapshot tested), and the program's
//! [`fingerprint`](CompiledProgram::fingerprint) is baked into the output
//! so a stale emission is rejected at attach time.

use crate::flat::{int_pure, FlatOp};
use crate::ir::{BBlock, CompiledProgram, Instr, Op, Place, Term, TimeAmount};
use ceu_ast::{BinOp, Span, UnOp};
use std::fmt::{self, Write};

/// Emits the complete Rust source for `p`. The output is a self-contained
/// set of items (`Program`, `program()`, `FINGERPRINT`, const tables)
/// meant to be `include!`d inside a module that depends on `ceu-runtime`.
pub fn emit_rust(p: &CompiledProgram) -> String {
    // Indentation is a prefix of one run of spaces: 28 columns for the
    // innermost fast-path line plus 4 per nested short-circuit, which an
    // expression's count of short-circuits bounds.
    let shorts = |id| {
        let code = p.flat.code_of(id);
        code.iter().filter(|op| matches!(op, FlatOp::ShortAnd(_) | FlatOp::ShortOr(_))).count()
    };
    let deepest = (0..p.flat.len() as u32).map(shorts).max().unwrap_or(0);
    let width = 32 + 4 * deepest;
    let owned;
    let spaces = if width <= SPACES.len() {
        SPACES
    } else {
        owned = " ".repeat(width);
        &owned
    };
    Emitter::new(p, spaces).emit()
}

const SPACES: &str = match std::str::from_utf8(&[b' '; 256]) {
    Ok(s) => s,
    Err(_) => unreachable!(),
};

/// Appends its pieces to a `String` in order. Emission goes through here
/// rather than `write!`: pieces are copied or rendered in place, without
/// `core::fmt`'s per-argument dispatch.
macro_rules! put {
    ($o:expr; $($piece:expr),+ $(,)?) => {{
        let o: &mut String = $o;
        $(Piece::put(&$piece, o);)+
    }};
}

/// One piece of emitted text.
trait Piece {
    fn put(&self, o: &mut String);
}

impl Piece for &str {
    fn put(&self, o: &mut String) {
        o.push_str(self);
    }
}

impl Piece for u64 {
    fn put(&self, o: &mut String) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        let mut v = *self;
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        o.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
    }
}

impl Piece for i64 {
    fn put(&self, o: &mut String) {
        if *self < 0 {
            o.push('-');
        }
        self.unsigned_abs().put(o);
    }
}

impl Piece for u32 {
    fn put(&self, o: &mut String) {
        u64::from(*self).put(o);
    }
}

impl Piece for usize {
    fn put(&self, o: &mut String) {
        (*self as u64).put(o);
    }
}

impl Piece for bool {
    fn put(&self, o: &mut String) {
        o.push_str(if *self { "true" } else { "false" });
    }
}

/// A source position, emitted as `Span::new(line, col)`.
#[derive(Clone, Copy)]
struct SpanLit(Span);

impl Piece for SpanLit {
    fn put(&self, o: &mut String) {
        put!(o; "Span::new(", self.0.line, ", ", self.0.col, ")");
    }
}

/// One value of the symbolic operand stack: a `Value` temporary, an `i64`
/// temporary of the fast path, or an `i64` literal.
#[derive(Clone, Copy)]
enum Operand {
    T(u32),
    I(u32),
    Lit(i64),
}

impl Piece for Operand {
    fn put(&self, o: &mut String) {
        match *self {
            Operand::T(n) => put!(o; "__t", n),
            Operand::I(n) => put!(o; "__i", n),
            Operand::Lit(v) => put!(o; v, "i64"),
        }
    }
}

/// A value in its `Debug` form: a name as a Rust string literal, an
/// operator as its variant name.
struct Dbg<T>(T);

impl<T: fmt::Debug> Piece for Dbg<T> {
    fn put(&self, o: &mut String) {
        let _ = write!(o, "{:?}", self.0);
    }
}

/// `true` for instructions the native code hands to the machine's
/// scheduler through `NativeCtx::sched` (they touch the track queue, the
/// async table or the region-kill log).
fn is_sched(op: &Op) -> bool {
    matches!(
        op,
        Op::Spawn(_)
            | Op::EmitInt { .. }
            | Op::EmitExt { .. }
            | Op::EmitOut { .. }
            | Op::EmitTime(_)
            | Op::ActivateAsync { .. }
            | Op::ClearRegion(_)
    )
}

/// A deduplicated operand source for the i64 fast path's entry guards.
#[derive(Clone, Copy, PartialEq, Eq)]
enum IntLoad {
    Slot(u32),
    Evt(u32),
}

struct Emitter<'a> {
    p: &'a CompiledProgram,
    /// A run of spaces every indentation is a prefix of.
    spaces: &'a str,
    /// The symbolic operand stack, shared by every expression.
    st: Vec<Operand>,
    /// The fast path's guarded loads, for the expression being emitted.
    loads: Vec<(IntLoad, Operand)>,
    /// Next temporary number; restarts at every instruction.
    n: u32,
}

impl<'a> Emitter<'a> {
    fn new(p: &'a CompiledProgram, spaces: &'a str) -> Self {
        Emitter { p, spaces, st: Vec::new(), loads: Vec::new(), n: 0 }
    }

    /// The indentation one level (4 columns) deeper than `ind`.
    fn deeper(&self, ind: &str) -> &'a str {
        &self.spaces[..ind.len() + 4]
    }

    fn pop(&mut self) -> Operand {
        self.st.pop().expect("rsbackend: operand stack underflow")
    }

    /// A new temporary of the given kind (`Operand::T` or `Operand::I`).
    fn fresh(&mut self, kind: fn(u32) -> Operand) -> Operand {
        self.n += 1;
        kind(self.n - 1)
    }

    /// Writes `{ind}let {t} = ` for a fresh temporary `t` and returns it;
    /// the caller finishes the line.
    fn open(&mut self, o: &mut String, ind: &str, kind: fn(u32) -> Operand) -> Operand {
        let t = self.fresh(kind);
        put!(o; ind, "let ", t, " = ");
        t
    }

    fn emit(mut self) -> String {
        let p = self.p;
        let fp = p.fingerprint();
        let mut o = String::with_capacity(16 * 1024);
        o.push_str("// @generated by ceu-codegen's Rust backend (rsbackend) — do not edit.\n");
        let _ = writeln!(o, "// fingerprint: {fp:#018x}");
        let _ = writeln!(
            o,
            "// blocks: {}, gates: {}, exprs: {}",
            p.blocks.len(),
            p.gates.len(),
            p.flat.len()
        );
        o.push_str("#[allow(unused_imports)]\n");
        o.push_str("use ceu_runtime::native::{bin_op, time_value, un_op, BinOp, NativeCtx, NativeProgram, Span, Step, UnOp};\n");
        o.push_str("#[allow(unused_imports)]\n");
        o.push_str("use ceu_runtime::{Ptr, RuntimeError, Value};\n\n");
        let _ = writeln!(o, "#[allow(dead_code)]\npub const FINGERPRINT: u64 = {fp:#018x};");
        // baked dispatch tables: gate → continuation block, block → rank
        o.push_str("#[allow(dead_code)]\npub const GATE_CONT: &[u32] = &[");
        for (i, g) in p.gates.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            put!(&mut o; g.cont);
        }
        o.push_str("];\n");
        o.push_str("#[allow(dead_code)]\npub const BLOCK_RANK: &[u8] = &[");
        for (i, b) in p.blocks.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            put!(&mut o; u32::from(b.rank));
        }
        o.push_str("];\n\n");
        o.push_str("#[allow(dead_code)]\npub struct Program;\n\n");
        o.push_str("#[allow(dead_code)]\npub fn program() -> Program {\n    Program\n}\n\n");
        o.push_str("impl NativeProgram for Program {\n");
        o.push_str("    fn fingerprint(&self) -> u64 {\n        FINGERPRINT\n    }\n\n");
        o.push_str("    fn gate_conts(&self) -> &'static [u32] {\n        GATE_CONT\n    }\n\n");
        o.push_str("    #[allow(unused_variables, unused_mut, unused_assignments, unused_labels, unreachable_code, unreachable_patterns, clippy::all)]\n");
        o.push_str("    fn step(&self, block: u32, ctx: &mut NativeCtx<'_>) -> Result<Step, RuntimeError> {\n");
        o.push_str("        let mut blk = block;\n");
        o.push_str("        loop {\n");
        o.push_str("            // one fuel unit per block entered, like the interpreter\n");
        o.push_str("            ctx.burn()?;\n");
        o.push_str("            match blk {\n");
        for (b, blk) in p.blocks.iter().enumerate() {
            self.emit_block(&mut o, b as u32, blk);
        }
        o.push_str("                _ => {\n");
        o.push_str("                    return Err(RuntimeError::new(Span::new(0, 0), \"native step: unknown block\"));\n");
        o.push_str("                }\n");
        o.push_str("            }\n");
        o.push_str("        }\n");
        o.push_str("    }\n");
        o.push_str("}\n");
        o
    }

    fn emit_block(&mut self, o: &mut String, b: u32, blk: &BBlock) {
        let ind = &self.spaces[..16];
        put!(o; ind, "// ", blk.label.as_str(), " (rank ", u32::from(blk.rank), ")\n");
        put!(o; ind, b, "u32 => {\n");
        let body = self.deeper(ind);
        for (k, instr) in blk.instrs.iter().enumerate() {
            self.emit_instr(o, body, b, k as u32, instr);
        }
        self.emit_term(o, body, blk);
        put!(o; ind, "}\n");
    }

    fn emit_instr(&mut self, o: &mut String, ind: &'a str, b: u32, k: u32, instr: &Instr) {
        if is_sched(&instr.op) {
            put!(o; ind, "// \"", op_name(&instr.op), "\" → scheduler\n");
            put!(o; ind, "if ctx.sched(", b, ", ", k, ")? {\n");
            put!(o; ind, "    return Ok(Step::Halt);\n");
            put!(o; ind, "}\n");
            return;
        }
        let sp = SpanLit(instr.span);
        self.n = 0;
        match instr.op {
            Op::Assign { dst: Place::Slot(s), src } if int_pure(self.p.flat.code_of(src)) => {
                // i64 fast path: guard every slot/event operand for being
                // an Int, compute in plain registers, store once. The
                // generic lowering below is the fallback when any guard
                // fails (a slot holding a string/pointer) — it re-derives
                // the result from scratch, so falling back is always safe.
                let code = self.p.flat.code_of(src);
                let inner = self.deeper(ind);
                put!(o; ind, "let __nat = 'ifast: {\n");
                self.emit_int_guards(o, inner, code);
                let r = self.int_expr_code(o, inner, code);
                put!(o; inner, "ctx.set_slot(", s, ", Value::Int(", r, "));\n");
                put!(o; inner, "true\n");
                put!(o; ind, "};\n");
                put!(o; ind, "if !__nat {\n");
                let v = self.expr(o, inner, src, sp);
                put!(o; inner, "ctx.set_slot(", s, ", ", v, ");\n");
                put!(o; ind, "}\n");
            }
            Op::Assign { dst, src } => {
                let v = self.expr(o, ind, src, sp);
                match dst {
                    Place::Slot(s) => put!(o; ind, "ctx.set_slot(", s, ", ", v, ");\n"),
                    Place::Index(s, idx) => {
                        // source first, then index — the interpreter's order
                        let i = self.expr(o, ind, idx, sp);
                        put!(o; ind, "ctx.store_index(", s, ", ", i, ", ", v, ", ", sp, ")?;\n");
                    }
                    Place::Deref(ptr) => {
                        let t = self.expr(o, ind, ptr, sp);
                        put!(o; ind, "ctx.store_deref(", t, ", ", v, ", ", sp, ")?;\n");
                    }
                }
            }
            Op::Eval(rv) => {
                let v = self.expr(o, ind, rv, sp);
                put!(o; ind, "let _ = ", v, ";\n");
            }
            Op::ActivateEvt { gate } | Op::ActivateNever { gate } => {
                put!(o; ind, "ctx.arm(", gate, ");\n");
            }
            Op::ActivateTime { gate, us } => match us {
                TimeAmount::Const(us) => put!(o; ind, "ctx.arm_time(", gate, ", ", us, "u64);\n"),
                TimeAmount::Dyn(rv) => {
                    let v = self.expr(o, ind, rv, sp);
                    put!(o; ind, "ctx.arm_time(", gate, ", time_value(", v, ", ", sp, ")?);\n");
                }
            },
            Op::SetFlag(s) => put!(o; ind, "ctx.set_slot(", s, ", Value::Int(1));\n"),
            Op::ClearFlags { lo, hi } => put!(o; ind, "ctx.clear_flags(", lo, ", ", hi, ");\n"),
            sched => unreachable!("scheduler op emitted inline: {sched:?}"),
        }
    }

    fn emit_term(&mut self, o: &mut String, ind: &'a str, blk: &BBlock) {
        let sp = SpanLit(Span::default());
        let inner = self.deeper(ind);
        self.n = 0;
        match blk.term {
            Term::Halt => put!(o; ind, "return Ok(Step::Halt);\n"),
            Term::Goto(t) => put!(o; ind, "blk = ", t, ";\n"),
            Term::If { cond, then_b, else_b } => {
                let code = self.p.flat.code_of(cond);
                if int_pure(code) {
                    put!(o; ind, "let __nat = 'ifast: {\n");
                    self.emit_int_guards(o, inner, code);
                    let r = self.int_expr_code(o, inner, code);
                    put!(o; inner, "blk = if ", r, " != 0 { ", then_b, " } else { ", else_b, " };\n");
                    put!(o; inner, "true\n");
                    put!(o; ind, "};\n");
                    put!(o; ind, "if !__nat {\n");
                } else {
                    put!(o; ind, "{\n");
                }
                let v = self.expr(o, inner, cond, sp);
                put!(o; inner, "blk = if (", v, ").truthy() { ", then_b, " } else { ", else_b, " };\n");
                put!(o; ind, "}\n");
            }
            Term::JoinAnd { lo, hi, cont } => {
                put!(o; ind, "if !ctx.flags_set(", lo, ", ", hi, ") {\n");
                put!(o; ind, "    return Ok(Step::Halt);\n");
                put!(o; ind, "}\n");
                put!(o; ind, "blk = ", cont, ";\n");
            }
            Term::TerminateProgram { value: Some(rv) } => {
                put!(o; ind, "{\n");
                let v = self.expr(o, inner, rv, sp);
                put!(o; inner, "return Ok(Step::Terminate((", v, ").as_int()));\n");
                put!(o; ind, "}\n");
            }
            Term::TerminateProgram { value: None } => {
                put!(o; ind, "return Ok(Step::Terminate(None));\n");
            }
            Term::TerminateAsync { .. } => {
                // async bodies are stepped by the machine's round-robin
                // scheduler, never through native step — reaching this arm
                // is the same internal error the interpreter raises
                put!(o; ind, "return Err(RuntimeError::new(", sp, ", \"internal error: async terminator reached from synchronous code\"));\n");
            }
        }
    }

    /// Lowers one interned expression to straight-line `let` bindings
    /// appended to `o`, returning the local holding the result. This is
    /// the symbolic version of the interpreter's operand stack: every
    /// value the postfix code would push becomes a named local, consumed
    /// exactly once, in the same left-to-right side-effect and error
    /// order.
    fn expr(&mut self, o: &mut String, ind: &'a str, id: u32, sp: SpanLit) -> Operand {
        let code = self.p.flat.code_of(id);
        self.expr_code(o, ind, code, sp)
    }

    fn expr_code(&mut self, o: &mut String, ind: &'a str, code: &[FlatOp], sp: SpanLit) -> Operand {
        let mut pc = 0usize;
        while pc < code.len() {
            let op = &code[pc];
            pc += 1;
            // every op binds one new temporary; operands it pops were
            // bound before, so opening the line first changes nothing
            let t = self.open(o, ind, Operand::T);
            match op {
                FlatOp::Const(v) => put!(o; "Value::Int(", *v, "i64);\n"),
                FlatOp::Str(s) => put!(o; "Value::Str(", *s, ");\n"),
                FlatOp::Null => put!(o; "Value::Null;\n"),
                FlatOp::Slot(s) => put!(o; "ctx.slot(", *s, ");\n"),
                FlatOp::AddrOf(s) => put!(o; "Value::Ptr(Ptr::Data(", *s, "));\n"),
                FlatOp::EventVal(e) => put!(o; "ctx.evt(", e.index(), ");\n"),
                FlatOp::CGlobal(name) => put!(o; "ctx.global(", Dbg(&**name), ", ", sp, ")?;\n"),
                FlatOp::Un(op) => {
                    let v = self.pop();
                    put!(o; "un_op(UnOp::", Dbg(op), ", ", v, ", ", sp, ")?;\n");
                }
                FlatOp::Bin(op) => {
                    let b = self.pop();
                    let a = self.pop();
                    put!(o; "bin_op(BinOp::", Dbg(op), ", ", a, ", ", b, ", ", sp, ")?;\n");
                }
                FlatOp::ShortAnd(skip) | FlatOp::ShortOr(skip) => {
                    // the skipped range is the self-contained right operand
                    // (plus its trailing Truthy); lower it into the else arm
                    let and = matches!(op, FlatOp::ShortAnd(_));
                    let l = self.pop();
                    let sub = &code[pc..pc + *skip as usize];
                    pc += *skip as usize;
                    let (test, decided) =
                        if and { ("!", "Value::Int(0)") } else { ("", "Value::Int(1)") };
                    put!(o; "if ", test, "(", l, ").truthy() {\n");
                    put!(o; ind, "    ", decided, "\n");
                    put!(o; ind, "} else {\n");
                    let inner = self.deeper(ind);
                    let r = self.expr_code(o, inner, sub, sp);
                    put!(o; inner, r, "\n");
                    put!(o; ind, "};\n");
                }
                FlatOp::Truthy => {
                    let v = self.pop();
                    put!(o; "Value::Int((", v, ").truthy() as i64);\n");
                }
                FlatOp::Index => {
                    let i = self.pop();
                    let b = self.pop();
                    put!(o; "ctx.index(", b, ", ", i, ", ", sp, ")?;\n");
                }
                FlatOp::CCall { name, argc } => {
                    let at = self.st.len() - *argc as usize;
                    put!(o; "ctx.call(", Dbg(&**name), ", &[");
                    for (i, a) in self.st[at..].iter().enumerate() {
                        if i > 0 {
                            o.push_str(", ");
                        }
                        a.put(o);
                    }
                    put!(o; "], ", sp, ")?;\n");
                    self.st.truncate(at);
                }
                FlatOp::Deref => {
                    let v = self.pop();
                    put!(o; "ctx.deref(", v, ", ", sp, ")?;\n");
                }
                FlatOp::Field { name, arrow } => {
                    let b = self.pop();
                    put!(o; "ctx.field(", b, ", ", Dbg(&**name), ", ", *arrow, ", ", sp, ")?;\n");
                }
            }
            self.st.push(t);
        }
        self.pop()
    }

    /// Emits the i64 fast path's entry guards: every distinct slot and
    /// event-value operand of `code` is pattern-matched for `Value::Int`
    /// (deduplicated, in first-occurrence order); any other runtime type
    /// breaks out to the generic fallback. Hoisting the guards above the
    /// computation is safe because loads have no side effects and the
    /// fallback re-derives everything.
    fn emit_int_guards(&mut self, o: &mut String, ind: &str, code: &[FlatOp]) {
        self.loads.clear();
        for op in code {
            let key = match op {
                FlatOp::Slot(s) => IntLoad::Slot(*s),
                FlatOp::EventVal(e) => IntLoad::Evt(e.index() as u32),
                _ => continue,
            };
            if self.loads.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let t = self.fresh(Operand::I);
            let (load, i) = match key {
                IntLoad::Slot(s) => ("ctx.slot(", s),
                IntLoad::Evt(e) => ("ctx.evt(", e),
            };
            put!(o; ind, "let Value::Int(", t, ") = ", load, i, ") else { break 'ifast false };\n");
            self.loads.push((key, t));
        }
    }

    fn load(&self, key: IntLoad) -> Operand {
        self.loads.iter().find(|(k, _)| *k == key).map(|&(_, t)| t).expect("guard for every load")
    }

    /// The i64 twin of [`expr_code`](Self::expr_code): same postfix walk,
    /// same left-to-right order, but every operand is a plain `i64` local
    /// and the operators are the `wrapping_*` bodies `bin_op`'s fast path
    /// uses. Division/modulo by zero breaks out to the generic fallback,
    /// which raises the real error.
    fn int_expr_code(&mut self, o: &mut String, ind: &'a str, code: &[FlatOp]) -> Operand {
        let mut pc = 0usize;
        while pc < code.len() {
            let op = &code[pc];
            pc += 1;
            let t = match op {
                FlatOp::Const(v) => Operand::Lit(*v),
                FlatOp::Slot(s) => self.load(IntLoad::Slot(*s)),
                FlatOp::EventVal(e) => self.load(IntLoad::Evt(e.index() as u32)),
                FlatOp::Un(op) => {
                    let v = self.pop();
                    let t = self.open(o, ind, Operand::I);
                    match op {
                        UnOp::Not => put!(o; "((", v, ") == 0) as i64;\n"),
                        UnOp::Neg => put!(o; "(", v, ").wrapping_neg();\n"),
                        UnOp::Plus => put!(o; v, ";\n"),
                        UnOp::BitNot => put!(o; "!(", v, ");\n"),
                        UnOp::Addr | UnOp::Deref => unreachable!("int_pure excludes &/*"),
                    }
                    t
                }
                FlatOp::Bin(op) => {
                    let b = self.pop();
                    let a = self.pop();
                    if matches!(op, BinOp::Div | BinOp::Mod) {
                        // bind the divisor so the zero test and the
                        // division see the same value
                        let d = self.open(o, ind, Operand::I);
                        put!(o; b, ";\n", ind, "if ", d, " == 0 { break 'ifast false }\n");
                        let call =
                            if matches!(op, BinOp::Div) { "wrapping_div" } else { "wrapping_rem" };
                        let t = self.open(o, ind, Operand::I);
                        put!(o; "(", a, ").", call, "(", d, ");\n");
                        self.st.push(t);
                        continue;
                    }
                    let t = self.open(o, ind, Operand::I);
                    match op {
                        BinOp::Add => put!(o; "(", a, ").wrapping_add(", b, ");\n"),
                        BinOp::Sub => put!(o; "(", a, ").wrapping_sub(", b, ");\n"),
                        BinOp::Mul => put!(o; "(", a, ").wrapping_mul(", b, ");\n"),
                        BinOp::Lt => put!(o; "((", a, ") < (", b, ")) as i64;\n"),
                        BinOp::Gt => put!(o; "((", a, ") > (", b, ")) as i64;\n"),
                        BinOp::Le => put!(o; "((", a, ") <= (", b, ")) as i64;\n"),
                        BinOp::Ge => put!(o; "((", a, ") >= (", b, ")) as i64;\n"),
                        BinOp::Eq => put!(o; "((", a, ") == (", b, ")) as i64;\n"),
                        BinOp::Ne => put!(o; "((", a, ") != (", b, ")) as i64;\n"),
                        BinOp::BitAnd => put!(o; "(", a, ") & (", b, ");\n"),
                        BinOp::BitOr => put!(o; "(", a, ") | (", b, ");\n"),
                        BinOp::BitXor => put!(o; "(", a, ") ^ (", b, ");\n"),
                        BinOp::Shl => put!(o; "(", a, ").wrapping_shl((", b, ") as u32);\n"),
                        BinOp::Shr => put!(o; "(", a, ").wrapping_shr((", b, ") as u32);\n"),
                        BinOp::Div | BinOp::Mod => unreachable!("handled above"),
                        BinOp::And | BinOp::Or => unreachable!("int_pure excludes &&/||"),
                    }
                    t
                }
                FlatOp::ShortAnd(skip) | FlatOp::ShortOr(skip) => {
                    let and = matches!(op, FlatOp::ShortAnd(_));
                    let l = self.pop();
                    let sub = &code[pc..pc + *skip as usize];
                    pc += *skip as usize;
                    let (test, decided) = if and { ("==", "0i64") } else { ("!=", "1i64") };
                    let t = self.open(o, ind, Operand::I);
                    put!(o; "if (", l, ") ", test, " 0 {\n");
                    put!(o; ind, "    ", decided, "\n");
                    put!(o; ind, "} else {\n");
                    let inner = self.deeper(ind);
                    let r = self.int_expr_code(o, inner, sub);
                    put!(o; inner, r, "\n");
                    put!(o; ind, "};\n");
                    t
                }
                FlatOp::Truthy => {
                    let v = self.pop();
                    let t = self.open(o, ind, Operand::I);
                    put!(o; "((", v, ") != 0) as i64;\n");
                    t
                }
                other => unreachable!("int_pure excludes {other:?}"),
            };
            self.st.push(t);
        }
        self.pop()
    }
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Spawn(_) => "Spawn",
        Op::EmitInt { .. } => "EmitInt",
        Op::EmitExt { .. } => "EmitExt",
        Op::EmitOut { .. } => "EmitOut",
        Op::EmitTime(_) => "EmitTime",
        Op::ActivateAsync { .. } => "ActivateAsync",
        Op::ClearRegion(_) => "ClearRegion",
        Op::Assign { .. } => "Assign",
        Op::Eval(_) => "Eval",
        Op::ActivateEvt { .. } => "ActivateEvt",
        Op::ActivateTime { .. } => "ActivateTime",
        Op::ActivateNever { .. } => "ActivateNever",
        Op::SetFlag(_) => "SetFlag",
        Op::ClearFlags { .. } => "ClearFlags",
    }
}

#[cfg(test)]
mod tests {
    use crate::compile_source;
    use crate::rsbackend::emit_rust;

    const SRC: &str = "input int A, B;\nint a, b, ret;\na = await A;\nb = await B;\nret = a + b;";

    #[test]
    fn emits_native_program_shape() {
        let p = compile_source(SRC).unwrap();
        let rs = emit_rust(&p);
        assert!(rs.contains("impl NativeProgram for Program"), "trait impl:\n{rs}");
        assert!(rs.contains("pub const FINGERPRINT: u64"), "baked fingerprint");
        assert!(rs.contains("pub const GATE_CONT: &[u32]"), "baked dispatch table");
        assert!(rs.contains("match blk"), "match-on-BlockId dispatch");
        assert!(rs.contains("Step::Halt"), "halt terminator lowered");
    }

    #[test]
    fn fingerprint_in_source_matches_program() {
        let p = compile_source(SRC).unwrap();
        let rs = emit_rust(&p);
        assert!(rs.contains(&format!("{:#018x}", p.fingerprint())));
    }

    #[test]
    fn scheduler_instructions_call_the_scheduler() {
        let p =
            compile_source("input void A, B;\npar do\n await A;\nwith\n await B;\nend").unwrap();
        let rs = emit_rust(&p);
        assert!(rs.contains("if ctx.sched(0, 0)? {"), "spawns must call the scheduler:\n{rs}");
    }

    #[test]
    fn emission_is_deterministic() {
        // same program → byte-identical source, twice over: once from the
        // same artifact, once from an independent compile of the same
        // source (guards dispatch-table iteration order)
        let p1 = compile_source(SRC).unwrap();
        let p2 = compile_source(SRC).unwrap();
        let a = emit_rust(&p1);
        assert_eq!(a, emit_rust(&p1), "same artifact must emit identically");
        assert_eq!(a, emit_rust(&p2), "recompiled artifact must emit identically");
        assert_eq!(p1.fingerprint(), p2.fingerprint(), "fingerprints must agree");
    }

    #[test]
    fn short_circuit_lowers_to_branches() {
        let p =
            compile_source("input int A;\nint x, y;\nx = await A;\ny = x > 0 && x < 10;").unwrap();
        let rs = emit_rust(&p);
        assert!(rs.contains(".truthy() {"), "short-circuit must lower to a branch:\n{rs}");
    }
}
