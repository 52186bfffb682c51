//! Flat (postfix) expression code — the compile-time half of the
//! table-driven kernel (§4 of the paper).
//!
//! [`lower`](crate::lower) interns every [`Rv`] expression tree that an
//! instruction embeds into a [`FlatPool`]: a single linear `Vec<FlatOp>`
//! shared by the whole program, addressed per expression by [`ExprId`].
//! The runtime evaluates an expression by walking its contiguous op
//! range with an explicit value stack — no per-node recursion, no `Box`
//! chasing, and no allocation for the common paths.
//!
//! The original trees are kept side-by-side in
//! [`CompiledProgram::exprs`](crate::ir::CompiledProgram::exprs): the C
//! backend and the determinism analysis still walk them, and the runtime
//! exposes a tree-walking evaluator as an ablation so the two forms can
//! be differentially tested against each other.
//!
//! Encoding notes:
//! * operands are pushed left-to-right; an operator pops its arity;
//! * `a && b` / `a || b` keep C short-circuit semantics via
//!   [`FlatOp::ShortAnd`]/[`FlatOp::ShortOr`] — pop the left value and
//!   either push the decided result and skip the right-hand ops, or fall
//!   through into them (a trailing [`FlatOp::Truthy`] coerces the
//!   right-hand value to 0/1);
//! * `sizeof<T>` and casts are resolved at flatten time: the size is a
//!   constant and numeric casts are value-preserving at runtime.
//!
//! **The typed stream.** An expression whose code is [`int_pure`] also
//! gets a second form, [`IntOp`]s over `i64`, built by the same
//! [`FlatPool::intern`] call: loads guarded for `Value::Int`, one
//! superinstruction for each of `slot op const`, `slot op slot`,
//! `top op const` and `top op slot`, and the same short-circuit jumps. The runtime runs it in place of the generic code;
//! a load that finds anything but an integer, or a zero divisor, is a
//! *miss*, and the generic code then runs from the start and re-derives
//! the result and the error. Int-pure code has no side effects, so the
//! re-run is safe. The typed stream is derived from `code` alone, so it
//! is not part of the artifact's fingerprint.

use crate::ir::{ExprId, Rv, SlotId, StrId};
use ceu_ast::{BinOp, EventId, UnOp};
use std::sync::Arc;

/// One postfix op. Host names are `Arc<str>`, so the pool stays
/// `Send + Sync`; string literals are ids into the artifact's pool.
#[derive(Clone, Debug, PartialEq)]
pub enum FlatOp {
    /// Push an integer constant (also `sizeof`, resolved at compile time).
    Const(i64),
    /// Push a string literal.
    Str(StrId),
    /// Push `null`.
    Null,
    /// Push the value of a data slot.
    Slot(SlotId),
    /// Push the address of a data slot (array decay / `&v`).
    AddrOf(SlotId),
    /// Push the last value carried by an event.
    EventVal(EventId),
    /// Push a C global, via the host.
    CGlobal(Arc<str>),
    /// Pop one, apply a unary operator, push the result.
    Un(UnOp),
    /// Pop two (right on top), apply a binary operator, push the result.
    Bin(BinOp),
    /// `&&` short-circuit: pop the left value; if falsy, push `0` and
    /// skip the next `n` ops (the right operand); else fall through.
    ShortAnd(u32),
    /// `||` short-circuit: pop the left value; if truthy, push `1` and
    /// skip the next `n` ops; else fall through.
    ShortOr(u32),
    /// Pop one, push its C truth value (0/1).
    Truthy,
    /// Pop index then base, push `base[idx]`.
    Index,
    /// Pop the top `argc` values (in push order) and call into the host.
    CCall { name: Arc<str>, argc: u32 },
    /// Pop a pointer, push the pointee.
    Deref,
    /// Pop a host value, push `base.f` / `base->f`.
    Field { name: Arc<str>, arrow: bool },
}

/// `true` when flat code is pure integer arithmetic over constants, slots
/// and event values: the one definition of *int-pure*, shared by the typed
/// stream ([`FlatPool::intern`]) and the Rust backend's i64 fast path.
/// Anything touching strings, `null`, pointers, memory or the host is
/// not; nor are `&`/`*`, which lowering resolves before this point.
pub fn int_pure(code: &[FlatOp]) -> bool {
    code.iter().all(|op| match op {
        FlatOp::Const(_)
        | FlatOp::Slot(_)
        | FlatOp::EventVal(_)
        | FlatOp::Truthy
        | FlatOp::ShortAnd(_)
        | FlatOp::ShortOr(_) => true,
        FlatOp::Un(op) => !matches!(op, UnOp::Addr | UnOp::Deref),
        FlatOp::Bin(op) => !matches!(op, BinOp::And | BinOp::Or),
        _ => false,
    })
}

/// The deepest operand stack a typed stream may reach: the runtime keeps
/// its `i64` operands in a local array of this size. An int-pure
/// expression that needs more keeps only its generic code.
pub const INT_STACK: usize = 8;

/// One op of the typed stream: postfix code over `i64`. Every load is
/// guarded (a value that is not `Value::Int` is a miss) and every
/// operator is the runtime's integer operator (a zero divisor is a miss).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IntOp {
    /// Push a constant.
    Const(i64),
    /// Push a data slot.
    Slot(SlotId),
    /// Push the last value carried by the event with this index.
    Evt(u32),
    /// Apply a unary operator to the top.
    Un(UnOp),
    /// Pop two (right on top), push `left op right`.
    Bin(BinOp),
    /// `Slot(s) Const(c) Bin(op)`: push `slot op c`.
    SlotConst(BinOp, SlotId, i64),
    /// `Slot(a) Slot(b) Bin(op)`: push `a op b`.
    SlotSlot(BinOp, SlotId, SlotId),
    /// `Const(c) Bin(op)`: replace the top with `top op c`.
    TopConst(BinOp, i64),
    /// `Slot(s) Bin(op)`: replace the top with `top op slot`.
    TopSlot(BinOp, SlotId),
    /// As [`FlatOp::ShortAnd`], with the skip counted in typed ops.
    ShortAnd(u32),
    /// As [`FlatOp::ShortOr`], with the skip counted in typed ops.
    ShortOr(u32),
    /// Pop one, push `(top != 0) as i64`.
    Truthy,
}

/// The program-wide flat code pool. One contiguous `code` vector; each
/// interned expression owns the half-open range `ranges[id]`, and an
/// int-pure one also the range `int_ranges[id]` of the typed stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlatPool {
    pub code: Vec<FlatOp>,
    /// Per-[`ExprId`] `[start, end)` ranges into `code`.
    pub ranges: Vec<(u32, u32)>,
    /// The deepest operand stack any expression reaches, computed at
    /// intern time: the runtime sizes its operand stack by it, so no
    /// expression in the program can overflow it.
    pub max_stack: u32,
    /// The typed streams, derived from `code` at intern time.
    int_code: Vec<IntOp>,
    /// Per-[`ExprId`] `[start, end)` ranges into `int_code`; empty for an
    /// expression that has only its generic code.
    int_ranges: Vec<(u32, u32)>,
}

impl FlatPool {
    /// Flattens one tree into the pool and returns its id. The caller
    /// (the lowerer) keeps the tree itself in `CompiledProgram::exprs`
    /// at the same index.
    pub fn intern(&mut self, rv: &Rv) -> ExprId {
        let start = self.code.len();
        flatten(rv, &mut self.code);
        let code = &self.code[start..];
        let id = self.ranges.len() as ExprId;
        self.ranges.push((start as u32, self.code.len() as u32));
        self.max_stack = self.max_stack.max(stack_depth(code));
        let typed = self.int_code.len() as u32;
        if int_pure(code) {
            lower_int(code, &mut self.int_code);
        }
        self.int_ranges.push((typed, self.int_code.len() as u32));
        id
    }

    /// The postfix code of one expression.
    #[inline]
    pub fn code_of(&self, id: ExprId) -> &[FlatOp] {
        let (lo, hi) = self.ranges[id as usize];
        &self.code[lo as usize..hi as usize]
    }

    /// The typed stream of one expression, if it has one.
    #[inline]
    pub fn int_code_of(&self, id: ExprId) -> Option<&[IntOp]> {
        let (lo, hi) = self.int_ranges[id as usize];
        (lo < hi).then(|| &self.int_code[lo as usize..hi as usize])
    }

    /// Expressions that have a typed stream.
    pub fn typed_exprs(&self) -> usize {
        self.int_ranges.iter().filter(|(lo, hi)| lo < hi).count()
    }

    /// Ops of every typed stream.
    pub fn typed_ops(&self) -> usize {
        self.int_code.len()
    }

    /// Expressions that have only their generic code.
    pub fn generic_exprs(&self) -> usize {
        self.len() - self.typed_exprs()
    }

    /// Generic ops of the expressions that have only their generic code
    /// (the others' generic code runs only after a miss).
    pub fn generic_ops(&self) -> usize {
        let generic_only = self.ranges.iter().zip(&self.int_ranges).filter(|(_, t)| t.0 == t.1);
        generic_only.map(|(&(lo, hi), _)| (hi - lo) as usize).sum()
    }

    /// Number of interned expressions.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Maximum operand-stack depth reached while evaluating `code`.
///
/// A linear walk is exact: the only jumps are `ShortAnd`/`ShortOr` skips,
/// and the skipped (decided) path ends at the same depth as the
/// fall-through path while never exceeding it.
fn stack_depth(code: &[FlatOp]) -> u32 {
    let mut depth: i64 = 0;
    let mut max: i64 = 0;
    for op in code {
        depth += match op {
            FlatOp::Const(_)
            | FlatOp::Str(_)
            | FlatOp::Null
            | FlatOp::Slot(_)
            | FlatOp::AddrOf(_)
            | FlatOp::EventVal(_)
            | FlatOp::CGlobal(_) => 1,
            FlatOp::Un(_) | FlatOp::Truthy | FlatOp::Deref | FlatOp::Field { .. } => 0,
            FlatOp::Bin(_) | FlatOp::Index | FlatOp::ShortAnd(_) | FlatOp::ShortOr(_) => -1,
            FlatOp::CCall { argc, .. } => 1 - *argc as i64,
        };
        max = max.max(depth);
    }
    max as u32
}

/// Appends the typed stream of int-pure `code` to `out`, fusing a slot or
/// constant operand into the operator that consumes it. Leaves `out` as it
/// was when the stream would need more than [`INT_STACK`] operands.
fn lower_int(code: &[FlatOp], out: &mut Vec<IntOp>) {
    let base = out.len();
    // short-circuits whose right operand is being laid out: the jump's
    // index in `out` and the end of its skip in `code`. Skips nest, and
    // each ends just after a `Truthy`, which no fusion swallows.
    let mut open: Vec<(usize, usize)> = Vec::new();
    let mut pc = 0;
    while pc < code.len() {
        let (op, len) = match &code[pc..] {
            [FlatOp::Slot(s), FlatOp::Const(c), FlatOp::Bin(op), ..] => {
                (IntOp::SlotConst(*op, *s, *c), 3)
            }
            [FlatOp::Slot(a), FlatOp::Slot(b), FlatOp::Bin(op), ..] => {
                (IntOp::SlotSlot(*op, *a, *b), 3)
            }
            [FlatOp::Const(c), FlatOp::Bin(op), ..] => (IntOp::TopConst(*op, *c), 2),
            [FlatOp::Slot(s), FlatOp::Bin(op), ..] => (IntOp::TopSlot(*op, *s), 2),
            [FlatOp::Const(c), ..] => (IntOp::Const(*c), 1),
            [FlatOp::Slot(s), ..] => (IntOp::Slot(*s), 1),
            [FlatOp::EventVal(e), ..] => (IntOp::Evt(e.index() as u32), 1),
            [FlatOp::Un(op), ..] => (IntOp::Un(*op), 1),
            [FlatOp::Bin(op), ..] => (IntOp::Bin(*op), 1),
            [FlatOp::Truthy, ..] => (IntOp::Truthy, 1),
            [FlatOp::ShortAnd(skip) | FlatOp::ShortOr(skip), ..] => {
                open.push((out.len(), pc + 1 + *skip as usize));
                let and = matches!(code[pc], FlatOp::ShortAnd(_));
                (if and { IntOp::ShortAnd(0) } else { IntOp::ShortOr(0) }, 1)
            }
            other => unreachable!("int_pure admitted {:?}", other.first()),
        };
        out.push(op);
        pc += len;
        while let Some(&(at, _)) = open.last().filter(|&&(_, end)| end == pc) {
            let skip = (out.len() - at - 1) as u32;
            out[at] = match out[at] {
                IntOp::ShortAnd(_) => IntOp::ShortAnd(skip),
                _ => IntOp::ShortOr(skip),
            };
            open.pop();
        }
    }
    debug_assert!(open.is_empty(), "a short-circuit skip ends inside a fused op");
    if int_stack_depth(&out[base..]) > INT_STACK {
        out.truncate(base);
    }
}

/// Maximum operand-stack depth of a typed stream (exact for the same
/// reason as [`stack_depth`]).
fn int_stack_depth(code: &[IntOp]) -> usize {
    let mut depth: i64 = 0;
    let mut max: i64 = 0;
    for op in code {
        depth += match op {
            IntOp::Const(_)
            | IntOp::Slot(_)
            | IntOp::Evt(_)
            | IntOp::SlotConst(..)
            | IntOp::SlotSlot(..) => 1,
            IntOp::Un(_) | IntOp::TopConst(..) | IntOp::TopSlot(..) | IntOp::Truthy => 0,
            IntOp::Bin(_) | IntOp::ShortAnd(_) | IntOp::ShortOr(_) => -1,
        };
        max = max.max(depth);
    }
    max as usize
}

/// Appends the postfix form of `rv` to `code`.
fn flatten(rv: &Rv, code: &mut Vec<FlatOp>) {
    match rv {
        Rv::Const(n) => code.push(FlatOp::Const(*n)),
        Rv::Str(s) => code.push(FlatOp::Str(*s)),
        Rv::Null => code.push(FlatOp::Null),
        Rv::Slot(s) => code.push(FlatOp::Slot(*s)),
        Rv::AddrOf(s) => code.push(FlatOp::AddrOf(*s)),
        Rv::EventVal(e) => code.push(FlatOp::EventVal(*e)),
        Rv::CGlobal(n) => code.push(FlatOp::CGlobal(Arc::from(n.as_str()))),
        Rv::Un(op, a) => {
            flatten(a, code);
            code.push(FlatOp::Un(*op));
        }
        Rv::Bin(op @ (BinOp::And | BinOp::Or), a, b) => {
            flatten(a, code);
            let patch = code.len();
            // placeholder skip count, patched once the right side is laid out
            code.push(if *op == BinOp::And { FlatOp::ShortAnd(0) } else { FlatOp::ShortOr(0) });
            flatten(b, code);
            code.push(FlatOp::Truthy);
            let skip = (code.len() - patch - 1) as u32;
            code[patch] = match op {
                BinOp::And => FlatOp::ShortAnd(skip),
                _ => FlatOp::ShortOr(skip),
            };
        }
        Rv::Bin(op, a, b) => {
            flatten(a, code);
            flatten(b, code);
            code.push(FlatOp::Bin(*op));
        }
        Rv::Index(base, idx) => {
            flatten(base, code);
            flatten(idx, code);
            code.push(FlatOp::Index);
        }
        Rv::CCall(name, args) => {
            for a in args {
                flatten(a, code);
            }
            code.push(FlatOp::CCall { name: Arc::from(name.as_str()), argc: args.len() as u32 });
        }
        Rv::Deref(p) => {
            flatten(p, code);
            code.push(FlatOp::Deref);
        }
        Rv::SizeOf(n) => code.push(FlatOp::Const(*n as i64)),
        Rv::Field(base, name, arrow) => {
            flatten(base, code);
            code.push(FlatOp::Field { name: Arc::from(name.as_str()), arrow: *arrow });
        }
        Rv::Cast(a) => flatten(a, code), // value-preserving at runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_of(rv: &Rv) -> Vec<FlatOp> {
        let mut p = FlatPool::default();
        let id = p.intern(rv);
        p.code_of(id).to_vec()
    }

    #[test]
    fn postfix_order_left_to_right() {
        let rv = Rv::Bin(
            BinOp::Add,
            Box::new(Rv::Slot(0)),
            Box::new(Rv::Bin(BinOp::Mul, Box::new(Rv::Const(2)), Box::new(Rv::Slot(1)))),
        );
        assert_eq!(
            pool_of(&rv),
            vec![
                FlatOp::Slot(0),
                FlatOp::Const(2),
                FlatOp::Slot(1),
                FlatOp::Bin(BinOp::Mul),
                FlatOp::Bin(BinOp::Add),
            ]
        );
    }

    #[test]
    fn short_circuit_and_skips_right_operand() {
        let rv = Rv::Bin(BinOp::And, Box::new(Rv::Slot(0)), Box::new(Rv::Slot(1)));
        let code = pool_of(&rv);
        // Slot(0) ShortAnd(2) Slot(1) Truthy — the skip jumps past both
        // the right operand and its coercion
        assert_eq!(
            code,
            vec![FlatOp::Slot(0), FlatOp::ShortAnd(2), FlatOp::Slot(1), FlatOp::Truthy]
        );
    }

    #[test]
    fn sizeof_and_cast_resolve_at_flatten_time() {
        let rv = Rv::Cast(Box::new(Rv::SizeOf(2)));
        assert_eq!(pool_of(&rv), vec![FlatOp::Const(2)]);
    }

    #[test]
    fn stack_depths_are_precomputed_per_expression() {
        let mut p = FlatPool::default();
        // a + b*c: operands stack up to 3 deep before the Mul pops
        let deep = Rv::Bin(
            BinOp::Add,
            Box::new(Rv::Slot(0)),
            Box::new(Rv::Bin(BinOp::Mul, Box::new(Rv::Slot(1)), Box::new(Rv::Slot(2)))),
        );
        let a = p.intern(&Rv::Const(7));
        let b = p.intern(&deep);
        assert_eq!(stack_depth(p.code_of(a)), 1);
        assert_eq!(stack_depth(p.code_of(b)), 3);
        assert_eq!(p.max_stack, 3);
    }

    #[test]
    fn short_circuit_depth_counts_the_fallthrough_path() {
        // a && b: ShortAnd pops the lhs, so the rhs peaks at depth 1 again
        let mut p = FlatPool::default();
        let id = p.intern(&Rv::Bin(BinOp::And, Box::new(Rv::Slot(0)), Box::new(Rv::Slot(1))));
        assert_eq!(stack_depth(p.code_of(id)), 1);
    }

    #[test]
    fn ccall_depth_accounts_for_arguments() {
        let mut p = FlatPool::default();
        let id = p.intern(&Rv::CCall("f".into(), vec![Rv::Const(1), Rv::Const(2), Rv::Const(3)]));
        assert_eq!(stack_depth(p.code_of(id)), 3);
    }

    fn typed_of(rv: &Rv) -> Option<Vec<IntOp>> {
        let mut p = FlatPool::default();
        let id = p.intern(rv);
        p.int_code_of(id).map(<[IntOp]>::to_vec)
    }

    fn bin(op: BinOp, a: Rv, b: Rv) -> Rv {
        Rv::Bin(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn operands_fuse_into_the_operator_that_consumes_them() {
        // (a + 6) * b - (c << d): slot op const, then top op slot, then
        // slot op slot; the generic binary op joins the two halves
        let rv = bin(
            BinOp::Sub,
            bin(BinOp::Mul, bin(BinOp::Add, Rv::Slot(0), Rv::Const(6)), Rv::Slot(1)),
            bin(BinOp::Shl, Rv::Slot(2), Rv::Slot(3)),
        );
        assert_eq!(
            typed_of(&rv).unwrap(),
            vec![
                IntOp::SlotConst(BinOp::Add, 0, 6),
                IntOp::TopSlot(BinOp::Mul, 1),
                IntOp::SlotSlot(BinOp::Shl, 2, 3),
                IntOp::Bin(BinOp::Sub),
            ]
        );
        let rv = Rv::Un(UnOp::Neg, Box::new(bin(BinOp::Div, Rv::Const(7), Rv::Slot(0))));
        assert_eq!(
            typed_of(&rv).unwrap(),
            vec![IntOp::Const(7), IntOp::TopSlot(BinOp::Div, 0), IntOp::Un(UnOp::Neg)]
        );
    }

    #[test]
    fn typed_skips_count_typed_ops() {
        // a && (b + 1 < c) || d: the generic `&&` skip of 6 ops shrinks
        // to 3 once its right operand's ops fuse
        let rv = bin(
            BinOp::Or,
            bin(
                BinOp::And,
                Rv::Slot(0),
                bin(BinOp::Lt, bin(BinOp::Add, Rv::Slot(1), Rv::Const(1)), Rv::Slot(2)),
            ),
            Rv::Slot(3),
        );
        let mut p = FlatPool::default();
        let id = p.intern(&rv);
        assert!(matches!(p.code_of(id)[1], FlatOp::ShortAnd(6)));
        assert_eq!(
            p.int_code_of(id).unwrap(),
            &[
                IntOp::Slot(0),
                IntOp::ShortAnd(3),
                IntOp::SlotConst(BinOp::Add, 1, 1),
                IntOp::TopSlot(BinOp::Lt, 2),
                IntOp::Truthy,
                IntOp::ShortOr(2),
                IntOp::Slot(3),
                IntOp::Truthy,
            ]
        );
        // nested: a && (b || c) — both skips end at the same place
        let rv =
            bin(BinOp::And, Rv::Slot(0), bin(BinOp::Or, Rv::Slot(1), Rv::EventVal(EventId(2))));
        assert_eq!(
            typed_of(&rv).unwrap(),
            vec![
                IntOp::Slot(0),
                IntOp::ShortAnd(5),
                IntOp::Slot(1),
                IntOp::ShortOr(2),
                IntOp::Evt(2),
                IntOp::Truthy,
                IntOp::Truthy,
            ]
        );
    }

    #[test]
    fn only_int_pure_code_gets_a_typed_stream() {
        let mut p = FlatPool::default();
        let typed = p.intern(&bin(BinOp::Add, Rv::Slot(0), Rv::Const(1)));
        let generic = [
            bin(BinOp::Eq, Rv::Slot(0), Rv::Str(0)),
            bin(BinOp::Eq, Rv::Slot(0), Rv::Null),
            bin(BinOp::Add, Rv::AddrOf(0), Rv::Const(1)),
            Rv::CCall("f".into(), vec![Rv::Const(1)]),
            Rv::Deref(Box::new(Rv::Slot(0))),
        ]
        .map(|rv| p.intern(&rv));
        assert!(p.int_code_of(typed).is_some());
        for id in generic {
            assert!(!int_pure(p.code_of(id)));
            assert_eq!(p.int_code_of(id), None);
        }
        assert_eq!((p.typed_exprs(), p.typed_ops()), (1, 1));
        assert_eq!((p.generic_exprs(), p.generic_ops()), (5, 3 + 3 + 3 + 2 + 2));
    }

    #[test]
    fn streams_deeper_than_the_local_array_stay_generic() {
        // -a - (-b - (-c - ...)): every level keeps one operand waiting
        let nested = |levels: u32| {
            (0..levels).rev().fold(Rv::Slot(levels), |acc, s| {
                bin(BinOp::Sub, Rv::Un(UnOp::Neg, Box::new(Rv::Slot(s))), acc)
            })
        };
        let fits = nested(INT_STACK as u32);
        let code = typed_of(&fits).expect("fits the local array");
        assert_eq!(int_stack_depth(&code), INT_STACK);
        let mut p = FlatPool::default();
        let deep = p.intern(&nested(INT_STACK as u32 + 1));
        assert!(int_pure(p.code_of(deep)));
        assert_eq!(p.int_code_of(deep), None);
        assert_eq!(p.typed_ops(), 0, "the discarded stream leaves no ops behind");
    }

    #[test]
    fn ranges_are_contiguous_per_expression() {
        let mut p = FlatPool::default();
        let a = p.intern(&Rv::Const(1));
        let b = p.intern(&Rv::Un(UnOp::Neg, Box::new(Rv::Const(2))));
        assert_eq!(p.code_of(a), &[FlatOp::Const(1)]);
        assert_eq!(p.code_of(b), &[FlatOp::Const(2), FlatOp::Un(UnOp::Neg)]);
        assert_eq!(p.len(), 2);
    }
}
