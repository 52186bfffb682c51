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

/// The program-wide flat code pool. One contiguous `code` vector; each
/// interned expression owns the half-open range `ranges[id]`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlatPool {
    pub code: Vec<FlatOp>,
    /// Per-[`ExprId`] `[start, end)` ranges into `code`.
    pub ranges: Vec<(u32, u32)>,
    /// The deepest operand stack any expression reaches, computed at
    /// intern time: the runtime sizes its operand stack by it, so no
    /// expression in the program can overflow it.
    pub max_stack: u32,
}

impl FlatPool {
    /// Flattens one tree into the pool and returns its id. The caller
    /// (the lowerer) keeps the tree itself in `CompiledProgram::exprs`
    /// at the same index.
    pub fn intern(&mut self, rv: &Rv) -> ExprId {
        let start = self.code.len() as u32;
        flatten(rv, &mut self.code);
        let id = self.ranges.len() as ExprId;
        self.ranges.push((start, self.code.len() as u32));
        self.max_stack = self.max_stack.max(stack_depth(&self.code[start as usize..]));
        id
    }

    /// The postfix code of one expression.
    #[inline]
    pub fn code_of(&self, id: ExprId) -> &[FlatOp] {
        let (lo, hi) = self.ranges[id as usize];
        &self.code[lo as usize..hi as usize]
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
