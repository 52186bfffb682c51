//! Flat-code optimizer pass (the compiler's `-O` stage).
//!
//! Runs over a finished [`CompiledProgram`] after lowering (and after the
//! analyses, which want the unoptimized shape):
//!
//! 1. **Expression simplification** — constant folding and algebraic
//!    peephole rewrites on each interned tree, then a full re-flatten of
//!    the postfix pool. `ExprId`s are stable (same count, same order), and
//!    [`CompiledProgram::exprs`] keeps the *original* trees: the C backend
//!    stays source-faithful and the runtime's tree-eval ablation doubles
//!    as a differential oracle for every rewrite below.
//! 2. **Branch-on-const** — an `If` whose condition simplified to a
//!    constant becomes a `Goto`.
//! 3. **Dead-block elimination** — blocks unreachable from the boot
//!    block, every gate continuation and every async entry are removed
//!    and `BlockId`s compacted. Gate continuations and async entries are
//!    pinned as roots even when their arming op is dead, so the gate and
//!    async tables stay valid for the C backend.
//! 4. **Unreachable-gate elimination** — gates no live block can ever arm
//!    are pruned from the hot dispatch tables (`event_gates` /
//!    `timer_gates`), so reactions never test them.
//!
//! Every rewrite must mirror the runtime *exactly*: arithmetic wraps,
//! `&&`/`||` produce 0/1 and short-circuit, and division or modulo by a
//! constant zero is **never** folded — it stays a runtime error.

use crate::flat::FlatPool;
use crate::ir::{CompiledProgram, Op, Rv, StateLayout, Term};
use ceu_ast::{BinOp, UnOp};

/// What the pass did, for logs, tests and `ceuc` diagnostics.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptStats {
    /// Interned expressions whose tree was rewritten.
    pub exprs_simplified: usize,
    /// Flat ops before / after the re-flatten.
    pub flat_ops_before: usize,
    pub flat_ops_after: usize,
    /// `If` terminators turned into `Goto`.
    pub branches_folded: usize,
    /// Basic blocks removed as unreachable.
    pub blocks_removed: usize,
    /// Gate entries pruned from the dispatch tables.
    pub gates_pruned: usize,
    /// After the pass: expressions with a typed stream and its ops, and
    /// expressions with only generic code and their ops (the split of
    /// [`FlatPool`]'s accessors of the same names).
    pub typed_exprs: usize,
    pub typed_ops: usize,
    pub generic_exprs: usize,
    pub generic_ops: usize,
}

/// Optimizes `prog` in place. Semantics-preserving by construction; the
/// three-way differential corpus test (tree vs flat vs flat+opt) pins it.
pub fn optimize(prog: &mut CompiledProgram) -> OptStats {
    let mut stats = OptStats { flat_ops_before: prog.flat.code.len(), ..OptStats::default() };

    // 1. simplify every interned tree, re-flatten the pool 1:1
    let simplified: Vec<Rv> = prog.exprs.iter().map(simplify).collect();
    let mut pool = FlatPool::default();
    for (rv, orig) in simplified.iter().zip(&prog.exprs) {
        if rv != orig {
            stats.exprs_simplified += 1;
        }
        pool.intern(rv);
    }
    prog.flat = pool;
    stats.flat_ops_after = prog.flat.code.len();
    stats.typed_exprs = prog.flat.typed_exprs();
    stats.typed_ops = prog.flat.typed_ops();
    stats.generic_exprs = prog.flat.generic_exprs();
    stats.generic_ops = prog.flat.generic_ops();

    // 2. branch-on-const
    for blk in &mut prog.blocks {
        if let Term::If { cond, then_b, else_b } = blk.term {
            if let Some(t) = const_truth(&simplified[cond as usize]) {
                blk.term = Term::Goto(if t { then_b } else { else_b });
                stats.branches_folded += 1;
            }
        }
    }

    // 3. + 4.
    stats.blocks_removed = remove_dead_blocks(prog);
    stats.gates_pruned = prune_unarmable_gates(prog);
    prog.dispatch.state = StateLayout::of(prog);
    stats
}

/// Compile-time truth value of a simplified expression, mirroring
/// `Value::truthy` (`Int(0)` and `null` are false, strings are true).
fn const_truth(rv: &Rv) -> Option<bool> {
    match rv {
        Rv::Const(n) => Some(*n != 0),
        Rv::Null => Some(false),
        Rv::Str(_) => Some(true),
        _ => None,
    }
}

// ---- expression rewriting --------------------------------------------------

/// Bottom-up semantics-preserving rewrite of one tree.
pub fn simplify(rv: &Rv) -> Rv {
    match rv {
        Rv::Un(op, a) => simplify_un(*op, simplify(a)),
        Rv::Bin(op, a, b) => simplify_bin(*op, simplify(a), simplify(b)),
        Rv::Index(a, b) => Rv::Index(Box::new(simplify(a)), Box::new(simplify(b))),
        Rv::CCall(n, args) => Rv::CCall(n.clone(), args.iter().map(simplify).collect()),
        Rv::Deref(a) => Rv::Deref(Box::new(simplify(a))),
        Rv::Field(a, n, arrow) => Rv::Field(Box::new(simplify(a)), n.clone(), *arrow),
        // casts are value-preserving at runtime (flatten drops them too);
        // erasing the node lets constants fold through
        Rv::Cast(a) => simplify(a),
        other => other.clone(),
    }
}

/// `true` when the expression, *if it evaluates at all*, yields an `Int`.
/// `Add`/`Sub` are excluded (data-pointer arithmetic yields pointers) and
/// so are slots/event values (untyped: they may hold pointers or strings,
/// whose coercion errors must survive optimization).
///
/// This is a static question about the result, for rewrites such as
/// `!!x` → `x`. It is not [`int_pure`](crate::flat::int_pure), which asks
/// whether every *operand and operator* is integer-only, so that the code
/// can run on `i64` behind run-time guards: `v + 1` is int-pure but not
/// `is_int` (`v` may hold a pointer), and `a == "s"` is `is_int` but not
/// int-pure (it reads a string).
fn is_int(rv: &Rv) -> bool {
    match rv {
        Rv::Const(_) | Rv::SizeOf(_) => true,
        Rv::Un(UnOp::Not | UnOp::Neg | UnOp::Plus | UnOp::BitNot, _) => true,
        Rv::Bin(op, ..) => !matches!(op, BinOp::Add | BinOp::Sub),
        _ => false,
    }
}

/// `true` when the expression yields exactly 0 or 1.
fn is_bool(rv: &Rv) -> bool {
    match rv {
        Rv::Const(n) => *n == 0 || *n == 1,
        Rv::Un(UnOp::Not, _) => true,
        Rv::Bin(op, ..) => matches!(
            op,
            BinOp::And
                | BinOp::Or
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Gt
                | BinOp::Le
                | BinOp::Ge
        ),
        _ => false,
    }
}

/// `true` when evaluation cannot fail, has no side effects, and yields an
/// `Int` — the bar for *deleting* an evaluation (e.g. `x * 0`).
fn is_pure_int(rv: &Rv) -> bool {
    matches!(rv, Rv::Const(_) | Rv::SizeOf(_) | Rv::Null)
}

/// 0/1-coercion of an arbitrary operand: `!!x` (total on every value).
fn truthy_of(rv: Rv) -> Rv {
    if is_bool(&rv) {
        rv
    } else {
        Rv::Un(UnOp::Not, Box::new(Rv::Un(UnOp::Not, Box::new(rv))))
    }
}

fn simplify_un(op: UnOp, a: Rv) -> Rv {
    match (op, &a) {
        (UnOp::Not, Rv::Const(n)) => Rv::Const((*n == 0) as i64),
        (UnOp::Not, Rv::Null) => Rv::Const(1),
        (UnOp::Not, Rv::Str(_)) => Rv::Const(0),
        // `!!x` → `x` only when x is already 0/1 (otherwise `!!` coerces)
        (UnOp::Not, Rv::Un(UnOp::Not, inner)) if is_bool(inner) => (**inner).clone(),
        // `-MIN` is left to the runtime (mirrors its overflow behaviour)
        (UnOp::Neg, Rv::Const(n)) if *n != i64::MIN => Rv::Const(-*n),
        (UnOp::BitNot, Rv::Const(n)) => Rv::Const(!*n),
        (UnOp::Plus, _) if is_int(&a) => a,
        _ => Rv::Un(op, Box::new(a)),
    }
}

fn simplify_bin(op: BinOp, a: Rv, b: Rv) -> Rv {
    use BinOp::*;
    if let (Rv::Const(x), Rv::Const(y)) = (&a, &b) {
        if let Some(v) = fold_bin(op, *x, *y) {
            return Rv::Const(v);
        }
    }
    match (op, &a, &b) {
        // short-circuit with a constant left side decides at compile time
        // (skipping the right side is exactly what the runtime would do)
        (And, Rv::Const(0), _) => Rv::Const(0),
        (And, Rv::Const(_), _) => truthy_of(b),
        (Or, Rv::Const(0), _) => truthy_of(b),
        (Or, Rv::Const(_), _) => Rv::Const(1),
        // identities: only where the operand type is provably compatible
        // (slots stay untouched — they may hold pointers or strings)
        (Add | Sub, _, Rv::Const(0)) if is_int(&a) || matches!(a, Rv::AddrOf(_)) => a,
        (Add, Rv::Const(0), _) if is_int(&b) => b,
        (Mul | Div, _, Rv::Const(1)) if is_int(&a) => a,
        (Mul, Rv::Const(1), _) if is_int(&b) => b,
        (Mul, _, Rv::Const(0)) if is_pure_int(&a) => Rv::Const(0),
        (Mul, Rv::Const(0), _) if is_pure_int(&b) => Rv::Const(0),
        (BitOr | BitXor | Shl | Shr, _, Rv::Const(0)) if is_int(&a) => a,
        _ => Rv::Bin(op, Box::new(a), Box::new(b)),
    }
}

/// Constant-folds one binary op with the runtime's exact semantics
/// (wrapping arithmetic, C comparisons, 0/1 logic). Returns `None` for
/// division/modulo by zero: those must remain runtime errors.
fn fold_bin(op: BinOp, x: i64, y: i64) -> Option<i64> {
    use BinOp::*;
    Some(match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div => {
            if y == 0 {
                return None;
            }
            x.wrapping_div(y)
        }
        Mod => {
            if y == 0 {
                return None;
            }
            x.wrapping_rem(y)
        }
        Lt => (x < y) as i64,
        Gt => (x > y) as i64,
        Le => (x <= y) as i64,
        Ge => (x >= y) as i64,
        Eq => (x == y) as i64,
        Ne => (x != y) as i64,
        And => (x != 0 && y != 0) as i64,
        Or => (x != 0 || y != 0) as i64,
        BitAnd => x & y,
        BitOr => x | y,
        BitXor => x ^ y,
        Shl => x.wrapping_shl(y as u32),
        Shr => x.wrapping_shr(y as u32),
    })
}

// ---- control-flow cleanup --------------------------------------------------

/// Removes blocks unreachable from the boot block, gate continuations and
/// async entries, compacting `BlockId`s. Returns how many were removed.
fn remove_dead_blocks(prog: &mut CompiledProgram) -> usize {
    let n = prog.blocks.len();
    let mut live = vec![false; n];
    let mut work: Vec<u32> = Vec::new();

    fn mark(b: u32, live: &mut [bool], work: &mut Vec<u32>) {
        if !std::mem::replace(&mut live[b as usize], true) {
            work.push(b);
        }
    }

    mark(prog.boot, &mut live, &mut work);
    for g in &prog.gates {
        mark(g.cont, &mut live, &mut work);
    }
    for a in &prog.asyncs {
        mark(a.entry, &mut live, &mut work);
    }
    while let Some(b) = work.pop() {
        let blk = &prog.blocks[b as usize];
        for instr in &blk.instrs {
            if let Op::Spawn(t) = instr.op {
                mark(t, &mut live, &mut work);
            }
        }
        match blk.term {
            Term::Goto(t) => mark(t, &mut live, &mut work),
            Term::If { then_b, else_b, .. } => {
                mark(then_b, &mut live, &mut work);
                mark(else_b, &mut live, &mut work);
            }
            Term::JoinAnd { cont, .. } => mark(cont, &mut live, &mut work),
            _ => {}
        }
    }

    let removed = live.iter().filter(|&&l| !l).count();
    if removed == 0 {
        return 0;
    }

    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for (i, &l) in live.iter().enumerate() {
        if l {
            map[i] = next;
            next += 1;
        }
    }

    let old = std::mem::take(&mut prog.blocks);
    prog.blocks = old
        .into_iter()
        .enumerate()
        .filter(|(i, _)| live[*i])
        .map(|(_, mut blk)| {
            for instr in &mut blk.instrs {
                if let Op::Spawn(t) = &mut instr.op {
                    *t = map[*t as usize];
                }
            }
            match &mut blk.term {
                Term::Goto(t) => *t = map[*t as usize],
                Term::If { then_b, else_b, .. } => {
                    *then_b = map[*then_b as usize];
                    *else_b = map[*else_b as usize];
                }
                Term::JoinAnd { cont, .. } => *cont = map[*cont as usize],
                _ => {}
            }
            blk
        })
        .collect();
    prog.boot = map[prog.boot as usize];
    for g in &mut prog.gates {
        g.cont = map[g.cont as usize];
    }
    for a in &mut prog.asyncs {
        a.entry = map[a.entry as usize];
    }
    // an arm keeps its surviving blocks, in order; a `par` whose fork
    // died never spawns its arms, and then the §2.6 check explores the
    // product instead
    if prog.par_arms.iter().all(|a| live[a.entry as usize]) {
        let below = |b: u32| live[..b as usize].iter().filter(|&&l| l).count() as u32;
        for a in &mut prog.par_arms {
            a.entry = map[a.entry as usize];
            a.blocks = (below(a.blocks.0), below(a.blocks.1));
        }
    } else {
        prog.par_arms.clear();
    }
    let spans = std::mem::take(&mut prog.debug.block_spans);
    prog.debug.block_spans =
        spans.into_iter().enumerate().filter(|(i, _)| live[*i]).map(|(_, s)| s).collect();
    removed
}

/// Prunes gates no live block can arm from the hot dispatch tables. Gate
/// ids are *not* renumbered (regions address gates by contiguous range);
/// the gate table itself stays intact for the C backend.
fn prune_unarmable_gates(prog: &mut CompiledProgram) -> usize {
    let mut armable = vec![false; prog.gates.len()];
    for blk in &prog.blocks {
        for instr in &blk.instrs {
            match instr.op {
                Op::ActivateEvt { gate }
                | Op::ActivateNever { gate }
                | Op::ActivateTime { gate, .. }
                | Op::ActivateAsync { gate, .. } => armable[gate as usize] = true,
                _ => {}
            }
        }
    }
    let mut pruned = 0;
    for list in &mut prog.dispatch.event_gates {
        let before = list.len();
        list.retain(|&g| armable[g as usize]);
        pruned += before - list.len();
    }
    let before = prog.dispatch.timer_gates.len();
    prog.dispatch.timer_gates.retain(|&g| armable[g as usize]);
    pruned += before - prog.dispatch.timer_gates.len();
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;

    fn sl(s: u32) -> Box<Rv> {
        Box::new(Rv::Slot(s))
    }

    fn c(n: i64) -> Box<Rv> {
        Box::new(Rv::Const(n))
    }

    #[test]
    fn const_folding_uses_wrapping_arithmetic() {
        let rv = Rv::Bin(BinOp::Add, c(i64::MAX), c(1));
        assert_eq!(simplify(&rv), Rv::Const(i64::MIN));
        let rv = Rv::Bin(BinOp::Mul, c(i64::MAX), c(2));
        assert_eq!(simplify(&rv), Rv::Const(i64::MAX.wrapping_mul(2)));
    }

    #[test]
    fn division_by_constant_zero_is_not_folded() {
        // must stay a runtime error, exactly like the interpreter
        let rv = Rv::Bin(BinOp::Div, c(1), c(0));
        assert_eq!(simplify(&rv), rv);
        let rv = Rv::Bin(BinOp::Mod, c(1), c(0));
        assert_eq!(simplify(&rv), rv);
    }

    #[test]
    fn comparisons_and_logic_fold_to_zero_one() {
        assert_eq!(simplify(&Rv::Bin(BinOp::Lt, c(2), c(3))), Rv::Const(1));
        assert_eq!(simplify(&Rv::Bin(BinOp::Eq, c(2), c(3))), Rv::Const(0));
        assert_eq!(simplify(&Rv::Bin(BinOp::And, c(7), c(5))), Rv::Const(1));
        assert_eq!(simplify(&Rv::Bin(BinOp::Or, c(0), c(0))), Rv::Const(0));
    }

    #[test]
    fn mul_one_and_add_zero_fold_only_for_int_operands() {
        // `!x` provably yields an int: identities apply
        let not_x = Rv::Un(UnOp::Not, sl(0));
        let rv = Rv::Bin(BinOp::Mul, Box::new(not_x.clone()), c(1));
        assert_eq!(simplify(&rv), not_x);
        let rv = Rv::Bin(BinOp::Add, Box::new(not_x.clone()), c(0));
        assert_eq!(simplify(&rv), not_x);
        // a bare slot may hold a pointer or string: left untouched so the
        // runtime's coercion errors survive
        let rv = Rv::Bin(BinOp::Mul, sl(0), c(1));
        assert_eq!(simplify(&rv), rv);
        let rv = Rv::Bin(BinOp::Add, c(0), sl(0));
        assert_eq!(simplify(&rv), rv);
    }

    #[test]
    fn pointer_plus_zero_folds() {
        let rv = Rv::Bin(BinOp::Add, Box::new(Rv::AddrOf(3)), c(0));
        assert_eq!(simplify(&rv), Rv::AddrOf(3));
        let rv = Rv::Bin(BinOp::Sub, Box::new(Rv::AddrOf(3)), c(0));
        assert_eq!(simplify(&rv), Rv::AddrOf(3));
    }

    #[test]
    fn mul_zero_requires_a_pure_operand() {
        // sizeof is pure: the whole product folds away
        let rv = Rv::Bin(BinOp::Mul, Box::new(Rv::SizeOf(4)), c(0));
        assert_eq!(simplify(&rv), Rv::Const(0));
        // a slot read is not deletable (it may be a pointer → runtime error)
        let rv = Rv::Bin(BinOp::Mul, sl(0), c(0));
        assert_eq!(simplify(&rv), rv);
        // a call is definitely not deletable
        let rv = Rv::Bin(BinOp::Mul, Box::new(Rv::CCall("f".into(), vec![])), c(0));
        assert_eq!(simplify(&rv), rv);
    }

    #[test]
    fn double_not_folds_only_on_boolean_subtrees() {
        let cmp = Rv::Bin(BinOp::Lt, sl(0), sl(1));
        let rv = Rv::Un(UnOp::Not, Box::new(Rv::Un(UnOp::Not, Box::new(cmp.clone()))));
        assert_eq!(simplify(&rv), cmp);
        // `!!slot` coerces to 0/1 — must not fold
        let rv = Rv::Un(UnOp::Not, Box::new(Rv::Un(UnOp::Not, sl(0))));
        assert_eq!(simplify(&rv), rv);
    }

    #[test]
    fn constant_lhs_short_circuits_fold() {
        // `0 && f()` never evaluates the call at runtime; folding matches
        let call = Rv::CCall("f".into(), vec![]);
        let rv = Rv::Bin(BinOp::And, c(0), Box::new(call.clone()));
        assert_eq!(simplify(&rv), Rv::Const(0));
        let rv = Rv::Bin(BinOp::Or, c(5), Box::new(call.clone()));
        assert_eq!(simplify(&rv), Rv::Const(1));
        // truthy lhs of && reduces to the 0/1 coercion of the rhs
        let cmp = Rv::Bin(BinOp::Eq, sl(0), c(4));
        let rv = Rv::Bin(BinOp::And, c(1), Box::new(cmp.clone()));
        assert_eq!(simplify(&rv), cmp);
        let rv = Rv::Bin(BinOp::Or, c(0), Box::new(call.clone()));
        assert_eq!(simplify(&rv), Rv::Un(UnOp::Not, Box::new(Rv::Un(UnOp::Not, Box::new(call)))));
    }

    #[test]
    fn casts_erase_and_constants_fold_through() {
        let rv = Rv::Cast(Box::new(Rv::Bin(BinOp::Add, c(2), Box::new(Rv::Cast(c(3))))));
        assert_eq!(simplify(&rv), Rv::Const(5));
    }

    #[test]
    fn nested_expressions_fold_bottom_up() {
        // (2*3 + 10%7) < 100  →  1
        let rv = Rv::Bin(
            BinOp::Lt,
            Box::new(Rv::Bin(
                BinOp::Add,
                Box::new(Rv::Bin(BinOp::Mul, c(2), c(3))),
                Box::new(Rv::Bin(BinOp::Mod, c(10), c(7))),
            )),
            c(100),
        );
        assert_eq!(simplify(&rv), Rv::Const(1));
    }

    #[test]
    fn branch_on_const_and_dead_block_elimination() {
        let mut p = compile_source(
            "input void A;\nint v;\nif 0 then\n v = 1;\nelse\n v = 2;\nend\nawait A;",
        )
        .unwrap();
        let before = p.blocks.len();
        let stats = optimize(&mut p);
        assert!(stats.branches_folded >= 1, "{stats:?}");
        assert!(stats.blocks_removed >= 1, "{stats:?}");
        assert!(p.blocks.len() < before);
        // the program still has a valid boot chain ending in the await arm
        assert!(p.blocks.iter().all(|b| match b.term {
            Term::Goto(t) => (t as usize) < p.blocks.len(),
            Term::If { then_b, else_b, .. } =>
                (then_b as usize) < p.blocks.len() && (else_b as usize) < p.blocks.len(),
            _ => true,
        }));
        assert!(p.gates.iter().all(|g| (g.cont as usize) < p.blocks.len()));
    }

    #[test]
    fn unarmable_gates_leave_the_dispatch_tables() {
        let mut p = compile_source(
            "input void A;\nint v;\nif 0 then\n await A;\nelse\n v = 2;\nend\nawait A;",
        )
        .unwrap();
        let a = p.events.lookup("A").unwrap();
        assert_eq!(p.dispatch.event_gates[a.index()].len(), 2);
        let stats = optimize(&mut p);
        assert!(stats.gates_pruned >= 1, "{stats:?}");
        // only the live `await A` remains dispatchable
        assert_eq!(p.dispatch.event_gates[a.index()].len(), 1);
        // the gate table itself is untouched (regions & C backend)
        assert_eq!(p.gates.len(), 2);
    }

    #[test]
    fn optimize_is_idempotent_and_ids_stay_stable() {
        let mut p = compile_source(
            "input int E;\nint v;\nloop do\n v = await E;\n v = (v * 1) + (2 * 3);\nend",
        )
        .unwrap();
        let n_exprs = p.exprs.len();
        let s1 = optimize(&mut p);
        assert_eq!(p.flat.len(), n_exprs, "ExprIds must stay 1:1 after the rewrite");
        assert!(s1.flat_ops_after < s1.flat_ops_before, "{s1:?}");
        let s2 = optimize(&mut p);
        assert_eq!(s2.blocks_removed, 0);
        assert_eq!(s2.flat_ops_after, s1.flat_ops_after);
    }
}
