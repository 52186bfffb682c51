//! AST → track/gate IR lowering (§4.4).
//!
//! The generated-code shape follows the paper: every `await` splits the
//! current track; parallel compositions enqueue one track per arm and
//! halt; `par/or` and loop terminations go through low-priority *escape*
//! blocks that clear the composition's gate region and then continue.

use crate::flat::FlatPool;
use crate::ir::*;
use crate::layout::{self, Layout};
use ceu_ast::{AssignRhs, Block, Expr, ExprKind, ParKind, Resolved, Span, Stmt, StmtKind, UnOp};
use std::fmt;

/// A lowering error (constructs the runtime cannot express).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    pub span: Span,
    pub message: String,
}

impl CompileError {
    fn new(span: Span, message: impl Into<String>) -> Self {
        CompileError { span, message: message.into() }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for CompileError {}

type Result<T> = std::result::Result<T, CompileError>;

/// Where `return` goes.
#[derive(Clone)]
enum Ret {
    /// Top level: terminate the program.
    Program,
    /// Inside an `async` body: terminate the async.
    Async,
    /// Inside a value block: store to `result`, escape through `esc`.
    Value { result: SlotId, esc: BlockId },
}

/// Control-flow targets live while lowering a statement sequence.
#[derive(Clone)]
struct Flow {
    loop_esc: Option<BlockId>,
    ret: Ret,
}

struct Lower<'a> {
    resolved: &'a Resolved,
    layout: &'a Layout,
    blocks: Vec<BBlock>,
    /// Per block, the span of the first statement lowered into it (the
    /// debug span of a glue block whose instructions carry none).
    stmt_spans: Vec<Span>,
    gates: Vec<GateInfo>,
    regions: Vec<RegionInfo>,
    asyncs: Vec<AsyncBlock>,
    suspends: Vec<SuspendInfo>,
    c_code: String,
    /// Interned expression trees (indexed by `ExprId`).
    exprs: Vec<Rv>,
    /// Postfix code for the same expressions.
    flat: FlatPool,
    /// String literals, deduplicated (indexed by `StrId`).
    strs: Vec<Box<str>>,
    region_stack: Vec<RegionId>,
    /// Nesting depth of rank-carrying constructs (loops, par/or, value blocks).
    depth: u8,
    in_async: bool,
}

/// Compiles a resolved program into the track/gate IR.
pub fn compile(resolved: &Resolved) -> Result<CompiledProgram> {
    let layout = layout::layout(&resolved.program, &resolved.vars);
    compile_with_layout(resolved, &layout)
}

/// Like [`compile`] but reuses a precomputed layout.
pub fn compile_with_layout(resolved: &Resolved, layout: &Layout) -> Result<CompiledProgram> {
    let mut lw = Lower {
        resolved,
        layout,
        blocks: Vec::new(),
        stmt_spans: Vec::new(),
        gates: Vec::new(),
        regions: Vec::new(),
        asyncs: Vec::new(),
        suspends: Vec::new(),
        c_code: String::new(),
        exprs: Vec::new(),
        flat: FlatPool::default(),
        strs: Vec::new(),
        region_stack: Vec::new(),
        depth: 0,
        in_async: false,
    };
    let boot = lw.new_block("boot", 0);
    let flow = Flow { loop_esc: None, ret: Ret::Program };
    let end = lw.lower_seq(&resolved.program.block.stmts, boot, &flow)?;
    if let Some(b) = end {
        lw.blocks[b as usize].term = Term::TerminateProgram { value: None };
    }
    let dispatch = Dispatch::build(
        &lw.blocks,
        &lw.gates,
        &lw.regions,
        &lw.suspends,
        &layout.slots,
        resolved.events.len(),
    );
    let debug = DebugMap::build(&lw.blocks, &lw.stmt_spans);
    let mut prog = CompiledProgram {
        blocks: lw.blocks,
        boot,
        gates: lw.gates,
        regions: lw.regions,
        events: resolved.events.clone(),
        slots: layout.slots.clone(),
        data_len: layout.data_len,
        annotations: resolved.annotations.clone(),
        asyncs: lw.asyncs,
        suspends: lw.suspends,
        c_code: lw.c_code,
        strs: lw.strs,
        exprs: lw.exprs,
        flat: lw.flat,
        dispatch,
        debug,
    };
    prog.dispatch.state = StateLayout::of(&prog);
    Ok(prog)
}

impl<'a> Lower<'a> {
    fn new_block(&mut self, label: impl Into<String>, rank: u8) -> BlockId {
        let id = self.blocks.len() as BlockId;
        self.blocks.push(BBlock {
            label: label.into(),
            instrs: Vec::new(),
            term: Term::Halt,
            rank,
            regions: if self.in_async { Vec::new() } else { self.region_stack.clone() },
        });
        self.stmt_spans.push(Span::default());
        id
    }

    fn push(&mut self, b: BlockId, span: Span, op: Op) {
        self.blocks[b as usize].instrs.push(Instr { span, op });
    }

    fn term(&mut self, b: BlockId, t: Term) {
        self.blocks[b as usize].term = t;
    }

    fn new_gate(&mut self, kind: GateKind, cont: BlockId, span: Span) -> GateId {
        let id = self.gates.len() as GateId;
        self.gates.push(GateInfo { kind, cont, span });
        id
    }

    /// Interns a lowered expression: keeps the tree and flattens it into
    /// the postfix pool under the same id.
    fn intern(&mut self, rv: Rv) -> ExprId {
        let id = self.flat.intern(&rv);
        debug_assert_eq!(id as usize, self.exprs.len());
        self.exprs.push(rv);
        id
    }

    /// The pool id of a string literal; equal texts share one id.
    fn str_id(&mut self, s: &str) -> StrId {
        let at = self.strs.iter().position(|t| **t == *s).unwrap_or_else(|| {
            self.strs.push(s.into());
            self.strs.len() - 1
        });
        at as StrId
    }

    /// Lowers an AST expression and interns it in one step.
    fn lower_rv(&mut self, e: &Expr) -> Result<ExprId> {
        let rv = self.lower_expr(e)?;
        Ok(self.intern(rv))
    }

    /// Rank for an escape block at the current depth: outer constructs get
    /// *higher* numbers and run later (paper: "the outer, the lower
    /// [priority]").
    fn esc_rank(&self) -> u8 {
        255u8.saturating_sub(self.depth)
    }

    fn open_region(&mut self, label: impl Into<String>) -> RegionId {
        let id = self.regions.len() as RegionId;
        self.regions.push(RegionInfo {
            lo: self.gates.len() as GateId,
            hi: self.gates.len() as GateId,
            label: label.into(),
        });
        self.region_stack.push(id);
        id
    }

    fn close_region(&mut self, id: RegionId) {
        self.regions[id as usize].hi = self.gates.len() as GateId;
        let popped = self.region_stack.pop();
        debug_assert_eq!(popped, Some(id));
    }

    fn lower_seq(
        &mut self,
        stmts: &[Stmt],
        mut cur: BlockId,
        flow: &Flow,
    ) -> Result<Option<BlockId>> {
        for stmt in stmts {
            match self.lower_stmt(stmt, cur, flow)? {
                Some(next) => cur = next,
                // control never falls through; the rest of the sequence is
                // unreachable (e.g. code after `await forever`)
                None => return Ok(None),
            }
        }
        Ok(Some(cur))
    }

    fn lower_stmt(&mut self, stmt: &Stmt, cur: BlockId, flow: &Flow) -> Result<Option<BlockId>> {
        let span = stmt.span;
        let first = &mut self.stmt_spans[cur as usize];
        if first.line == 0 {
            *first = span;
        }
        match &stmt.kind {
            StmtKind::Nothing
            | StmtKind::InputDecl { .. }
            | StmtKind::InternalDecl { .. }
            | StmtKind::OutputDecl { .. }
            | StmtKind::VarDecl { .. }
            | StmtKind::Pure { .. }
            | StmtKind::Deterministic { .. } => Ok(Some(cur)),

            StmtKind::CBlock { code } => {
                self.c_code.push_str(code);
                self.c_code.push('\n');
                Ok(Some(cur))
            }

            StmtKind::AwaitEvt { name } => {
                let cont = self.await_event(cur, name, span)?;
                Ok(Some(cont))
            }
            StmtKind::AwaitTime { time } => {
                Ok(Some(self.await_time(cur, TimeAmount::Const(time.us), span)))
            }
            StmtKind::AwaitExpr { us } => {
                let amount = TimeAmount::Dyn(self.lower_rv(us)?);
                Ok(Some(self.await_time(cur, amount, span)))
            }
            StmtKind::AwaitForever => {
                let gate = self.new_gate(GateKind::Never, cur, span);
                self.push(cur, span, Op::ActivateNever { gate });
                self.term(cur, Term::Halt);
                Ok(None)
            }

            StmtKind::EmitEvt { name, value } => {
                let eid = self.resolved.events.lookup(name).expect("resolved event");
                let value = value.as_ref().map(|v| self.lower_rv(v)).transpose()?;
                let kind = self.resolved.events.get(eid).kind;
                if kind == ceu_ast::EventKind::Output {
                    self.push(cur, span, Op::EmitOut { event: eid, value });
                    Ok(Some(cur))
                } else if kind == ceu_ast::EventKind::Input {
                    self.push(cur, span, Op::EmitExt { event: eid, value });
                    Ok(Some(cur))
                } else {
                    // an internal emit suspends the emitter until the
                    // awakened trails finish reacting (stack policy) — keep
                    // it as the last instruction of its track so the
                    // temporal analysis can model the suspension
                    self.push(cur, span, Op::EmitInt { event: eid, value });
                    let cont = self.new_block(format!("aft.emit.{name}"), 0);
                    self.term(cur, Term::Goto(cont));
                    Ok(Some(cont))
                }
            }
            StmtKind::EmitTime { time } => {
                self.push(cur, span, Op::EmitTime(TimeAmount::Const(time.us)));
                Ok(Some(cur))
            }

            StmtKind::If { cond, then_blk, else_blk } => {
                let cond = self.lower_rv(cond)?;
                let then_b = self.new_block("if.then", 0);
                let else_b = self.new_block("if.else", 0);
                self.term(cur, Term::If { cond, then_b, else_b });
                let t_end = self.lower_seq(&then_blk.stmts, then_b, flow)?;
                let e_end = match else_blk {
                    Some(e) => self.lower_seq(&e.stmts, else_b, flow)?,
                    None => Some(else_b),
                };
                match (t_end, e_end) {
                    (None, None) => Ok(None),
                    _ => {
                        let merge = self.new_block("if.end", 0);
                        if let Some(b) = t_end {
                            self.term(b, Term::Goto(merge));
                        }
                        if let Some(b) = e_end {
                            self.term(b, Term::Goto(merge));
                        }
                        Ok(Some(merge))
                    }
                }
            }

            StmtKind::Loop { body } => self.lower_loop(body, cur, flow),

            StmtKind::Break => {
                let Some(esc) = flow.loop_esc else {
                    return Err(CompileError::new(span, "`break` outside of a loop"));
                };
                if self.in_async {
                    self.term(cur, Term::Goto(esc));
                } else {
                    self.push(cur, span, Op::Spawn(esc));
                    self.term(cur, Term::Halt);
                }
                Ok(None)
            }

            StmtKind::Par { kind, arms } => self.lower_par(stmt, *kind, arms, cur, flow, None),

            StmtKind::Call { expr } => {
                let rv = self.lower_rv(expr)?;
                self.push(cur, span, Op::Eval(rv));
                Ok(Some(cur))
            }

            StmtKind::Assign { lhs, rhs } => self.lower_assign(stmt, lhs, rhs, cur, flow),

            StmtKind::Return { value } => {
                let value = value.as_ref().map(|v| self.lower_rv(v)).transpose()?;
                match &flow.ret {
                    Ret::Program => self.term(cur, Term::TerminateProgram { value }),
                    Ret::Async => self.term(cur, Term::TerminateAsync { value }),
                    Ret::Value { result, esc } => {
                        if let Some(v) = value {
                            self.push(cur, span, Op::Assign { dst: Place::Slot(*result), src: v });
                        }
                        if self.in_async {
                            self.term(cur, Term::Goto(*esc));
                        } else {
                            self.push(cur, span, Op::Spawn(*esc));
                            self.term(cur, Term::Halt);
                        }
                    }
                }
                Ok(None)
            }

            StmtKind::DoBlock { body } => self.lower_seq(&body.stmts, cur, flow),

            StmtKind::Suspend { event, body } => {
                if self.in_async {
                    return Err(CompileError::new(span, "`suspend` inside `async`"));
                }
                let eid = self.resolved.events.lookup(event).ok_or_else(|| {
                    CompileError::new(span, format!("undeclared event `{event}`"))
                })?;
                // the body's gates form a region the runtime can gate on
                let region = self.open_region("suspend");
                let end = self.lower_seq(&body.stmts, cur, flow)?;
                self.close_region(region);
                self.suspends.push(SuspendInfo { event: eid, region });
                Ok(end)
            }

            StmtKind::Async { body } => {
                let cont = self.lower_async(body, None, cur, span)?;
                Ok(Some(cont))
            }
        }
    }

    fn await_event(&mut self, cur: BlockId, name: &str, span: Span) -> Result<BlockId> {
        let eid = self
            .resolved
            .events
            .lookup(name)
            .ok_or_else(|| CompileError::new(span, format!("undeclared event `{name}`")))?;
        let cont = self.new_block(format!("aft.{name}"), 0);
        let gate = self.new_gate(GateKind::Evt(eid), cont, span);
        self.push(cur, span, Op::ActivateEvt { gate });
        self.term(cur, Term::Halt);
        Ok(cont)
    }

    fn await_time(&mut self, cur: BlockId, us: TimeAmount, span: Span) -> BlockId {
        let cont = self.new_block("aft.time", 0);
        let gate = self.new_gate(GateKind::Timer, cont, span);
        self.push(cur, span, Op::ActivateTime { gate, us });
        self.term(cur, Term::Halt);
        cont
    }

    fn lower_loop(&mut self, body: &Block, cur: BlockId, flow: &Flow) -> Result<Option<BlockId>> {
        let after = self.new_block("loop.end", 0);
        let esc = self.new_block("loop.esc", self.esc_rank());
        let region = self.open_region("loop");
        self.depth += 1;
        let entry = self.new_block("loop", 0);
        self.term(cur, Term::Goto(entry));
        let flow = Flow { loop_esc: Some(esc), ret: flow.ret.clone() };
        let body_end = self.lower_seq(&body.stmts, entry, &flow)?;
        if let Some(b) = body_end {
            self.term(b, Term::Goto(entry));
        }
        self.depth -= 1;
        self.close_region(region);
        self.push_front(esc, Op::ClearRegion(region));
        self.term(esc, Term::Goto(after));
        Ok(Some(after))
    }

    fn push_front(&mut self, b: BlockId, op: Op) {
        let span = Span::default();
        self.blocks[b as usize].instrs.insert(0, Instr { span, op });
    }

    fn lower_par(
        &mut self,
        stmt: &Stmt,
        kind: ParKind,
        arms: &[Block],
        cur: BlockId,
        flow: &Flow,
        value: Option<(&Expr, SlotId)>,
    ) -> Result<Option<BlockId>> {
        let span = stmt.span;
        if self.in_async {
            return Err(CompileError::new(span, "parallel compositions inside `async`"));
        }
        let hidden = self.layout.hidden.get(&stmt.id).copied().unwrap_or_default();
        let after = self.new_block("par.end", 0);

        // escape block: used by `return` inside value blocks, by arm
        // completion in par/or, and as the par/and rejoin continuation for
        // value-position par/ands
        let needs_esc = kind == ParKind::Or || value.is_some();
        let esc = if needs_esc { Some(self.new_block("par.esc", self.esc_rank())) } else { None };

        let region = self.open_region(kind.keyword());
        self.depth += 1;

        // fork: reset flags, zero the result, spawn one track per arm
        if let Some((lo, n)) = hidden.flags {
            self.push(cur, span, Op::ClearFlags { lo, hi: lo + n });
        }
        if let Some((_, result)) = value {
            let zero = self.intern(Rv::Const(0));
            self.push(cur, span, Op::Assign { dst: Place::Slot(result), src: zero });
        }
        let entries: Vec<BlockId> =
            (0..arms.len()).map(|i| self.new_block(format!("par.arm{i}"), 0)).collect();
        for &e in &entries {
            self.push(cur, span, Op::Spawn(e));
        }
        self.term(cur, Term::Halt);

        let inner_ret = match (&value, esc) {
            (Some((_, result)), Some(esc)) => Ret::Value { result: *result, esc },
            _ => flow.ret.clone(),
        };
        let inner_flow = Flow { loop_esc: flow.loop_esc, ret: inner_ret };

        for (i, arm) in arms.iter().enumerate() {
            let end = self.lower_seq(&arm.stmts, entries[i], &inner_flow)?;
            if let Some(b) = end {
                match kind {
                    ParKind::Par => self.term(b, Term::Halt),
                    ParKind::Or => {
                        self.push(b, span, Op::Spawn(esc.expect("or has esc")));
                        self.term(b, Term::Halt);
                    }
                    ParKind::And => {
                        let (lo, n) = hidden.flags.expect("and has flags");
                        self.push(b, span, Op::SetFlag(lo + i as u32));
                        let cont = match esc {
                            Some(esc) => esc,
                            None => after,
                        };
                        self.term(b, Term::JoinAnd { lo, hi: lo + n, cont });
                    }
                }
            }
        }

        self.depth -= 1;
        self.close_region(region);

        if let Some(esc) = esc {
            self.push(esc, span, Op::ClearRegion(region));
            if let Some((lhs, result)) = value {
                let dst = self.lower_place(lhs)?;
                let src = self.intern(Rv::Slot(result));
                self.push(esc, span, Op::Assign { dst, src });
            }
            self.term(esc, Term::Goto(after));
        }

        match kind {
            // a statement-position `par` never rejoins
            ParKind::Par if value.is_none() => Ok(None),
            _ => Ok(Some(after)),
        }
    }

    fn lower_assign(
        &mut self,
        stmt: &Stmt,
        lhs: &Expr,
        rhs: &AssignRhs,
        cur: BlockId,
        flow: &Flow,
    ) -> Result<Option<BlockId>> {
        let span = stmt.span;
        match rhs {
            AssignRhs::Expr(e) => {
                let src = self.lower_rv(e)?;
                let dst = self.lower_place(lhs)?;
                self.push(cur, span, Op::Assign { dst, src });
                Ok(Some(cur))
            }
            AssignRhs::AwaitEvt(name) => {
                let eid = self.resolved.events.lookup(name).expect("resolved event");
                let cont = self.await_event(cur, name, span)?;
                let dst = self.lower_place(lhs)?;
                let src = self.intern(Rv::EventVal(eid));
                self.push(cont, span, Op::Assign { dst, src });
                Ok(Some(cont))
            }
            AssignRhs::AwaitTime(t) => {
                let cont = self.await_time(cur, TimeAmount::Const(t.us), span);
                let dst = self.lower_place(lhs)?;
                let src = self.intern(Rv::Const(0));
                self.push(cont, span, Op::Assign { dst, src });
                Ok(Some(cont))
            }
            AssignRhs::AwaitExpr(e) => {
                let amount = TimeAmount::Dyn(self.lower_rv(e)?);
                let cont = self.await_time(cur, amount, span);
                let dst = self.lower_place(lhs)?;
                let src = self.intern(Rv::Const(0));
                self.push(cont, span, Op::Assign { dst, src });
                Ok(Some(cont))
            }
            AssignRhs::Par(kind, arms) => {
                let result = self
                    .layout
                    .hidden
                    .get(&stmt.id)
                    .and_then(|h| h.result)
                    .expect("layout allocated result slot");
                self.lower_par(stmt, *kind, arms, cur, flow, Some((lhs, result)))
            }
            AssignRhs::Do(body) => {
                let result = self
                    .layout
                    .hidden
                    .get(&stmt.id)
                    .and_then(|h| h.result)
                    .expect("layout allocated result slot");
                let after = self.new_block("do.end", 0);
                let esc = self.new_block("do.esc", self.esc_rank());
                let region = self.open_region("do");
                self.depth += 1;
                let zero = self.intern(Rv::Const(0));
                self.push(cur, span, Op::Assign { dst: Place::Slot(result), src: zero });
                let inner = Flow { loop_esc: flow.loop_esc, ret: Ret::Value { result, esc } };
                let end = self.lower_seq(&body.stmts, cur, &inner)?;
                if let Some(b) = end {
                    self.term(b, Term::Goto(esc));
                }
                self.depth -= 1;
                self.close_region(region);
                self.push(esc, span, Op::ClearRegion(region));
                let dst = self.lower_place(lhs)?;
                let src = self.intern(Rv::Slot(result));
                self.push(esc, span, Op::Assign { dst, src });
                self.term(esc, Term::Goto(after));
                Ok(Some(after))
            }
            AssignRhs::Async(body) => {
                let result = self
                    .layout
                    .hidden
                    .get(&stmt.id)
                    .and_then(|h| h.result)
                    .expect("layout allocated result slot");
                let cont = self.lower_async(body, Some(result), cur, span)?;
                let dst = self.lower_place(lhs)?;
                let src = self.intern(Rv::Slot(result));
                self.push(cont, span, Op::Assign { dst, src });
                Ok(Some(cont))
            }
        }
    }

    /// Compiles an async body and the synchronous await-site around it.
    /// Returns the continuation block (entered when the async completes).
    fn lower_async(
        &mut self,
        body: &Block,
        result: Option<SlotId>,
        cur: BlockId,
        span: Span,
    ) -> Result<BlockId> {
        let async_id = self.asyncs.len() as AsyncId;
        let cont = self.new_block(format!("aft.async{async_id}"), 0);
        let gate = self.new_gate(GateKind::AsyncDone(async_id), cont, span);

        let was_async = std::mem::replace(&mut self.in_async, true);
        let entry = self.new_block(format!("async{async_id}"), 0);
        let flow = Flow { loop_esc: None, ret: Ret::Async };
        let end = self.lower_seq(&body.stmts, entry, &flow)?;
        if let Some(b) = end {
            self.term(b, Term::TerminateAsync { value: None });
        }
        self.in_async = was_async;

        self.asyncs.push(AsyncBlock { entry, result, done_gate: gate });
        self.push(cur, span, Op::ActivateAsync { gate, async_id });
        self.term(cur, Term::Halt);
        Ok(cont)
    }

    // ---- expressions ------------------------------------------------------

    fn lower_place(&mut self, lhs: &Expr) -> Result<Place> {
        match &lhs.kind {
            ExprKind::Var(unique) => {
                let (slot, is_array) = self.var_slot(unique, lhs.span)?;
                if is_array {
                    return Err(CompileError::new(lhs.span, "cannot assign to a whole array"));
                }
                Ok(Place::Slot(slot))
            }
            ExprKind::Index(base, idx) => {
                let idx = self.lower_expr(idx)?;
                match &base.kind {
                    ExprKind::Var(unique) => {
                        let (slot, is_array) = self.var_slot(unique, base.span)?;
                        if is_array {
                            Ok(Place::Index(slot, self.intern(idx)))
                        } else {
                            // indexing through a pointer variable
                            let addr = Rv::Bin(
                                ceu_ast::BinOp::Add,
                                Box::new(Rv::Slot(slot)),
                                Box::new(idx),
                            );
                            Ok(Place::Deref(self.intern(addr)))
                        }
                    }
                    _ => {
                        let base = self.lower_expr(base)?;
                        let addr = Rv::Bin(ceu_ast::BinOp::Add, Box::new(base), Box::new(idx));
                        Ok(Place::Deref(self.intern(addr)))
                    }
                }
            }
            ExprKind::Unop(UnOp::Deref, p) => {
                let rv = self.lower_expr(p)?;
                Ok(Place::Deref(self.intern(rv)))
            }
            _ => Err(CompileError::new(lhs.span, "unsupported assignment target")),
        }
    }

    fn var_slot(&self, unique: &str, span: Span) -> Result<(SlotId, bool)> {
        self.layout
            .var(unique)
            .ok_or_else(|| CompileError::new(span, format!("no slot for variable `{unique}`")))
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<Rv> {
        Ok(match &e.kind {
            ExprKind::Num(n) => Rv::Const(*n),
            ExprKind::Chr(c) => Rv::Const(*c as i64),
            ExprKind::Str(s) => Rv::Str(self.str_id(s)),
            ExprKind::Null => Rv::Null,
            ExprKind::Var(unique) => {
                let (slot, is_array) = self.var_slot(unique, e.span)?;
                if is_array {
                    Rv::AddrOf(slot) // array-to-pointer decay
                } else {
                    Rv::Slot(slot)
                }
            }
            ExprKind::CSym(name) => Rv::CGlobal(name.clone()),
            ExprKind::Unop(UnOp::Addr, inner) => match &inner.kind {
                ExprKind::Var(unique) => {
                    let (slot, _) = self.var_slot(unique, inner.span)?;
                    Rv::AddrOf(slot)
                }
                ExprKind::Index(base, idx) => {
                    if let ExprKind::Var(unique) = &base.kind {
                        let (slot, is_array) = self.var_slot(unique, base.span)?;
                        if is_array {
                            let idx = self.lower_expr(idx)?;
                            return Ok(Rv::Bin(
                                ceu_ast::BinOp::Add,
                                Box::new(Rv::AddrOf(slot)),
                                Box::new(idx),
                            ));
                        }
                    }
                    return Err(CompileError::new(
                        e.span,
                        "cannot take the address of this expression",
                    ));
                }
                _ => {
                    return Err(CompileError::new(
                        e.span,
                        "cannot take the address of this expression",
                    ))
                }
            },
            ExprKind::Unop(UnOp::Deref, inner) => Rv::Deref(Box::new(self.lower_expr(inner)?)),
            ExprKind::Unop(op, inner) => Rv::Un(*op, Box::new(self.lower_expr(inner)?)),
            ExprKind::Binop(op, a, b) => {
                Rv::Bin(*op, Box::new(self.lower_expr(a)?), Box::new(self.lower_expr(b)?))
            }
            ExprKind::Index(base, idx) => {
                Rv::Index(Box::new(self.lower_expr(base)?), Box::new(self.lower_expr(idx)?))
            }
            ExprKind::Call(callee, args) => {
                let name = flatten_callee(callee).ok_or_else(|| {
                    CompileError::new(e.span, "only C functions (`_name`) can be called")
                })?;
                let args = args.iter().map(|a| self.lower_expr(a)).collect::<Result<Vec<_>>>()?;
                Rv::CCall(name, args)
            }
            ExprKind::Cast(_, inner) => Rv::Cast(Box::new(self.lower_expr(inner)?)),
            ExprKind::SizeOf(ty) => Rv::SizeOf(layout::target_size(ty)),
            ExprKind::Field(base, name, arrow) => {
                Rv::Field(Box::new(self.lower_expr(base)?), name.clone(), *arrow)
            }
        })
    }
}

/// Flattens a callee expression to a host-call name:
/// `_f` → `"f"`, `_lcd.setCursor` → `"lcd.setCursor"`.
fn flatten_callee(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::CSym(name) => Some(name.clone()),
        ExprKind::Field(base, field, _) => {
            let mut prefix = flatten_callee(base)?;
            prefix.push('.');
            prefix.push_str(field);
            Some(prefix)
        }
        _ => None,
    }
}
