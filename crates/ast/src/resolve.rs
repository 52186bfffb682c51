//! Name resolution and semantic validation.
//!
//! * **Events** are collected into a flat [`EventTable`]; awaits/emits are
//!   checked against it.
//! * **Variables** are alpha-renamed to unique names (`name#k`) according to
//!   Céu's block scoping (each `do`, loop body, par arm and `if` branch is a
//!   scope; shadowing is allowed; declaration precedes use). After this
//!   pass, a variable name identifies its storage globally, which is what
//!   the memory-layout and temporal-analysis phases key on.
//! * **Async restrictions** (§2.7): inside `async` blocks there are no
//!   parallel compositions, no awaits, no internal events, and no
//!   assignments to variables declared outside the async.
//! * **C annotations** (`pure` / `deterministic`) are collected for the
//!   temporal analysis.
//!
//! Run [`crate::desugar::desugar`] first; initialisers still present on declarations
//! are rejected here.

use crate::expr::{Expr, ExprKind};
use crate::span::Span;
use crate::stmt::{AssignRhs, Block, Program, Stmt, StmtKind};
use crate::types::Type;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A semantic error with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolveError {
    pub span: Span,
    pub message: String,
}

impl ResolveError {
    fn new(span: Span, message: impl Into<String>) -> Self {
        ResolveError { span, message: message.into() }
    }
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ResolveError {}

type Result<T> = std::result::Result<T, ResolveError>;

/// Identifies an event in the [`EventTable`]; serializes as its number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct EventId(pub u16);

impl EventId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Event direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// `input` — arrives from the environment.
    Input,
    /// `internal` — trail-to-trail, stack policy.
    Internal,
    /// `output` — leaves towards the environment (future-work extension:
    /// multi-process GALS composition).
    Output,
}

/// One declared event.
#[derive(Clone, Debug)]
pub struct EventInfo {
    pub name: String,
    pub kind: EventKind,
    pub ty: Type,
    pub span: Span,
}

impl EventInfo {
    /// `true` for input events (historical name from the paper's text).
    pub fn external(&self) -> bool {
        self.kind == EventKind::Input
    }
}

/// All declared events, external and internal.
#[derive(Clone, Debug, Default)]
pub struct EventTable {
    pub events: Vec<EventInfo>,
    by_name: HashMap<String, EventId>,
}

impl EventTable {
    pub fn lookup(&self, name: &str) -> Option<EventId> {
        self.by_name.get(name).copied()
    }

    pub fn get(&self, id: EventId) -> &EventInfo {
        &self.events[id.index()]
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterator over `(id, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &EventInfo)> {
        self.events.iter().enumerate().map(|(i, e)| (EventId(i as u16), e))
    }

    fn insert(&mut self, info: EventInfo) -> Result<EventId> {
        if self.by_name.contains_key(&info.name) {
            return Err(ResolveError::new(
                info.span,
                format!("event `{}` declared twice", info.name),
            ));
        }
        let id = EventId(self.events.len() as u16);
        self.by_name.insert(info.name.clone(), id);
        self.events.push(info);
        Ok(id)
    }
}

/// One declared variable (after alpha-renaming).
#[derive(Clone, Debug)]
pub struct VarInfo {
    /// Unique name (`original#k`) — this is what `Var` nodes now carry.
    pub unique: String,
    /// Name as written in the source.
    pub original: String,
    pub ty: Type,
    /// Array length, if an array.
    pub array: Option<u32>,
    pub span: Span,
    /// Which async block (by numbering order) declared it, if any.
    pub async_id: Option<u32>,
}

/// `pure` / `deterministic` annotations (names without the underscore).
#[derive(Clone, Debug, Default)]
pub struct CAnnotations {
    pub pure: HashSet<String>,
    /// Each `deterministic` statement declares one compatibility clique.
    pub cliques: Vec<HashSet<String>>,
}

impl CAnnotations {
    /// May C functions `f` and `g` run concurrently?
    pub fn compatible(&self, f: &str, g: &str) -> bool {
        self.pure.contains(f)
            || self.pure.contains(g)
            || self.cliques.iter().any(|c| c.contains(f) && c.contains(g))
    }
}

/// Output of [`resolve`].
#[derive(Clone, Debug)]
pub struct Resolved {
    /// Alpha-renamed program (still structurally identical).
    pub program: Program,
    pub events: EventTable,
    pub vars: Vec<VarInfo>,
    pub annotations: CAnnotations,
    /// Number of `async` blocks found, in numbering order.
    pub async_count: u32,
}

impl Resolved {
    pub fn var(&self, unique: &str) -> Option<&VarInfo> {
        self.vars.iter().find(|v| v.unique == unique)
    }
}

struct Ctx {
    events: EventTable,
    vars: Vec<VarInfo>,
    annotations: CAnnotations,
    scopes: Vec<HashMap<String, usize>>,
    /// `Some(async id)` while inside an `async` body.
    in_async: Option<u32>,
    async_count: u32,
    loop_depth: u32,
}

/// Resolves a desugared program. Consumes and returns the program with
/// variables alpha-renamed.
pub fn resolve(mut program: Program) -> Result<Resolved> {
    let mut ctx = Ctx {
        events: EventTable::default(),
        vars: Vec::new(),
        annotations: CAnnotations::default(),
        scopes: vec![HashMap::new()],
        in_async: None,
        async_count: 0,
        loop_depth: 0,
    };
    // Events and annotations are global: collect them up front so forward
    // references parse (the paper always declares first, but e.g. the
    // simulation template awaits events declared inside the wrapped code).
    collect_globals(&program.block, &mut ctx)?;
    resolve_block(&mut program.block, &mut ctx)?;
    Ok(Resolved {
        program,
        events: ctx.events,
        vars: ctx.vars,
        annotations: ctx.annotations,
        async_count: ctx.async_count,
    })
}

fn collect_globals(block: &Block, ctx: &mut Ctx) -> Result<()> {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::InputDecl { ty, names } => {
                for n in names {
                    ctx.events.insert(EventInfo {
                        name: n.clone(),
                        kind: EventKind::Input,
                        ty: ty.clone(),
                        span: stmt.span,
                    })?;
                }
            }
            StmtKind::InternalDecl { ty, names } => {
                for n in names {
                    ctx.events.insert(EventInfo {
                        name: n.clone(),
                        kind: EventKind::Internal,
                        ty: ty.clone(),
                        span: stmt.span,
                    })?;
                }
            }
            StmtKind::OutputDecl { ty, names } => {
                for n in names {
                    ctx.events.insert(EventInfo {
                        name: n.clone(),
                        kind: EventKind::Output,
                        ty: ty.clone(),
                        span: stmt.span,
                    })?;
                }
            }
            StmtKind::Pure { names } => {
                ctx.annotations.pure.extend(names.iter().cloned());
            }
            StmtKind::Deterministic { names } => {
                ctx.annotations.cliques.push(names.iter().cloned().collect());
            }
            _ => {}
        }
        let mut children: Vec<&Block> = Vec::new();
        crate::visit::each_child_block(stmt, &mut |b| children.push(b));
        for b in children {
            collect_globals(b, ctx)?;
        }
    }
    Ok(())
}

fn resolve_block(block: &mut Block, ctx: &mut Ctx) -> Result<()> {
    ctx.scopes.push(HashMap::new());
    let r = resolve_stmts(block, ctx);
    ctx.scopes.pop();
    r
}

fn resolve_stmts(block: &mut Block, ctx: &mut Ctx) -> Result<()> {
    for stmt in &mut block.stmts {
        resolve_stmt(stmt, ctx)?;
    }
    Ok(())
}

fn resolve_stmt(stmt: &mut Stmt, ctx: &mut Ctx) -> Result<()> {
    let span = stmt.span;
    match &mut stmt.kind {
        StmtKind::Nothing
        | StmtKind::Break
        | StmtKind::CBlock { .. }
        | StmtKind::Pure { .. }
        | StmtKind::Deterministic { .. }
        | StmtKind::InputDecl { .. }
        | StmtKind::InternalDecl { .. }
        | StmtKind::OutputDecl { .. }
        | StmtKind::AwaitForever => {
            if matches!(stmt.kind, StmtKind::Break) && ctx.loop_depth == 0 {
                return Err(ResolveError::new(span, "`break` outside of a loop"));
            }
            if matches!(stmt.kind, StmtKind::AwaitForever) && ctx.in_async.is_some() {
                return Err(ResolveError::new(span, "`await` is not allowed inside `async`"));
            }
        }
        StmtKind::VarDecl { ty, vars } => {
            for v in vars.iter_mut() {
                if v.init.is_some() {
                    return Err(ResolveError::new(
                        span,
                        "internal error: declaration initialisers must be desugared first",
                    ));
                }
                let idx = ctx.vars.len();
                let unique = format!("{}#{}", v.name, idx);
                ctx.vars.push(VarInfo {
                    unique: unique.clone(),
                    original: v.name.clone(),
                    ty: ty.clone(),
                    array: v.array,
                    span,
                    async_id: ctx.in_async,
                });
                ctx.scopes.last_mut().unwrap().insert(v.name.clone(), idx);
                v.name = unique;
            }
        }
        StmtKind::AwaitEvt { name } => {
            if ctx.in_async.is_some() {
                return Err(ResolveError::new(span, "`await` is not allowed inside `async`"));
            }
            match ctx.events.lookup(name) {
                None => return Err(ResolveError::new(span, format!("undeclared event `{name}`"))),
                Some(eid) if ctx.events.get(eid).kind == EventKind::Output => {
                    return Err(ResolveError::new(
                        span,
                        format!("output event `{name}` cannot be awaited"),
                    ))
                }
                _ => {}
            }
        }
        StmtKind::AwaitTime { .. } => {
            if ctx.in_async.is_some() {
                return Err(ResolveError::new(span, "`await` is not allowed inside `async`"));
            }
        }
        StmtKind::AwaitExpr { us } => {
            if ctx.in_async.is_some() {
                return Err(ResolveError::new(span, "`await` is not allowed inside `async`"));
            }
            resolve_expr(us, ctx)?;
        }
        StmtKind::EmitEvt { name, value } => {
            let Some(eid) = ctx.events.lookup(name) else {
                return Err(ResolveError::new(span, format!("undeclared event `{name}`")));
            };
            let info = ctx.events.get(eid);
            match (info.kind, ctx.in_async.is_some()) {
                (EventKind::Input, false) => {
                    return Err(ResolveError::new(
                        span,
                        format!(
                            "input event `{name}` can only be emitted from inside `async` \
                             (declare an `output` event to talk to the environment)"
                        ),
                    ))
                }
                (EventKind::Internal, true) => {
                    return Err(ResolveError::new(
                        span,
                        "internal events cannot be manipulated inside `async`",
                    ))
                }
                _ => {}
            }
            if info.ty.has_value() && value.is_none() {
                return Err(ResolveError::new(
                    span,
                    format!("event `{name}` carries a value; use `emit {name} = …`"),
                ));
            }
            if info.ty.is_void() && value.is_some() {
                return Err(ResolveError::new(
                    span,
                    format!("event `{name}` is void and carries no value"),
                ));
            }
            if let Some(v) = value {
                resolve_expr(v, ctx)?;
            }
        }
        StmtKind::EmitTime { .. } => {
            if ctx.in_async.is_none() {
                return Err(ResolveError::new(
                    span,
                    "time can only be emitted from inside `async` (simulation)",
                ));
            }
        }
        StmtKind::If { cond, then_blk, else_blk } => {
            resolve_expr(cond, ctx)?;
            resolve_block(then_blk, ctx)?;
            if let Some(e) = else_blk {
                resolve_block(e, ctx)?;
            }
        }
        StmtKind::Loop { body } => {
            ctx.loop_depth += 1;
            let r = resolve_block(body, ctx);
            ctx.loop_depth -= 1;
            r?;
        }
        StmtKind::Par { arms, .. } => {
            if ctx.in_async.is_some() {
                return Err(ResolveError::new(
                    span,
                    "parallel compositions are not allowed inside `async`",
                ));
            }
            for arm in arms {
                resolve_block(arm, ctx)?;
            }
        }
        StmtKind::Call { expr } => resolve_expr(expr, ctx)?,
        StmtKind::Assign { lhs, rhs } => {
            resolve_expr(lhs, ctx)?;
            check_async_assignment(lhs, span, ctx)?;
            resolve_rhs(rhs, span, ctx)?;
        }
        StmtKind::Return { value } => {
            if let Some(v) = value {
                resolve_expr(v, ctx)?;
            }
        }
        StmtKind::DoBlock { body } => resolve_block(body, ctx)?,
        StmtKind::Suspend { event, body } => {
            if ctx.in_async.is_some() {
                return Err(ResolveError::new(span, "`suspend` is not allowed inside `async`"));
            }
            let Some(eid) = ctx.events.lookup(event) else {
                return Err(ResolveError::new(span, format!("undeclared event `{event}`")));
            };
            let info = ctx.events.get(eid);
            if info.kind == EventKind::Output {
                return Err(ResolveError::new(
                    span,
                    format!("output event `{event}` cannot guard a suspend"),
                ));
            }
            if !info.ty.has_value() {
                return Err(ResolveError::new(
                    span,
                    format!(
                        "suspend guard `{event}` must carry a value (0 resumes, nonzero pauses)"
                    ),
                ));
            }
            resolve_block(body, ctx)?;
        }
        StmtKind::Async { body } => {
            enter_async(body, span, ctx)?;
        }
    }
    Ok(())
}

fn resolve_rhs(rhs: &mut AssignRhs, span: Span, ctx: &mut Ctx) -> Result<()> {
    match rhs {
        AssignRhs::Expr(e) => resolve_expr(e, ctx),
        AssignRhs::AwaitEvt(name) => {
            if ctx.in_async.is_some() {
                return Err(ResolveError::new(span, "`await` is not allowed inside `async`"));
            }
            let Some(eid) = ctx.events.lookup(name) else {
                return Err(ResolveError::new(span, format!("undeclared event `{name}`")));
            };
            if ctx.events.get(eid).kind == EventKind::Output {
                return Err(ResolveError::new(
                    span,
                    format!("output event `{name}` cannot be awaited"),
                ));
            }
            if ctx.events.get(eid).ty.is_void() {
                return Err(ResolveError::new(
                    span,
                    format!("event `{name}` is void and yields no value"),
                ));
            }
            Ok(())
        }
        AssignRhs::AwaitTime(_) => {
            if ctx.in_async.is_some() {
                return Err(ResolveError::new(span, "`await` is not allowed inside `async`"));
            }
            Ok(())
        }
        AssignRhs::AwaitExpr(e) => {
            if ctx.in_async.is_some() {
                return Err(ResolveError::new(span, "`await` is not allowed inside `async`"));
            }
            resolve_expr(e, ctx)
        }
        AssignRhs::Par(_, arms) => {
            if ctx.in_async.is_some() {
                return Err(ResolveError::new(
                    span,
                    "parallel compositions are not allowed inside `async`",
                ));
            }
            for arm in arms {
                resolve_block(arm, ctx)?;
            }
            Ok(())
        }
        AssignRhs::Do(b) => resolve_block(b, ctx),
        AssignRhs::Async(b) => enter_async(b, span, ctx),
    }
}

fn enter_async(body: &mut Block, span: Span, ctx: &mut Ctx) -> Result<()> {
    if ctx.in_async.is_some() {
        return Err(ResolveError::new(span, "`async` blocks cannot nest"));
    }
    let id = ctx.async_count;
    ctx.async_count += 1;
    ctx.in_async = Some(id);
    let saved_loops = std::mem::take(&mut ctx.loop_depth);
    let r = resolve_block(body, ctx);
    ctx.loop_depth = saved_loops;
    ctx.in_async = None;
    r
}

/// §2.7: asyncs "cannot assign to variables defined in outer blocks".
fn check_async_assignment(lhs: &Expr, span: Span, ctx: &Ctx) -> Result<()> {
    let Some(async_id) = ctx.in_async else { return Ok(()) };
    // find the root variable of the place expression
    let mut e = lhs;
    loop {
        match &e.kind {
            ExprKind::Index(b, _) | ExprKind::Field(b, _, _) => e = b,
            ExprKind::Var(unique) => {
                let var = ctx
                    .vars
                    .iter()
                    .find(|v| v.unique == *unique)
                    .expect("lhs resolved before check");
                if var.async_id != Some(async_id) {
                    return Err(ResolveError::new(
                        span,
                        format!(
                            "`async` cannot assign to `{}`, declared outside the async block",
                            var.original
                        ),
                    ));
                }
                return Ok(());
            }
            // writes through pointers / C globals are the programmer's "C hat"
            _ => return Ok(()),
        }
    }
}

fn resolve_expr(e: &mut Expr, ctx: &mut Ctx) -> Result<()> {
    let span = e.span;
    match &mut e.kind {
        ExprKind::Var(name) => {
            for scope in ctx.scopes.iter().rev() {
                if let Some(&idx) = scope.get(name.as_str()) {
                    *name = ctx.vars[idx].unique.clone();
                    return Ok(());
                }
            }
            Err(ResolveError::new(span, format!("undeclared variable `{name}`")))
        }
        ExprKind::Unop(_, a) | ExprKind::Cast(_, a) | ExprKind::Field(a, _, _) => {
            resolve_expr(a, ctx)
        }
        ExprKind::Binop(_, a, b) | ExprKind::Index(a, b) => {
            resolve_expr(a, ctx)?;
            resolve_expr(b, ctx)
        }
        ExprKind::Call(c, args) => {
            resolve_expr(c, ctx)?;
            for a in args {
                resolve_expr(a, ctx)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}
