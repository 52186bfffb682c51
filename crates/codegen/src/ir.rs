//! The track/gate intermediate representation (§4.4 of the paper).
//!
//! A compiled program is a set of *basic blocks* ("tracks"), a set of
//! *gates* (one per `await`), *regions* (contiguous gate ranges owned by
//! `par/or`s, loops and value blocks, killable with one range-clear — the
//! paper's `memset`), and statically laid-out *data slots* (§4.2).
//!
//! Control transfers:
//! * `Spawn` enqueues a block in the scheduler's rank-ordered track queue;
//! * gates hold the block to spawn when their event fires;
//! * the block terminator covers straight-line flow (goto / branch / halt).
//!
//! Expressions are lowered to [`Rv`] with variable references resolved to
//! slot indices, so the runtime never does name lookups. Instructions do
//! not embed expression trees: every expression is interned at lower time
//! and referenced by [`ExprId`] — the tree lives in
//! [`CompiledProgram::exprs`] (for the C backend, the analyses, and the
//! runtime's tree-eval ablation) and its postfix form in
//! [`CompiledProgram::flat`] (the runtime's hot path).

use crate::flat::{FlatOp, FlatPool};
use ceu_ast::{BinOp, EventId, EventTable, Span, UnOp};
use std::collections::HashMap;
use std::fmt;

pub type BlockId = u32;
pub type GateId = u32;
pub type RegionId = u32;
pub type SlotId = u32;
pub type AsyncId = u32;
/// Index of an interned expression: `CompiledProgram::exprs[id]` is the
/// tree, `CompiledProgram::flat.code_of(id)` its postfix code.
pub type ExprId = u32;
/// Index of a string literal in the artifact's pool: equal ids are equal
/// text, and [`CompiledProgram::str`] gives the text.
pub type StrId = u32;

/// A lowered r-value expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Rv {
    Const(i64),
    Str(StrId),
    Null,
    /// Read a data slot (scalar variable).
    Slot(SlotId),
    /// Address of a data slot (`&v`, also array base decay).
    AddrOf(SlotId),
    /// Value carried by the most recent occurrence of an event.
    EventVal(EventId),
    /// Read a C global (`_X`).
    CGlobal(String),
    Un(UnOp, Box<Rv>),
    Bin(BinOp, Box<Rv>, Box<Rv>),
    /// `base[idx]` where `base` evaluates to a pointer.
    Index(Box<Rv>, Box<Rv>),
    /// Call into the C world. Method-style calls are flattened
    /// (`_lcd.setCursor(…)` → name `"lcd.setCursor"`).
    CCall(String, Vec<Rv>),
    /// `*p`
    Deref(Box<Rv>),
    /// `sizeof<T>` — byte size on the 16-bit reference target.
    SizeOf(u32),
    /// `base.f` / `base->f` on a host value.
    Field(Box<Rv>, String, bool),
    /// `<T> e` — numeric casts are value-preserving at runtime.
    Cast(Box<Rv>),
}

/// A lowered l-value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Place {
    /// A scalar slot.
    Slot(SlotId),
    /// `arr[idx]` where `arr` is a Céu array starting at the given slot.
    Index(SlotId, ExprId),
    /// `*p = …` — store through a pointer (data or host).
    Deref(ExprId),
}

/// A timer duration: compile-time constant or computed (µs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TimeAmount {
    Const(u64),
    Dyn(ExprId),
}

/// One instruction.
#[derive(Clone, Debug, PartialEq)]
pub struct Instr {
    pub span: Span,
    pub op: Op,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Assign {
        dst: Place,
        src: ExprId,
    },
    /// Evaluate for side effects (a statement-position C call).
    Eval(ExprId),
    /// Arm an event gate (`GATES[g] = cont` in the paper).
    ActivateEvt {
        gate: GateId,
    },
    /// Arm a timer gate; the deadline is `logical now + us`.
    ActivateTime {
        gate: GateId,
        us: TimeAmount,
    },
    /// Arm an `await forever` gate (keeps the trail alive, never fires).
    ActivateNever {
        gate: GateId,
    },
    /// Start asynchronous block `async_id`; its completion fires `gate`.
    ActivateAsync {
        gate: GateId,
        async_id: AsyncId,
    },
    /// Kill every trail of a region: deactivate its gate range and abort
    /// asyncs hanging off gates in the range.
    ClearRegion(RegionId),
    /// Enqueue a block in the track queue (at the block's rank).
    Spawn(BlockId),
    /// Emit an internal event — runs the awakened trails as a nested
    /// reaction (stack policy, §2.2) before the next instruction.
    EmitInt {
        event: EventId,
        value: Option<ExprId>,
    },
    /// Emit an input event from an `async` (simulation, §2.8).
    EmitExt {
        event: EventId,
        value: Option<ExprId>,
    },
    /// Emit an output event towards the environment (future-work
    /// extension: multi-process GALS composition).
    EmitOut {
        event: EventId,
        value: Option<ExprId>,
    },
    /// Emit the passage of wall-clock time from an `async`.
    EmitTime(TimeAmount),
    /// Set a par/and completion flag.
    SetFlag(SlotId),
    /// Reset the completion flags `[lo, hi)` of a par/and at fork time.
    ClearFlags {
        lo: SlotId,
        hi: SlotId,
    },
}

/// Block terminator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Term {
    /// Yield to the scheduler (the paper's `halt`).
    Halt,
    Goto(BlockId),
    If {
        cond: ExprId,
        then_b: BlockId,
        else_b: BlockId,
    },
    /// par/and rejoin: proceed to `cont` iff all flags in `[lo, hi)` are set.
    JoinAnd {
        lo: SlotId,
        hi: SlotId,
        cont: BlockId,
    },
    /// Top-level `return` / program end.
    TerminateProgram {
        value: Option<ExprId>,
    },
    /// `return` inside an `async` / async body end.
    TerminateAsync {
        value: Option<ExprId>,
    },
}

/// A basic block ("track").
#[derive(Clone, Debug, PartialEq)]
pub struct BBlock {
    pub label: String,
    pub instrs: Vec<Instr>,
    pub term: Term,
    /// Scheduling rank: 0 = highest priority; rejoin/escape blocks get
    /// higher numbers, the outer the higher (run later — glitch avoidance).
    pub rank: u8,
    /// Enclosing regions, innermost last (used to detect a trail killed
    /// while it was mid-emit).
    pub regions: Vec<RegionId>,
}

/// What fires a gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GateKind {
    /// External or internal event.
    Evt(EventId),
    /// Wall-clock timer.
    Timer,
    /// `await forever`.
    Never,
    /// Completion of an async block.
    AsyncDone(AsyncId),
}

/// One gate: what fires it and which block resumes the trail.
#[derive(Clone, Debug)]
pub struct GateInfo {
    pub kind: GateKind,
    pub cont: BlockId,
    pub span: Span,
}

/// A contiguous killable gate range `[lo, hi)`.
#[derive(Clone, Debug)]
pub struct RegionInfo {
    pub lo: GateId,
    pub hi: GateId,
    pub label: String,
}

/// One `suspend e do … end` construct (extension): while the guard event's
/// last value is truthy, no gate in `region` fires and its timers freeze.
#[derive(Clone, Debug)]
pub struct SuspendInfo {
    pub event: EventId,
    pub region: RegionId,
}

/// One compiled `async` body. `Copy`, so the runtime's completion path
/// reads it without touching the heap.
#[derive(Clone, Copy, Debug)]
pub struct AsyncBlock {
    pub entry: BlockId,
    /// Slot receiving the `return` value, for value-position asyncs.
    pub result: Option<SlotId>,
    /// The gate fired on completion.
    pub done_gate: GateId,
}

/// One laid-out variable (for reports and debugging).
#[derive(Clone, Debug)]
pub struct SlotInfo {
    /// Unique (alpha-renamed) name; hidden slots use `#`-prefixed labels.
    pub name: String,
    pub slot: SlotId,
    /// Number of slots (1 for scalars, n for arrays).
    pub len: u32,
    /// Size in bytes on the 16-bit reference target (for the RAM report).
    pub target_bytes: u32,
}

/// Precomputed dispatch tables (§4.3's static gate tables, generalised):
/// everything the runtime would otherwise derive by scanning `gates`,
/// `suspends` or `slots` on a hot path, computed once at compile time.
#[derive(Clone, Debug)]
pub struct Dispatch {
    /// Gates awaiting each event, indexed by `EventId` (ascending gate order).
    pub event_gates: Vec<Vec<GateId>>,
    /// All timer gates, in ascending order.
    pub timer_gates: Vec<GateId>,
    /// For each gate, the indices into `suspends` whose region covers it.
    pub gate_suspends: Vec<Vec<u32>>,
    /// For each event, the indices into `suspends` guarded by it.
    pub event_suspends: Vec<Vec<u32>>,
    /// Unique (alpha-renamed) variable name → first slot.
    pub slot_by_name: HashMap<String, SlotId>,
    /// The distinct block ranks, ascending: bucket `s` of the runtime's
    /// rank-bucketed track queue holds the tracks of rank `slot_ranks[s]`.
    /// Ranks are sparse (0 plus a few escape ranks `255 - depth`), so a
    /// machine sizes its queue by this list, not by the 256 possible ranks.
    pub slot_ranks: Vec<u8>,
    /// Rank → bucket: the index in `slot_ranks` of the smallest listed rank
    /// `>= r`, clamped to the last bucket. Monotone, so bucket order is
    /// rank order.
    pub rank_slot: Box<[u8; 256]>,
    /// Where a machine's artifact-sized state lives; sized by
    /// [`StateLayout::of`] once the program is assembled.
    pub state: StateLayout,
}

/// A machine's artifact-sized state, laid out once per artifact: §4.2's
/// static slot layout, extended from the data slots to the scheduler's
/// bookkeeping. A machine holds it in three blocks, one per element
/// type, each allocated zeroed at boot; the fields are offsets into them.
/// What a zero word means (an idle queue link, an idle async) is the
/// runtime's encoding.
///
/// * `Value` block: the data slots `[0, data_len)`, one last value per
///   event from `evtval`, the operand stack from `stack`; `values` long.
/// * `u32` block: one queue link per block `[0, blocks)`, a `(head,
///   tail)` pair per rank bucket from `ends`, a `(cursor, ip)` pair per
///   async from `asyncs`; `words` long.
/// * `u64` block: the gate-active bits `[0, paused)`, the suspend-paused
///   bits from `paused`, one deadline per gate from `deadline`, one pause
///   start per suspend from `since`, one time base per queued block from
///   `base`; `wide` long.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateLayout {
    pub evtval: u32,
    pub stack: u32,
    pub values: u32,
    pub ends: u32,
    pub asyncs: u32,
    pub words: u32,
    pub paused: u32,
    pub deadline: u32,
    pub since: u32,
    pub base: u32,
    pub wide: u32,
}

impl StateLayout {
    /// The layout for `p`'s counts (slots, events, stack depth, blocks,
    /// rank buckets, asyncs, gates, suspends).
    pub fn of(p: &CompiledProgram) -> Self {
        let len = |n: usize| n as u32;
        let bits = |n: usize| len(n.div_ceil(64));
        let (blocks, gates, suspends) = (len(p.blocks.len()), p.gates.len(), p.suspends.len());
        let stack = p.data_len + len(p.events.len());
        let asyncs = blocks + 2 * len(p.dispatch.slot_ranks.len().max(1));
        let paused = bits(gates);
        let deadline = paused + bits(suspends);
        let since = deadline + len(gates);
        let base = since + len(suspends);
        StateLayout {
            evtval: p.data_len,
            stack,
            values: stack + p.flat.max_stack,
            ends: blocks,
            asyncs,
            words: asyncs + 2 * len(p.asyncs.len()),
            paused,
            deadline,
            since,
            base,
            wide: base + blocks,
        }
    }
}

impl Dispatch {
    /// Builds the tables from the raw program structures.
    pub fn build(
        blocks: &[BBlock],
        gates: &[GateInfo],
        regions: &[RegionInfo],
        suspends: &[SuspendInfo],
        slots: &[SlotInfo],
        n_events: usize,
    ) -> Self {
        let mut event_gates = vec![Vec::new(); n_events];
        let mut timer_gates = Vec::new();
        for (g, info) in gates.iter().enumerate() {
            match info.kind {
                GateKind::Evt(e) => event_gates[e.index()].push(g as GateId),
                GateKind::Timer => timer_gates.push(g as GateId),
                GateKind::Never | GateKind::AsyncDone(_) => {}
            }
        }
        let mut gate_suspends = vec![Vec::new(); gates.len()];
        let mut event_suspends = vec![Vec::new(); n_events];
        for (i, s) in suspends.iter().enumerate() {
            let r = &regions[s.region as usize];
            for g in r.lo..r.hi {
                gate_suspends[g as usize].push(i as u32);
            }
            event_suspends[s.event.index()].push(i as u32);
        }
        let slot_by_name =
            slots.iter().map(|s| (s.name.clone(), s.slot)).collect::<HashMap<_, _>>();
        let mut slot_ranks: Vec<u8> = blocks.iter().map(|b| b.rank).collect();
        slot_ranks.sort_unstable();
        slot_ranks.dedup();
        let last = slot_ranks.len().saturating_sub(1);
        let mut rank_slot = Box::new([0u8; 256]);
        for (r, slot) in rank_slot.iter_mut().enumerate() {
            *slot = slot_ranks.partition_point(|&x| (x as usize) < r).min(last) as u8;
        }
        Dispatch {
            event_gates,
            timer_gates,
            gate_suspends,
            event_suspends,
            slot_by_name,
            slot_ranks,
            rank_slot,
            state: StateLayout::default(),
        }
    }
}

/// Block-level debug info: maps each `BlockId` back to the source span of
/// its first spanned instruction (falling back to the gate/terminator
/// span the lowering recorded, or `0:0` for synthetic glue blocks). This
/// is what lets per-block profiles and traces render as "hot statements"
/// against the original `.ceu` source.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DebugMap {
    /// Indexed by `BlockId`; `line == 0` means "no source location".
    pub block_spans: Vec<Span>,
}

impl DebugMap {
    /// Builds the map from lowered blocks: a block's span is the span of
    /// its first instruction that carries one, else `stmt_spans[block]`,
    /// the span of the first statement lowered into it (e.g. a `par`
    /// arm's entry block, which only spawns or jumps).
    pub fn build(blocks: &[BBlock], stmt_spans: &[Span]) -> Self {
        let block_spans = blocks
            .iter()
            .zip(stmt_spans)
            .map(|(b, &stmt)| b.instrs.iter().map(|i| i.span).find(|s| s.line > 0).unwrap_or(stmt))
            .collect();
        DebugMap { block_spans }
    }

    /// Source span of a block (`0:0` when unknown).
    pub fn block_span(&self, block: BlockId) -> Span {
        self.block_spans.get(block as usize).copied().unwrap_or_default()
    }
}

/// A fully compiled program, executable by `ceu-runtime` and printable by
/// the C backend.
///
/// This is the *shareable execution artifact*: everything in it is
/// immutable after compilation and `Send + Sync` (enforced below), so one
/// `Arc<CompiledProgram>` can back any number of concurrently running
/// machine instances — all mutable state lives in the machine.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    pub blocks: Vec<BBlock>,
    pub boot: BlockId,
    pub gates: Vec<GateInfo>,
    pub regions: Vec<RegionInfo>,
    pub events: EventTable,
    pub slots: Vec<SlotInfo>,
    /// Total data slots.
    pub data_len: u32,
    pub annotations: ceu_ast::CAnnotations,
    pub asyncs: Vec<AsyncBlock>,
    /// `suspend` constructs (extension), in source order.
    pub suspends: Vec<SuspendInfo>,
    /// Concatenated `C do … end` code, passed through to the C backend.
    pub c_code: String,
    /// String literals, deduplicated and indexed by [`StrId`].
    pub strs: Vec<Box<str>>,
    /// Interned expression trees, indexed by [`ExprId`] (C backend,
    /// analyses, tree-eval ablation).
    pub exprs: Vec<Rv>,
    /// Postfix code for the same expressions (the runtime's hot path).
    pub flat: FlatPool,
    /// Precomputed runtime dispatch tables.
    pub dispatch: Dispatch,
    /// Block → source-span debug info (profiling, trace attribution).
    pub debug: DebugMap,
}

// The whole point of the artifact: compile once, share across threads.
// A build error here means a non-thread-safe type leaked into the
// compiled form.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledProgram>();
};

impl CompiledProgram {
    pub fn block(&self, id: BlockId) -> &BBlock {
        &self.blocks[id as usize]
    }

    pub fn gate(&self, id: GateId) -> &GateInfo {
        &self.gates[id as usize]
    }

    pub fn region(&self, id: RegionId) -> &RegionInfo {
        &self.regions[id as usize]
    }

    /// The tree form of an interned expression.
    #[inline]
    pub fn expr(&self, id: ExprId) -> &Rv {
        &self.exprs[id as usize]
    }

    /// The text of a string literal.
    pub fn str(&self, id: StrId) -> &str {
        &self.strs[id as usize]
    }

    /// Gates that await the given event (precomputed table).
    pub fn gates_of_event(&self, event: EventId) -> impl Iterator<Item = GateId> + '_ {
        self.dispatch.event_gates.get(event.index()).into_iter().flatten().copied()
    }

    /// Total instruction count (ROM-analog building block).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len() + 1).sum()
    }

    /// Stable identity of this artifact: a structural hash of everything
    /// that affects execution. The Rust backend bakes it into emitted code
    /// and `Machine::set_native` refuses a native program whose
    /// fingerprint does not match — catching stale emissions and
    /// optimizer drift (raw and optimized artifacts hash differently
    /// because the flat pool is included).
    ///
    /// Hashed: `data_len` and `boot`; per block its rank, every
    /// instruction's op and span, the terminator and the regions; per gate
    /// its kind and continuation; region bounds, asyncs, suspends, event
    /// names, and the flat pool's `code` (string literals by their text)
    /// and `ranges`. Every integer is
    /// fed as a `u64` value and every enum variant as a tag assigned here,
    /// so the value depends on the artifact alone — not on the toolchain,
    /// the `usize` width or the byte order. Only deterministically ordered
    /// structures are hashed — never the `dispatch.slot_by_name` HashMap.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        h.int(self.data_len);
        h.int(self.boot);
        h.len(self.blocks.len());
        for b in &self.blocks {
            h.int(b.rank);
            h.len(b.instrs.len());
            for i in &b.instrs {
                h.span(i.span);
                h.op(&i.op);
            }
            h.term(&b.term);
            h.ints(&b.regions);
        }
        h.len(self.gates.len());
        for g in &self.gates {
            match g.kind {
                GateKind::Evt(e) => h.tagged(0, e.0),
                GateKind::Timer => h.int(1u8),
                GateKind::Never => h.int(2u8),
                GateKind::AsyncDone(a) => h.tagged(3, a),
            }
            h.int(g.cont);
        }
        h.len(self.regions.len());
        for r in &self.regions {
            h.int(r.lo);
            h.int(r.hi);
        }
        h.len(self.asyncs.len());
        for a in &self.asyncs {
            h.int(a.entry);
            h.opt(a.result);
            h.int(a.done_gate);
        }
        h.len(self.suspends.len());
        for s in &self.suspends {
            h.int(s.event.0);
            h.int(s.region);
        }
        h.len(self.events.len());
        for (_, e) in self.events.iter() {
            h.str(&e.name);
        }
        h.len(self.flat.code.len());
        for op in &self.flat.code {
            h.flat_op(op, &self.strs);
        }
        h.len(self.flat.ranges.len());
        for &(lo, hi) in &self.flat.ranges {
            h.int(lo);
            h.int(hi);
        }
        h.finish()
    }
}

/// The fingerprint's hasher: one rotate, xor and multiply per integer
/// (the FxHash step — a bijection of the state for a fixed input, so
/// changing any one integer of a fixed-shape artifact always changes the
/// result), and a final avalanche so every input bit reaches every
/// output bit.
struct Fingerprint(u64);

impl Fingerprint {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(Self::K);
    }

    #[inline]
    fn int(&mut self, v: impl Into<u64>) {
        self.word(v.into());
    }

    fn len(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn ints(&mut self, vs: &[u32]) {
        self.len(vs.len());
        for &v in vs {
            self.int(v);
        }
    }

    /// A variant tag followed by its payload.
    fn tagged(&mut self, tag: u8, v: impl Into<u64>) {
        self.int(tag);
        self.int(v);
    }

    fn opt(&mut self, v: Option<u32>) {
        match v {
            None => self.int(0u8),
            Some(v) => self.tagged(1, v),
        }
    }

    fn span(&mut self, s: Span) {
        self.int(s.line);
        self.int(s.col);
    }

    /// Length, then the bytes in little-endian 8-byte words (the last one
    /// zero-padded).
    fn str(&mut self, s: &str) {
        self.len(s.len());
        let mut chunks = s.as_bytes().chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn time(&mut self, t: TimeAmount) {
        match t {
            TimeAmount::Const(us) => self.tagged(0, us),
            TimeAmount::Dyn(e) => self.tagged(1, e),
        }
    }

    fn place(&mut self, p: Place) {
        match p {
            Place::Slot(s) => self.tagged(0, s),
            Place::Index(s, e) => {
                self.tagged(1, s);
                self.int(e);
            }
            Place::Deref(e) => self.tagged(2, e),
        }
    }

    fn emit(&mut self, tag: u8, event: EventId, value: Option<ExprId>) {
        self.tagged(tag, event.0);
        self.opt(value);
    }

    fn op(&mut self, op: &Op) {
        match *op {
            Op::Assign { dst, src } => {
                self.int(0u8);
                self.place(dst);
                self.int(src);
            }
            Op::Eval(e) => self.tagged(1, e),
            Op::ActivateEvt { gate } => self.tagged(2, gate),
            Op::ActivateTime { gate, us } => {
                self.tagged(3, gate);
                self.time(us);
            }
            Op::ActivateNever { gate } => self.tagged(4, gate),
            Op::ActivateAsync { gate, async_id } => {
                self.tagged(5, gate);
                self.int(async_id);
            }
            Op::ClearRegion(r) => self.tagged(6, r),
            Op::Spawn(b) => self.tagged(7, b),
            Op::EmitInt { event, value } => self.emit(8, event, value),
            Op::EmitExt { event, value } => self.emit(9, event, value),
            Op::EmitOut { event, value } => self.emit(10, event, value),
            Op::EmitTime(t) => {
                self.int(11u8);
                self.time(t);
            }
            Op::SetFlag(s) => self.tagged(12, s),
            Op::ClearFlags { lo, hi } => {
                self.tagged(13, lo);
                self.int(hi);
            }
        }
    }

    fn term(&mut self, t: &Term) {
        match *t {
            Term::Halt => self.int(0u8),
            Term::Goto(b) => self.tagged(1, b),
            Term::If { cond, then_b, else_b } => {
                self.tagged(2, cond);
                self.int(then_b);
                self.int(else_b);
            }
            Term::JoinAnd { lo, hi, cont } => {
                self.tagged(3, lo);
                self.int(hi);
                self.int(cont);
            }
            Term::TerminateProgram { value } => {
                self.int(4u8);
                self.opt(value);
            }
            Term::TerminateAsync { value } => {
                self.int(5u8);
                self.opt(value);
            }
        }
    }

    /// A string literal is hashed as its text, so the pool's numbering
    /// does not reach the fingerprint.
    fn flat_op(&mut self, op: &FlatOp, strs: &[Box<str>]) {
        match op {
            FlatOp::Const(v) => self.tagged(0, *v as u64),
            FlatOp::Str(s) => {
                self.int(1u8);
                self.str(&strs[*s as usize]);
            }
            FlatOp::Null => self.int(2u8),
            FlatOp::Slot(s) => self.tagged(3, *s),
            FlatOp::AddrOf(s) => self.tagged(4, *s),
            FlatOp::EventVal(e) => self.tagged(5, e.0),
            FlatOp::CGlobal(name) => {
                self.int(6u8);
                self.str(name);
            }
            // operator tags are their declaration index in ceu-ast
            FlatOp::Un(op) => self.tagged(7, *op as u8),
            FlatOp::Bin(op) => self.tagged(8, *op as u8),
            FlatOp::ShortAnd(n) => self.tagged(9, *n),
            FlatOp::ShortOr(n) => self.tagged(10, *n),
            FlatOp::Truthy => self.int(11u8),
            FlatOp::Index => self.int(12u8),
            FlatOp::CCall { name, argc } => {
                self.tagged(13, *argc);
                self.str(name);
            }
            FlatOp::Deref => self.int(14u8),
            FlatOp::Field { name, arrow } => {
                self.tagged(15, *arrow);
                self.str(name);
            }
        }
    }

    fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

impl fmt::Display for CompiledProgram {
    /// Human-readable IR dump, for tests and debugging.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; data: {} slots, {} gates, {} regions",
            self.data_len,
            self.gates.len(),
            self.regions.len()
        )?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "{i}: {} (rank {})", b.label, b.rank)?;
            for instr in &b.instrs {
                writeln!(f, "    {:?}", instr.op)?;
            }
            writeln!(f, "    => {:?}", b.term)?;
        }
        Ok(())
    }
}

impl Rv {
    /// Walks the r-value tree bottom-up.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Rv)) {
        match self {
            Rv::Un(_, a) | Rv::Deref(a) | Rv::Cast(a) | Rv::Field(a, _, _) => a.walk(f),
            Rv::Bin(_, a, b) | Rv::Index(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Rv::CCall(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            _ => {}
        }
        f(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rv_walk_visits_nested() {
        let rv = Rv::Bin(
            BinOp::Add,
            Box::new(Rv::Slot(0)),
            Box::new(Rv::CCall("f".into(), vec![Rv::Const(1), Rv::Deref(Box::new(Rv::Slot(2)))])),
        );
        let mut slots = vec![];
        rv.walk(&mut |r| {
            if let Rv::Slot(s) = r {
                slots.push(*s);
            }
        });
        assert_eq!(slots, vec![0, 2]);
    }
}
