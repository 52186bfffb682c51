//! Temporal analysis: DFA construction and nondeterminism detection (§2.6).
//!
//! The compiled program is abstractly executed: a DFA state is the set of
//! possibly-active gates (plus par/and flags), with wall-clock gates
//! carrying their *relative* deadlines. From each state, one transition is
//! explored per external event with listeners, per expiring known deadline
//! (simultaneous deadlines fire together — that is how `10ms×10` against
//! `100ms` is caught), per unknown-duration timer (alone, paired with other
//! unknowns, and coinciding with the next known deadline), and per async
//! completion.
//!
//! Expanding a reaction explores **both** branches of every conditional
//! (may-semantics — the source of the paper's admitted false positives)
//! and tracks concurrency with *trail groups*: every `Spawn` forks a new
//! group; trails awakened by an internal `emit` become children of the
//! emitter (sequenced); escape/rejoin blocks run at their rank ("phase"),
//! sequenced after normal trails. Two accesses conflict when they come
//! from unrelated groups of the same phase and touch:
//!
//! * the same variable, at least one writing;
//! * the same internal event, at least one emitting (emit/emit or
//!   emit/await);
//! * C functions not declared `pure`/`deterministic`-compatible.
//!
//! Expanding a reaction allocates only for the states and transitions it
//! adds. A [`State`] is two sorted vectors, the same type the explorer
//! mutates, and new states are interned through hash → index chains over
//! [`Dfa::states`]. Variables are interned to ids once per analysis, so
//! recording an access copies two words. Configurations, finished paths
//! and label buffers are pooled per analysis. The then-branch of every
//! `if` waits on an explicit stack while the else-branch runs, so a
//! program that forks without bound cannot overflow the native stack.

use ceu_ast::{EventId, Span};
use ceu_codegen::{
    AsyncId, BlockId, CompiledProgram, GateId, GateKind, Op, Place, Rv, SlotId, Term, TimeAmount,
};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, RandomState};

/// Analysis limits.
#[derive(Clone, Debug)]
pub struct DfaOptions {
    pub max_states: usize,
    /// Cap on branch combinations explored per reaction.
    pub max_paths_per_reaction: usize,
    /// Whether concurrent C calls are checked (§2.6).
    pub check_ccalls: bool,
}

impl Default for DfaOptions {
    fn default() -> Self {
        DfaOptions { max_states: 20_000, max_paths_per_reaction: 4_096, check_ccalls: true }
    }
}

/// Abstract gate status inside a DFA state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum GateSt {
    /// Awaiting an event (external or internal).
    Event,
    /// Timer with a known relative deadline (µs after state entry).
    Time(u64),
    /// Timer with a computed (unknown) deadline.
    TimeUnknown,
    /// `await forever`.
    Never,
    /// Awaiting an async completion.
    Async,
}

/// One DFA state: the possibly-active gates and the par/and flags. Both
/// lists are kept sorted, so equal configurations are equal values.
#[derive(Clone, Default, PartialEq, Eq, Hash, Debug)]
pub struct State {
    /// Possibly-active gates with their status, sorted by gate.
    pub gates: Vec<(GateId, GateSt)>,
    /// Set par/and flags, sorted.
    pub flags: Vec<SlotId>,
}

impl State {
    fn set_gate(&mut self, gate: GateId, st: GateSt) {
        match self.gates.binary_search_by_key(&gate, |&(g, _)| g) {
            Ok(i) => self.gates[i].1 = st,
            Err(i) => self.gates.insert(i, (gate, st)),
        }
    }

    fn remove_gate(&mut self, gate: GateId) {
        if let Ok(i) = self.gates.binary_search_by_key(&gate, |&(g, _)| g) {
            self.gates.remove(i);
        }
    }

    /// Removes every gate in `lo..hi`.
    fn clear_gates(&mut self, lo: GateId, hi: GateId) {
        let from = self.gates.partition_point(|&(g, _)| g < lo);
        let to = self.gates.partition_point(|&(g, _)| g < hi).max(from);
        self.gates.drain(from..to);
    }

    fn set_flag(&mut self, slot: SlotId) {
        if let Err(i) = self.flags.binary_search(&slot) {
            self.flags.insert(i, slot);
        }
    }

    fn has_flag(&self, slot: SlotId) -> bool {
        self.flags.binary_search(&slot).is_ok()
    }
}

/// Transition label.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Label {
    Boot,
    Event(EventId),
    /// Expiry of the earliest known deadline, possibly coinciding with
    /// unknown-duration timers.
    Time {
        rel: u64,
        with_unknown: Vec<GateId>,
    },
    /// Unknown-duration timers firing (alone or together).
    Unknown(Vec<GateId>),
    AsyncDone(AsyncId),
}

/// A transition `from --label--> to`.
#[derive(Clone, Debug)]
pub struct Trans {
    pub from: usize,
    pub label: Label,
    pub to: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConflictKind {
    Variable,
    InternalEvent,
    CCall,
}

/// A detected source of nondeterminism.
#[derive(Clone, Debug)]
pub struct Conflict {
    pub kind: ConflictKind,
    /// Human-readable description of what is accessed concurrently.
    pub what: String,
    pub spans: (Span, Span),
    /// State in which the triggering reaction starts.
    pub state: usize,
    pub label: Label,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            ConflictKind::Variable => "concurrent access to variable",
            ConflictKind::InternalEvent => "concurrent access to internal event",
            ConflictKind::CCall => "concurrent C calls",
        };
        write!(f, "nondeterminism: {kind} {} (at {} and {})", self.what, self.spans.0, self.spans.1)
    }
}

/// The analysis result.
#[derive(Clone, Debug, Default)]
pub struct Dfa {
    pub states: Vec<State>,
    pub transitions: Vec<Trans>,
    pub conflicts: Vec<Conflict>,
    /// `true` if a limit was hit and the DFA is incomplete.
    pub truncated: bool,
}

impl Dfa {
    /// Is the program (locally) deterministic?
    pub fn deterministic(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// BFS distance (in input occurrences, boot excluded) from program
    /// start to the reaction that triggers the given conflict; the paper
    /// counts occurrences this way ("on the 6th occurrence of A").
    pub fn conflict_depth(&self, c: &Conflict) -> Option<usize> {
        // successors of every state, in transition order, built once
        let mut start = vec![0usize; self.states.len() + 1];
        for t in &self.transitions {
            start[t.from + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut fill = start.clone();
        let mut succ = vec![0usize; self.transitions.len()];
        for t in &self.transitions {
            succ[fill[t.from]] = t.to;
            fill[t.from] += 1;
        }
        let mut dist = vec![usize::MAX; self.states.len()];
        let mut q = VecDeque::new();
        dist[0] = 0;
        q.push_back(0usize);
        while let Some(s) = q.pop_front() {
            if s == c.state {
                // dist already includes the boot transition; the conflict
                // fires on the *next* occurrence: +1 - 1 = dist
                return Some(dist[s]);
            }
            for &to in &succ[start[s]..start[s + 1]] {
                if dist[to] == usize::MAX {
                    dist[to] = dist[s] + 1;
                    q.push_back(to);
                }
            }
        }
        None
    }
}

// ---- access bookkeeping -----------------------------------------------------

/// A variable, interned once per analysis: slots that share a name (an
/// array's whole range, overlaid scopes) share an id. Names are rendered
/// only when a conflict is reported.
type VarId = u32;

/// The variable every pointer store or load is charged to.
const POINTER: VarId = 0;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum AccessKind<'a> {
    VarRead(VarId),
    VarWrite(VarId),
    EmitInt(EventId),
    AwaitInt(EventId),
    /// Output emission: concurrent emissions of the same output event are
    /// observably ordered by the environment → nondeterministic.
    EmitOut(EventId),
    CCall(&'a str),
}

#[derive(Clone, Copy, Debug)]
struct Access<'a> {
    kind: AccessKind<'a>,
    group: u32,
    span: Span,
}

/// Trail groups of one reaction path. Every group's parents (several for
/// a par/and rejoin) live in one flat arena.
#[derive(Clone, Default, Debug)]
struct Groups {
    /// Per group: its parents' range in `parents`, and its phase.
    info: Vec<(u32, u32, u8)>,
    parents: Vec<u32>,
}

impl Groups {
    fn clear(&mut self) {
        self.info.clear();
        self.parents.clear();
    }

    fn fresh(&mut self, parents: impl IntoIterator<Item = u32>, phase: u8) -> u32 {
        let start = self.parents.len();
        for p in parents {
            if !self.parents[start..].contains(&p) {
                self.parents.push(p);
            }
        }
        self.info.push((start as u32, self.parents.len() as u32, phase));
        (self.info.len() - 1) as u32
    }

    fn phase(&self, g: u32) -> u8 {
        self.info[g as usize].2
    }

    /// `true` when one group is an ancestor of the other (sequenced);
    /// `stack` is the caller's reusable walk buffer.
    fn related(&self, a: u32, b: u32, stack: &mut Vec<u32>) -> bool {
        self.is_ancestor(a, b, stack) || self.is_ancestor(b, a, stack)
    }

    fn is_ancestor(&self, anc: u32, of: u32, stack: &mut Vec<u32>) -> bool {
        stack.clear();
        stack.push(of);
        while let Some(x) = stack.pop() {
            if x == anc {
                return true;
            }
            let (lo, hi, _) = self.info[x as usize];
            stack.extend_from_slice(&self.parents[lo as usize..hi as usize]);
        }
        false
    }
}

// ---- abstract configurations -------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct QTrack {
    rank: u8,
    seq: u64,
    block: BlockId,
    group: u32,
}

#[derive(Default)]
struct Config<'a> {
    state: State,
    queue: Vec<QTrack>,
    accesses: Vec<Access<'a>>,
    /// Dedup: one record per (kind, group) — duplicates add no conflict
    /// pairs and would blow up quadratic checking on looping paths.
    seen: HashSet<(AccessKind<'a>, u32)>,
    groups: Groups,
    /// Which group set each par/and flag *in this reaction* (sequencing
    /// evidence for the rejoin continuation).
    flag_owner: Vec<(SlotId, u32)>,
    seq: u64,
    steps: u32,
    terminated: bool,
}

impl Clone for Config<'_> {
    fn clone(&self) -> Self {
        let mut c = Config::default();
        c.clone_from(self);
        c
    }

    /// Field by field, so a pooled config keeps its buffers.
    fn clone_from(&mut self, src: &Self) {
        self.state.clone_from(&src.state);
        self.queue.clone_from(&src.queue);
        self.accesses.clone_from(&src.accesses);
        self.seen.clone_from(&src.seen);
        self.groups.clone_from(&src.groups);
        self.flag_owner.clone_from(&src.flag_owner);
        self.seq = src.seq;
        self.steps = src.steps;
        self.terminated = src.terminated;
    }
}

impl Config<'_> {
    /// Starts a reaction from `state`, keeping the buffers.
    fn reset(&mut self, state: &State) {
        self.state.clone_from(state);
        self.queue.clear();
        self.accesses.clear();
        self.seen.clear();
        self.groups.clear();
        self.flag_owner.clear();
        self.seq = 0;
        self.steps = 0;
        self.terminated = false;
    }
}

const STEP_LIMIT: u32 = 100_000;

/// What one analysis keeps beside its `Dfa`: the state interner and the
/// buffers every expansion reuses.
#[derive(Default)]
struct Explorer<'a> {
    interner: Interner,
    /// Spare configs.
    pool: Vec<Config<'a>>,
    /// Paths of the current reaction, in the order they finished.
    done: Vec<Config<'a>>,
    /// Then-branches suspended at an `if` while the else-branch runs, with
    /// the block and group they resume at. LIFO, so a fork's whole
    /// else-subtree finishes before its then-branch resumes.
    suspended: Vec<(Config<'a>, BlockId, u32)>,
    /// Paths finished in the current reaction.
    paths: usize,
    /// Labels leaving the state being expanded, each with the end of its
    /// roots in `roots`.
    labels: Vec<(Label, usize)>,
    roots: Vec<GateId>,
    /// `labels_of` work lists: external listeners as (event, gate), and
    /// unknown-duration timers.
    listeners: Vec<(EventId, GateId)>,
    unknowns: Vec<GateId>,
    /// Distinct successors of the current reaction.
    targets: Vec<usize>,
    /// Ancestor walk of `find_conflicts`.
    ancestors: Vec<u32>,
}

/// Hash → index chains over `Dfa::states`, so a state is stored once.
/// Seeded per analysis: states derive from user source.
#[derive(Default)]
struct Interner {
    hasher: RandomState,
    /// State hash → the latest state with that hash.
    heads: HashMap<u64, usize>,
    /// State → the previous state with the same hash (`usize::MAX` ends).
    next: Vec<usize>,
}

impl Interner {
    fn clear(&mut self) {
        self.heads.clear();
        self.next.clear();
    }

    /// The index of `st` in `states`, appending a copy if it is new.
    fn intern(&mut self, states: &mut Vec<State>, st: &State) -> usize {
        let h = self.hasher.hash_one(st);
        let head = self.heads.get(&h).copied().unwrap_or(usize::MAX);
        let mut i = head;
        while i != usize::MAX {
            if states[i] == *st {
                return i;
            }
            i = self.next[i];
        }
        let i = states.len();
        states.push(st.clone());
        self.next.push(head);
        self.heads.insert(h, i);
        i
    }
}

struct Analyzer<'a> {
    prog: &'a CompiledProgram,
    opts: &'a DfaOptions,
    /// Slot → variable.
    slot_var: Vec<VarId>,
    /// Variable → unique name (`#` suffix and all).
    var_names: Vec<Cow<'a, str>>,
    internal: Vec<bool>,
    /// Per gate: may an `Activate*` op arm it in the current run? A dead
    /// arm's gates may not.
    armed: Vec<bool>,
}

/// Runs the temporal analysis over a compiled program: the DFA over the
/// product of every trail's states.
pub fn analyze(prog: &CompiledProgram, opts: &DfaOptions) -> Dfa {
    let az = Analyzer::new(prog, opts);
    let mut dfa = Dfa::default();
    az.explore(&mut Explorer::default(), &mut dfa, opts.max_states);
    dedup_conflicts(&mut dfa.conflicts);
    dfa
}

/// What [`check_determinism`] found, and what it explored to find it.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// The conflicts of [`analyze`]'s product (kind, text and spans);
    /// `state` and `label` name a state of the run that found each one.
    pub conflicts: Vec<Conflict>,
    /// States explored, over every run.
    pub states: usize,
    /// Explorer runs: 1 with nothing dead when no `par` splits.
    pub runs: usize,
    /// `true` if a limit was hit and a run is incomplete.
    pub truncated: bool,
}

impl Verdict {
    pub fn deterministic(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// The §2.6 verdict the compiler acts on: the conflicts of [`analyze`],
/// found by exploring each coupled group of trails apart instead of their
/// product (DESIGN.md, "The §2.6 check by coupled groups"). `max_states`
/// bounds the states of all runs together.
pub fn check_determinism(prog: &CompiledProgram, opts: &DfaOptions) -> Verdict {
    let mut az = Analyzer::new(prog, opts);
    let split = az.split();
    let runs = split.as_ref().map_or(1, |s| s.runs.len().max(1));
    let mut ex = Explorer::default();
    let mut dfa = Dfa::default();
    let mut v = Verdict::default();
    for run in 0..runs {
        if let Some(split) = &split {
            split.arm(prog, split.runs.get(run).copied(), &mut az.armed);
        }
        az.explore(&mut ex, &mut dfa, opts.max_states.saturating_sub(v.states));
        v.states += dfa.states.len();
        v.runs += 1;
        v.conflicts.append(&mut dfa.conflicts);
        if dfa.truncated {
            v.truncated = true;
            break;
        }
    }
    dedup_conflicts(&mut v.conflicts);
    v
}

/// An [`AccessKind`] packed into a word, kind in the top bits, so a key
/// set is a sorted `[u32]`; a C call is its index in the names seen.
type Key = u32;

const KEY_SHIFT: u32 = 29;
const KEY_ID: Key = (1 << KEY_SHIFT) - 1;
const READ: Key = 0;
const WRITE: Key = 1;
const EMIT: Key = 2;
const AWAIT: Key = 3;
const OUTPUT: Key = 4;
const CALL: Key = 5;
/// Arms a timer of constant duration.
const TIMER: Key = 6;
/// Can be woken at an instant no timer of its own sets: by an input, an
/// async completion or a computed-duration timer.
const FREE: Key = 7;

fn key<'a>(kind: AccessKind<'a>, calls: &mut Vec<&'a str>) -> Key {
    let (k, id) = match kind {
        AccessKind::VarRead(v) => (READ, v),
        AccessKind::VarWrite(v) => (WRITE, v),
        AccessKind::EmitInt(e) => (EMIT, u32::from(e.0)),
        AccessKind::AwaitInt(e) => (AWAIT, u32::from(e.0)),
        AccessKind::EmitOut(e) => (OUTPUT, u32::from(e.0)),
        AccessKind::CCall(f) => {
            let i = calls.iter().position(|&g| g == f).unwrap_or_else(|| {
                calls.push(f);
                calls.len() - 1
            });
            (CALL, i as u32)
        }
    };
    k << KEY_SHIFT | id
}

/// Sorts `v[from..]` and drops its duplicates.
fn sort_dedup_tail(v: &mut Vec<Key>, from: usize) {
    v[from..].sort_unstable();
    let mut len = from;
    for i in from..v.len() {
        if len == from || v[len - 1] != v[i] {
            v[len] = v[i];
            len += 1;
        }
    }
    v.truncate(len);
}

/// Marks an arm live in every run: its group is its `par`'s main group,
/// or its `par` does not split.
const MAIN: u32 = u32::MAX;

/// How [`check_determinism`] splits a program into runs.
struct Split {
    /// Per arm of `par_arms`: `MAIN`, or the first arm of its local group.
    group: Vec<u32>,
    /// One run per local group with a key, by its first arm; none means
    /// one run with every local group dead.
    runs: Vec<u32>,
}

impl Split {
    /// The gates a run may arm: every gate except those of the local
    /// groups other than `run`'s and those holding its `par`.
    fn arm(&self, prog: &CompiledProgram, run: Option<u32>, armed: &mut [bool]) {
        let arms = &prog.par_arms;
        let mut live = Vec::new();
        if let Some(g) = run {
            live.push(g);
            let mut up = arms[g as usize].parent;
            while let Some(a) = up {
                live.push(self.group[a as usize]);
                up = arms[a as usize].parent;
            }
        }
        armed.fill(true);
        for (arm, &g) in arms.iter().zip(&self.group) {
            if g != MAIN && !live.contains(&g) {
                armed[arm.gates.0 as usize..arm.gates.1 as usize].fill(false);
            }
        }
    }
}

/// Union-find root, with the smallest member as the root.
fn root(uf: &mut [usize], mut i: usize) -> usize {
    while uf[i] != i {
        uf[i] = uf[uf[i]];
        i = uf[i];
    }
    i
}

fn union(uf: &mut [usize], a: usize, b: usize) {
    let (a, b) = (root(uf, a), root(uf, b));
    uf[a.max(b)] = a.min(b);
}

impl<'a> Analyzer<'a> {
    fn new(prog: &'a CompiledProgram, opts: &'a DfaOptions) -> Self {
        let mut slot_name: Vec<Option<&str>> = vec![None; prog.data_len as usize];
        for s in &prog.slots {
            for k in 0..s.len {
                if let Some(n) = slot_name.get_mut((s.slot + k) as usize) {
                    *n = Some(&s.name);
                }
            }
        }
        // one id per distinct name: two accesses touch the same variable
        // exactly when their names are equal
        let mut var_names: Vec<Cow<str>> = vec![Cow::Borrowed("*<pointer>")];
        let mut ids: HashMap<Cow<str>, VarId> = HashMap::from([(var_names[0].clone(), POINTER)]);
        let slot_var = slot_name
            .iter()
            .enumerate()
            .map(|(slot, name)| {
                let name = name.map_or_else(|| Cow::Owned(format!("slot{slot}")), Cow::Borrowed);
                *ids.entry(name).or_insert_with_key(|name| {
                    var_names.push(name.clone());
                    (var_names.len() - 1) as VarId
                })
            })
            .collect();
        let internal =
            prog.events.iter().map(|(_, e)| e.kind == ceu_ast::EventKind::Internal).collect();
        let armed = vec![true; prog.gates.len()];
        Analyzer { prog, opts, slot_var, var_names, internal, armed }
    }

    /// Partitions every recorded `par` into coupled groups (DESIGN.md,
    /// "The §2.6 check by coupled groups"); `None` when none splits.
    fn split(&self) -> Option<Split> {
        let arms = &self.prog.par_arms;
        if arms.is_empty() {
            return None;
        }
        // every block's keys, in one pass: block `b`'s are
        // `keys[at[b]..at[b + 1]]`; async bodies (marked 1 first) never
        // run in the explorer, so they hold none
        let n_blocks = self.prog.blocks.len();
        let mut at = vec![0; n_blocks + 1];
        let mut stack: Vec<BlockId> = self.prog.asyncs.iter().map(|a| a.entry).collect();
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut at[b as usize], 1) == 0 {
                match self.prog.block(b).term {
                    Term::Goto(t) => stack.push(t),
                    Term::If { then_b, else_b, .. } => stack.extend([then_b, else_b]),
                    _ => {}
                }
            }
        }
        let mut calls = Vec::new();
        let mut keys = Vec::with_capacity(4 * n_blocks);
        for (i, b) in self.prog.blocks.iter().enumerate() {
            let in_async = std::mem::replace(&mut at[i], keys.len()) == 1;
            if in_async {
                continue;
            }
            for instr in &b.instrs {
                self.accesses(&instr.op, &mut |k| keys.push(key(k, &mut calls)));
                keys.extend(self.clock(&instr.op).map(|k| k << KEY_SHIFT));
            }
            match b.term {
                Term::If { cond: e, .. } | Term::TerminateProgram { value: Some(e) } => {
                    self.reads(self.prog.expr(e), &mut |k| keys.push(key(k, &mut calls)))
                }
                _ => {}
            }
        }
        at[n_blocks] = keys.len();
        let blocks = |lo: BlockId, hi: BlockId| at[lo as usize]..at[hi as usize];
        let mut split = Split { group: vec![MAIN; arms.len()], runs: vec![] };
        let (mut set, mut ends, mut uf) = (Vec::new(), Vec::new(), Vec::new());
        let mut first = 0;
        while first < arms.len() {
            let n = arms[first..].iter().take_while(|a| a.par as usize == first).count();
            let par = &arms[first..first + n];
            // the key set of each arm, then of the context: every block
            // outside the `par`
            set.clear();
            ends.clear();
            for arm in par {
                let from = set.len();
                set.extend_from_slice(&keys[blocks(arm.entry, arm.entry + 1)]);
                set.extend_from_slice(&keys[blocks(arm.blocks.0, arm.blocks.1)]);
                sort_dedup_tail(&mut set, from);
                ends.push(from);
            }
            let from = set.len();
            set.extend_from_slice(&keys[blocks(0, par[0].entry)]);
            set.extend_from_slice(&keys[at[par[n - 1].blocks.1 as usize]..]);
            sort_dedup_tail(&mut set, from);
            ends.push(from);
            ends.push(set.len());
            let of = |i: usize| &set[ends[i]..ends[i + 1]];
            uf.clear();
            uf.extend(0..=n);
            for (i, arm) in par.iter().enumerate() {
                if self.ends_siblings(arm) {
                    (0..n).for_each(|j| union(&mut uf, i, j));
                }
            }
            for i in 0..=n {
                for j in i + 1..=n {
                    if root(&mut uf, i) != root(&mut uf, j)
                        && self.keys_conflict(of(i), of(j), &calls)
                    {
                        union(&mut uf, i, j);
                    }
                }
            }
            let groups = (0..n).filter(|&i| root(&mut uf, i) == i).count();
            if groups > 1 {
                let main = root(&mut uf, n);
                for i in 0..n {
                    let r = root(&mut uf, i);
                    if r != main {
                        split.group[first + i] = (first + r) as u32;
                        // a group that records an access gets a run, once
                        let keyed = (0..n).any(|j| {
                            root(&mut uf, j) == r
                                && of(j).first().is_some_and(|&k| k >> KEY_SHIFT <= CALL)
                        });
                        if r == i && keyed {
                            split.runs.push((first + r) as u32);
                        }
                    }
                }
            }
            first += n;
        }
        // a split `par` has a local group
        split.group.iter().any(|&g| g != MAIN).then_some(split)
    }

    /// How an op arms a gate in time: a constant-duration timer (`TIMER`),
    /// or a gate that fires at an instant of the environment's (`FREE`).
    fn clock(&self, op: &Op) -> Option<Key> {
        match *op {
            Op::ActivateTime { us: TimeAmount::Const(_), .. } => Some(TIMER),
            Op::ActivateTime { .. } | Op::ActivateAsync { .. } => Some(FREE),
            Op::ActivateEvt { gate } => match self.prog.gate(gate).kind {
                GateKind::Evt(e) if !self.internal[e.index()] => Some(FREE),
                _ => None,
            },
            _ => None,
        }
    }

    /// Can `arm` end its siblings: reach a program `return`, or jump out
    /// of itself (a `break` or value `return` past its `par`)?
    fn ends_siblings(&self, arm: &ceu_codegen::ParArm) -> bool {
        let out = |b: BlockId| !arm.contains(b);
        std::iter::once(arm.entry).chain(arm.blocks.0..arm.blocks.1).any(|b| {
            let blk = self.prog.block(b);
            blk.instrs.iter().any(|i| matches!(i.op, Op::Spawn(t) if out(t)))
                || match blk.term {
                    Term::TerminateProgram { .. } => true,
                    Term::Goto(t) | Term::JoinAnd { cont: t, .. } => out(t),
                    Term::If { then_b, else_b, .. } => out(then_b) || out(else_b),
                    Term::Halt | Term::TerminateAsync { .. } => false,
                }
        })
    }

    /// Do two sorted key sets hold a pair that `find_conflicts` reports?
    fn keys_conflict(&self, a: &[Key], b: &[Key], calls: &[&str]) -> bool {
        let calls_b = &b[b.partition_point(|&k| k >> KEY_SHIFT < CALL)
            ..b.partition_point(|&k| k >> KEY_SHIFT <= CALL)];
        a.iter().any(|&k| {
            let id = k & KEY_ID;
            let has = |kind: Key| b.binary_search(&(kind << KEY_SHIFT | id)).is_ok();
            match k >> KEY_SHIFT {
                READ => has(WRITE),
                WRITE => has(READ) || has(WRITE),
                EMIT => has(EMIT) || has(AWAIT),
                AWAIT => has(EMIT),
                OUTPUT => has(OUTPUT),
                TIMER => has(FREE),
                FREE => has(TIMER),
                _ => {
                    self.opts.check_ccalls
                        && calls_b.iter().any(|&c| {
                            let (f, g) = (calls[id as usize], calls[(c & KEY_ID) as usize]);
                            !self.prog.annotations.compatible(f, g)
                        })
                }
            }
        })
    }

    /// One run of the explorer from boot, into `dfa` (its states and
    /// transitions replaced, its conflicts appended); explores no state
    /// once `max_states` are known.
    fn explore(&self, ex: &mut Explorer<'a>, dfa: &mut Dfa, max_states: usize) {
        dfa.states.clear();
        dfa.transitions.clear();
        ex.interner.clear();
        ex.interner.intern(&mut dfa.states, &State::default());
        self.expand(ex, dfa, 0, &Label::Boot, &[], Some(self.prog.boot));
        // new states are numbered in discovery order, so the BFS work
        // queue is the range of states not expanded yet
        let mut s = 1;
        while s < dfa.states.len() {
            if dfa.states.len() >= max_states {
                dfa.truncated = true;
                break;
            }
            self.labels_of(&dfa.states[s], ex);
            let (labels, roots) = (std::mem::take(&mut ex.labels), std::mem::take(&mut ex.roots));
            let mut start = 0;
            for (label, end) in &labels {
                let r = &roots[start..*end];
                self.expand(ex, dfa, s, label, r, None);
                start = *end;
            }
            (ex.labels, ex.roots) = (labels, roots);
            s += 1;
        }
    }

    /// All transition labels leaving a state, with their root gates, into
    /// `ex.labels` / `ex.roots`.
    fn labels_of(&self, state: &State, ex: &mut Explorer<'a>) {
        let Explorer { labels, roots, listeners, unknowns, .. } = ex;
        labels.clear();
        roots.clear();
        // external events with listeners, by event then gate
        listeners.clear();
        for &(g, st) in &state.gates {
            if st == GateSt::Event {
                if let GateKind::Evt(e) = self.prog.gate(g).kind {
                    if self.prog.events.get(e).external() {
                        listeners.push((e, g));
                    }
                }
            }
        }
        listeners.sort_unstable();
        for (i, &(e, g)) in listeners.iter().enumerate() {
            roots.push(g);
            if listeners.get(i + 1).is_none_or(|&(next, _)| next != e) {
                labels.push((Label::Event(e), roots.len()));
            }
        }
        // known deadlines: earliest fires; simultaneous ones share a reaction
        unknowns.clear();
        unknowns
            .extend(state.gates.iter().filter(|&&(_, st)| st == GateSt::TimeUnknown).map(|g| g.0));
        let earliest = state
            .gates
            .iter()
            .filter_map(|&(_, st)| match st {
                GateSt::Time(d) => Some(d),
                _ => None,
            })
            .min();
        if let Some(m) = earliest {
            let start = roots.len();
            roots.extend(state.gates.iter().filter(|&&(_, st)| st == GateSt::Time(m)).map(|g| g.0));
            let end = roots.len();
            labels.push((Label::Time { rel: m, with_unknown: vec![] }, end));
            // an unknown-duration timer may coincide with the deadline
            for &u in unknowns.iter() {
                roots.extend_from_within(start..end);
                roots.push(u);
                labels.push((Label::Time { rel: m, with_unknown: vec![u] }, roots.len()));
            }
        }
        // unknown timers alone and pairwise
        for (i, &u) in unknowns.iter().enumerate() {
            roots.push(u);
            labels.push((Label::Unknown(vec![u]), roots.len()));
            for &v in &unknowns[i + 1..] {
                roots.extend([u, v]);
                labels.push((Label::Unknown(vec![u, v]), roots.len()));
            }
        }
        // async completions
        for &(g, st) in &state.gates {
            if st == GateSt::Async {
                if let GateKind::AsyncDone(a) = self.prog.gate(g).kind {
                    roots.push(g);
                    labels.push((Label::AsyncDone(a), roots.len()));
                }
            }
        }
    }

    /// Expands one reaction from state `from`: fires `roots` (or the boot
    /// block), abstractly executes all paths, interns the distinct next
    /// states and records their transitions and the conflicts found.
    fn expand(
        &self,
        ex: &mut Explorer<'a>,
        dfa: &mut Dfa,
        from: usize,
        label: &Label,
        roots: &[GateId],
        boot: Option<BlockId>,
    ) {
        let mut cfg = ex.pool.pop().unwrap_or_default();
        cfg.reset(&dfa.states[from]);
        // age known deadlines when time passes
        if let Label::Time { rel, .. } = *label {
            for (_, st) in &mut cfg.state.gates {
                if let GateSt::Time(d) = st {
                    *d -= rel.min(*d);
                }
            }
        }
        if let Some(b) = boot {
            let g = cfg.groups.fresh([], 0);
            push_track(&mut cfg, self.prog, b, g);
        }
        for &root in roots {
            cfg.state.remove_gate(root);
            let cont = self.prog.gate(root).cont;
            let g = cfg.groups.fresh([], 0);
            push_track(&mut cfg, self.prog, cont, g);
        }
        ex.paths = 0;
        self.run(ex, cfg, &mut dfa.truncated);
        // conflicts per finished path, then the distinct next states
        ex.targets.clear();
        let mut done = std::mem::take(&mut ex.done);
        for c in done.drain(..) {
            self.find_conflicts(&c, from, label, &mut ex.ancestors, &mut dfa.conflicts);
            let to = ex.interner.intern(&mut dfa.states, &c.state);
            if !ex.targets.contains(&to) {
                ex.targets.push(to);
                dfa.transitions.push(Trans { from, label: label.clone(), to });
            }
            ex.pool.push(c);
        }
        ex.done = done;
    }

    /// Abstractly drains the track queue of a config, splitting on
    /// branches, until every path has finished into `ex.done`.
    fn run(&self, ex: &mut Explorer<'a>, cfg: Config<'a>, truncated: &mut bool) {
        let mut next = Some((cfg, None));
        while let Some((cfg, at)) = next.take() {
            if at.is_none() && ex.paths >= self.opts.max_paths_per_reaction {
                *truncated = true;
                ex.pool.push(cfg);
            } else if let Some(fork) = self.advance(ex, cfg, at, truncated) {
                next = Some((fork, None));
                continue;
            }
            next = ex.suspended.pop().map(|(cfg, cur, group)| (cfg, Some((cur, group))));
        }
    }

    /// Runs one path — from its queue, or resumed at block `at` — until it
    /// finishes, or until an `if` suspends its then-branch and hands back
    /// the else-branch.
    fn advance(
        &self,
        ex: &mut Explorer<'a>,
        mut cfg: Config<'a>,
        mut at: Option<(BlockId, u32)>,
        truncated: &mut bool,
    ) -> Option<Config<'a>> {
        loop {
            let (mut cur, mut group) = match at.take() {
                Some(resume) => resume,
                None if cfg.terminated || cfg.queue.is_empty() => {
                    ex.paths += 1;
                    ex.done.push(cfg);
                    return None;
                }
                None => {
                    let t = pop_track(&mut cfg);
                    (t.block, t.group)
                }
            };
            // run one track to its halt
            loop {
                cfg.steps += 1;
                if cfg.steps > STEP_LIMIT {
                    *truncated = true;
                    ex.paths += 1;
                    ex.done.push(cfg);
                    return None;
                }
                let blk = self.prog.block(cur);
                let mut emitted = false;
                for instr in &blk.instrs {
                    self.exec_abs(&mut cfg, &instr.op, instr.span, group);
                    emitted = matches!(instr.op, Op::EmitInt { .. });
                }
                match &blk.term {
                    Term::Halt => break,
                    Term::Goto(b) => {
                        if emitted {
                            // stack policy: the emitter resumes only after
                            // the awakened trails (queued just above) react
                            push_track(&mut cfg, self.prog, *b, group);
                            break;
                        }
                        cur = *b;
                    }
                    Term::If { cond, then_b, else_b } => {
                        let out = &mut |k| record(&mut cfg, k, group, Span::default());
                        self.reads(self.prog.expr(*cond), out);
                        // explore both branches, the else-branch first
                        let mut other = ex.pool.pop().unwrap_or_default();
                        other.clone_from(&cfg);
                        push_front_track(&mut other, self.prog, *else_b, group);
                        ex.suspended.push((cfg, *then_b, group));
                        return Some(other);
                    }
                    Term::JoinAnd { lo, hi, cont } => {
                        // flags are tracked exactly, so the join outcome is
                        // deterministic per path
                        if (*lo..*hi).all(|s| cfg.state.has_flag(s)) {
                            // the continuation is sequenced after *all*
                            // completed arms, not just the last one
                            let owners = &cfg.flag_owner;
                            let arms = (*lo..*hi)
                                .filter_map(|s| owners.iter().find(|o| o.0 == s).map(|o| o.1));
                            let phase = cfg.groups.phase(group);
                            group = cfg.groups.fresh(std::iter::once(group).chain(arms), phase);
                            cur = *cont;
                        } else {
                            break;
                        }
                    }
                    Term::TerminateProgram { value } => {
                        if let Some(v) = value {
                            let out = &mut |k| record(&mut cfg, k, group, Span::default());
                            self.reads(self.prog.expr(*v), out);
                        }
                        cfg.state.gates.clear();
                        cfg.queue.clear();
                        cfg.terminated = true;
                        break;
                    }
                    Term::TerminateAsync { .. } => break,
                }
            }
        }
    }

    fn exec_abs(&self, cfg: &mut Config<'a>, op: &'a Op, span: Span, group: u32) {
        self.accesses(op, &mut |k| record(cfg, k, group, span));
        let arm = |gate: &GateId| self.armed[*gate as usize];
        match op {
            Op::ActivateEvt { gate } if arm(gate) => cfg.state.set_gate(*gate, GateSt::Event),
            Op::ActivateTime { gate, us } if arm(gate) => {
                let st = match us {
                    TimeAmount::Const(c) => GateSt::Time(*c),
                    TimeAmount::Dyn(_) => GateSt::TimeUnknown,
                };
                cfg.state.set_gate(*gate, st);
            }
            Op::ActivateNever { gate } if arm(gate) => cfg.state.set_gate(*gate, GateSt::Never),
            Op::ActivateAsync { gate, .. } if arm(gate) => cfg.state.set_gate(*gate, GateSt::Async),
            Op::ClearRegion(r) => {
                let region = self.prog.region(*r);
                cfg.state.clear_gates(region.lo, region.hi);
            }
            Op::Spawn(b) => {
                let phase = self.prog.block(*b).rank;
                let child = cfg.groups.fresh([group], phase);
                push_track(cfg, self.prog, *b, child);
            }
            Op::EmitInt { event, .. } => {
                // awaken listeners as children of the emitter (sequenced),
                // in gate order
                let mut i = 0;
                while let Some(&(g, st)) = cfg.state.gates.get(i) {
                    if st != GateSt::Event || self.prog.gate(g).kind != GateKind::Evt(*event) {
                        i += 1;
                        continue;
                    }
                    cfg.state.gates.remove(i);
                    let cont = self.prog.gate(g).cont;
                    let child = cfg.groups.fresh([group], cfg.groups.phase(group));
                    push_track(cfg, self.prog, cont, child);
                }
            }
            Op::SetFlag(s) => {
                cfg.state.set_flag(*s);
                match cfg.flag_owner.iter_mut().find(|o| o.0 == *s) {
                    Some(o) => o.1 = group,
                    None => cfg.flag_owner.push((*s, group)),
                }
            }
            Op::ClearFlags { lo, hi } => cfg.state.flags.retain(|s| !(*lo..*hi).contains(s)),
            // a dead arm's gate stays unarmed; async-only instructions:
            // bodies are globally asynchronous and excluded from the
            // local-determinism analysis (§2.9)
            _ => {}
        }
    }

    /// The accesses of one op, in the order the explorer records them;
    /// also the source of the coupling keys, so both see the same ones.
    fn accesses(&self, op: &'a Op, out: &mut impl FnMut(AccessKind<'a>)) {
        match op {
            Op::Assign { dst, src } => {
                self.reads(self.prog.expr(*src), out);
                self.write_place(dst, out);
            }
            Op::Eval(rv) | Op::ActivateTime { us: TimeAmount::Dyn(rv), .. } => {
                self.reads(self.prog.expr(*rv), out)
            }
            Op::ActivateEvt { gate } => {
                if let GateKind::Evt(e) = self.prog.gate(*gate).kind {
                    if self.internal[e.index()] {
                        out(AccessKind::AwaitInt(e));
                    }
                }
            }
            Op::EmitInt { event, value } => {
                if let Some(v) = value {
                    self.reads(self.prog.expr(*v), out);
                }
                out(AccessKind::EmitInt(*event));
            }
            Op::EmitOut { event, value } => {
                if let Some(v) = value {
                    self.reads(self.prog.expr(*v), out);
                }
                out(AccessKind::EmitOut(*event));
            }
            _ => {}
        }
    }

    fn write_place(&self, place: &Place, out: &mut impl FnMut(AccessKind<'a>)) {
        match place {
            Place::Slot(s) => out(AccessKind::VarWrite(self.var(*s))),
            Place::Index(s, idx) => {
                self.reads(self.prog.expr(*idx), out);
                out(AccessKind::VarWrite(self.var(*s)));
            }
            Place::Deref(rv) => {
                self.reads(self.prog.expr(*rv), out);
                out(AccessKind::VarWrite(POINTER));
            }
        }
    }

    fn var(&self, slot: SlotId) -> VarId {
        // a slot past `data_len` (never lowered) is a variable of its own
        let var = self.slot_var.get(slot as usize).copied();
        var.unwrap_or(self.var_names.len() as VarId + slot)
    }

    /// The reads of an expression: pre-order, the last operand first.
    fn reads(&self, rv: &'a Rv, out: &mut impl FnMut(AccessKind<'a>)) {
        match rv {
            Rv::Slot(s) | Rv::AddrOf(s) => out(AccessKind::VarRead(self.var(*s))),
            Rv::Un(_, a) | Rv::Cast(a) | Rv::Field(a, _, _) => self.reads(a, out),
            Rv::Deref(a) => {
                out(AccessKind::VarRead(POINTER));
                self.reads(a, out);
            }
            Rv::Bin(_, a, b) | Rv::Index(a, b) => {
                self.reads(b, out);
                self.reads(a, out);
            }
            Rv::CCall(name, args) => {
                out(AccessKind::CCall(name));
                for a in args.iter().rev() {
                    self.reads(a, out);
                }
            }
            _ => {}
        }
    }

    fn var_name(&self, var: VarId) -> Cow<'_, str> {
        match self.var_names.get(var as usize) {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(format!("slot{}", var as usize - self.var_names.len())),
        }
    }

    /// Pairwise conflict check over the accesses of one finished path of
    /// the reaction `from --label-->`.
    fn find_conflicts(
        &self,
        cfg: &Config<'a>,
        from: usize,
        label: &Label,
        ancestors: &mut Vec<u32>,
        conflicts: &mut Vec<Conflict>,
    ) {
        use AccessKind::*;
        let (acc, groups) = (&cfg.accesses, &cfg.groups);
        for (i, a) in acc.iter().enumerate() {
            for b in &acc[i + 1..] {
                if a.group == b.group
                    || groups.phase(a.group) != groups.phase(b.group)
                    || groups.related(a.group, b.group, ancestors)
                {
                    continue;
                }
                let (kind, what) = match (a.kind, b.kind) {
                    (VarWrite(x), VarWrite(y))
                    | (VarWrite(x), VarRead(y))
                    | (VarRead(x), VarWrite(y))
                        if x == y =>
                    {
                        (ConflictKind::Variable, format!("`{}`", strip(&self.var_name(x))))
                    }
                    (EmitOut(x), EmitOut(y)) if x == y => (
                        ConflictKind::InternalEvent,
                        format!("`{}` (output)", self.prog.events.get(x).name),
                    ),
                    (EmitInt(x), EmitInt(y))
                    | (EmitInt(x), AwaitInt(y))
                    | (AwaitInt(x), EmitInt(y))
                        if x == y =>
                    {
                        (ConflictKind::InternalEvent, format!("`{}`", self.prog.events.get(x).name))
                    }
                    (CCall(f), CCall(g))
                        if self.opts.check_ccalls && !self.prog.annotations.compatible(f, g) =>
                    {
                        (ConflictKind::CCall, format!("`_{f}` and `_{g}`"))
                    }
                    _ => continue,
                };
                conflicts.push(Conflict {
                    kind,
                    what,
                    spans: (a.span, b.span),
                    state: from,
                    label: label.clone(),
                });
            }
        }
    }
}

/// Records an access once per (kind, group) within a reaction path.
fn record<'a>(cfg: &mut Config<'a>, kind: AccessKind<'a>, group: u32, span: Span) {
    if cfg.seen.insert((kind, group)) {
        cfg.accesses.push(Access { kind, group, span });
    }
}

/// Strips the alpha-renaming suffix for display (`v#3` → `v`).
fn strip(unique: &str) -> &str {
    unique.split('#').next().unwrap_or(unique)
}

/// Enqueues a track; also the emitter's resumption, which keeps its group.
fn push_track(cfg: &mut Config, prog: &CompiledProgram, block: BlockId, group: u32) {
    cfg.seq += 1;
    cfg.queue.push(QTrack { rank: prog.block(block).rank, seq: cfg.seq, block, group });
}

/// Used for the else-branch of a fork: it runs before previously queued
/// tracks of its rank.
fn push_front_track(cfg: &mut Config, prog: &CompiledProgram, block: BlockId, group: u32) {
    cfg.queue.insert(0, QTrack { rank: prog.block(block).rank, seq: 0, block, group });
}

fn pop_track(cfg: &mut Config) -> QTrack {
    let mut best = 0;
    for i in 1..cfg.queue.len() {
        if (cfg.queue[i].rank, cfg.queue[i].seq) < (cfg.queue[best].rank, cfg.queue[best].seq) {
            best = i;
        }
    }
    cfg.queue.remove(best)
}

fn dedup_conflicts(conflicts: &mut Vec<Conflict>) {
    let mut seen = BTreeSet::new();
    conflicts.retain(|c| {
        let mut spans = [c.spans.0, c.spans.1];
        spans.sort_by_key(|s| (s.line, s.col));
        let key = (
            c.kind as u8,
            c.what.clone(),
            spans[0].line,
            spans[0].col,
            spans[1].line,
            spans[1].col,
        );
        seen.insert(key)
    });
}

/// Renders the DFA as Graphviz dot (Figure 2 reproduction).
pub fn to_dot(dfa: &Dfa, prog: &CompiledProgram) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("digraph dfa {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n");
    let conflict_states: BTreeSet<usize> = dfa.conflicts.iter().map(|c| c.state).collect();
    for (i, s) in dfa.states.iter().enumerate() {
        let mut label = format!("DFA #{i}\\n");
        for &(g, st) in &s.gates {
            let gi = prog.gate(g);
            let what = match gi.kind {
                GateKind::Evt(e) => format!("await {}", prog.events.get(e).name),
                GateKind::Timer => match st {
                    GateSt::Time(d) => format!("await {d}us"),
                    _ => "await (expr)".into(),
                },
                GateKind::Never => "await forever".into(),
                GateKind::AsyncDone(a) => format!("await async{a}"),
            };
            let _ = write!(label, "g{g}: {what} [{}]\\n", gi.span);
        }
        let style = if conflict_states.contains(&i) { ", color=red, penwidth=2" } else { "" };
        let _ = writeln!(out, "  s{i} [label=\"{label}\"{style}];");
    }
    for t in &dfa.transitions {
        let lab = match &t.label {
            Label::Boot => "boot".to_string(),
            Label::Event(e) => prog.events.get(*e).name.clone(),
            Label::Time { rel, with_unknown } if with_unknown.is_empty() => format!("{rel}us"),
            Label::Time { rel, .. } => format!("{rel}us+?"),
            Label::Unknown(gs) => format!("?x{}", gs.len()),
            Label::AsyncDone(a) => format!("async{a}"),
        };
        let _ = writeln!(out, "  s{} -> s{} [label=\"{lab}\"];", t.from, t.to);
    }
    out.push_str("}\n");
    out
}
