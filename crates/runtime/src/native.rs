//! The native execution backend's runtime half.
//!
//! `ceu-codegen`'s Rust backend (`rsbackend::emit_rust`) lowers a
//! `CompiledProgram`'s flat blocks to straight-line Rust source; building
//! that source produces an implementation of [`NativeProgram`] that a
//! [`Machine`](crate::Machine) can step *instead of* interpreting the
//! block instructions (see [`Machine::set_native`](crate::Machine::set_native)).
//!
//! The contract is **call, don't trap**: the scheduler — track queue,
//! gates, timers, regions, asyncs, internal-event stack policy — stays in
//! the machine. Generated code runs the *data plane* (assignments,
//! expression evaluation, gate arming, par/and flags) at native speed and,
//! at every instruction that needs scheduler state, calls
//! [`NativeCtx::sched`]: the machine runs exactly that one instruction
//! through its ordinary `exec` path (an internal emit's nested reaction
//! included) and the native code carries on with the next one. Semantics
//! therefore cannot drift: every scheduler-visible effect runs through the
//! same interpreter code, and the arithmetic both sides use lives here, in
//! [`bin_op`]/[`un_op`], shared by the flat interpreter and every emitted
//! program.
//!
//! The flat interpreter remains the differential oracle — the corpus
//! equivalence test drives tree, flat, and native lanes over identical
//! schedules and asserts observational identity (see docs/NATIVE.md).

use crate::error::{Result, RuntimeError};
use crate::host::Host;
use crate::machine::{set_bit, State};
use crate::value::{Ptr, Value};
// Re-exported so emitted code (and its generated-crate harness) only
// needs a `ceu-runtime` dependency.
pub use ceu_ast::{BinOp, Span, UnOp};
use ceu_codegen::{BlockId, CompiledProgram};

/// How a native track ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The track yielded to the scheduler (`Term::Halt`, a par/and join
    /// whose flags are not all set, or a scheduler instruction after which
    /// the track must stop).
    Halt,
    /// Top-level `return` — the machine terminates the program.
    Terminate(Option<i64>),
}

/// An AOT-compiled program: one `step` entry point over the same block
/// graph the interpreter walks. Implementations are emitted by
/// `ceu_codegen::rsbackend::emit_rust` and must be built from the *same*
/// `CompiledProgram` the machine runs ([`Machine::set_native`]
/// (crate::Machine::set_native) enforces this via [`fingerprint`]
/// (NativeProgram::fingerprint)).
pub trait NativeProgram: Send + Sync {
    /// Stable identity of the `CompiledProgram` this code was emitted
    /// from (`CompiledProgram::fingerprint()` at emission time).
    fn fingerprint(&self) -> u64;

    /// Per-gate continuation blocks, baked as a `const` table at emission
    /// time. Used as a structural cross-check when the program is
    /// attached; not consulted on the hot path.
    fn gate_conts(&self) -> &'static [u32];

    /// Runs one track from the start of block `block`, chasing gotos
    /// natively, until the track halts or terminates. Scheduler
    /// instructions run in place through [`NativeCtx::sched`].
    fn step(&self, block: u32, ctx: &mut NativeCtx<'_>) -> Result<Step>;
}

/// What a native track runs against: the machine's mutable state, the
/// program it was compiled from and the native build itself (for the
/// nested reactions a scheduler instruction starts), lent for one
/// [`NativeProgram::step`] call.
pub struct NativeCtx<'a> {
    pub(crate) st: &'a mut State,
    pub(crate) prog: &'a CompiledProgram,
    pub(crate) native: &'a dyn NativeProgram,
    /// Logical time base of the running track (timer chains, §2.3).
    pub(crate) base: Option<u64>,
    pub(crate) host: &'a mut dyn Host,
    /// The running track's first block, the span of its fuel errors.
    pub(crate) entry: BlockId,
}

impl NativeCtx<'_> {
    /// Runs instruction `ip` of `block` — a spawn, emit, region kill or
    /// async start — through the machine's scheduler. Returns `true` when
    /// the track must stop: the program terminated, or a nested reaction
    /// killed a region the track lives in.
    #[inline]
    pub fn sched(&mut self, block: u32, ip: u32) -> Result<bool> {
        let blk = self.prog.block(block);
        self.st.exec_at(self.prog, Some(self.native), blk, ip as usize, self.base, self.host)
    }

    /// Charges one unit of the shared reaction budget for a block entry,
    /// like the interpreter's per-block budget.
    #[inline]
    pub fn burn(&mut self) -> Result<()> {
        if self.st.budget == 0 {
            return Err(self.st.out_of_fuel_error(self.prog.debug.block_span(self.entry)));
        }
        self.st.budget -= 1;
        Ok(())
    }

    /// The data slot vector.
    #[inline]
    pub fn data(&self) -> &[Value] {
        self.st.data(self.prog)
    }

    /// The last value carried by each event.
    #[inline]
    pub fn evtval(&self) -> &[Value] {
        let lay = &self.prog.dispatch.state;
        &self.st.vals[lay.evtval as usize..lay.stack as usize]
    }

    /// Read a data slot (`FlatOp::Slot`, the i64 fast path's guarded
    /// loads).
    #[inline]
    pub fn slot(&self, s: u32) -> Value {
        self.st.vals[s as usize]
    }

    /// Write a data slot (`Place::Slot`, `Op::SetFlag`).
    #[inline]
    pub fn set_slot(&mut self, s: u32, v: Value) {
        self.st.vals[s as usize] = v;
    }

    /// Read an event's last value (`FlatOp::EventVal`).
    #[inline]
    pub fn evt(&self, e: usize) -> Value {
        self.st.vals[State::evt_at(self.prog, e)]
    }

    /// Read a C global (`FlatOp::CGlobal`).
    #[inline]
    pub fn global(&mut self, name: &str, span: Span) -> Result<Value> {
        self.host.global(name).map_err(|e| RuntimeError::new(span, e))
    }

    /// Call into the C world (`FlatOp::CCall`).
    #[inline]
    pub fn call(&mut self, name: &str, args: &[Value], span: Span) -> Result<Value> {
        self.host.call(name, args).map_err(|e| RuntimeError::new(span, e))
    }

    /// `base[idx]` (`FlatOp::Index`) — the interpreter's own access.
    #[inline]
    pub fn index(&mut self, base: Value, idx: Value, span: Span) -> Result<Value> {
        self.st.load_index(self.prog, base, idx, span, self.host)
    }

    /// `*p` (`FlatOp::Deref`).
    #[inline]
    pub fn deref(&mut self, v: Value, span: Span) -> Result<Value> {
        self.st.load_deref(self.prog, v, span, self.host)
    }

    /// `base.f` / `base->f` (`FlatOp::Field`).
    #[inline]
    pub fn field(&mut self, base: Value, name: &str, arrow: bool, span: Span) -> Result<Value> {
        self.host.field(&base, name, arrow).map_err(|e| RuntimeError::new(span, e))
    }

    /// `arr[idx] = v` (`Place::Index`).
    #[inline]
    pub fn store_index(&mut self, s: u32, idx: Value, v: Value, span: Span) -> Result<()> {
        self.st.store_index(self.prog, s, idx, v, span)
    }

    /// `*p = v` (`Place::Deref`).
    #[inline]
    pub fn store_deref(&mut self, target: Value, v: Value, span: Span) -> Result<()> {
        self.st.store_deref(self.prog, target, v, span, self.host)
    }

    /// Arm an event / `await forever` gate (`Op::ActivateEvt` /
    /// `Op::ActivateNever`).
    #[inline]
    pub fn arm(&mut self, g: u32) {
        set_bit(&mut self.st.wide, g, true);
    }

    /// Arm a timer gate: the deadline accumulates from the track's
    /// logical base (residual-delta semantics, §2.3).
    #[inline]
    pub fn arm_time(&mut self, g: u32, us: u64) {
        *self.st.deadline_mut(self.prog, g) = self.base.unwrap_or(self.st.now) + us;
        set_bit(&mut self.st.wide, g, true);
    }

    /// Reset a par/and's completion flags (`Op::ClearFlags`).
    #[inline]
    pub fn clear_flags(&mut self, lo: u32, hi: u32) {
        self.st.vals[lo as usize..hi as usize].fill(Value::Int(0));
    }

    /// `Term::JoinAnd`'s test: all completion flags in `[lo, hi)` set.
    #[inline]
    pub fn flags_set(&self, lo: u32, hi: u32) -> bool {
        self.st.vals[lo as usize..hi as usize].iter().all(Value::truthy)
    }
}

/// A computed timer duration (`TimeAmount::Dyn`) coerced to µs — the
/// interpreter's `eval_time` semantics.
#[inline]
pub fn time_value(v: Value, span: Span) -> Result<u64> {
    let n = v.as_int().ok_or_else(|| RuntimeError::new(span, "timeout must be an integer"))?;
    Ok(n.max(0) as u64)
}

/// Unary operator semantics — the single definition shared by the flat
/// interpreter, the tree-eval oracle, and emitted native code. Like
/// [`bin_op`], the integer fast path is forced inline and everything
/// that can format an error stays out of line.
#[inline(always)]
pub fn un_op(op: UnOp, v: Value, span: Span) -> Result<Value> {
    if let Value::Int(x) = v {
        if let Some(v) = int_un(op, x) {
            return Ok(Value::Int(v));
        }
    }
    un_op_slow(op, v, span)
}

/// The unary operators on an int: [`un_op`]'s fast path, which the
/// interpreter's typed flat code also runs. `None` for `&`/`*`, which
/// lowering resolves before run time.
#[inline(always)]
pub(crate) fn int_un(op: UnOp, x: i64) -> Option<i64> {
    Some(match op {
        UnOp::Not => (x == 0) as i64,
        UnOp::Neg => x.wrapping_neg(),
        UnOp::Plus => x,
        UnOp::BitNot => !x,
        UnOp::Addr | UnOp::Deref => return None,
    })
}

/// The non-integer cases of [`un_op`] (truthiness of pointers/strings,
/// `null` read as 0, every error).
#[cold]
fn un_op_slow(op: UnOp, v: Value, span: Span) -> Result<Value> {
    match (op, v.as_int()) {
        (UnOp::Addr | UnOp::Deref, _) => {
            Err(RuntimeError::new(span, "internal error: unlowered &/*"))
        }
        (UnOp::Not, _) => Ok(Value::Int(!v.truthy() as i64)),
        (_, Some(x)) => un_op(op, Value::Int(x), span),
        (_, None) => Err(RuntimeError::new(span, format!("expected integer, got {v}"))),
    }
}

/// The int×int operators: wrapping arithmetic, comparisons, bit ops —
/// [`bin_op`]'s fast path, which the interpreter's typed flat code also
/// runs. `None` for division or modulo by zero and for the operators that
/// are not int×int (`&&`/`||`, which are lowered to jumps).
#[inline(always)]
pub(crate) fn int_op(op: BinOp, x: i64, y: i64) -> Option<i64> {
    use BinOp::*;
    Some(match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div if y != 0 => x.wrapping_div(y),
        Mod if y != 0 => x.wrapping_rem(y),
        Lt => (x < y) as i64,
        Gt => (x > y) as i64,
        Le => (x <= y) as i64,
        Ge => (x >= y) as i64,
        // `c_eq` on two ints is plain equality
        Eq => (x == y) as i64,
        Ne => (x != y) as i64,
        BitAnd => x & y,
        BitOr => x | y,
        BitXor => x ^ y,
        Shl => x.wrapping_shl(y as u32),
        Shr => x.wrapping_shr(y as u32),
        Div | Mod | And | Or => return None,
    })
}

/// Binary operator semantics — wrapping integer arithmetic, C equality
/// (`null == 0`), data-pointer offsetting, division/modulo-by-zero
/// errors. The single definition shared by the flat interpreter, the
/// tree-eval oracle, and emitted native code.
///
/// The int×int fast path is forced inline — emitted code calls this with
/// a constant `op`, so after inlining each call collapses to one machine
/// instruction — while the pointer/equality/error cases stay out of line
/// (`#[cold]`): their `format!` machinery is what made LLVM refuse to
/// inline the original single-body version at every generated call site.
#[inline(always)]
pub fn bin_op(op: BinOp, a: Value, b: Value, span: Span) -> Result<Value> {
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        if let Some(v) = int_op(op, x, y) {
            return Ok(Value::Int(v));
        }
    }
    bin_op_slow(op, a, b, span)
}

/// The non-int×int cases of [`bin_op`]: pointer offsetting, C equality
/// against null/strings, `null` read as 0, and every error.
#[cold]
fn bin_op_slow(op: BinOp, a: Value, b: Value, span: Span) -> Result<Value> {
    use BinOp::*;
    match (op, a, b) {
        // pointer arithmetic: data pointers offset by integers, wrapping
        // like the integers themselves
        (Add, Value::Ptr(Ptr::Data(p)), Value::Int(i)) => {
            return Ok(Value::Ptr(Ptr::Data((p as i64).wrapping_add(i) as usize)))
        }
        (Sub, Value::Ptr(Ptr::Data(p)), Value::Int(i)) => {
            return Ok(Value::Ptr(Ptr::Data((p as i64).wrapping_sub(i) as usize)))
        }
        (Eq, ..) => return Ok(Value::Int(a.c_eq(&b) as i64)),
        (Ne, ..) => return Ok(Value::Int(!a.c_eq(&b) as i64)),
        _ => {}
    }
    let (Some(x), Some(y)) = (a.as_int(), b.as_int()) else {
        return Err(RuntimeError::new(
            span,
            format!("operator `{}` needs integers, got {a} and {b}", op.symbol()),
        ));
    };
    match (op, int_op(op, x, y)) {
        (_, Some(v)) => Ok(Value::Int(v)),
        (Div, None) => Err(RuntimeError::new(span, "division by zero")),
        (Mod, None) => Err(RuntimeError::new(span, "modulo by zero")),
        _ => unreachable!("`&&`/`||` are lowered to jumps"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_op_matches_c_semantics() {
        let sp = Span::default();
        assert_eq!(bin_op(BinOp::Add, Value::Int(2), Value::Int(3), sp).unwrap(), Value::Int(5));
        assert_eq!(
            bin_op(BinOp::Add, Value::Int(i64::MAX), Value::Int(1), sp).unwrap(),
            Value::Int(i64::MIN),
            "arithmetic wraps"
        );
        assert_eq!(bin_op(BinOp::Eq, Value::Null, Value::Int(0), sp).unwrap(), Value::Int(1));
        assert!(bin_op(BinOp::Div, Value::Int(1), Value::Int(0), sp).is_err());
        assert_eq!(
            bin_op(BinOp::Add, Value::Ptr(Ptr::Data(4)), Value::Int(2), sp).unwrap(),
            Value::Ptr(Ptr::Data(6)),
            "data pointers offset by integers"
        );
    }

    #[test]
    fn pointer_offsets_wrap_like_integers() {
        let sp = Span::default();
        let far = bin_op(BinOp::Add, Value::Ptr(Ptr::Data(4)), Value::Int(i64::MAX), sp);
        assert_eq!(far.unwrap(), Value::Ptr(Ptr::Data((4i64).wrapping_add(i64::MAX) as usize)));
        let back = bin_op(BinOp::Sub, Value::Ptr(Ptr::Data(4)), Value::Int(i64::MIN), sp);
        assert_eq!(back.unwrap(), Value::Ptr(Ptr::Data((4i64).wrapping_sub(i64::MIN) as usize)));
    }

    #[test]
    fn un_op_matches_c_semantics() {
        let sp = Span::default();
        assert_eq!(un_op(UnOp::Not, Value::Int(0), sp).unwrap(), Value::Int(1));
        assert_eq!(un_op(UnOp::Neg, Value::Null, sp).unwrap(), Value::Int(0));
        assert!(un_op(UnOp::Neg, Value::Str(0), sp).is_err());
    }

    #[test]
    fn time_value_clamps_negative_durations() {
        assert_eq!(time_value(Value::Int(-3), Span::default()).unwrap(), 0);
        assert!(time_value(Value::Str(0), Span::default()).is_err());
    }
}
