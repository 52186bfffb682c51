//! Runtime diagnostics.

use ceu_ast::Span;
use std::fmt;

/// A runtime error, mapped back to the source position of the failing
/// instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuntimeError {
    pub span: Span,
    pub message: String,
    /// `true` when the error is a *fuel* exhaustion: the reaction chain
    /// ran past its per-reaction step budget
    /// ([`Machine::set_fuel_limit`](crate::Machine::set_fuel_limit), or
    /// the safety-net default when none is set). Fuel trips depend only
    /// on the program and its inputs, so supervisors (the session service
    /// in `crates/serve`, the WSN world's crash states) classify them
    /// apart from program faults, reproducibly across reruns.
    pub fuel: bool,
}

impl RuntimeError {
    pub fn new(span: Span, message: impl Into<String>) -> Self {
        RuntimeError { span, message: message.into(), fuel: false }
    }

    /// A reaction-budget exhaustion (see
    /// [`Machine::set_fuel_limit`](crate::Machine::set_fuel_limit)).
    pub fn fuel_exhausted(span: Span, message: impl Into<String>) -> Self {
        RuntimeError { span, message: message.into(), fuel: true }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for RuntimeError {}

pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Extracts a human-readable message from a caught panic payload —
/// the supervision hook behind session isolation: a supervisor
/// (`crates/serve`) wraps machine calls in
/// [`std::panic::catch_unwind`] and turns the payload into an
/// attributable crash cause instead of letting the worker die. Panics
/// carry `&str` or `String` payloads in practice; anything else is
/// reported opaquely.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}
