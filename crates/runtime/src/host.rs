//! The "C world" interface.
//!
//! Every `_name` reference in a Céu program dispatches through this trait:
//! calls, globals, indexing into C arrays, field access on C structs, and
//! reads/writes through host pointers. Platform bindings (`wsn-sim`,
//! `arduino-sim`, the examples) implement it; the defaults make any
//! untouched surface a loud runtime error rather than a silent wrong value.

use crate::value::Value;
use std::collections::HashMap;

pub type HostResult<T> = Result<T, String>;

/// The environment a Céu program runs against.
pub trait Host {
    /// `_f(args…)` — also method-style `_obj.m(args…)` as name `"obj.m"`.
    fn call(&mut self, name: &str, _args: &[Value]) -> HostResult<Value> {
        Err(format!("host does not provide function `_{name}`"))
    }

    /// Read of a C global `_X`.
    fn global(&mut self, name: &str) -> HostResult<Value> {
        Err(format!("host does not provide global `_{name}`"))
    }

    /// `base[idx]` where `base` is a host value.
    fn index(&mut self, base: &Value, idx: i64) -> HostResult<Value> {
        Err(format!("host value {base} is not indexable (index {idx})"))
    }

    /// `base.f` / `base->f` on a host value.
    fn field(&mut self, base: &Value, name: &str, _arrow: bool) -> HostResult<Value> {
        Err(format!("host value {base} has no field `{name}`"))
    }

    /// `*p` where `p` is a host pointer.
    fn deref(&mut self, handle: u64) -> HostResult<Value> {
        Err(format!("host pointer {handle} is not readable"))
    }

    /// `*p = v` where `p` is a host pointer.
    fn store(&mut self, handle: u64, v: Value) -> HostResult<()> {
        Err(format!("host pointer {handle} is not writable (value {v})"))
    }

    /// An `output` event was emitted towards the environment (the paper's
    /// future-work multi-process extension). Outputs are fire-and-forget;
    /// the default ignores them (they are also buffered on the machine for
    /// drivers that link processes).
    fn output(&mut self, _event: &str, _value: Option<&Value>) -> HostResult<()> {
        Ok(())
    }
}

/// A host that provides nothing: for programs with no `_` references.
#[derive(Default, Debug)]
pub struct NullHost;

impl Host for NullHost {}

/// Test/diagnostic host: records every call, serves canned globals and
/// return values, and exposes one writable cell per host-pointer handle.
#[derive(Default, Debug)]
pub struct RecordingHost {
    /// `(name, args)` of every call, in order.
    pub calls: Vec<(String, Vec<Value>)>,
    /// Return value per function name (default `Int(0)`).
    pub returns: HashMap<String, Value>,
    /// Values served for `_X` globals.
    pub globals: HashMap<String, Value>,
    /// Host memory cells, addressed by handle.
    pub cells: HashMap<u64, Value>,
    /// Output events received (`name`, value).
    pub outputs: Vec<(String, Option<Value>)>,
}

impl RecordingHost {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_global(mut self, name: &str, v: impl Into<Value>) -> Self {
        self.globals.insert(name.into(), v.into());
        self
    }

    pub fn with_return(mut self, name: &str, v: impl Into<Value>) -> Self {
        self.returns.insert(name.into(), v.into());
        self
    }

    /// Names of recorded calls, for assertions.
    pub fn call_names(&self) -> Vec<&str> {
        self.calls.iter().map(|(n, _)| n.as_str()).collect()
    }
}

impl Host for RecordingHost {
    fn call(&mut self, name: &str, args: &[Value]) -> HostResult<Value> {
        self.calls.push((name.to_string(), args.to_vec()));
        Ok(self.returns.get(name).copied().unwrap_or(Value::Int(0)))
    }

    fn global(&mut self, name: &str) -> HostResult<Value> {
        self.globals.get(name).copied().ok_or_else(|| format!("no canned global `_{name}`"))
    }

    fn deref(&mut self, handle: u64) -> HostResult<Value> {
        Ok(self.cells.get(&handle).copied().unwrap_or(Value::Int(0)))
    }

    fn store(&mut self, handle: u64, v: Value) -> HostResult<()> {
        self.cells.insert(handle, v);
        Ok(())
    }

    fn output(&mut self, event: &str, value: Option<&Value>) -> HostResult<()> {
        self.outputs.push((event.to_string(), value.copied()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_host_errors_loudly() {
        let mut h = NullHost;
        assert!(h.call("printf", &[]).is_err());
        assert!(h.global("X").is_err());
    }

    #[test]
    fn recording_host_records_and_serves() {
        let mut h = RecordingHost::new().with_return("rand", 7).with_global("N", 3);
        assert_eq!(h.call("rand", &[Value::Int(1)]).unwrap(), Value::Int(7));
        assert_eq!(h.global("N").unwrap(), Value::Int(3));
        assert_eq!(h.call_names(), vec!["rand"]);
        h.store(9, Value::Int(42)).unwrap();
        assert_eq!(h.deref(9).unwrap(), Value::Int(42));
    }
}
