//! Runtime values.
//!
//! Céu's native data are machine integers; pointers arise from `&v`,
//! arrays, and the C world. A pointer either targets the program's own
//! `DATA` vector (taking the address of a Céu variable) or an opaque host
//! handle (anything returned by C calls). Strings are the program's
//! literals, named by their id in the artifact's pool.

use ceu_codegen::StrId;
use std::fmt;

/// Where a pointer points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ptr {
    /// Offset into the program's `DATA` slot vector.
    Data(usize),
    /// Opaque handle owned by the [`Host`](crate::host::Host).
    Host(u64),
}

/// A runtime value: 16 bytes and `Copy`, so loads, stores and operand
/// pops are plain copies. `Str` is an id into the artifact's string pool
/// (`CompiledProgram::str` gives the text); equal ids are equal text.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Value {
    Int(i64),
    Ptr(Ptr),
    Str(StrId),
    Null,
}

impl Value {
    /// Truthiness, C-style: zero and null are false.
    pub fn truthy(&self) -> bool {
        !matches!(self, Value::Int(0) | Value::Null)
    }

    /// The integer content, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Null => Some(0),
            _ => None,
        }
    }

    pub fn int(n: i64) -> Value {
        Value::Int(n)
    }

    /// C-style equality: `null == 0`, pointers compare by identity and
    /// strings by content (the pool is deduplicated).
    pub fn c_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Int(n)) | (Value::Int(n), Value::Null) => *n == 0,
            (a, b) => a == b,
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Ptr(Ptr::Data(a)) => write!(f, "&data[{a}]"),
            Value::Ptr(Ptr::Host(h)) => write!(f, "&host[{h}]"),
            Value::Str(s) => write!(f, "str#{s}"),
            Value::Null => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Null.truthy());
        assert!(Value::Int(-1).truthy());
        assert!(Value::Ptr(Ptr::Data(0)).truthy());
        assert!(Value::Str(0).truthy());
    }

    #[test]
    fn null_equals_zero() {
        assert!(Value::Null.c_eq(&Value::Int(0)));
        assert!(!Value::Null.c_eq(&Value::Int(1)));
        assert!(Value::Ptr(Ptr::Host(3)).c_eq(&Value::Ptr(Ptr::Host(3))));
    }

    #[test]
    fn strings_compare_by_pool_id() {
        assert!(Value::Str(2).c_eq(&Value::Str(2)));
        assert!(!Value::Str(2).c_eq(&Value::Str(3)));
        assert_eq!(Value::Str(2).to_string(), "str#2");
    }

    #[test]
    fn as_int_coerces_null() {
        assert_eq!(Value::Null.as_int(), Some(0));
        assert_eq!(Value::Str(0).as_int(), None);
    }
}
