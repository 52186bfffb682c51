//! Booting a machine allocates its state blocks and nothing else: one
//! zeroed block per element type (`Value`, `u32`, `u64`), laid out once
//! per artifact by `StateLayout`, for every corpus program, raw and
//! optimized. Rebooting it (`Machine::reboot`, then `go_init`) reuses
//! those blocks and allocates nothing.
//!
//! The counting allocator is process-wide, so this file holds a single
//! test: nothing else may allocate while a machine boots.

use ceu::runtime::{Host, HostResult, Machine, Ptr, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter only
// observes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A host that allocates nothing: the radio payload is host cell 1, and
/// every other C reference reads 0.
struct Zeros;

impl Host for Zeros {
    fn call(&mut self, name: &str, _args: &[Value]) -> HostResult<Value> {
        Ok(if name == "Radio_getPayload" { Value::Ptr(Ptr::Host(1)) } else { Value::Int(0) })
    }
    fn global(&mut self, _name: &str) -> HostResult<Value> {
        Ok(Value::Int(0))
    }
    fn index(&mut self, _base: &Value, _idx: i64) -> HostResult<Value> {
        Ok(Value::Int(0))
    }
    fn field(&mut self, _base: &Value, _name: &str, _arrow: bool) -> HostResult<Value> {
        Ok(Value::Int(0))
    }
    fn deref(&mut self, _handle: u64) -> HostResult<Value> {
        Ok(Value::Int(0))
    }
    fn store(&mut self, _handle: u64, _v: Value) -> HostResult<()> {
        Ok(())
    }
}

#[test]
fn booting_allocates_one_block_per_element_type() {
    for (name, src) in ceu_corpus::all_programs() {
        for (mode, compiler) in
            [("raw", ceu::Compiler::unoptimized()), ("opt", ceu::Compiler::new())]
        {
            let prog = Arc::new(compiler.compile(&src).expect("corpus program compiles"));
            let lay = prog.dispatch.state;
            let planned = [lay.values, lay.words, lay.wide].iter().filter(|&&n| n > 0).count();
            let before = ALLOCS.load(Ordering::Relaxed);
            let mut m = Machine::from_arc(Arc::clone(&prog));
            m.go_init(&mut Zeros).expect("boot");
            let made = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(made, planned as u64, "{name} [{mode}]: allocations at boot");
            assert_eq!(m.data().len(), prog.data_len as usize, "{name} [{mode}]");
            let before = ALLOCS.load(Ordering::Relaxed);
            m.reboot();
            m.go_init(&mut Zeros).expect("reboot");
            let made = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(made, 0, "{name} [{mode}]: allocations at reboot");
        }
    }
}
