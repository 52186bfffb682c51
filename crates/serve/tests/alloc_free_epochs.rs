//! A steady-state epoch allocates nothing: one worker, 30 warm sessions
//! of the three benchmark tenant shapes, 20 rounds of one input each.
//!
//! The counting allocator is process-wide, so this file holds a single
//! test: nothing else may allocate while the rounds run.

use ceu::Value;
use ceu_serve::{ServeConfig, SessionId, SessionService, SessionState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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

/// Inputs per session before its program returns: more than the test
/// sends, so every session stays resident.
const K: u32 = 1_000;
const SETTLE: Duration = Duration::from_secs(10);

/// The benchmark's three tenant shapes: a summer, a timer counter and a
/// `dataflow_chain`-style emitter.
fn tenant_src(tenant: usize) -> String {
    match tenant {
        0 => format!(
            "input int Go;\nint total = 0;\nint n = 0;\nloop do\n   int t = await Go;\n   total = total + t;\n   n = n + 1;\n   if n >= {K} then break; end\nend\nreturn total;\n"
        ),
        1 => format!(
            "int n = 0;\nloop do\n   await 10ms;\n   n = n + 1;\n   if n >= {K} then break; end\nend\nreturn n;\n"
        ),
        _ => format!(
            "input void Go;\nint v1, v2, v3;\ninternal void e1, e2;\npar/or do\n   loop do\n      await e1;\n      v2 = v1 + 1;\n      emit e2;\n   end\nwith\n   loop do\n      await e2;\n      v3 = v2 * 2;\n   end\nwith\n   loop do\n      await Go;\n      v1 = v1 + 10;\n      emit e1;\n      if v1 >= {} then break; end\n   end\nend\nreturn v3;\n",
            10 * K
        ),
    }
}

fn round(svc: &SessionService, ids: &[(SessionId, usize)]) {
    for &(id, tenant) in ids {
        let sent = match tenant {
            0 => svc.send_event(id, "Go", Some(Value::Int(3))),
            1 => svc.advance_time(id, 10_000),
            _ => svc.send_event(id, "Go", None),
        };
        assert_eq!(sent, Ok(()));
    }
    for &(id, _) in ids {
        assert!(svc.settle(id, SETTLE), "session {id:?} did not settle");
    }
}

#[test]
fn steady_state_epochs_do_not_allocate() {
    let svc = SessionService::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let srcs: Vec<String> = (0..3).map(tenant_src).collect();
    let ids: Vec<(SessionId, usize)> =
        (0..30).map(|i| (svc.open_session(&srcs[i % 3]).unwrap(), i % 3)).collect();
    // Boot, then one input each: first-use growth (mailboxes, the run
    // queue, the worker's buffers, machine queues) happens here.
    for &(id, _) in &ids {
        assert!(svc.settle(id, SETTLE));
    }
    round(&svc, &ids);

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..20 {
        round(&svc, &ids);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(allocs, 0, "{allocs} allocations in 20 steady-state rounds of 30 sessions");
    let report = svc.drain(SETTLE);
    assert!(report.clean);
    for s in &report.sessions {
        assert_eq!(s.state, SessionState::Running, "session {:?}", s.id);
        assert_eq!(s.events_processed, 21);
    }
}
