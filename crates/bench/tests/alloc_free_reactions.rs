//! A steady-state reaction allocates nothing: `dataflow_chain` (internal
//! emits, nested reactions) and `expr_heavy` (the data plane), each raw
//! and optimized, interpreted and native, plus `expr_heavy` with the
//! coarse flight recorder on, and [`GUARD_MISS`] interpreted, raw and
//! optimized.
//!
//! The counting allocator is process-wide, so this file holds a single
//! test: nothing else may allocate while the lanes run.

use ceu::runtime::{FlightRecorder, Machine, NullHost, TraceEvent, TraceMask, Value};
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

/// Events before counting: enough to grow every reusable buffer and to
/// wrap the recorder's ring twice, so its overwrite path is what counts.
const WARMUP: usize = 2_048;
const EVENTS: usize = 10_000;
const RING: usize = 1_024;

/// One machine fed one input event, with an optional flight recorder fed
/// the way `ceuc run --blackbox` and the simulators feed theirs.
struct Lane {
    m: Machine,
    event: ceu::ast::EventId,
    valued: bool,
    recorder: Option<(FlightRecorder, Vec<TraceEvent>)>,
}

impl Lane {
    fn react(&mut self, i: usize) {
        let v = self.valued.then(|| Value::Int(i as i64 % 97 - 48));
        self.m.go_event(self.event, v, &mut NullHost).expect("react");
        if let Some((rec, drained)) = &mut self.recorder {
            self.m.drain_events_into(drained);
            for e in drained.drain(..) {
                rec.record(0, 0, rec.recorded() + 1, &e);
            }
        }
    }
}

/// Int-pure expressions that miss the typed flat path's guard on every
/// event: `p` holds a pointer, so `p + v` and the `if` test `q - v` fall
/// back to the generic code each time.
const GUARD_MISS: &str = r#"
    input int E;
    int v, n;
    int* p;
    int* q;
    p = &v;
    loop do
       v = await E;
       q = p + v;
       if q - v then
          n = n + 1;
       end
    end
"#;

#[test]
fn steady_state_reactions_do_not_allocate() {
    let programs = [
        ("dataflow", ceu_corpus::DATAFLOW_CHAIN, "Go", false),
        ("expr_heavy", ceu_corpus::EXPR_HEAVY, "E", true),
        ("guard_miss", GUARD_MISS, "E", true),
    ];
    let mut lanes = Vec::new();
    for (name, src, event, valued) in programs {
        for optimized in [false, true] {
            let compiler =
                if optimized { ceu::Compiler::new() } else { ceu::Compiler::unoptimized() };
            let prog = Arc::new(compiler.compile(src).unwrap_or_else(|e| panic!("{name}: {e}")));
            let mut modes = vec!["interpreted"];
            if name != "guard_miss" {
                modes.push("native");
            }
            if name == "expr_heavy" && optimized {
                modes.push("recorded");
            }
            for mode in modes {
                let mut m = Machine::from_arc(Arc::clone(&prog));
                if mode == "native" {
                    let native = ceu_native_corpus::lookup(name, optimized)
                        .unwrap_or_else(|| panic!("{name}: no native build"));
                    m.set_native(native).expect("native build matches the artifact");
                }
                let recorder = (mode == "recorded").then(|| {
                    m.enable_events(TraceMask::Coarse);
                    (FlightRecorder::new(RING), Vec::new())
                });
                m.go_init(&mut NullHost).expect("boot");
                let event = m.event_id(event).expect("driving event");
                let what = format!("{name} {} {mode}", if optimized { "opt" } else { "raw" });
                lanes.push((what, Lane { m, event, valued, recorder }));
            }
        }
    }
    for (what, lane) in &mut lanes {
        for i in 0..WARMUP {
            lane.react(i);
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        for i in 0..EVENTS {
            lane.react(i);
        }
        let n = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(n, 0, "{what}: {n} allocations over {EVENTS} events");
        let native = what.ends_with("native");
        assert_eq!(lane.m.native_steps() > 0, native, "{what}: native steps");
    }
    // the miss lanes did take the fallback: `n` counted every event
    for (what, lane) in lanes.iter().filter(|(what, _)| what.starts_with("guard_miss")) {
        let slot = lane.m.program().slots.iter().find(|s| s.name.starts_with("n#"));
        let n = lane.m.data()[slot.expect("`n` is a variable").slot as usize];
        assert_eq!(n, Value::Int((WARMUP + EVENTS) as i64), "{what}: n");
    }
}
