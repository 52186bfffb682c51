//! Three-way differential test: tree evaluation vs flat postfix code vs
//! flat code after the optimizer pass, across the full corpus.
//!
//! Each corpus program is compiled twice — `Compiler::unoptimized()` and
//! `Compiler::new()` (which runs `ceu_codegen::optimize`) — and each
//! artifact is instanced over its `Arc<CompiledProgram>` on both the flat
//! hot path and the `use_tree_eval` ablation. All machines are driven
//! through an identical scripted schedule (boot, every declared input
//! event with values, timer advances past every corpus period, async
//! slices). The assertions, per program:
//!
//! - **tree vs flat, same artifact** (both raw and optimized): the full
//!   trace stream (wall-clock timestamps normalised to zero), every host
//!   interaction, the final data slots, and termination status agree.
//!   On the optimized artifact this differentially validates every
//!   `opt::simplify` rewrite — the tree side evaluates the *original*
//!   expressions (`prog.exprs` is left source-faithful), the flat side
//!   the simplified postfix code.
//! - **raw vs optimized**: the host-observable surface (status, reaction
//!   count, final data, calls, outputs) is identical. Traces are not
//!   compared across artifacts — dead-block elimination renumbers blocks.
//! - **traced vs bare interpreter** (both artifacts): a machine with the
//!   event buffer and metrics on and a bare one agree on the same
//!   host-observable surface.
//! - **native vs interpreter** (both artifacts): the AOT Rust build from
//!   `ceu-native-corpus` is attached via `Machine::set_native` and driven
//!   through the same schedule on a bare machine (no event buffer —
//!   tracing deliberately forces the interpreter), compared on the
//!   trace-independent surface. `native_steps()` proves the native path
//!   actually executed, so the comparison can never be vacuous, and a
//!   counting wrapper proves every track the interpreter queued entered
//!   native code — the tracks of nested (internal-emit) reactions too.

use ceu::runtime::{
    Machine, NativeCtx, NativeProgram, RecordingHost, Step, TraceEvent, TraceMask, Value,
};
use ceu_bench::all_programs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Zeroes the host-clock fields (the only nondeterminism in a trace).
fn normalize(e: &TraceEvent) -> TraceEvent {
    match *e {
        TraceEvent::ReactionStart { id, cause, now_us, .. } => {
            TraceEvent::ReactionStart { id, cause, now_us, wall_ns: 0 }
        }
        TraceEvent::ReactionEnd {
            now_us,
            tracks,
            emits,
            gates_fired,
            gates_armed,
            queue_peak,
            emit_depth_max,
            ..
        } => TraceEvent::ReactionEnd {
            now_us,
            wall_ns: 0,
            tracks,
            emits,
            gates_fired,
            gates_armed,
            queue_peak,
            emit_depth_max,
        },
        TraceEvent::BudgetExceeded { tracks, .. } => {
            TraceEvent::BudgetExceeded { tracks, wall_ns: 0 }
        }
        other => other,
    }
}

/// A host every corpus program can run against: canned returns for the
/// sensor read, recorded calls/outputs for comparison.
fn host() -> RecordingHost {
    RecordingHost::new()
        .with_return("Read_read", 5)
        .with_return("Radio_getPayload", Value::Ptr(ceu::runtime::Ptr::Host(1)))
        .with_return("Radio_source", 0)
        .with_global("TOS_NODE_ID", 0)
}

struct Observed {
    trace: Vec<TraceEvent>,
    calls: Vec<(String, Vec<Value>)>,
    outputs: Vec<(String, Option<Value>)>,
    data: Vec<Value>,
    status: ceu::Status,
    reactions: u64,
    /// Tracks queued over the run (interpreter metrics; 0 on bare runs).
    spawns: u64,
}

/// The shared scripted schedule: boot, three rounds of every declared
/// input event with values, a timer advance past every corpus period,
/// and bounded async slices (receiver_ceu's loops are infinite).
fn run_schedule(m: &mut Machine, prog: &ceu::CompiledProgram, h: &mut RecordingHost) {
    let _ = m.go_init(h);
    let inputs: Vec<_> = (0..prog.events.len())
        .filter_map(|i| {
            let info = prog.events.get(ceu_ast::EventId(i as u16));
            info.external().then_some(ceu_ast::EventId(i as u16))
        })
        .collect();
    for round in 0..3i64 {
        for &ev in &inputs {
            if m.status().is_terminated() {
                break;
            }
            let _ = m.go_event(ev, Some(Value::Int(round + 1)), h);
        }
        // step past every corpus period (250ms/400ms/1s…)
        if !m.status().is_terminated() {
            let _ = m.go_time(m.now() + 1_000_000, h);
        }
        for _ in 0..100 {
            if m.status().is_terminated() || !matches!(m.go_async(h), Ok(true)) {
                break;
            }
        }
    }
}

/// Drives one machine through the scripted schedule and captures
/// everything observable.
fn drive(prog: Arc<ceu::CompiledProgram>, tree_eval: bool) -> Observed {
    let mut m = Machine::from_arc(Arc::clone(&prog));
    m.use_tree_eval = tree_eval;
    m.enable_metrics();
    m.enable_events(TraceMask::Full);
    let mut h = host();
    run_schedule(&mut m, &prog, &mut h);

    let mut events = Vec::new();
    m.drain_events_into(&mut events);
    let trace = events.iter().map(normalize).collect();
    let metrics = m.metrics().expect("metrics enabled");
    Observed {
        trace,
        calls: h.calls,
        outputs: h.outputs,
        data: m.data().to_vec(),
        status: m.status(),
        reactions: metrics.reactions,
        spawns: metrics.trail_spawns,
    }
}

/// Drives a *bare* machine (no event buffer, no metrics — the configuration
/// where the native path engages) through the same schedule, optionally
/// with an AOT program attached. Returns the trace-independent surface
/// plus how many native steps ran.
fn drive_bare(
    prog: Arc<ceu::CompiledProgram>,
    native: Option<Arc<dyn NativeProgram>>,
) -> (Observed, u64) {
    let mut m = Machine::from_arc(Arc::clone(&prog));
    if let Some(n) = native {
        m.set_native(n).expect("native build must match the compiled artifact");
    }
    let mut h = host();
    run_schedule(&mut m, &prog, &mut h);
    let native_steps = m.native_steps();
    let obs = Observed {
        trace: Vec::new(),
        calls: h.calls,
        outputs: h.outputs,
        data: m.data().to_vec(),
        status: m.status(),
        reactions: m.reactions_started(),
        spawns: 0,
    };
    (obs, native_steps)
}

/// Counts the tracks a native program is entered for: one `step` call
/// per track.
struct CountEntries {
    inner: Arc<dyn NativeProgram>,
    entries: AtomicU64,
}

impl NativeProgram for CountEntries {
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn gate_conts(&self) -> &'static [u32] {
        self.inner.gate_conts()
    }

    fn step(&self, block: u32, ctx: &mut NativeCtx<'_>) -> ceu::runtime::Result<Step> {
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.inner.step(block, ctx)
    }
}

fn corpus() -> Vec<(&'static str, String)> {
    all_programs()
}

/// Tree vs flat over one shared artifact: everything observable agrees,
/// including the trace stream.
fn assert_tree_flat_identical(name: &str, what: &str, prog: Arc<ceu::CompiledProgram>) -> Observed {
    let flat = drive(Arc::clone(&prog), false);
    let tree = drive(prog, true);
    assert_eq!(flat.status, tree.status, "{name} ({what}): status");
    assert_eq!(flat.reactions, tree.reactions, "{name} ({what}): reaction count");
    assert_eq!(flat.data, tree.data, "{name} ({what}): final data slots");
    assert_eq!(flat.calls, tree.calls, "{name} ({what}): host calls");
    assert_eq!(flat.outputs, tree.outputs, "{name} ({what}): host outputs");
    assert_eq!(flat.trace, tree.trace, "{name} ({what}): trace stream");
    assert!(flat.reactions > 0, "{name} ({what}): schedule must actually drive reactions");
    flat
}

#[test]
fn tree_flat_and_optimized_flat_are_observationally_identical() {
    for (name, src) in corpus() {
        let raw = Arc::new(
            ceu::Compiler::unoptimized().compile(&src).unwrap_or_else(|e| panic!("{name}: {e}")),
        );
        let opt =
            Arc::new(ceu::Compiler::new().compile(&src).unwrap_or_else(|e| panic!("{name}: {e}")));

        let raw_obs = assert_tree_flat_identical(name, "raw", raw);
        let opt_obs = assert_tree_flat_identical(name, "optimized", opt);

        // across artifacts the host-observable surface is the contract;
        // block ids in traces legitimately shift under dead-block elim
        assert_eq!(raw_obs.status, opt_obs.status, "{name}: raw vs opt status");
        assert_eq!(raw_obs.reactions, opt_obs.reactions, "{name}: raw vs opt reaction count");
        assert_eq!(raw_obs.data, opt_obs.data, "{name}: raw vs opt final data slots");
        assert_eq!(raw_obs.calls, opt_obs.calls, "{name}: raw vs opt host calls");
        assert_eq!(raw_obs.outputs, opt_obs.outputs, "{name}: raw vs opt host outputs");
    }
}

#[test]
fn native_lane_matches_the_interpreter_across_the_corpus() {
    for (name, src) in corpus() {
        for (what, optimized) in [("raw", false), ("optimized", true)] {
            let compiler =
                if optimized { ceu::Compiler::new() } else { ceu::Compiler::unoptimized() };
            let prog = Arc::new(compiler.compile(&src).unwrap_or_else(|e| panic!("{name}: {e}")));
            let native = ceu_native_corpus::lookup(name, optimized)
                .unwrap_or_else(|| panic!("{name}: no native build in ceu-native-corpus"));

            // set_native succeeding is itself a determinism check: the AOT
            // code was emitted from an artifact compiled in build.rs, the
            // machine runs an artifact compiled here — the fingerprints
            // only agree if the compiler is deterministic across processes.
            let (interp, interp_steps) = drive_bare(Arc::clone(&prog), None);
            let counted = Arc::new(CountEntries { inner: native, entries: AtomicU64::new(0) });
            let (nat, nat_steps) = drive_bare(Arc::clone(&prog), Some(counted.clone()));

            assert_eq!(interp_steps, 0, "{name} ({what}): bare interpreter must not step natively");
            assert!(nat_steps > 0, "{name} ({what}): native path must actually execute");
            // every track the interpreter queued must enter native code —
            // nested (internal-emit) tracks included. The queue drains
            // fully unless the program terminated with tracks pending.
            let spawns = drive(prog, false).spawns;
            let entries = counted.entries.load(Ordering::Relaxed);
            if interp.status.is_terminated() {
                assert!(entries <= spawns, "{name} ({what}): {entries} native entries");
            } else {
                assert_eq!(
                    entries, spawns,
                    "{name} ({what}): native track entries vs tracks the interpreter queued"
                );
            }
            assert_eq!(nat.status, interp.status, "{name} ({what}): native status");
            assert_eq!(nat.reactions, interp.reactions, "{name} ({what}): native reaction count");
            assert!(nat.reactions > 0, "{name} ({what}): schedule must drive reactions");
            assert_eq!(nat.data, interp.data, "{name} ({what}): native final data slots");
            assert_eq!(nat.calls, interp.calls, "{name} ({what}): native host calls");
            assert_eq!(nat.outputs, interp.outputs, "{name} ({what}): native host outputs");
        }
    }
}

/// Traced vs bare interpreter: observability must not change what a
/// program does. The internal-emit shortcuts (no level of its own for an
/// empty emitter level, a lone root run in place) run in both modes.
#[test]
fn traced_and_bare_interpreters_agree_across_the_corpus() {
    for (name, src) in corpus() {
        for (what, optimized) in [("raw", false), ("optimized", true)] {
            let compiler =
                if optimized { ceu::Compiler::new() } else { ceu::Compiler::unoptimized() };
            let prog = Arc::new(compiler.compile(&src).unwrap_or_else(|e| panic!("{name}: {e}")));
            let traced = drive(Arc::clone(&prog), false);
            let (bare, _) = drive_bare(prog, None);
            assert_eq!(bare.status, traced.status, "{name} ({what}): status");
            assert_eq!(bare.reactions, traced.reactions, "{name} ({what}): reaction count");
            assert!(bare.reactions > 0, "{name} ({what}): schedule must drive reactions");
            assert_eq!(bare.data, traced.data, "{name} ({what}): final data slots");
            assert_eq!(bare.calls, traced.calls, "{name} ({what}): host calls");
            assert_eq!(bare.outputs, traced.outputs, "{name} ({what}): host outputs");
        }
    }
}

/// `dataflow_chain` with its native build: each `Go` runs the `Go` track,
/// the `v1_evt` track its `emit v1_evt` wakes and the `v2_evt` track the
/// nested `emit v2_evt` wakes — 3 native steps, 2 of them inside nested
/// reactions. An interpreter fallback for nested tracks would leave only
/// the outer 1.
#[test]
fn nested_emits_run_their_tracks_native() {
    let prog = Arc::new(ceu::Compiler::new().compile(ceu_corpus::DATAFLOW_CHAIN).unwrap());
    let native = ceu_native_corpus::lookup("dataflow", true).expect("dataflow native build");
    let mut m = Machine::from_arc(prog);
    m.set_native(native).unwrap();
    let mut h = host();
    m.go_init(&mut h).unwrap();
    let go = m.event_id("Go").unwrap();
    for n in 1..=20 {
        let before = m.native_steps();
        m.go_event(go, None, &mut h).unwrap();
        assert_eq!(m.native_steps() - before, 3, "Go #{n}");
    }
    assert_eq!(m.read_var("v3#2"), Some(&Value::Int(402)));
}
