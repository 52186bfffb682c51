//! Randomized event-sequence soak (ISSUE 5, robustness): every corpus
//! program is driven through thousands of seeded-random steps — junk
//! event values, wild time jumps, async slices — against a host that
//! fails calls mid-reaction with seeded probability. The contract under
//! test is graceful degradation at the machine layer:
//!
//! * nothing ever panics (the test completing is the proof);
//! * every failure surfaces as a `RuntimeError` with a message (and,
//!   for host-call failures inside program code, a source span);
//! * after an error the machine can be rebooted in place
//!   (`Machine::reboot`) and driven on — the reboot path the WSN world
//!   and `ceuc run --faults` rely on;
//! * the AOT-compiled native backend (`Machine::set_native`) degrades
//!   *identically*: the same seeds produce the same errors (message,
//!   span, classification) and the same host-call stream as the
//!   interpreter, with `native_steps() > 0` proving the native path
//!   actually ran (no silent fallback).

use ceu::runtime::{Host, HostResult, Machine, NativeProgram, RuntimeError, Value};
use ceu_bench::{
    receiver_ceu, BLINK_CEU, BLINK_SYNC_CEU, CLIENT_CEU, DATAFLOW_CHAIN, FIG1_PROGRAM,
    GUIDING_EXAMPLE, SENSE_CEU, SERVER_CEU,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A host whose calls randomly fail (seeded): the error path every
/// `_f(...)` site in the corpus must survive. Successful calls return
/// plausible values so programs also make progress.
struct FlakyHost {
    rng: StdRng,
    fail_rate: f64,
    calls: u64,
    failures: u64,
}

impl FlakyHost {
    fn new(seed: u64, fail_rate: f64) -> Self {
        FlakyHost { rng: StdRng::seed_from_u64(seed), fail_rate, calls: 0, failures: 0 }
    }
}

impl Host for FlakyHost {
    fn call(&mut self, name: &str, _args: &[Value]) -> HostResult<Value> {
        self.calls += 1;
        if self.rng.gen::<f64>() < self.fail_rate {
            self.failures += 1;
            return Err(format!("flaky host dropped `_{name}`"));
        }
        Ok(match name {
            "Radio_getPayload" => Value::Ptr(ceu::runtime::Ptr::Host(1)),
            _ => Value::Int(self.rng.gen_range(-3i64..100)),
        })
    }

    fn global(&mut self, _name: &str) -> HostResult<Value> {
        Ok(Value::Int(0))
    }

    fn deref(&mut self, _handle: u64) -> HostResult<Value> {
        Ok(Value::Int(self.rng.gen_range(-2i64..50)))
    }

    fn store(&mut self, _handle: u64, _v: Value) -> HostResult<()> {
        Ok(())
    }

    fn output(&mut self, _name: &str, _v: Option<&Value>) -> HostResult<()> {
        Ok(())
    }
}

fn corpus() -> Vec<(&'static str, String)> {
    vec![
        ("blink", BLINK_CEU.into()),
        ("sense", SENSE_CEU.into()),
        ("client", CLIENT_CEU.into()),
        ("server", SERVER_CEU.into()),
        ("guiding", GUIDING_EXAMPLE.into()),
        ("fig1", FIG1_PROGRAM.into()),
        ("dataflow", DATAFLOW_CHAIN.into()),
        ("blink_sync", BLINK_SYNC_CEU.into()),
        ("receiver0", receiver_ceu(0)),
        ("receiver5", receiver_ceu(5)),
    ]
}

/// One soak run: `steps` random actions against one program, each
/// reaction chain held to `fuel` blocks (the runtime's default budget
/// when `None`). Returns
/// the errors observed, the number of host calls reached, and the
/// cumulative native step count (0 on the interpreter lane); panics
/// only if the machine layer itself does. When `native` is given, it
/// stays attached across every reboot — the reboot path must not
/// silently fall back to the interpreter either.
fn soak(
    name: &str,
    prog: &Arc<ceu::CompiledProgram>,
    native: Option<&Arc<dyn NativeProgram>>,
    fuel: Option<u32>,
    seed: u64,
    steps: u32,
) -> (Vec<RuntimeError>, u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut host = FlakyHost::new(seed ^ 0x5eed, 0.08);
    let mut errors = Vec::new();
    let mut m = Machine::from_arc(Arc::clone(prog));
    m.set_fuel_limit(fuel);
    if let Some(n) = native {
        m.set_native(Arc::clone(n)).unwrap_or_else(|e| panic!("{name}: set_native: {e}"));
    }

    let external: Vec<_> = (0..prog.events.len())
        .filter_map(|i| {
            let id = ceu_ast::EventId(i as u16);
            prog.events.get(id).external().then_some(id)
        })
        .collect();

    let note = |r: Result<ceu::Status, RuntimeError>, m: &mut Machine, errors: &mut Vec<_>| {
        if let Err(e) = r {
            assert!(!e.message.is_empty(), "{name}/{seed}: error without a message");
            errors.push(e);
            // graceful-degradation reboot: boot image, same instance
            // (the native program stays attached, when on that lane)
            m.reboot();
        }
    };

    note(m.go_init(&mut host), &mut m, &mut errors);
    for _ in 0..steps {
        if m.status().is_terminated() {
            m.reboot();
            note(m.go_init(&mut host), &mut m, &mut errors);
        }
        match rng.gen_range(0u32..10) {
            // junk-valued external events (most common action)
            0..=4 => {
                if let Some(&ev) = external.get(rng.gen_range(0usize..external.len().max(1))) {
                    let v = match rng.gen_range(0u32..5) {
                        0 => None,
                        1 => Some(Value::Int(0)),
                        2 => Some(Value::Int(i64::MAX)),
                        3 => Some(Value::Int(rng.gen_range(-1_000_000i64..1_000_000))),
                        _ => Some(Value::Ptr(ceu::runtime::Ptr::Host(rng.gen_range(0u64..4)))),
                    };
                    note(m.go_event(ev, v, &mut host), &mut m, &mut errors);
                }
            }
            // time jumps: tiny, past every corpus period, or huge
            5..=7 => {
                let dt = match rng.gen_range(0u32..3) {
                    0 => rng.gen_range(0u64..1_000),
                    1 => rng.gen_range(1_000u64..2_000_000),
                    _ => rng.gen_range(0u64..60_000_000),
                };
                note(m.go_time(m.now() + dt, &mut host), &mut m, &mut errors);
            }
            // bounded async slices
            _ => {
                for _ in 0..rng.gen_range(1u32..50) {
                    match m.go_async(&mut host) {
                        Ok(true) => {}
                        Ok(false) => break,
                        Err(e) => {
                            note(Err(e), &mut m, &mut errors);
                            break;
                        }
                    }
                }
            }
        }
    }
    (errors, host.calls, m.native_steps())
}

#[test]
fn random_soak_never_panics_and_errors_are_spanned() {
    let mut total_errors = 0usize;
    let mut spanned_errors = 0usize;
    let mut host_calls = 0u64;
    for (name, src) in corpus() {
        let prog =
            Arc::new(ceu::Compiler::new().compile(&src).unwrap_or_else(|e| panic!("{name}: {e}")));
        for seed in [1u64, 7, 42, 1234] {
            let (errors, calls, _) = soak(name, &prog, None, None, seed, 400);
            total_errors += errors.len();
            spanned_errors += errors.iter().filter(|e| e.span != ceu_ast::Span::default()).count();
            host_calls += calls;
        }
    }
    // the flaky host guarantees mid-reaction failures somewhere in the
    // sweep, and host-call failures inside program code carry the span
    // of the failing call site
    assert!(host_calls > 0, "the soak never reached the host");
    assert!(total_errors > 0, "the flaky host never tripped a single error");
    assert!(spanned_errors > 0, "no error carried a source span");
}

/// The native lane of the same soak: for every corpus program with an
/// AOT-emitted twin, junk events, wild time jumps, and induced host
/// failures must produce *exactly* the interpreter's behavior — same
/// error list (message, span, fuel classification), same
/// host-call stream — and the native step counter must prove the native
/// path ran instead of silently falling back.
#[test]
fn native_soak_errors_match_interpreter_exactly() {
    let mut native_progs = 0usize;
    let mut native_steps_total = 0u64;
    let mut total_errors = 0usize;
    for (name, src) in corpus() {
        let prog =
            Arc::new(ceu::Compiler::new().compile(&src).unwrap_or_else(|e| panic!("{name}: {e}")));
        let Some(native) = ceu_native_corpus::lookup(name, true) else {
            continue;
        };
        native_progs += 1;
        let mut prog_native_steps = 0u64;
        for seed in [1u64, 7, 42, 1234] {
            let (interp_errors, interp_calls, _) = soak(name, &prog, None, None, seed, 400);
            let (native_errors, native_calls, steps) =
                soak(name, &prog, Some(&native), None, seed, 400);
            assert_eq!(
                interp_calls, native_calls,
                "{name}/{seed}: host-call streams diverged between backends"
            );
            assert_eq!(
                interp_errors, native_errors,
                "{name}/{seed}: native errors differ from the interpreter's"
            );
            prog_native_steps += steps;
            total_errors += native_errors.len();
        }
        assert!(
            prog_native_steps > 0,
            "{name}: native lane never executed a native step (silent fallback)"
        );
        native_steps_total += prog_native_steps;
    }
    assert!(native_progs >= 8, "native corpus coverage shrank to {native_progs} programs");
    assert!(native_steps_total > 0);
    assert!(total_errors > 0, "the soak induced no RuntimeErrors to compare");
}

/// The same lanes under a budget a few blocks deep: the native charge
/// path must run dry at exactly the interpreter's step, with the same
/// fuel-classified error and the same host calls before it.
#[test]
fn native_fuel_trips_match_interpreter_exactly() {
    let mut fuel_errors = 0usize;
    for (name, src) in corpus() {
        let prog =
            Arc::new(ceu::Compiler::new().compile(&src).unwrap_or_else(|e| panic!("{name}: {e}")));
        let Some(native) = ceu_native_corpus::lookup(name, true) else {
            continue;
        };
        for (seed, fuel) in [(3u64, 1u32), (5, 4), (11, 16)] {
            let (interp_errors, interp_calls, _) = soak(name, &prog, None, Some(fuel), seed, 100);
            let (native_errors, native_calls, _) =
                soak(name, &prog, Some(&native), Some(fuel), seed, 100);
            assert_eq!(interp_calls, native_calls, "{name}/{fuel}: host-call streams diverged");
            assert_eq!(interp_errors, native_errors, "{name}/{fuel}: errors diverged");
            fuel_errors += native_errors.iter().filter(|e| e.fuel).count();
        }
    }
    assert!(fuel_errors > 0, "no budget ran dry on either lane");
}
