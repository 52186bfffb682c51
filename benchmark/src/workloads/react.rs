//! `react_expr`, `react_chain` and their `_native` lanes: one booted
//! machine fed a seeded input stream, timed in 256-event batches.
//!
//! `expr_heavy` puts nearly all the work in the data plane (one gate, one
//! track per event); `dataflow_chain` puts it in the scheduler (internal
//! emits, gate dispatch, the track queue) with a trivial data plane. The
//! native lanes attach the AOT build from `ceu-native-corpus`, so each
//! program is measured with the data plane interpreted and compiled.

use super::{for_seconds, heap_bytes, run_trials, Outcome, Params};
use crate::alloc;
use crate::gen;
use crate::span::Tracer;
use ceu::ast::EventId;
use ceu::runtime::RuntimeError;
use ceu::{CompiledProgram, Compiler, Machine, NullHost, Status, Value};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Prog {
    /// `ceu_corpus::EXPR_HEAVY`, fed `E(v)`.
    Expr,
    /// `ceu_corpus::DATAFLOW_CHAIN`, fed `Go`.
    Chain,
}

/// Events per timed batch: long enough that the two clock reads cost
/// under 1% of the batch.
const BATCH: usize = 256;
/// Distinct payloads, cycled (`expr_heavy` only; `Go` carries none, so
/// the chain's stream is the same for every seed).
const STREAM: usize = 4096;
/// Events fed during set-up, before timing starts.
const WARMUP: usize = 1 << 16;
/// Events replayed with the machine's counters on, for the per-event
/// scheduler counts (counters force the interpreter).
const REPLAY: usize = 1 << 14;
/// In the traced run, one batch in this many gets a span, and one of
/// those in `SINGLE_EVERY / BATCH_EVERY` also a span around its first
/// event.
const BATCH_EVERY: usize = 16;
const SINGLE_EVERY: usize = 256;

impl Prog {
    fn src(self) -> &'static str {
        match self {
            Prog::Expr => ceu_corpus::EXPR_HEAVY,
            Prog::Chain => ceu_corpus::DATAFLOW_CHAIN,
        }
    }
    /// Name in `ceu-native-corpus`.
    fn native_name(self) -> &'static str {
        match self {
            Prog::Expr => "expr_heavy",
            Prog::Chain => "dataflow",
        }
    }
    fn event(self) -> &'static str {
        match self {
            Prog::Expr => "E",
            Prog::Chain => "Go",
        }
    }
}

/// A booted machine and the stream it is fed.
struct Lane {
    m: Machine,
    ev: EventId,
    values: Vec<i64>,
    sent: u64,
}

impl Lane {
    fn boot(prog: &Arc<CompiledProgram>, ev_name: &str, values: Vec<i64>) -> Result<Lane, String> {
        let mut m = Machine::from_arc(Arc::clone(prog));
        let ev = m.event_id(ev_name).ok_or_else(|| format!("no input event {ev_name}"))?;
        m.go_init(&mut NullHost).map_err(|e| format!("boot: {e}"))?;
        Ok(Lane { m, ev, values, sent: 0 })
    }

    #[inline]
    fn feed(&mut self, n: usize) -> Result<(), RuntimeError> {
        for _ in 0..n {
            let v = match self.values.as_slice() {
                [] => None,
                vs => Some(Value::Int(vs[self.sent as usize % STREAM])),
            };
            self.m.go_event(self.ev, v, &mut NullHost)?;
            self.sent += 1;
        }
        Ok(())
    }

    fn var(&self, name: &str) -> Option<i64> {
        let slot =
            self.m.program().slots.iter().find(|s| s.name.split('#').next() == Some(name))?;
        self.m.data().get(slot.slot as usize)?.as_int()
    }

    /// Checks the program's variables against their closed form after
    /// `sent` events: `acc = Σ(vᵢ + 25)` (wrapping) for `expr_heavy`;
    /// `v1 = 10n`, `v2 = 10n + 1`, `v3 = 20n + 2` for `dataflow_chain`.
    fn expected(&self, prog: Prog) -> Vec<(&'static str, i64)> {
        let n = self.sent as i64;
        match prog {
            Prog::Expr => {
                let per = |v: &i64| v.wrapping_add(25);
                let full: i64 = self.values.iter().map(per).fold(0, i64::wrapping_add);
                let rem = self.sent as usize % STREAM;
                let part: i64 = self.values[..rem].iter().map(per).fold(0, i64::wrapping_add);
                let cycles = (self.sent / STREAM as u64) as i64;
                vec![("acc", full.wrapping_mul(cycles).wrapping_add(part))]
            }
            Prog::Chain => vec![("v1", 10 * n), ("v2", 10 * n + 1), ("v3", 20 * n + 2)],
        }
    }
}

pub fn run(prog: Prog, native: bool, p: &Params, tr: &mut Tracer, out: &mut Outcome) {
    let warmup = if p.smoke { 1024 } else { WARMUP };
    let values = match prog {
        Prog::Expr => gen::expr_values(p.seed, STREAM),
        Prog::Chain => Vec::new(),
    };
    let (mut allocs, mut events) = (0, 0);
    let (mut steps, mut fed) = (0, 0);
    let mut batch = 0;
    let min_batches = if p.smoke { 8 } else { 100 };
    run_trials(
        p,
        out,
        tr,
        // Set-up: compile, boot, attach the native build, warm up.
        |_| {
            let artifact =
                Arc::new(Compiler::new().compile(prog.src()).map_err(|e| e.to_string())?);
            let mut lane = Lane::boot(&artifact, prog.event(), values.clone())?;
            if native {
                let code = ceu_native_corpus::lookup(prog.native_name(), true)
                    .ok_or("native build missing from ceu-native-corpus")?;
                lane.m.set_native(code)?;
            }
            lane.feed(warmup).map_err(|e| format!("warm-up: {e}"))?;
            Ok((artifact, lane))
        },
        |(artifact, mut lane), seconds, out, tr| {
            // The interpreter is the reference for the native lane: after
            // the same warm-up, both machines must hold the same data.
            if native {
                let reference =
                    Lane::boot(&artifact, prog.event(), values.clone()).and_then(|mut r| {
                        r.feed(warmup).map_err(|e| e.to_string())?;
                        Ok(r)
                    });
                let same = reference.as_ref().is_ok_and(|r| r.m.data() == lane.m.data());
                out.check(same, || {
                    "native data differs from the interpreter's after warm-up".into()
                });
            }
            let sent0 = lane.sent;
            tr.enter("benchmark.measure", 0);
            for_seconds(seconds, min_batches, |_| {
                let i = batch;
                batch += 1;
                let span = tr.is_on() && i % BATCH_EVERY == 0;
                if span {
                    tr.enter("runtime.go_event_batch", i as u64);
                }
                let a0 = alloc::allocs();
                let t0 = Instant::now();
                let res = if span && i % SINGLE_EVERY == 0 {
                    tr.enter("runtime.go_event", i as u64);
                    let first = lane.feed(1);
                    tr.exit();
                    first.and_then(|_| lane.feed(BATCH - 1))
                } else {
                    lane.feed(BATCH)
                };
                let dt = t0.elapsed();
                allocs += alloc::allocs() - a0;
                out.op_us.push(dt.as_secs_f64() * 1e6 / BATCH as f64);
                if span {
                    tr.exit();
                }
                out.attempted += BATCH as u64;
                if let Err(e) = res {
                    out.fail(format!("go_event: {e}"));
                }
            });
            tr.exit();
            events += lane.sent - sent0;
            steps += lane.m.native_steps();
            fed += lane.sent;

            out.check(lane.m.status() == Status::Running, || {
                format!("status {:?}", lane.m.status())
            });
            for (var, want) in lane.expected(prog) {
                let got = lane.var(var);
                out.check(got == Some(want), || {
                    format!("{var} = {got:?} after {} events, want {want}", lane.sent)
                });
            }
            if native {
                out.check(lane.m.native_steps() > 0, || {
                    "native lane fell back to the interpreter".into()
                });
            }
        },
    );
    out.allocs_per_op = allocs as f64 / events.max(1) as f64;

    if tr.is_on() {
        let artifact = match Compiler::new().compile(prog.src()) {
            Ok(a) => Arc::new(a),
            Err(e) => return out.fail(e.to_string()),
        };
        let (_, machine_bytes) = heap_bytes(|| Lane::boot(&artifact, prog.event(), Vec::new()));
        out.set("runtime.machine_bytes", machine_bytes as f64);
        out.set("runtime.native_steps_per_event", steps as f64 / fed.max(1) as f64);
        scheduler_counts(&artifact, prog, &values, out);
    }
}

/// Replays the stream on an interpreter with the machine's counters on.
fn scheduler_counts(
    artifact: &Arc<CompiledProgram>,
    prog: Prog,
    values: &[i64],
    out: &mut Outcome,
) {
    let replay = Lane::boot(artifact, prog.event(), values.to_vec()).and_then(|mut r| {
        r.m.enable_metrics();
        r.m.take_metrics();
        r.feed(REPLAY).map_err(|e| e.to_string())?;
        Ok(r)
    });
    let metrics = match replay {
        Ok(mut r) => r.m.take_metrics().unwrap_or_default(),
        Err(e) => return out.fail(format!("counter replay: {e}")),
    };
    let per_event = |n: u64| n as f64 / REPLAY as f64;
    out.set("runtime.tracks_per_event", per_event(metrics.tracks_run));
    out.set("runtime.gates_fired_per_event", per_event(metrics.gates_fired));
    out.set("runtime.gates_armed_per_event", per_event(metrics.gates_armed));
    out.set("runtime.emits_int_per_event", per_event(metrics.emits_int));
    out.set("runtime.trail_spawns_per_event", per_event(metrics.trail_spawns));
    out.set("runtime.trail_kills_per_event", per_event(metrics.trail_kills));
    out.set("runtime.queue_peak", metrics.queue_peak as f64);
    out.set("runtime.emit_depth_hwm", metrics.emit_depth_hwm as f64);
}
