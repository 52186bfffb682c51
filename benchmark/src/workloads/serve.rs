//! `serve`: 20,000 resident sessions of three tenant programs on one
//! worker, driven by an open-loop generator on this thread.
//!
//! The generator sends each event when it is due, whether or not earlier
//! events have completed, and times each event from its due time to the
//! moment `SessionService::status` shows it processed; so a stall also
//! delays every event due behind it. Events go out in rounds: each round
//! visits every session once in a seeded order, and each session's
//! program returns a value the generator can compute after exactly `K`
//! inputs, where `K` is the number of rounds. The working set (~24 MB of
//! cold machines against one hot machine in `react_*`) and the shared
//! service lock are what make this workload different from `react_*`.

use super::{heap_bytes, run_trials, Outcome, Params};
use crate::alloc;
use crate::gen::{self, Rng};
use crate::span::Tracer;
use crate::stats::{iqm, median, quantile, sorted};
use ceu::{Compiler, Machine, NullHost, Value};
use ceu_serve::{SendError, ServeConfig, ServeStats, SessionId, SessionService, SessionState};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: usize = 20_000;
const SMOKE_SESSIONS: usize = 300;
/// Steady offered load, events/s.
const RATE: f64 = 150_000.0;
/// The rate ladder of the per-layer run; every rung always runs.
const LADDER: [f64; 5] = [100_000.0, 200_000.0, 300_000.0, 400_000.0, 500_000.0];
/// A rung passes when its p99 is within this and its backlog at the end
/// of the rung is under 1% of what it sent.
const P99_LIMIT_US: f64 = 5_000.0;
/// A send issued this long after its due time counts as late.
const LATE_NS: u64 = 10_000;
/// The generator checks the oldest outstanding event at most this often
/// while nothing is due, so polling does not hog the service lock.
const POLL_NS: u64 = 500;
/// One event (and one admission) in this many gets spans in the traced
/// run.
const TRACE_EVERY: u64 = 64;
/// Clock step of the timer tenant per input (one `await 10ms`).
const TICK_US: u64 = 10_000;
/// Events per latency window (10 ms of the steady load). An event finds
/// its worker awake (~4 µs) or parked (~9 µs), in shares the host sways,
/// so single events make a poor `op_us_p1`; the median of a window is
/// its sample instead.
const WINDOW: usize = 1_500;

/// Tenant programs; `k` is the number of inputs each session gets.
fn tenant_src(tenant: u8, k: u64) -> String {
    match tenant {
        // Sums its `Go` payloads.
        0 => format!(
            "input int Go;\nint total = 0;\nint n = 0;\nloop do\n   int t = await Go;\n   total = total + t;\n   n = n + 1;\n   if n >= {k} then break; end\nend\nreturn total;\n"
        ),
        // Counts timer expiries driven by `advance_time`.
        1 => format!(
            "int n = 0;\nloop do\n   await 10ms;\n   n = n + 1;\n   if n >= {k} then break; end\nend\nreturn n;\n"
        ),
        // A `dataflow_chain`-style emitter: returns v3 = 20k + 2.
        _ => format!(
            "input void Go;\nint v1, v2, v3;\ninternal void e1, e2;\npar/or do\n   loop do\n      await e1;\n      v2 = v1 + 1;\n      emit e2;\n   end\nwith\n   loop do\n      await e2;\n      v3 = v2 * 2;\n   end\nwith\n   loop do\n      await Go;\n      v1 = v1 + 10;\n      emit e1;\n      if v1 >= {} then break; end\n   end\nend\nreturn v3;\n",
            10 * k
        ),
    }
}

/// The generator's side of the service: what it sent, to whom.
struct Load {
    svc: SessionService,
    ids: Vec<SessionId>,
    tenants: Vec<u8>,
    /// Inputs each session takes before it returns.
    k: u64,
    /// Inputs sent to each session, and the sum of the summing tenant's
    /// payloads.
    sent: Vec<u32>,
    sums: Vec<i64>,
    values: Rng,
    /// Global index of the next event (fixes its round and position).
    next: u64,
}

/// What one open-loop phase saw.
struct Phase {
    latencies_us: Vec<f64>,
    sent: u64,
    refused: u64,
    late: u64,
    /// Events not yet seen complete when the phase's last event was due.
    backlog: usize,
}

impl Load {
    fn send(&mut self, s: usize) -> Result<(), SendError> {
        let id = self.ids[s];
        let res = match self.tenants[s] {
            0 => {
                let v = self.values.below(100) as i64;
                self.sums[s] += v;
                self.svc.send_event(id, "Go", Some(Value::Int(v)))
            }
            1 => self.svc.advance_time(id, TICK_US),
            _ => self.svc.send_event(id, "Go", None),
        };
        self.sent[s] += 1;
        res
    }

    /// Sends `rounds` rounds at `rate` events/s, then waits until every
    /// accepted event is seen complete.
    fn phase(&mut self, seed: u64, rate: f64, rounds: u64, tr: &mut Tracer) -> Phase {
        let n = self.ids.len() as u64;
        let total = rounds * n;
        let period_ns = 1e9 / rate;
        let end_ns = (total as f64 * period_ns) as u64;
        let mut ph = Phase {
            latencies_us: Vec::with_capacity(total as usize),
            sent: 0,
            refused: 0,
            late: 0,
            backlog: usize::MAX,
        };
        // (session, inputs it must have processed, due time, event index)
        let mut pending: VecDeque<(usize, u32, u64, u64)> = VecDeque::new();
        let (mut a, mut b) = (1, 0);
        let mut last_poll = 0u64;
        let start = Instant::now();
        let mut j = 0u64;
        loop {
            let now = start.elapsed().as_nanos() as u64;
            if j < total {
                let due = (j as f64 * period_ns) as u64;
                if now >= due {
                    let ev = self.next;
                    if ev.is_multiple_of(n) {
                        (a, b) = gen::round_order(seed, ev / n, n);
                    }
                    let s = ((a * (ev % n) + b) % n) as usize;
                    let traced = ev.is_multiple_of(TRACE_EVERY);
                    if traced {
                        tr.enter("serve.send_event", ev);
                    }
                    let res = self.send(s);
                    if traced {
                        tr.exit();
                    }
                    if now - due > LATE_NS {
                        ph.late += 1;
                    }
                    match res {
                        Ok(()) => pending.push_back((s, self.sent[s], due, ev)),
                        Err(_) => ph.refused += 1,
                    }
                    ph.sent += 1;
                    self.next += 1;
                    j += 1;
                    continue;
                }
            } else if ph.backlog == usize::MAX && now >= end_ns {
                ph.backlog = pending.len();
            }
            let Some(&(s, want, due, ev)) = pending.front() else {
                if j == total {
                    break;
                }
                continue;
            };
            if now - last_poll < POLL_NS {
                std::hint::spin_loop();
                continue;
            }
            let traced = ev.is_multiple_of(TRACE_EVERY);
            if traced {
                tr.enter("serve.status", ev);
            }
            let status = self.svc.status(self.ids[s]);
            if traced {
                tr.exit();
            }
            match status {
                Some(st) if st.events_processed >= want as u64 => {
                    let at = start.elapsed().as_nanos() as u64;
                    ph.latencies_us.push((at - due) as f64 / 1e3);
                    pending.pop_front();
                    // the next oldest has likely completed too: check it now
                    last_poll = 0;
                }
                Some(st) if st.state == SessionState::Running => last_poll = now,
                // evicted: the event will never complete
                _ => {
                    ph.refused += 1;
                    pending.pop_front();
                }
            }
        }
        if ph.backlog == usize::MAX {
            ph.backlog = 0;
        }
        ph
    }
}

/// Rounds that make a phase of `seconds` at `rate` over `n` sessions.
fn rounds_for(seconds: f64, rate: f64, n: usize) -> u64 {
    ((seconds * rate / n as f64).round() as u64).max(1)
}

/// A service with every session admitted and booted.
struct Admitted {
    load: Load,
    /// Heap the service holds per session once booted.
    bytes_per_session: f64,
    /// Wall time of the `open_session` calls, s.
    open_s: f64,
}

/// Set-up: starts the service, admits every session (each taking `k`
/// inputs) and waits for the boots.
fn admit(n: usize, tenants: &[u8], k: u64, seed: u64, tr: &mut Tracer) -> Result<Admitted, String> {
    let srcs: Vec<String> = (0..3).map(|t| tenant_src(t, k)).collect();
    let base = alloc::live();
    let svc = SessionService::start(ServeConfig {
        workers: 1,
        max_sessions: n,
        // never shed: a refused event is a failed operation
        session_queue_cap: k as usize + 1,
        global_queue_cap: n * (k as usize + 1),
        ..ServeConfig::default()
    });
    let mut ids = Vec::with_capacity(n);
    let t_open = Instant::now();
    for (i, &t) in tenants.iter().enumerate() {
        let traced = (i as u64).is_multiple_of(TRACE_EVERY);
        if traced {
            tr.enter("serve.open_session", i as u64);
        }
        let id = svc.open_session(&srcs[t as usize]);
        if traced {
            tr.exit();
        }
        ids.push(id.map_err(|e| format!("session {i} refused: {e:?}"))?);
    }
    let open_s = t_open.elapsed().as_secs_f64();
    for &id in &ids {
        if !svc.settle(id, Duration::from_secs(30)) {
            return Err(format!("session {} did not boot", id.0));
        }
    }
    let bytes_per_session = alloc::live().saturating_sub(base) as f64 / n as f64;
    let load = Load {
        svc,
        ids,
        tenants: tenants.to_vec(),
        k,
        sent: vec![0; n],
        sums: vec![0; n],
        values: gen::go_values(seed),
        next: 0,
    };
    Ok(Admitted { load, bytes_per_session, open_s })
}

/// Drains the service and checks every session's final status.
fn finish(load: Load, out: &mut Outcome, tr: &mut Tracer) -> ServeStats {
    tr.enter("serve.drain", 0);
    let Load { svc, tenants, k, sent, sums, .. } = load;
    let report = svc.drain(Duration::from_secs(60));
    tr.exit();
    let st = report.stats;
    out.check(report.clean, || "drain was not clean".into());
    out.check(st.crashes() == 0 && st.worker_deaths == 0, || {
        format!("{} sessions evicted, {} workers died", st.crashes(), st.worker_deaths)
    });
    out.check(st.events_shed == 0 && st.sessions_shed == 0, || {
        format!("{} events and {} sessions shed", st.events_shed, st.sessions_shed)
    });
    out.check(report.sessions.len() == tenants.len(), || {
        format!("{} sessions reported", report.sessions.len())
    });
    for (i, s) in report.sessions.iter().enumerate() {
        let want = match tenants[i] {
            0 => sums[i],
            1 => k as i64,
            _ => 20 * k as i64 + 2,
        };
        out.check(s.state == SessionState::Terminated(Some(want)) && sent[i] as u64 == k, || {
            format!(
                "session {i}: {:?} after {} inputs, want Terminated({want}) after {k}",
                s.state, sent[i]
            )
        });
    }
    st
}

/// Logs a phase and counts its refused events as failed operations.
fn account(ph: &Phase, what: &str, out: &mut Outcome) {
    eprintln!(
        "serve {what}: iqm {:.2} us, p99 {:.1} us, {:.2}% of {} sends late",
        iqm(&ph.latencies_us).unwrap_or(0.0),
        quantile(&sorted(&ph.latencies_us), 0.99).unwrap_or(0.0),
        100.0 * ph.late as f64 / ph.sent.max(1) as f64,
        ph.sent
    );
    out.attempted += ph.sent;
    if ph.refused > 0 {
        out.fail_many(ph.refused, format!("{what}: {} events refused", ph.refused));
    }
}

pub fn run(p: &Params, tr: &mut Tracer, out: &mut Outcome) {
    let n = if p.smoke { SMOKE_SESSIONS } else { SESSIONS };
    let tenants = gen::serve_tenants(p.seed, n);
    // The per-layer run's untraced half spends most of its time on the
    // rate ladder.
    let ladder = p.per_layer && !tr.is_on();
    let steady = Params { seconds: if ladder { p.seconds * 0.4 } else { p.seconds }, ..*p };
    let k = rounds_for(steady.seconds / steady.trials() as f64, RATE, n);

    if tr.is_on() {
        // Footprint of one booted tenant machine, averaged over tenants.
        let mut bytes = 0;
        for t in 0..3 {
            match Compiler::new().compile(&tenant_src(t, k)) {
                Ok(prog) => {
                    let prog = Arc::new(prog);
                    let (_, b) = heap_bytes(|| {
                        let mut m = Machine::from_arc(Arc::clone(&prog));
                        m.go_init(&mut NullHost).map(|_| m)
                    });
                    bytes += b;
                }
                Err(e) => out.fail(format!("tenant program: {e}")),
            }
        }
        out.set("runtime.machine_bytes", bytes as f64 / 3.0);
    }

    let mut bytes_per_session = 0.0;
    let mut open_s = Vec::new();
    let (mut allocs, mut sent, mut late) = (0, 0, 0);
    let mut stats = None;
    run_trials(
        &steady,
        out,
        tr,
        |tr| {
            let a = admit(n, &tenants, k, p.seed, tr)?;
            bytes_per_session = a.bytes_per_session;
            open_s.push(a.open_s);
            Ok(a.load)
        },
        |mut load, _, out, tr| {
            let a0 = alloc::allocs();
            tr.enter("benchmark.measure", 0);
            let ph = load.phase(p.seed, RATE, k, tr);
            tr.exit();
            allocs += alloc::allocs() - a0;
            (sent, late) = (sent + ph.sent, late + ph.late);
            account(&ph, &format!("steady {RATE}/s"), out);
            out.unit_us.resize(1, Vec::new());
            out.unit_us[0].extend(ph.latencies_us.chunks(WINDOW).filter_map(median));
            out.op_us.extend(ph.latencies_us);
            stats = Some(finish(load, out, tr));
        },
    );
    out.allocs_per_op = allocs as f64 / sent.max(1) as f64;

    let mut max_rate = 0.0;
    if ladder {
        let rung_s = p.seconds * 0.6 / LADDER.len() as f64;
        let rounds: Vec<u64> = LADDER.iter().map(|&r| rounds_for(rung_s, r, n)).collect();
        match admit(n, &tenants, rounds.iter().sum(), p.seed, tr) {
            Ok(Admitted { mut load, .. }) => {
                for (&rate, &r) in LADDER.iter().zip(&rounds) {
                    let rung = load.phase(p.seed, rate, r, tr);
                    account(&rung, &format!("rung {rate}/s"), out);
                    // a refused event misses every latency limit
                    let mut lat = rung.latencies_us;
                    lat.extend(std::iter::repeat_n(f64::INFINITY, rung.refused as usize));
                    let p99 = quantile(&sorted(&lat), 0.99).unwrap_or(f64::INFINITY);
                    let backlog_pct = 100.0 * rung.backlog as f64 / rung.sent as f64;
                    if p99 <= P99_LIMIT_US && backlog_pct < 1.0 {
                        max_rate = rate;
                    }
                }
                finish(load, out, tr);
            }
            Err(e) => out.fail(e),
        }
    }

    if let Some(st) = stats.filter(|_| p.per_layer) {
        // the worker's log2-bucketed histogram: an upper bound
        let reaction_ns = st.reaction_ns.quantile(0.5) as f64;
        let op_us = iqm(&out.op_us).unwrap_or(0.0);
        let cache = &st.cache;
        out.set(
            "serve.cache_hit_pct",
            100.0 * cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );
        out.set("serve.events_per_epoch", st.events_processed as f64 / st.epochs.max(1) as f64);
        out.set("serve.shed", (st.events_shed + st.sessions_shed) as f64);
        out.set("serve.peak_resident", st.peak_resident as f64);
        out.set("serve.bytes_per_session", bytes_per_session);
        out.set(
            "serve.admit_pct",
            100.0 * median(&open_s).unwrap_or(0.0) / median(&out.setup_s).unwrap_or(f64::NAN),
        );
        out.set("serve.reaction_pct", 100.0 * reaction_ns / (op_us * 1e3).max(1.0));
        out.set("serve.late_send_pct", 100.0 * late as f64 / sent.max(1) as f64);
        if ladder {
            out.set("serve.max_rate", max_rate);
        }
        if tr.is_on() {
            // the sampled `send_event` spans: the client's share of latency
            let send = tr.self_times().get("serve.send_event").copied().unwrap_or_default();
            let send_ns = send.total_ns as f64 / send.count.max(1) as f64;
            out.set("serve.send_pct", 100.0 * send_ns / (op_us * 1e3).max(1.0));
        }
    }
}
