//! serve-load — load and chaos harness for the multi-tenant session
//! service (`ceu-serve`).
//!
//! Two mixes:
//!
//! * **clean** — only healthy tenants, generous limits. Every session must
//!   terminate with its expected value and every supervision counter
//!   (shed / evicted / quarantined / worker deaths) must stay zero.
//! * **chaos** — poison programs (division by zero on input), runaway
//!   loops (admitted via the unchecked compiler, contained by fuel), host
//!   panics (via the `panic_on_call` chaos hook), bursty clients that
//!   overrun the bounded mailboxes, slow clients that hold sessions
//!   resident, and a mass-restart stampede against the backoff policy.
//!   Every *healthy* session must still complete — zero cross-session
//!   propagation, zero worker deaths — while each hostile tenant is
//!   evicted or quarantined with an attributed cause.
//!
//! The chaos mix is additionally run twice with the same seed (without the
//! wall-clock-dependent stampede phase) to verify that fuel-based
//! evictions are bit-identical across reruns.
//!
//! Usage:
//!   serve-load [--quick] [--seed N] [--workers N] [--out PATH]
//!              [--skip-determinism]
//!
//! Results land as `ceu-serve-load/v1` JSON in
//! `target/experiments/serve_load.json` (override with `--out`). Exits
//! non-zero if any assertion fails, so CI can run it directly.

use ceu::Value;
use ceu_serve::{
    AdmitError, EvictCause, RebootPolicy, RestartError, SendError, ServeConfig, ServeStats,
    SessionId, SessionService, SessionState,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// tenant programs
// ---------------------------------------------------------------------------

/// Sums `Go` payloads until ≥ 12 (four `Go(3)`), then returns the total.
const HEALTHY_EVENT: &str = "input int Go;
    int total = 0;
    loop do
        int t = await Go;
        total = total + t;
        if total >= 12 then break; end
    end
    return total;";

/// Counts five 10 ms periods, then returns the count.
const HEALTHY_TIMER: &str = "int n = 0;
    loop do
        await 10ms;
        n = n + 1;
        if n >= 5 then break; end
    end
    return n;";

/// Divides by the `Go` payload — the driver sends 0.
const POISON: &str = "input int Go;
    int acc = 0;
    loop do
        int v = await Go;
        acc = acc + 100 / v;
    end";

/// Host-panic bomb (requires the `panic_on_call = \"chaos_panic\"` hook).
const PANICKER: &str = "input int Go; await Go; _chaos_panic(); return 0;";

/// Spins forever at boot; only the unchecked compiler admits it.
const RUNAWAY_BOOT: &str = "int x = 0; loop do x = x + 1; end";

/// Spins forever on the first `Go`.
const RUNAWAY_EVENT: &str = "input int Go;
    await Go;
    int x = 0;
    loop do x = x + 1; end";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    HealthyEvent,
    HealthyTimer,
    /// HealthyEvent driven with unthrottled bursts (shedding exerciser).
    Burst,
    /// HealthyEvent completed only in the late phase (stays resident).
    Slow,
    Poison,
    Panicker,
    RunawayBoot,
    RunawayEvent,
}

impl Kind {
    fn src(self) -> &'static str {
        match self {
            Kind::HealthyEvent | Kind::Burst | Kind::Slow => HEALTHY_EVENT,
            Kind::HealthyTimer => HEALTHY_TIMER,
            Kind::Poison => POISON,
            Kind::Panicker => PANICKER,
            Kind::RunawayBoot => RUNAWAY_BOOT,
            Kind::RunawayEvent => RUNAWAY_EVENT,
        }
    }
    fn unchecked(self) -> bool {
        matches!(self, Kind::RunawayBoot | Kind::RunawayEvent)
    }
    fn healthy(self) -> bool {
        matches!(self, Kind::HealthyEvent | Kind::HealthyTimer | Kind::Burst | Kind::Slow)
    }
    fn expected_value(self) -> Option<i64> {
        match self {
            Kind::HealthyEvent | Kind::Burst | Kind::Slow => Some(12),
            Kind::HealthyTimer => Some(5),
            _ => None,
        }
    }
    fn name(self) -> &'static str {
        match self {
            Kind::HealthyEvent => "healthy-event",
            Kind::HealthyTimer => "healthy-timer",
            Kind::Burst => "burst",
            Kind::Slow => "slow",
            Kind::Poison => "poison",
            Kind::Panicker => "panicker",
            Kind::RunawayBoot => "runaway-boot",
            Kind::RunawayEvent => "runaway-event",
        }
    }
}

struct Tenant {
    kind: Kind,
    id: SessionId,
}

// ---------------------------------------------------------------------------
// driver helpers
// ---------------------------------------------------------------------------

/// Retries a shed send until accepted — the cooperative client protocol
/// (`Retry-After`). Panics on non-backpressure errors.
fn send_retrying(svc: &SessionService, id: SessionId, event: &str, v: Option<Value>) -> bool {
    loop {
        match svc.send_event(id, event, v.clone()) {
            Ok(()) => return true,
            Err(SendError::Shed { retry_after_us }) => {
                std::thread::sleep(Duration::from_micros(retry_after_us.clamp(50, 2_000)));
            }
            // The session finished or crashed before this send landed —
            // both are terminal outcomes the driver accepts.
            Err(SendError::Terminated) | Err(SendError::Quarantined) => return false,
            Err(e) => panic!("unexpected send error for {id:?}: {e:?}"),
        }
    }
}

fn advance_retrying(svc: &SessionService, id: SessionId, delta_us: u64) -> bool {
    loop {
        match svc.advance_time(id, delta_us) {
            Ok(()) => return true,
            Err(SendError::Shed { retry_after_us }) => {
                std::thread::sleep(Duration::from_micros(retry_after_us.clamp(50, 2_000)));
            }
            Err(SendError::Terminated) | Err(SendError::Quarantined) => return false,
            Err(e) => panic!("unexpected send error for {id:?}: {e:?}"),
        }
    }
}

/// Admits with retry: admission sheds clear as hostile tenants crash out
/// (a crash frees a running slot), so keep triggering and waiting.
fn admit_retrying(svc: &SessionService, kind: Kind, admission_sheds: &mut u64) -> SessionId {
    loop {
        let res = if kind.unchecked() {
            svc.open_session_unchecked(kind.src())
        } else {
            svc.open_session(kind.src())
        };
        match res {
            Ok(id) => return id,
            Err(AdmitError::Shed { retry_after_us }) => {
                *admission_sheds += 1;
                std::thread::sleep(Duration::from_micros(retry_after_us.clamp(100, 5_000)));
            }
            Err(e) => panic!("admission failed for {}: {e:?}", kind.name()),
        }
    }
}

/// Fires the input that makes a hostile tenant crash (runaway-boot needs
/// nothing — its boot reaction is the crash).
fn trigger(svc: &SessionService, t: &Tenant) {
    match t.kind {
        Kind::Poison => {
            send_retrying(svc, t.id, "Go", Some(Value::Int(0)));
        }
        Kind::Panicker | Kind::RunawayEvent => {
            send_retrying(svc, t.id, "Go", Some(Value::Int(1)));
        }
        _ => {}
    }
}

/// Per-session fingerprint of a fuel eviction, for the determinism check.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FuelFingerprint {
    tenant_index: usize,
    kind: &'static str,
    limit: u32,
    reactions: u64,
    events_processed: u64,
}

struct MixOutcome {
    name: &'static str,
    elapsed: Duration,
    tenants: usize,
    admission_sheds: u64,
    burst_sends: u64,
    stats: ServeStats,
    drain_clean: bool,
    healthy_ok: bool,
    fuel_fingerprints: Vec<FuelFingerprint>,
    violations: Vec<String>,
}

struct Scale {
    healthy_event: usize,
    healthy_timer: usize,
    burst: usize,
    slow: usize,
    poison: usize,
    panicker: usize,
    runaway_boot: usize,
    runaway_event: usize,
}

impl Scale {
    fn quick() -> Self {
        Scale {
            healthy_event: 12,
            healthy_timer: 8,
            burst: 4,
            slow: 4,
            poison: 6,
            panicker: 6,
            runaway_boot: 6,
            runaway_event: 6,
        }
    }
    fn full() -> Self {
        Scale {
            healthy_event: 120,
            healthy_timer: 80,
            burst: 16,
            slow: 16,
            poison: 48,
            panicker: 48,
            runaway_boot: 48,
            runaway_event: 48,
        }
    }
    fn population(&self) -> Vec<Kind> {
        let mut v = Vec::new();
        let mut add = |k: Kind, n: usize| v.extend(std::iter::repeat_n(k, n));
        add(Kind::HealthyEvent, self.healthy_event);
        add(Kind::HealthyTimer, self.healthy_timer);
        add(Kind::Burst, self.burst);
        add(Kind::Slow, self.slow);
        add(Kind::Poison, self.poison);
        add(Kind::Panicker, self.panicker);
        add(Kind::RunawayBoot, self.runaway_boot);
        add(Kind::RunawayEvent, self.runaway_event);
        v
    }
}

fn fisher_yates(v: &mut [Kind], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0usize..(i + 1));
        v.swap(i, j);
    }
}

const SETTLE: Duration = Duration::from_secs(20);

// ---------------------------------------------------------------------------
// mixes
// ---------------------------------------------------------------------------

fn run_clean(scale: &Scale, seed: u64, workers: usize) -> MixOutcome {
    let cfg = ServeConfig {
        workers,
        max_sessions: 1 << 20,
        session_queue_cap: 1024,
        global_queue_cap: 1 << 20,
        fuel_limit: Some(200_000),
        ..ServeConfig::default()
    };
    let svc = SessionService::start(cfg);
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    // Clean mix: only the healthy kinds (bursts/slow clients behave too).
    let mut kinds: Vec<Kind> = Vec::new();
    kinds.extend(std::iter::repeat_n(Kind::HealthyEvent, scale.healthy_event + scale.burst));
    kinds.extend(std::iter::repeat_n(Kind::HealthyTimer, scale.healthy_timer + scale.slow));
    fisher_yates(&mut kinds, &mut rng);

    let mut admission_sheds = 0;
    let tenants: Vec<Tenant> = kinds
        .iter()
        .map(|&kind| Tenant { kind, id: admit_retrying(&svc, kind, &mut admission_sheds) })
        .collect();
    for t in &tenants {
        match t.kind {
            Kind::HealthyEvent => {
                for _ in 0..4 {
                    send_retrying(&svc, t.id, "Go", Some(Value::Int(3)));
                }
            }
            Kind::HealthyTimer => {
                for _ in 0..6 {
                    advance_retrying(&svc, t.id, 10_000);
                }
            }
            _ => unreachable!("clean mix only admits healthy tenants"),
        }
    }
    for t in &tenants {
        svc.settle(t.id, SETTLE);
    }
    let report = svc.drain(SETTLE);
    let elapsed = t0.elapsed();

    let mut violations = Vec::new();
    let mut healthy_ok = true;
    for (t, s) in tenants.iter().zip(report.sessions.iter()) {
        let want = SessionState::Terminated(t.kind.expected_value());
        if s.state != want {
            healthy_ok = false;
            violations.push(format!(
                "clean: {} {:?} ended {:?}, want {want:?}",
                t.kind.name(),
                t.id,
                s.state
            ));
        }
    }
    let st = &report.stats;
    for (name, v) in [
        ("events_shed", st.events_shed),
        ("sessions_shed", st.sessions_shed),
        ("crashes", st.crashes()),
        ("worker_deaths", st.worker_deaths),
        ("restarts", st.restarts),
    ] {
        if v != 0 {
            violations.push(format!("clean: {name} = {v}, want 0"));
        }
    }
    if !report.clean {
        violations.push("clean: drain did not quiesce".into());
    }

    MixOutcome {
        name: "clean",
        elapsed,
        tenants: tenants.len(),
        admission_sheds,
        burst_sends: 0,
        stats: report.stats,
        drain_clean: report.clean,
        healthy_ok,
        fuel_fingerprints: Vec::new(),
        violations,
    }
}

struct ChaosOpts {
    stampede: bool,
}

fn run_chaos(scale: &Scale, seed: u64, workers: usize, opts: &ChaosOpts) -> MixOutcome {
    let mut kinds = scale.population();
    let mut rng = StdRng::seed_from_u64(seed);
    fisher_yates(&mut kinds, &mut rng);

    let session_queue_cap = 32usize;
    let cfg = ServeConfig {
        workers,
        // Tight admission cap: ~85% of the population, so the tail of
        // opens is shed and must wait for hostile tenants to crash out.
        max_sessions: (kinds.len() * 17 / 20).max(4),
        session_queue_cap,
        global_queue_cap: 4096,
        fuel_limit: Some(20_000),
        restart_policy: RebootPolicy::Backoff { base_us: 1_000, max_us: 100_000 },
        max_crashes: 4,
        panic_on_call: Some("chaos_panic".into()),
        ..ServeConfig::default()
    };
    let svc = SessionService::start(cfg);
    let t0 = Instant::now();

    // Phase 1: admit everyone (retrying past admission sheds), firing each
    // hostile tenant's trigger as soon as it is resident so crashed slots
    // recycle.
    let mut admission_sheds = 0;
    let mut tenants: Vec<Tenant> = Vec::with_capacity(kinds.len());
    for &kind in &kinds {
        let id = admit_retrying(&svc, kind, &mut admission_sheds);
        let t = Tenant { kind, id };
        trigger(&svc, &t);
        tenants.push(t);
    }

    // Phase 2: bursty clients — unthrottled sends far beyond the mailbox
    // cap; escalate until the service demonstrably shed (it always does on
    // the first volley unless the pool raced the whole burst through).
    let mut burst_sends = 0u64;
    for round in 1..=8u32 {
        for t in tenants.iter().filter(|t| t.kind == Kind::Burst) {
            for _ in 0..session_queue_cap * 3 * round as usize {
                burst_sends += 1;
                match svc.send_event(t.id, "Go", Some(Value::Int(3))) {
                    Ok(()) | Err(SendError::Shed { .. }) => {}
                    Err(SendError::Terminated) => break,
                    Err(e) => panic!("burst send: {e:?}"),
                }
            }
        }
        if svc.stats().events_shed > 0 {
            break;
        }
    }

    // Phase 3: normal traffic for healthy tenants; slow clients get only a
    // partial drip here and stay resident.
    for t in &tenants {
        match t.kind {
            Kind::HealthyEvent => {
                for _ in 0..4 {
                    send_retrying(&svc, t.id, "Go", Some(Value::Int(3)));
                }
            }
            Kind::HealthyTimer => {
                for _ in 0..6 {
                    advance_retrying(&svc, t.id, 10_000);
                }
            }
            Kind::Slow => {
                send_retrying(&svc, t.id, "Go", Some(Value::Int(3)));
            }
            _ => {}
        }
    }

    // Phase 4: let the first wave settle, snapshot the deterministic
    // eviction fingerprints before any wall-clock-dependent phase runs.
    for t in &tenants {
        svc.settle(t.id, SETTLE);
    }
    let mut fuel_fingerprints = Vec::new();
    for (i, t) in tenants.iter().enumerate() {
        let s = svc.status(t.id).expect("session exists");
        if let SessionState::Crashed { cause: EvictCause::Fuel { limit } } = s.state {
            fuel_fingerprints.push(FuelFingerprint {
                tenant_index: i,
                kind: t.kind.name(),
                limit,
                reactions: s.reactions,
                events_processed: s.events_processed,
            });
        }
    }

    // Phase 5 (optional): mass-restart stampede. Every crashed tenant
    // hammers restart; the backoff defers most attempts, then one restart
    // per tenant lands and the hostile programs promptly crash again.
    let mut stampede_deferred = 0u64;
    if opts.stampede {
        let crashed: Vec<usize> = tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                matches!(svc.status(t.id).map(|s| s.state), Some(SessionState::Crashed { .. }))
            })
            .map(|(i, _)| i)
            .collect();
        for &i in &crashed {
            let t = &tenants[i];
            for _ in 0..10 {
                match svc.restart(t.id) {
                    Ok(()) => {
                        // The fresh instance promptly crashes again (the
                        // program is the same), re-arming the backoff, so
                        // the next hammer hits RetryAfter.
                        trigger(&svc, t);
                        svc.settle(t.id, SETTLE);
                    }
                    Err(RestartError::RetryAfter { .. }) => stampede_deferred += 1,
                    Err(RestartError::Refused | RestartError::NotCrashed) => break,
                    Err(e) => panic!("stampede restart: {e:?}"),
                }
            }
            // Leave the tenant crashed: if the last hammer landed a
            // restart mid-backoff-window, wait it out and re-crash.
            while matches!(svc.status(t.id).map(|s| s.state), Some(SessionState::Running)) {
                trigger(&svc, t);
                if !svc.settle(t.id, SETTLE) {
                    break;
                }
                if matches!(svc.status(t.id).map(|s| s.state), Some(SessionState::Running)) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    // Phase 6: finish the slow clients (their sessions were held resident
    // the whole time), then settle everything and drain.
    for t in tenants.iter().filter(|t| t.kind == Kind::Slow) {
        for _ in 0..3 {
            send_retrying(&svc, t.id, "Go", Some(Value::Int(3)));
        }
    }
    for t in &tenants {
        svc.settle(t.id, SETTLE);
    }
    let report = svc.drain(SETTLE);
    let elapsed = t0.elapsed();

    // ---- assertions -------------------------------------------------------
    let mut violations = Vec::new();
    let mut healthy_ok = true;
    let by_id = |id: SessionId| report.sessions.iter().find(|s| s.id == id).unwrap();
    for t in &tenants {
        let s = by_id(t.id);
        if t.kind.healthy() {
            let want = SessionState::Terminated(t.kind.expected_value());
            if s.state != want {
                healthy_ok = false;
                violations.push(format!(
                    "chaos: healthy {} {:?} ended {:?}, want {want:?} — cross-session propagation",
                    t.kind.name(),
                    t.id,
                    s.state
                ));
            }
        } else {
            let want_kind = match t.kind {
                Kind::Poison => "runtime",
                Kind::Panicker => "panic",
                Kind::RunawayBoot | Kind::RunawayEvent => "fuel",
                _ => unreachable!(),
            };
            match &s.state {
                SessionState::Crashed { cause } if cause.kind() == want_kind => {}
                other => violations.push(format!(
                    "chaos: hostile {} {:?} ended {other:?}, want Crashed/{want_kind}",
                    t.kind.name(),
                    t.id
                )),
            }
        }
    }
    let st = &report.stats;
    let hostile_fuel = (scale.runaway_boot + scale.runaway_event) as u64;
    if st.evicted_fuel < hostile_fuel {
        violations
            .push(format!("chaos: evicted_fuel = {}, want ≥ {hostile_fuel}", st.evicted_fuel));
    }
    if st.quarantined_runtime < scale.poison as u64 {
        violations.push(format!(
            "chaos: quarantined_runtime = {}, want ≥ {}",
            st.quarantined_runtime, scale.poison
        ));
    }
    if st.quarantined_panic < scale.panicker as u64 {
        violations.push(format!(
            "chaos: quarantined_panic = {}, want ≥ {}",
            st.quarantined_panic, scale.panicker
        ));
    }
    if st.events_shed == 0 {
        violations.push("chaos: events_shed = 0, bursts must shed".into());
    }
    if st.sessions_shed == 0 {
        violations.push("chaos: sessions_shed = 0, admission cap must shed".into());
    }
    if st.worker_deaths != 0 {
        violations.push(format!("chaos: worker_deaths = {}", st.worker_deaths));
    }
    if opts.stampede && st.restarts == 0 {
        violations.push("chaos: stampede landed no restarts".into());
    }
    if opts.stampede && stampede_deferred + st.restarts_deferred == 0 {
        violations.push("chaos: stampede was never deferred by backoff".into());
    }
    if !report.clean {
        violations.push("chaos: drain did not quiesce".into());
    }

    MixOutcome {
        name: "chaos",
        elapsed,
        tenants: tenants.len(),
        admission_sheds,
        burst_sends,
        stats: report.stats,
        drain_clean: report.clean,
        healthy_ok,
        fuel_fingerprints,
        violations,
    }
}

// ---------------------------------------------------------------------------
// reporting
// ---------------------------------------------------------------------------

fn row_json(o: &MixOutcome, quick: bool, seed: u64, workers: usize) -> String {
    let st = &o.stats;
    let secs = o.elapsed.as_secs_f64().max(1e-9);
    format!(
        concat!(
            "{{\"schema\":\"ceu-serve-load/v1\",\"mix\":\"{}\",\"quick\":{},\"seed\":{},",
            "\"workers\":{},\"tenants\":{},\"sessions_admitted\":{},\"sessions_shed\":{},",
            "\"admission_shed_retries\":{},\"peak_resident\":{},\"events_enqueued\":{},",
            "\"events_processed\":{},\"events_shed\":{},\"events_dropped\":{},",
            "\"burst_sends\":{},\"epochs\":{},\"async_slices\":{},\"evicted_fuel\":{},",
            "\"evicted_watchdog\":{},\"quarantined_runtime\":{},\"quarantined_panic\":{},",
            "\"completed\":{},\"restarts\":{},\"restarts_deferred\":{},\"restarts_refused\":{},",
            "\"worker_deaths\":{},\"cache_misses\":{},\"cache_hits\":{},",
            "\"events_per_sec\":{:.1},\"reaction_p50_ns\":{},\"reaction_p99_ns\":{},",
            "\"reaction_max_ns\":{},\"elapsed_s\":{:.3},\"drain_clean\":{},\"healthy_ok\":{},",
            "\"violations\":{}}}"
        ),
        o.name,
        quick,
        seed,
        workers,
        o.tenants,
        st.sessions_admitted,
        st.sessions_shed,
        o.admission_sheds,
        st.peak_resident,
        st.events_enqueued,
        st.events_processed,
        st.events_shed,
        st.events_dropped,
        o.burst_sends,
        st.epochs,
        st.async_slices,
        st.evicted_fuel,
        st.evicted_watchdog,
        st.quarantined_runtime,
        st.quarantined_panic,
        st.completed,
        st.restarts,
        st.restarts_deferred,
        st.restarts_refused,
        st.worker_deaths,
        st.cache.misses,
        st.cache.hits,
        st.events_processed as f64 / secs,
        st.reaction_ns.quantile(0.50),
        st.reaction_ns.quantile(0.99),
        st.reaction_ns.max,
        secs,
        o.drain_clean,
        o.healthy_ok,
        o.violations.len(),
    )
}

fn main() {
    // The panicker tenants blow up inside caught reactions by design;
    // keep their backtrace spam out of the logs, forward everything else.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().cloned().unwrap_or_else(|| {
            info.payload().downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default()
        });
        if !msg.contains("injected host fault") {
            prev_hook(info);
        }
    }));

    let mut quick = false;
    let mut seed = 42u64;
    let mut workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(4);
    let mut out: Option<std::path::PathBuf> = None;
    let mut check_determinism = true;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => seed = args.next().expect("--seed N").parse().expect("seed"),
            "--workers" => workers = args.next().expect("--workers N").parse().expect("workers"),
            "--out" => out = Some(args.next().expect("--out PATH").into()),
            "--skip-determinism" => check_determinism = false,
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(1);
            }
        }
    }
    let scale = if quick { Scale::quick() } else { Scale::full() };

    println!("serve-load: clean mix ({} workers)…", workers);
    let clean = run_clean(&scale, seed, workers);
    println!(
        "  {} tenants, {:.0} events/s, p99 {} ns, completed {}, violations {}",
        clean.tenants,
        clean.stats.events_processed as f64 / clean.elapsed.as_secs_f64().max(1e-9),
        clean.stats.reaction_ns.quantile(0.99),
        clean.stats.completed,
        clean.violations.len()
    );

    println!("serve-load: chaos mix…");
    let chaos = run_chaos(&scale, seed, workers, &ChaosOpts { stampede: true });
    println!(
        "  {} tenants, peak {} resident, fuel-evicted {}, runtime {}, panic {}, shed {} (+{} admission), restarts {}, violations {}",
        chaos.tenants,
        chaos.stats.peak_resident,
        chaos.stats.evicted_fuel,
        chaos.stats.quarantined_runtime,
        chaos.stats.quarantined_panic,
        chaos.stats.events_shed,
        chaos.stats.sessions_shed,
        chaos.stats.restarts,
        chaos.violations.len()
    );

    // Determinism: the same seed must produce bit-identical fuel-eviction
    // fingerprints (tenant, cause, fuel limit, reaction index, events
    // processed) across reruns. The stampede phase is excluded — restart
    // admission is wall-clock-gated and thus legitimately run-dependent.
    let mut det_identical = true;
    let mut det_fingerprints = 0usize;
    let mut det_violations: Vec<String> = Vec::new();
    if check_determinism {
        println!("serve-load: determinism verify (chaos ×2, same seed)…");
        let a = run_chaos(&scale, seed, workers, &ChaosOpts { stampede: false });
        let b = run_chaos(&scale, seed, workers, &ChaosOpts { stampede: false });
        det_fingerprints = a.fuel_fingerprints.len();
        if a.fuel_fingerprints != b.fuel_fingerprints {
            det_identical = false;
            det_violations.push(format!(
                "determinism: fuel evictions diverged across reruns ({} vs {} fingerprints)",
                a.fuel_fingerprints.len(),
                b.fuel_fingerprints.len()
            ));
            for (x, y) in a.fuel_fingerprints.iter().zip(b.fuel_fingerprints.iter()) {
                if x != y {
                    det_violations.push(format!("  {x:?} != {y:?}"));
                }
            }
        }
        if a.fuel_fingerprints.is_empty() {
            det_identical = false;
            det_violations.push("determinism: no fuel evictions to compare".into());
        }
        det_violations.extend(a.violations.iter().cloned());
        det_violations.extend(b.violations.iter().cloned());
        println!(
            "  {} fingerprints, identical: {}",
            det_fingerprints,
            det_identical && det_violations.is_empty()
        );
    }

    let rows = [row_json(&clean, quick, seed, workers), row_json(&chaos, quick, seed, workers)];
    let doc = format!(
        "{{\"schema\":\"ceu-serve-load/v1\",\"rows\":[{}],\"determinism\":{{\"checked\":{},\"identical\":{},\"fuel_evictions_compared\":{}}}}}\n",
        rows.join(","),
        check_determinism,
        det_identical,
        det_fingerprints
    );
    let out = out.unwrap_or_else(|| {
        let dir = std::path::Path::new("target").join("experiments");
        std::fs::create_dir_all(&dir).expect("create target/experiments");
        dir.join("serve_load.json")
    });
    std::fs::write(&out, &doc).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("results -> {}", out.display());

    let mut all: Vec<&String> = Vec::new();
    all.extend(clean.violations.iter());
    all.extend(chaos.violations.iter());
    all.extend(det_violations.iter());
    if !all.is_empty() {
        eprintln!("serve-load: {} violation(s):", all.len());
        for v in &all {
            eprintln!("  {v}");
        }
        std::process::exit(2);
    }
    println!("serve-load: all assertions held");
}
