//! The supervised multi-tenant session service.
//!
//! One process holds many tenants: each session is a [`Machine`] booted
//! from a cached [`CompiledProgram`] artifact, and a small worker pool
//! multiplexes reaction epochs across all of them. The paper's execution
//! model is what makes this safe — a Céu reaction runs to completion at
//! known suspension points, so a session never needs to be preempted
//! mid-state; the service only has to bound *how much* each reaction may
//! do. Supervision is layered:
//!
//! * **fuel metering** ([`Machine::set_fuel_limit`]) — the one
//!   per-reaction step budget, counted in executed blocks. Exhaustion is a
//!   function of the program and its inputs alone, so evictions reproduce
//!   bit-for-bit across reruns, hosts, and backends.
//! * **admission control and load shedding** — bounded per-session
//!   mailboxes and a bounded global queue; over either limit the send is
//!   refused with an explicit [`SendError::Shed`] carrying a retry hint,
//!   never buffered unboundedly.
//! * **session isolation** — a [`RuntimeError`], fuel exhaustion, or
//!   caught panic moves *that session* to [`SessionState::Crashed`] with
//!   an attributed [`EvictCause`]; the worker thread survives.
//!   Client-requested restarts go through a [`RebootPolicy`] backoff so
//!   a crash-looping tenant cannot hot-spin.
//! * **graceful drain** — [`SessionService::drain`] stops admission,
//!   flushes in-flight epochs, and reports every session's final status.

use crate::cache::{ArtifactCache, CacheStats, CompileRejected};
use ceu::runtime::{panic_message, Histogram, RuntimeError};
use ceu::{CompiledProgram, Host, Machine, Status, Value};
use ceu_ast::EventId;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

pub use wsn_sim::RebootPolicy;

/// Messages a worker takes from one mailbox per epoch (fairness quantum:
/// bigger = better locality, smaller = lower tail latency for
/// neighbours).
const EPOCH_BATCH: usize = 32;

/// `go_async` slices appended to an epoch while the session has runnable
/// asyncs.
const ASYNC_SLICES_PER_EPOCH: u64 = 64;

/// How many consecutive *async-only* epochs a session may self-schedule
/// before it must wait for new client input — stops an async-heavy
/// tenant from monopolising the pool.
const MAX_ASYNC_EPOCHS: u32 = 16;

/// Retry hint attached to `Shed` responses, µs.
const RETRY_AFTER_US: u64 = 2_000;

/// Artifact-cache capacity (distinct programs).
const CACHE_CAPACITY: usize = 1024;

/// Service tuning knobs. The defaults are sized for tests; `serve-load`
/// overrides most of them per mix.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads multiplexing session epochs.
    pub workers: usize,
    /// Admission cap: maximum *running* sessions resident at once.
    pub max_sessions: usize,
    /// Per-session mailbox bound; sends over it are shed.
    pub session_queue_cap: usize,
    /// Global in-flight event bound across all mailboxes.
    pub global_queue_cap: usize,
    /// Deterministic per-reaction step budget. `None` leaves the
    /// runtime's 5,000,000-block safety net, which evicts as
    /// [`EvictCause::Fuel`] with that limit like any other budget.
    pub fuel_limit: Option<u32>,
    /// Backoff schedule for client-requested restarts of crashed
    /// sessions (reused from the WSN fault layer).
    pub restart_policy: RebootPolicy,
    /// Hard cap on restarts per session; beyond it restarts are refused.
    pub max_crashes: u32,
    /// Fault-injection hook: host function name that panics when called
    /// (e.g. `"chaos_panic"` makes `_chaos_panic()` blow up the host).
    /// Exercises the catch-unwind isolation path end to end.
    pub panic_on_call: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_sessions: 4096,
            session_queue_cap: 64,
            global_queue_cap: 8192,
            fuel_limit: Some(200_000),
            restart_policy: RebootPolicy::Backoff { base_us: 1_000, max_us: 1_000_000 },
            max_crashes: 8,
            panic_on_call: None,
        }
    }
}

/// Opaque session handle. Ids are allocated in admission order, so a
/// single-threaded driver gets deterministic ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Why a session was evicted or quarantined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvictCause {
    /// Deterministic fuel exhaustion — the reproducible eviction.
    /// `limit` is the budget that tripped (the safety net's when no
    /// [`ServeConfig::fuel_limit`] is set).
    Fuel { limit: u32 },
    /// The program itself faulted (division by zero, bad host call…).
    Runtime { message: String },
    /// A panic escaped the reaction and was caught at the epoch boundary.
    Panic { message: String },
}

impl EvictCause {
    pub fn kind(&self) -> &'static str {
        match self {
            EvictCause::Fuel { .. } => "fuel",
            EvictCause::Runtime { .. } => "runtime",
            EvictCause::Panic { .. } => "panic",
        }
    }
}

/// Lifecycle state of a session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionState {
    Running,
    /// The program ended on its own (top-level `return`).
    Terminated(Option<i64>),
    /// Evicted/quarantined; restartable subject to the reboot policy.
    Crashed {
        cause: EvictCause,
    },
}

/// Snapshot of one session, as returned by [`SessionService::status`] and
/// in the [`DrainReport`].
#[derive(Clone, Debug)]
pub struct SessionStatus {
    pub id: SessionId,
    pub state: SessionState,
    /// Artifact-cache key of the program this session runs.
    pub program_hash: u64,
    /// Crash count across the session's lifetime (survives restarts).
    pub crashes: u32,
    pub events_processed: u64,
    /// Mailbox messages discarded when the session crashed/terminated.
    pub events_dropped: u64,
    /// `Machine::reactions_started` at last observation — part of the
    /// determinism fingerprint for fuel evictions.
    pub reactions: u64,
    /// Session-local clock, µs.
    pub now_us: u64,
}

/// Admission refusals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// Session cap reached; retry after the hint.
    Shed { retry_after_us: u64 },
    /// Service is draining; no new tenants.
    Draining,
    /// The program does not compile (possibly served from the negative
    /// cache).
    CompileError { message: String, cached: bool },
}

/// Send refusals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendError {
    /// Mailbox or global queue full; retry after the hint.
    Shed {
        retry_after_us: u64,
    },
    /// Session is crashed; `restart` it first.
    Quarantined,
    /// Session already terminated normally.
    Terminated,
    Draining,
    UnknownSession,
    /// Junk event name — refused at the edge, never reaches the machine.
    UnknownEvent(String),
}

/// Restart refusals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestartError {
    /// Backoff window still open; retry after the given µs.
    RetryAfter {
        us: u64,
    },
    /// Policy is `Never` or the crash cap is exhausted.
    Refused,
    NotCrashed,
    UnknownSession,
    Draining,
}

/// Service-wide counters, snapshotted by [`SessionService::stats`] and in
/// the [`DrainReport`].
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    pub sessions_admitted: u64,
    pub sessions_shed: u64,
    pub compile_rejected: u64,
    pub events_enqueued: u64,
    pub events_shed: u64,
    pub events_processed: u64,
    pub events_dropped: u64,
    pub epochs: u64,
    pub async_slices: u64,
    pub evicted_fuel: u64,
    pub quarantined_runtime: u64,
    pub quarantined_panic: u64,
    /// Sessions that reached `Terminated` normally.
    pub completed: u64,
    pub restarts: u64,
    pub restarts_deferred: u64,
    pub restarts_refused: u64,
    pub peak_resident: usize,
    /// Worker threads that died (must stay 0 — isolation is the point).
    pub worker_deaths: u64,
    /// Per-message processing latency, ns.
    pub reaction_ns: Histogram,
    pub cache: CacheStats,
}

impl ServeStats {
    /// Total evictions + quarantines, any cause.
    pub fn crashes(&self) -> u64 {
        self.evicted_fuel + self.quarantined_runtime + self.quarantined_panic
    }
}

/// Final report from [`SessionService::drain`].
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// `true` when every in-flight epoch flushed before the timeout.
    pub clean: bool,
    /// Every session the service ever admitted, in id order.
    pub sessions: Vec<SessionStatus>,
    pub stats: ServeStats,
}

// ---------------------------------------------------------------------------
// internals
// ---------------------------------------------------------------------------

/// Permissive host for tenant programs: host references resolve to inert
/// zeros instead of erroring (tenants are sandboxed — there is no real
/// environment behind `_`), host-pointer cells are per-session scratch
/// memory, and outputs are counted and dropped. One deliberate exception:
/// the configured `panic_on_call` function panics, as the fault-injection
/// hook for the isolation tests.
struct ServeHost {
    panic_on: Option<Arc<str>>,
    cells: HashMap<u64, Value>,
    calls: u64,
    outputs: u64,
}

impl ServeHost {
    fn new(panic_on: Option<Arc<str>>) -> Self {
        ServeHost { panic_on, cells: HashMap::new(), calls: 0, outputs: 0 }
    }
}

impl Host for ServeHost {
    fn call(&mut self, name: &str, _args: &[Value]) -> ceu::runtime::host::HostResult<Value> {
        self.calls += 1;
        if self.panic_on.as_deref() == Some(name) {
            panic!("injected host fault in `_{name}` (chaos hook)");
        }
        Ok(Value::Int(0))
    }
    fn global(&mut self, _name: &str) -> ceu::runtime::host::HostResult<Value> {
        Ok(Value::Int(0))
    }
    fn index(&mut self, _base: &Value, _idx: i64) -> ceu::runtime::host::HostResult<Value> {
        Ok(Value::Int(0))
    }
    fn field(
        &mut self,
        _base: &Value,
        _name: &str,
        _arrow: bool,
    ) -> ceu::runtime::host::HostResult<Value> {
        Ok(Value::Int(0))
    }
    fn deref(&mut self, handle: u64) -> ceu::runtime::host::HostResult<Value> {
        Ok(self.cells.get(&handle).copied().unwrap_or(Value::Int(0)))
    }
    fn store(&mut self, handle: u64, v: Value) -> ceu::runtime::host::HostResult<()> {
        self.cells.insert(handle, v);
        Ok(())
    }
    fn output(
        &mut self,
        _event: &str,
        _value: Option<&Value>,
    ) -> ceu::runtime::host::HostResult<()> {
        self.outputs += 1;
        Ok(())
    }
}

/// A mailbox message. `Boot` is control-plane (does not count against the
/// queue bounds — admission itself is the gate for boots).
enum Msg {
    Boot,
    Event(EventId, Option<Value>),
    /// Advance the session clock by this many µs.
    Time(u64),
}

impl Msg {
    fn counts_against_queues(&self) -> bool {
        !matches!(self, Msg::Boot)
    }
}

/// The machine + host pair a worker checks out to run an epoch.
struct SessionRt {
    machine: Machine,
    host: ServeHost,
}

struct Session {
    prog: Arc<CompiledProgram>,
    program_hash: u64,
    /// `None` while a worker holds it, or once the session crashed or
    /// terminated (the machine is dropped on crash — quarantine frees its
    /// state).
    rt: Option<Box<SessionRt>>,
    mailbox: VecDeque<Msg>,
    state: SessionState,
    /// Queued in `run_queue` or held by a worker. Invariant: a `Running`
    /// session with a non-empty mailbox is always scheduled.
    scheduled: bool,
    crashes: u32,
    crashed_at: Option<Instant>,
    /// Consecutive async-only epochs (fairness guard).
    async_epochs: u32,
    events_processed: u64,
    events_dropped: u64,
    reactions: u64,
    now_us: u64,
}

impl Session {
    fn status(&self, id: SessionId) -> SessionStatus {
        SessionStatus {
            id,
            state: self.state.clone(),
            program_hash: self.program_hash,
            crashes: self.crashes,
            events_processed: self.events_processed,
            events_dropped: self.events_dropped,
            reactions: self.reactions,
            now_us: self.now_us,
        }
    }
}

struct State {
    sessions: HashMap<u64, Session>,
    run_queue: VecDeque<u64>,
    /// Events currently queued across all mailboxes (excludes boots).
    global_queued: usize,
    /// Sessions currently in `SessionState::Running`.
    running: usize,
    /// Workers currently processing an epoch.
    busy: usize,
    /// Workers blocked on `Inner::work`. Changed only under the lock, around
    /// the wait, so a pusher that reads 0 knows no worker can miss its push.
    parked: usize,
    /// Threads blocked on `Inner::quiesced` (`settle`, `drain`), counted
    /// the same way.
    watchers: usize,
    draining: bool,
    shutdown: bool,
    next_id: u64,
    stats: ServeStats,
}

struct Inner {
    cfg: ServeConfig,
    cache: ArtifactCache,
    state: Mutex<State>,
    /// Signalled when `run_queue` gains work or shutdown flips, and only
    /// while a worker is parked on it.
    work: Condvar,
    /// Signalled when an epoch ends (the service or one session may have
    /// gone quiescent), and only while someone watches.
    quiesced: Condvar,
    /// Bumped on every push to `run_queue` and at shutdown. An idle worker
    /// watches it, unlocked, before it parks. It publishes nothing: the
    /// worker re-checks the queue under the lock.
    work_gen: AtomicU64,
    /// `spin_loop` iterations an idle worker watches `work_gen` before it
    /// parks (0 = park at once; see [`wsn_sim::spin_budget`]).
    spin_iters: u32,
    worker_deaths: AtomicU64,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, st: &mut State, id: u64) {
        st.run_queue.push_back(id);
        self.work_gen.fetch_add(1, Ordering::Relaxed);
    }

    /// Schedules session `id` and releases the lock, waking a worker only
    /// if one is parked: the push and the `parked` read share one critical
    /// section with the worker's own empty-queue check.
    fn wake(&self, mut st: MutexGuard<'_, State>, id: u64) {
        self.push(&mut st, id);
        let parked = st.parked > 0;
        drop(st);
        if parked {
            self.work.notify_one();
        }
    }

    /// End of an epoch (or of a skipped one): hands leftover work to a
    /// parked peer, and lets `settle`/`drain` re-check their predicates.
    fn epoch_done(&self, st: &State) {
        if st.parked > 0 && !st.run_queue.is_empty() {
            self.work.notify_one();
        }
        if st.watchers > 0 {
            self.quiesced.notify_all();
        }
    }

    /// Blocks on `quiesced` as a counted watcher.
    fn watch<'a>(&self, mut st: MutexGuard<'a, State>, timeout: Duration) -> MutexGuard<'a, State> {
        st.watchers += 1;
        let (mut st, _) =
            self.quiesced.wait_timeout(st, timeout).unwrap_or_else(PoisonError::into_inner);
        st.watchers -= 1;
        st
    }

    /// Stops the workers after their current epoch: a spinning one sees the
    /// generation move, a parked one is woken.
    fn shut_down(&self, mut st: MutexGuard<'_, State>) {
        st.shutdown = true;
        self.work_gen.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.work.notify_all();
    }
}

/// The service: see the module docs for the supervision model.
pub struct SessionService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl SessionService {
    pub fn start(cfg: ServeConfig) -> Self {
        let n = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            cache: ArtifactCache::new(CACHE_CAPACITY),
            cfg,
            state: Mutex::new(State {
                sessions: HashMap::new(),
                run_queue: VecDeque::new(),
                global_queued: 0,
                running: 0,
                busy: 0,
                parked: 0,
                watchers: 0,
                draining: false,
                shutdown: false,
                next_id: 0,
                stats: ServeStats::default(),
            }),
            work: Condvar::new(),
            quiesced: Condvar::new(),
            work_gen: AtomicU64::new(0),
            spin_iters: wsn_sim::spin_budget(n),
            worker_deaths: AtomicU64::new(0),
        });
        let workers = (0..n)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        SessionService { inner, workers }
    }

    fn make_machine(cfg: &ServeConfig, prog: &Arc<CompiledProgram>) -> Machine {
        let mut m = Machine::from_arc(Arc::clone(prog));
        m.set_fuel_limit(cfg.fuel_limit);
        m
    }

    fn admit(&self, src: &str, unchecked: bool) -> Result<SessionId, AdmitError> {
        // Pre-check the caps before paying for a compile; the authoritative
        // check repeats under the lock after the (lock-free) compile.
        {
            let mut st = self.inner.lock();
            if st.draining {
                return Err(AdmitError::Draining);
            }
            if st.running >= self.inner.cfg.max_sessions {
                st.stats.sessions_shed += 1;
                return Err(AdmitError::Shed { retry_after_us: RETRY_AFTER_US });
            }
        }
        let (hash, prog) = match self.inner.cache.get_or_compile(src, unchecked) {
            Ok(ok) => ok,
            Err(CompileRejected { message, cached }) => {
                self.inner.lock().stats.compile_rejected += 1;
                return Err(AdmitError::CompileError { message, cached });
            }
        };
        let machine = Self::make_machine(&self.inner.cfg, &prog);
        let mut st = self.inner.lock();
        if st.draining {
            return Err(AdmitError::Draining);
        }
        if st.running >= self.inner.cfg.max_sessions {
            st.stats.sessions_shed += 1;
            return Err(AdmitError::Shed { retry_after_us: RETRY_AFTER_US });
        }
        let id = st.next_id;
        st.next_id += 1;
        let host = ServeHost::new(self.inner.cfg.panic_on_call.as_deref().map(Arc::from));
        let mut mailbox = VecDeque::new();
        mailbox.push_back(Msg::Boot);
        st.sessions.insert(
            id,
            Session {
                prog,
                program_hash: hash,
                rt: Some(Box::new(SessionRt { machine, host })),
                mailbox,
                state: SessionState::Running,
                scheduled: true,
                crashes: 0,
                crashed_at: None,
                async_epochs: 0,
                events_processed: 0,
                events_dropped: 0,
                reactions: 0,
                now_us: 0,
            },
        );
        st.running += 1;
        st.stats.sessions_admitted += 1;
        st.stats.peak_resident = st.stats.peak_resident.max(st.running);
        self.inner.wake(st, id);
        Ok(SessionId(id))
    }

    /// Admits a new session for `src`, compiled with the full pipeline
    /// (bounded-execution + determinism analyses). The boot reaction is
    /// queued; it runs on a worker.
    pub fn open_session(&self, src: &str) -> Result<SessionId, AdmitError> {
        self.admit(src, false)
    }

    /// Admits a session compiled with [`Compiler::unchecked`] — the
    /// hostile path that admits statically unbounded programs and relies
    /// on fuel metering to contain them.
    ///
    /// [`Compiler::unchecked`]: ceu::Compiler::unchecked
    pub fn open_session_unchecked(&self, src: &str) -> Result<SessionId, AdmitError> {
        self.admit(src, true)
    }

    /// Queues `msg` under the caller's lock acquisition.
    fn enqueue(
        &self,
        mut st: MutexGuard<'_, State>,
        id: SessionId,
        msg: Msg,
    ) -> Result<(), SendError> {
        let cfg = &self.inner.cfg;
        if st.draining {
            return Err(SendError::Draining);
        }
        // Two-phase borrow: decide, then mutate counters.
        let sess = st.sessions.get(&id.0).ok_or(SendError::UnknownSession)?;
        match &sess.state {
            SessionState::Running => {}
            SessionState::Terminated(_) => return Err(SendError::Terminated),
            SessionState::Crashed { .. } => return Err(SendError::Quarantined),
        }
        // A queued boot does not count: it is always at the front, pushed
        // into an empty mailbox by `admit` or `restart`.
        let queued =
            sess.mailbox.len() - usize::from(matches!(sess.mailbox.front(), Some(Msg::Boot)));
        if queued >= cfg.session_queue_cap || st.global_queued >= cfg.global_queue_cap {
            st.stats.events_shed += 1;
            return Err(SendError::Shed { retry_after_us: RETRY_AFTER_US });
        }
        let counts = msg.counts_against_queues();
        let sess = st.sessions.get_mut(&id.0).expect("checked above");
        sess.mailbox.push_back(msg);
        // Fresh client input re-arms the async self-scheduling allowance.
        sess.async_epochs = 0;
        let need_schedule = !sess.scheduled;
        sess.scheduled = true;
        if counts {
            st.global_queued += 1;
            st.stats.events_enqueued += 1;
        }
        if need_schedule {
            self.inner.wake(st, id.0);
        }
        Ok(())
    }

    /// Queues an external event for the session. The event name is
    /// resolved against the session's program at the edge; junk names are
    /// refused here and never reach the machine.
    pub fn send_event(
        &self,
        id: SessionId,
        event: &str,
        value: Option<Value>,
    ) -> Result<(), SendError> {
        let st = self.inner.lock();
        let sess = st.sessions.get(&id.0).ok_or(SendError::UnknownSession)?;
        let event_id = match sess.prog.events.lookup(event) {
            Some(eid) if sess.prog.events.get(eid).external() => eid,
            _ => return Err(SendError::UnknownEvent(event.to_string())),
        };
        self.enqueue(st, id, Msg::Event(event_id, value))
    }

    /// Queues a session-clock advance of `delta_us` µs (timers fire as
    /// deadlines expire). Each session owns its clock — tenants do not
    /// share time.
    pub fn advance_time(&self, id: SessionId, delta_us: u64) -> Result<(), SendError> {
        self.enqueue(self.inner.lock(), id, Msg::Time(delta_us))
    }

    /// Client-requested restart of a crashed session, gated by the
    /// configured [`RebootPolicy`] backoff and crash cap. On success the
    /// session gets a fresh machine (same cached artifact; quarantine
    /// freed the crashed one, so there is none to reboot) and a queued
    /// boot.
    pub fn restart(&self, id: SessionId) -> Result<(), RestartError> {
        let cfg = &self.inner.cfg;
        let mut st = self.inner.lock();
        if st.draining {
            return Err(RestartError::Draining);
        }
        let sess = st.sessions.get(&id.0).ok_or(RestartError::UnknownSession)?;
        if !matches!(sess.state, SessionState::Crashed { .. }) {
            return Err(RestartError::NotCrashed);
        }
        if sess.crashes >= cfg.max_crashes {
            st.stats.restarts_refused += 1;
            return Err(RestartError::Refused);
        }
        let Some(delay_us) = cfg.restart_policy.delay_for(sess.crashes) else {
            st.stats.restarts_refused += 1;
            return Err(RestartError::Refused);
        };
        let elapsed_us =
            sess.crashed_at.map(|t| t.elapsed().as_micros() as u64).unwrap_or(u64::MAX);
        if elapsed_us < delay_us {
            st.stats.restarts_deferred += 1;
            return Err(RestartError::RetryAfter { us: delay_us - elapsed_us });
        }
        let machine = Self::make_machine(cfg, &st.sessions[&id.0].prog);
        let host = ServeHost::new(cfg.panic_on_call.as_deref().map(Arc::from));
        let sess = st.sessions.get_mut(&id.0).expect("checked above");
        sess.rt = Some(Box::new(SessionRt { machine, host }));
        sess.state = SessionState::Running;
        sess.async_epochs = 0;
        sess.now_us = 0;
        debug_assert!(sess.mailbox.is_empty(), "crash flushes the mailbox");
        sess.mailbox.push_back(Msg::Boot);
        sess.scheduled = true;
        st.running += 1;
        st.stats.restarts += 1;
        st.stats.peak_resident = st.stats.peak_resident.max(st.running);
        self.inner.wake(st, id.0);
        Ok(())
    }

    /// Removes a session (client disconnect). Pending mailbox messages are
    /// dropped and counted.
    pub fn close_session(&self, id: SessionId) -> Option<SessionStatus> {
        let mut st = self.inner.lock();
        let sess = st.sessions.remove(&id.0)?;
        let dropped = sess.mailbox.iter().filter(|m| m.counts_against_queues()).count();
        st.global_queued -= dropped;
        st.stats.events_dropped += dropped as u64;
        if matches!(sess.state, SessionState::Running) {
            st.running -= 1;
        }
        Some(sess.status(id))
    }

    pub fn status(&self, id: SessionId) -> Option<SessionStatus> {
        let st = self.inner.lock();
        st.sessions.get(&id.0).map(|s| s.status(id))
    }

    /// Sessions currently in `Running` state.
    pub fn running(&self) -> usize {
        self.inner.lock().running
    }

    pub fn stats(&self) -> ServeStats {
        let st = self.inner.lock();
        let mut stats = st.stats.clone();
        stats.worker_deaths = self.inner.worker_deaths.load(Ordering::Relaxed);
        stats.cache = self.inner.cache.stats();
        stats
    }

    /// Blocks until the session leaves the scheduler (mailbox empty and
    /// not held by a worker), or the timeout passes. Returns `true` on
    /// quiescence. Test/driver convenience — production clients watch
    /// [`status`](Self::status) instead.
    pub fn settle(&self, id: SessionId, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        loop {
            match st.sessions.get(&id.0) {
                None => return true,
                Some(s) if !s.scheduled && s.mailbox.is_empty() => return true,
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            st = self.inner.watch(st, deadline - now);
        }
    }

    /// Graceful drain: stop admission and sends, flush every in-flight
    /// epoch and queued mailbox, then stop the workers and report each
    /// session's final status. `clean` is `false` if the flush did not
    /// finish inside `timeout` (workers are still stopped — after their
    /// current epoch — and the report reflects whatever state was
    /// reached).
    pub fn drain(mut self, timeout: Duration) -> DrainReport {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        st.draining = true;
        let clean = loop {
            if st.run_queue.is_empty() && st.busy == 0 {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            st = self.inner.watch(st, deadline - now);
        };
        self.inner.shut_down(st);
        for w in self.workers.drain(..) {
            if w.join().is_err() {
                self.inner.worker_deaths.fetch_add(1, Ordering::Relaxed);
            }
        }
        let st = self.inner.lock();
        let mut sessions: Vec<SessionStatus> =
            st.sessions.iter().map(|(id, s)| s.status(SessionId(*id))).collect();
        sessions.sort_by_key(|s| s.id);
        let mut stats = st.stats.clone();
        drop(st);
        stats.worker_deaths = self.inner.worker_deaths.load(Ordering::Relaxed);
        stats.cache = self.inner.cache.stats();
        DrainReport { clean, sessions, stats }
    }
}

impl Drop for SessionService {
    fn drop(&mut self) {
        // Not drained: stop workers hard (after their current epoch).
        if !self.workers.is_empty() {
            let mut st = self.inner.lock();
            st.draining = true;
            st.run_queue.clear();
            self.inner.shut_down(st);
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------------

/// What one epoch did, carried from the unlocked run back under the lock.
struct EpochOutcome {
    rt: Option<Box<SessionRt>>,
    processed_events: u64,
    crash: Option<EvictCause>,
    async_slices: u64,
    async_only: bool,
    /// `Machine::reactions_started` at epoch end — captured even on crash
    /// (the counter read is safe after a caught panic), so a fuel
    /// eviction's fingerprint includes the exact reaction it tripped in.
    reactions: u64,
    now_us: u64,
}

fn classify(err: RuntimeError, machine: &Machine) -> EvictCause {
    if err.fuel {
        EvictCause::Fuel { limit: machine.fuel_limit() }
    } else {
        EvictCause::Runtime { message: err.to_string() }
    }
}

fn apply_msg(rt: &mut SessionRt, msg: &Msg) -> Result<(), RuntimeError> {
    match msg {
        Msg::Boot => rt.machine.go_init(&mut rt.host).map(drop),
        Msg::Event(eid, v) => rt.machine.go_event(*eid, *v, &mut rt.host).map(drop),
        Msg::Time(delta_us) => {
            let target = rt.machine.now().saturating_add(*delta_us);
            rt.machine.go_time(target, &mut rt.host).map(drop)
        }
    }
}

/// Runs the checked-out messages (and a bounded async follow-up) against
/// the machine, catching panics at each step so a blown reaction is a
/// session crash, not a worker death. Each message's run time is appended
/// to `latencies_ns`.
fn run_epoch(mut rt: Box<SessionRt>, msgs: &[Msg], latencies_ns: &mut Vec<u64>) -> EpochOutcome {
    let mut out = EpochOutcome {
        rt: None,
        processed_events: 0,
        crash: None,
        async_slices: 0,
        async_only: msgs.is_empty(),
        reactions: 0,
        now_us: 0,
    };
    for msg in msgs {
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| apply_msg(&mut rt, msg)));
        latencies_ns.push(t0.elapsed().as_nanos() as u64);
        match res {
            Ok(Ok(())) => {
                if msg.counts_against_queues() {
                    out.processed_events += 1;
                }
            }
            Ok(Err(e)) => {
                out.crash = Some(classify(e, &rt.machine));
                break;
            }
            Err(payload) => {
                out.crash = Some(EvictCause::Panic { message: panic_message(&*payload) });
                break;
            }
        }
    }
    if out.crash.is_none() {
        // Bounded async follow-up: asyncs run in slices between epochs,
        // never inside a reaction (the paper's async isolation).
        let res = catch_unwind(AssertUnwindSafe(|| -> Result<u64, RuntimeError> {
            let mut slices = 0u64;
            while slices < ASYNC_SLICES_PER_EPOCH {
                if !rt.machine.go_async(&mut rt.host)? {
                    break;
                }
                slices += 1;
            }
            Ok(slices)
        }));
        match res {
            Ok(Ok(slices)) => out.async_slices = slices,
            Ok(Err(e)) => out.crash = Some(classify(e, &rt.machine)),
            Err(payload) => {
                out.crash = Some(EvictCause::Panic { message: panic_message(&*payload) })
            }
        }
    }
    out.reactions = rt.machine.reactions_started();
    out.now_us = rt.machine.now();
    // On crash the machine is dropped here — quarantine frees its state;
    // only a fresh boot (restart) can revive the session.
    if out.crash.is_none() {
        out.rt = Some(rt);
    }
    out
}

fn worker_loop(inner: &Inner) {
    // Reused by every epoch, so a steady-state epoch allocates nothing.
    let mut msgs: Vec<Msg> = Vec::new();
    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut st = inner.lock();
    loop {
        // Pull the next scheduled session. With none, watch the work
        // generation for a while (the next event is often microseconds
        // away), then park.
        let mut spun = false;
        let id = loop {
            if let Some(id) = st.run_queue.pop_front() {
                break id;
            }
            if st.shutdown {
                return;
            }
            if !spun && inner.spin_iters > 0 {
                spun = true;
                let seen = inner.work_gen.load(Ordering::Relaxed);
                drop(st);
                for _ in 0..inner.spin_iters {
                    if inner.work_gen.load(Ordering::Relaxed) != seen {
                        break;
                    }
                    std::hint::spin_loop();
                }
                st = inner.lock();
                continue;
            }
            st.parked += 1;
            st = inner.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.parked -= 1;
        };
        let Some(sess) = st.sessions.get_mut(&id) else {
            // Closed while queued.
            inner.epoch_done(&st);
            continue;
        };
        let take = sess.mailbox.len().min(EPOCH_BATCH);
        msgs.extend(sess.mailbox.drain(..take));
        let counted = msgs.iter().filter(|m| m.counts_against_queues()).count();
        let Some(rt) = sess.rt.take() else {
            // Defensive: no machine (crash raced the queue). Unschedule and
            // account the messages as dropped.
            let rest = sess.mailbox.drain(..).filter(|m| m.counts_against_queues()).count();
            sess.events_dropped += (counted + rest) as u64;
            sess.scheduled = false;
            st.global_queued -= counted + rest;
            st.stats.events_dropped += (counted + rest) as u64;
            msgs.clear();
            inner.epoch_done(&st);
            continue;
        };
        st.global_queued -= counted;
        st.busy += 1;
        drop(st);

        let out = run_epoch(rt, &msgs, &mut latencies_ns);
        msgs.clear();

        st = inner.lock();
        st.busy -= 1;
        let mut requeue = false;
        // Disjoint field borrows: the session entry and the rest of the
        // scheduler state are updated together below.
        let State { sessions, global_queued, running, draining, stats, .. } = &mut *st;
        stats.epochs += 1;
        stats.events_processed += out.processed_events;
        stats.async_slices += out.async_slices;
        for ns in latencies_ns.drain(..) {
            stats.reaction_ns.record(ns);
        }
        if let Some(sess) = sessions.get_mut(&id) {
            sess.events_processed += out.processed_events;
            match out.crash {
                Some(cause) => {
                    // Quarantine: machine already dropped, flush the
                    // mailbox, attribute the cause.
                    let dropped =
                        sess.mailbox.drain(..).filter(|m| m.counts_against_queues()).count();
                    sess.events_dropped += dropped as u64;
                    sess.crashes += 1;
                    sess.crashed_at = Some(Instant::now());
                    sess.scheduled = false;
                    match &cause {
                        EvictCause::Fuel { .. } => stats.evicted_fuel += 1,
                        EvictCause::Runtime { .. } => stats.quarantined_runtime += 1,
                        EvictCause::Panic { .. } => stats.quarantined_panic += 1,
                    }
                    sess.reactions = out.reactions;
                    sess.now_us = out.now_us;
                    sess.state = SessionState::Crashed { cause };
                    *running -= 1;
                    *global_queued -= dropped;
                    stats.events_dropped += dropped as u64;
                }
                None => {
                    let rt = out.rt.expect("no crash implies machine survives");
                    sess.reactions = out.reactions;
                    sess.now_us = out.now_us;
                    if let Status::Terminated(v) = rt.machine.status() {
                        let dropped =
                            sess.mailbox.drain(..).filter(|m| m.counts_against_queues()).count();
                        sess.events_dropped += dropped as u64;
                        sess.state = SessionState::Terminated(v);
                        sess.scheduled = false;
                        // Machine state is gone on purpose: a terminated
                        // session holds only its status line.
                        *running -= 1;
                        stats.completed += 1;
                        *global_queued -= dropped;
                        stats.events_dropped += dropped as u64;
                    } else {
                        let has_async = rt.machine.has_runnable_async();
                        sess.rt = Some(rt);
                        if out.async_only {
                            sess.async_epochs += 1;
                        }
                        // Async-driven self-scheduling is bounded so one
                        // async-heavy tenant cannot monopolise the pool.
                        requeue = !sess.mailbox.is_empty()
                            || (has_async && !*draining && sess.async_epochs < MAX_ASYNC_EPOCHS);
                        sess.scheduled = requeue;
                    }
                }
            }
        }
        // else: session closed while we ran its epoch; drop the machine.
        if requeue {
            inner.push(&mut st, id);
        }
        inner.epoch_done(&st);
    }
}
