//! The discrete-event wireless-sensor-network simulator.
//!
//! Substitutes for the paper's micaz testbed (see DESIGN.md): a virtual
//! clock in microseconds, motes with pluggable application backends, and a
//! radio medium with per-link latency and loss. The paper's own argument
//! (§2.8) justifies the substitution — a reactive program's behaviour
//! depends only on the order of its input events.
//!
//! The event core is **sharded** (see [`crate::shard`]): motes are
//! partitioned along the radio topology into shards, each owning its own
//! [`EventHeap`] and its motes' hot state as struct-of-arrays. Both
//! steppers run every mote event through the same shard routines
//! (`Shard::fire`, `Shard::run_callback`), which leave the effects on
//! shared state — sends, crash world-effects — for the world. The
//! sequential stepper, the reference, takes one event at a time from the
//! global head and applies its effects at once; the parallel stepper
//! checks whole shards out to a persistent worker pool
//! ([`crate::pool`]), each running to its own per-shard lookahead bound,
//! and applies their effects through the same replay
//! (`flush_merge_actions`) once nothing earlier can still appear.

use crate::faults::{FaultAction, FaultEntry, FaultPlan, RebootPolicy};
use crate::parstats::{ParStats, ParWindowStats, DEFAULT_WINDOW_CAP, SEND_SAMPLE_CAP};
use crate::pool::{JobOut, ShardJob, WorkerPool};
use crate::radio::{Packet, Radio, RadioStats};
use crate::sched::EventHeap;
use crate::shard::{Callback, Shard, ShardPlan, DEFAULT_TARGET_SHARDS};
use ceu::ast::Span;
use ceu::runtime::telemetry::{blackbox_dump, to_json, BlackboxHeader, BlackboxStat};
use ceu::runtime::{CrashKind, FlightRecord, FlightRecorder, RuntimeError, TraceEvent};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Node id within a network.
pub type MoteId = usize;

/// Why a mote crashed: classification, human-readable message, and the
/// source position of the failing statement (when the machine knows it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashCause {
    pub kind: CrashKind,
    pub message: String,
    pub span: Span,
}

impl CrashCause {
    /// Classifies a machine error (an exhausted reaction budget vs a
    /// program error).
    pub fn from_error(e: &RuntimeError) -> Self {
        CrashCause {
            kind: if e.fuel { CrashKind::Watchdog } else { CrashKind::RuntimeError },
            message: e.message.clone(),
            span: e.span,
        }
    }

    /// A deliberate fault-plan crash.
    pub fn injected() -> Self {
        CrashCause {
            kind: CrashKind::FaultInjected,
            message: "fault plan took the mote down".into(),
            span: Span::default(),
        }
    }
}

impl std::fmt::Display for CrashCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {}: {}", self.kind, self.span, self.message)
    }
}

/// Whether a mote is running or crashed (graceful degradation: a failing
/// machine takes its mote down, never the process).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum MoteStatus {
    #[default]
    Up,
    /// The mote went down at virtual time `at` for `cause`. It drops all
    /// traffic, timers and CPU slices until a reboot (if any) revives it.
    Crashed { at: u64, cause: CrashCause },
}

impl MoteStatus {
    pub fn is_up(&self) -> bool {
        matches!(self, MoteStatus::Up)
    }
}

/// Writes a merged world trace as JSONL, one [`FlightRecord`] per line:
/// `{"t_us":N,"mote":M,"seq":S,"ev":{…}}`.
///
/// The unified world trace is the observability spine of the simulator:
/// every mote's machine-level trace (reactions, tracks, gates, emits),
/// stamped with the virtual time of the callback that produced it, the
/// mote, and its per-mote emission index `seq` (1-based), wall-clock
/// fields normalised to zero. [`World::take_trace`] orders the stream by
/// `(t_us, mote, seq)`. Because each mote sees the identical callback
/// sequence under [`World::run_until`] and [`World::run_until_parallel`]
/// (any thread count), the merged stream is bit-identical across all of
/// them.
pub fn write_trace_jsonl<W: std::io::Write>(
    events: &[FlightRecord],
    mut w: W,
) -> std::io::Result<()> {
    for e in events {
        writeln!(w, "{}", to_json(e))?;
    }
    Ok(())
}

/// What a scheduled simulation event does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fire {
    /// Deliver a packet to a mote's radio.
    Deliver { to: MoteId, packet: Packet },
    /// A mote's requested timer expires.
    Timer { mote: MoteId },
    /// Grant a CPU slice to a mote (long computations / threads).
    Cpu { mote: MoteId },
    /// Apply the fault-plan entry at this index. A *world event*: it
    /// mutates shared state (radio, mote status), so the parallel stepper
    /// treats it as a barrier between windows — which is exactly what
    /// makes fault timing identical at any thread count.
    Fault { index: usize },
    /// Restart a crashed mote (world event / barrier, like `Fault`).
    Reboot { mote: MoteId },
}

/// World events mutate shared state and therefore never run inside a
/// parallel worker window; they live in the world's own queue, not in any
/// shard heap.
pub(crate) fn is_world_fire(f: &Fire) -> bool {
    matches!(f, Fire::Fault { .. } | Fire::Reboot { .. })
}

/// The mote a firing is addressed to — `None` for world events.
fn dest_mote(f: &Fire) -> Option<MoteId> {
    match f {
        Fire::Deliver { to, .. } => Some(*to),
        Fire::Timer { mote } | Fire::Cpu { mote } => Some(*mote),
        Fire::Fault { .. } | Fire::Reboot { .. } => None,
    }
}

/// Events at equal virtual times fire in *lane* order: world events
/// (faults, reboots) first, then motes by id. This is the same canonical
/// `(time, mote, emission)` order the parallel merge applies, which is
/// what makes [`World::run_until`] and [`World::run_until_parallel`]
/// bit-identical even when same-instant events land on different motes.
/// Because lane 0 produces the smallest keys at any time, a min-scan over
/// the world queue and the shard heaps reproduces the exact single-heap
/// order.
fn lane_of(f: &Fire) -> u64 {
    match f {
        Fire::Fault { .. } | Fire::Reboot { .. } => 0,
        Fire::Deliver { to, .. } => *to as u64 + 1,
        Fire::Timer { mote } | Fire::Cpu { mote } => *mote as u64 + 1,
    }
}

/// The intra-lane class: packet deliveries land *before* timer/CPU
/// callbacks at the same instant for the same mote. Without this bit the
/// tie would fall to the scheduling counter — which the sequential
/// stepper assigns at transmit time but the parallel merge can only
/// assign after the window's workers have consumed theirs, so the two
/// paths could order a same-instant Timer/Deliver collision differently.
/// A fixed semantic rule costs one key bit and removes the dependence.
fn kind_of(f: &Fire) -> u64 {
    match f {
        Fire::Deliver { .. } | Fire::Fault { .. } | Fire::Reboot { .. } => 0,
        Fire::Timer { .. } | Fire::Cpu { .. } => 1,
    }
}

/// Packs `(lane, kind, seq)` into the event heap's one-word tie-breaker:
/// lane in the high bits, the delivery-before-timer class bit next, the
/// monotone scheduling counter in the low 40 (room for ~10¹² events and
/// ~8M motes — far beyond any simulated world).
pub(crate) fn order_key(lane: u64, kind: u64, seq: u64) -> u64 {
    debug_assert!(lane < 1 << 23 && kind < 2 && seq < 1 << 40);
    (lane << 41) | (kind << 40) | seq
}

/// The mote-local (drifted) view of world time `t` under `ppm` skew.
pub(crate) fn skewed(t: u64, ppm: i64) -> u64 {
    if ppm == 0 {
        return t;
    }
    let adj = (t as i128 * ppm as i128) / 1_000_000;
    (t as i128 + adj).max(0) as u64
}

/// Inverse of [`skewed`]: the earliest world time at which the mote's
/// local clock has reached `local`. The floor estimate is corrected
/// upward until `skewed(w) >= local` — if the returned time fell short
/// (integer rounding), the timer gate would not fire and the mote would
/// re-arm the identical request at the same instant forever.
pub(crate) fn unskew(local: u64, ppm: i64) -> u64 {
    if ppm == 0 {
        return local;
    }
    let denom = 1_000_000i128 + ppm as i128;
    if denom <= 0 {
        return local; // a -1e6 ppm clock never advances; don't divide by ≤0
    }
    let mut w = ((local as i128 * 1_000_000) / denom).max(0) as u64;
    while skewed(w, ppm) < local {
        let deficit = (local - skewed(w, ppm)) as i128;
        w += ((deficit * 1_000_000) / denom).max(1) as u64;
    }
    w
}

/// The environment handle passed to application backends.
pub struct MoteCtx<'w> {
    pub id: MoteId,
    pub now: u64,
    /// LED state (bitmask) plus toggle history, recorded by the harnesses.
    pub leds: &'w mut Leds,
    /// Packets to transmit, collected after the callback returns. Borrows
    /// the owning shard's persistent outbox, like `vm_events`, so sending
    /// is allocation-free in steady state.
    pub outbox: &'w mut Vec<(MoteId, Packet)>,
    /// Absolute time of the next timer callback this mote wants (if any).
    pub timer_request: Option<u64>,
    /// Whether this mote wants CPU slices (long computations pending).
    pub wants_cpu: bool,
    /// Machine-level trace events produced during this callback; drained
    /// into the unified world trace (see [`write_trace_jsonl`]) after the
    /// callback returns. Backends that don't trace leave it empty. Borrows
    /// the owning shard's persistent scratch buffer, so per-callback
    /// draining is allocation-free in steady state.
    pub vm_events: &'w mut Vec<TraceEvent>,
    /// Set via [`MoteCtx::fail`]: the backend's machine failed and the
    /// mote should crash instead of aborting the process.
    failure: Option<CrashCause>,
}

impl<'w> MoteCtx<'w> {
    /// A fresh context for one callback (see `Shard::run_callback`).
    pub(crate) fn new(
        id: MoteId,
        now: u64,
        leds: &'w mut Leds,
        outbox: &'w mut Vec<(MoteId, Packet)>,
        vm_events: &'w mut Vec<TraceEvent>,
    ) -> MoteCtx<'w> {
        MoteCtx {
            id,
            now,
            leds,
            outbox,
            timer_request: None,
            wants_cpu: false,
            vm_events,
            failure: None,
        }
    }

    pub fn send(&mut self, to: MoteId, packet: Packet) {
        self.outbox.push((to, packet));
    }

    pub fn set_timer_at(&mut self, at: u64) {
        self.timer_request = Some(match self.timer_request {
            Some(t) => t.min(at),
            None => at,
        });
    }

    /// Reports that the backend failed mid-callback (a machine
    /// `RuntimeError`, an exhausted reaction budget). The world transitions the mote
    /// to [`MoteStatus::Crashed`] after the callback returns — graceful
    /// degradation instead of a panic. The failing callback's pending
    /// effects (sends, timer/CPU requests) are discarded; trace events
    /// produced before the failure are kept. The first failure wins.
    pub fn fail(&mut self, cause: CrashCause) {
        if self.failure.is_none() {
            self.failure = Some(cause);
        }
    }

    /// Whether [`fail`](Self::fail) was called during this callback.
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }

    /// Takes the recorded failure (world/shard effect application).
    pub(crate) fn take_failure(&mut self) -> Option<CrashCause> {
        self.failure.take()
    }
}

/// LED state with a full toggle history (timestamps in µs) — the
/// measurement surface of the blink-synchronization experiment.
#[derive(Clone, Debug, Default)]
pub struct Leds {
    pub state: u8,
    /// `(time, led, new_state)` for every change.
    pub history: Vec<(u64, u8, bool)>,
}

impl Leds {
    pub fn set_mask(&mut self, now: u64, mask: u8) {
        for led in 0..3 {
            let new = mask & (1 << led) != 0;
            let old = self.state & (1 << led) != 0;
            if new != old {
                self.history.push((now, led, new));
            }
        }
        self.state = mask;
    }

    pub fn toggle(&mut self, now: u64, led: u8) {
        let new = self.state & (1 << led) == 0;
        self.state ^= 1 << led;
        self.history.push((now, led, new));
    }

    /// Times at which the given led switched on.
    pub fn on_times(&self, led: u8) -> Vec<u64> {
        self.history.iter().filter(|(_, l, on)| *l == led && *on).map(|(t, _, _)| *t).collect()
    }
}

/// An application running on a mote. Backends: Céu machines, event-driven
/// (nesC-analog) handlers, preemptive-thread (MantisOS-analog) schedulers.
///
/// `Send` so the world can step disjoint shards on worker threads
/// ([`World::run_until_parallel`]); every backend is still only ever
/// called from one thread at a time.
pub trait Backend: Send {
    /// Called once at virtual time zero.
    fn boot(&mut self, ctx: &mut MoteCtx);
    /// A packet arrived (already past the radio medium).
    fn deliver(&mut self, ctx: &mut MoteCtx, packet: Packet);
    /// The previously requested timer fired.
    fn timer(&mut self, ctx: &mut MoteCtx);
    /// One CPU slice was granted; runs a bounded amount of computation.
    fn cpu(&mut self, ctx: &mut MoteCtx);
    /// Restart after a crash: come back as a freshly-booted instance with
    /// full state loss. The default boots again without resetting state;
    /// stateful backends override it (see `CeuMote`, which resets its
    /// machine to the boot image).
    fn reboot(&mut self, ctx: &mut MoteCtx) {
        self.boot(ctx)
    }
}

/// Simulation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Stats {
    pub delivered: u64,
    pub lost: u64,
    pub cpu_slices: u64,
    /// Packets the medium had accepted that were discarded at arrival
    /// time because the destination had crashed or powered off while the
    /// packet was in flight.
    pub dropped_in_flight: u64,
}

/// Per-mote statistics (the network-wide aggregates live in [`Stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct MoteStats {
    /// Packets handed to the radio medium.
    pub sent: u64,
    /// Packets delivered to this mote.
    pub received: u64,
    /// Packets this mote sent that the medium dropped (loss, partition,
    /// or a downed endpoint).
    pub lost: u64,
    /// Packets addressed to this mote that were discarded at arrival
    /// because it was down when they landed (in-flight drops).
    pub dropped_in_flight: u64,
    /// Timer callbacks delivered.
    pub timer_firings: u64,
    /// CPU slices granted.
    pub cpu_slices: u64,
    /// Times this mote crashed (runtime error, exhausted budget, or fault
    /// plan).
    pub crashes: u64,
    /// Times this mote rebooted after a crash.
    pub reboots: u64,
}

/// The world-level counters ([`World::metrics`]); serializes as
/// `{"now_us",…,"crashes","reboots","radio":{…},"motes":[…]}`.
#[derive(Serialize)]
pub struct WorldMetrics<'a> {
    pub now_us: u64,
    #[serde(flatten)]
    pub stats: &'a Stats,
    pub crashes: u64,
    pub reboots: u64,
    pub radio: &'a RadioStats,
    pub motes: Vec<MoteMetrics>,
}

/// One mote's row of [`WorldMetrics`].
#[derive(Serialize)]
pub struct MoteMetrics {
    pub mote: MoteId,
    pub up: bool,
    #[serde(flatten)]
    pub stats: MoteStats,
}

// Fallbacks for accessors on motes that are staged but not yet sharded
// (`static`, not `const`-behind-a-reference: `Leds` holds a `Vec`, which
// a promoted `&CONST` would reject).
static EMPTY_LEDS: Leds = Leds { state: 0, history: Vec::new() };
static ZERO_STATS: MoteStats = MoteStats {
    sent: 0,
    received: 0,
    lost: 0,
    dropped_in_flight: 0,
    timer_firings: 0,
    cpu_slices: 0,
    crashes: 0,
    reboots: 0,
};
static STATUS_UP: MoteStatus = MoteStatus::Up;

/// The network simulator.
pub struct World {
    now: u64,
    seq: u64,
    /// Pending *world events* only (faults, reboots) — lane 0, so its
    /// keys sort before any mote event at the same time. Mote-addressed
    /// firings live in their shard's heap.
    world_queue: EventHeap<Fire>,
    /// The sharded event core: every built mote's state and pending
    /// events live in exactly one shard (see [`crate::shard`]).
    shards: Vec<Shard>,
    /// Mote id → owning shard, for the built roster.
    mote_shard: Vec<u32>,
    /// Motes added since the last (re)shard; folded in by `ensure_shards`.
    staged: Vec<Box<dyn Backend>>,
    /// Set by [`World::set_target_shards`]: rebuild the plan next run.
    plan_stale: bool,
    /// How many shards to aim for when partitioning.
    target_shards: usize,
    /// Largest per-shard lookahead — the reboot-delay clamp (see
    /// [`World::effective_reboot_delay`]).
    max_lookahead_us: u64,
    /// Persistent shard workers, created lazily by the first parallel run
    /// and kept parked between windows (and between runs).
    pool: Option<WorkerPool>,
    pub radio: Radio,
    /// Virtual CPU cost of one granted slice (µs).
    pub cpu_slice_us: u64,
    pub stats: Stats,
    /// Unified world trace (when enabled). The shards collect their own
    /// slices as callbacks run (see [`Shard::trace`]); this holds the
    /// slices of shards retired by a reshard until [`World::take_trace`]
    /// merges everything into canonical order.
    trace: Option<Vec<FlightRecord>>,
    /// Shard effects not yet applied: sends and crash world-effects,
    /// replayed in canonical order by `flush_merge_actions` (at once after
    /// a sequential step; once nothing earlier can appear after a window).
    pending_sends: Vec<(u64, MoteId, usize, MoteId, Packet)>,
    pending_crashes: Vec<(u64, MoteId, usize)>,
    /// Fault-plan entries, indexed by [`Fire::Fault`]. Append-only so the
    /// indices stay stable across multiple [`World::set_fault_plan`] calls.
    fault_entries: Vec<FaultEntry>,
    /// What happens after a crash (applies to machine crashes; plan-driven
    /// `Reboot` actions carry their own delay).
    reboot_policy: RebootPolicy,
    /// Parallel-scheduler introspection (`ceu-par-stats/v2`): per-window
    /// stall attribution and per-shard aggregates collected by
    /// [`World::run_until_parallel`] when enabled via
    /// [`World::enable_par_stats`]. `None` costs nothing on the stepping
    /// paths.
    par_stats: Option<ParStats>,
    /// Per-shard flight-recorder ring capacity (0 = recorder off). The
    /// recorders themselves live in the shards (see [`Shard::recorder`])
    /// so recording never crosses a shard boundary.
    recorder_capacity: usize,
    /// Where crash black-box dumps land (`ceu-blackbox/v1` JSONL). Dumps
    /// fire on mote crashes and worker panics when both this and the
    /// recorder are configured; each dump overwrites the previous one, so
    /// the file always describes the most recent crash.
    blackbox_out: Option<PathBuf>,
}

impl World {
    pub fn new(radio: Radio) -> Self {
        World {
            now: 0,
            seq: 0,
            world_queue: EventHeap::new(),
            shards: Vec::new(),
            mote_shard: Vec::new(),
            staged: Vec::new(),
            plan_stale: false,
            target_shards: DEFAULT_TARGET_SHARDS,
            max_lookahead_us: 0,
            pool: None,
            radio,
            cpu_slice_us: 100,
            stats: Stats::default(),
            trace: None,
            pending_sends: Vec::new(),
            pending_crashes: Vec::new(),
            fault_entries: Vec::new(),
            reboot_policy: RebootPolicy::default(),
            par_stats: None,
            recorder_capacity: 0,
            blackbox_out: None,
        }
    }

    pub fn now(&self) -> u64 {
        self.now
    }

    /// Switches on the unified world trace. Backends must also surface
    /// their machine traces through [`MoteCtx::vm_events`] (for Céu motes,
    /// `CeuMote::enable_trace`).
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
        for shard in &mut self.shards {
            shard.trace.get_or_insert_with(Vec::new);
        }
    }

    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Takes the merged world trace collected so far, in the canonical
    /// deterministic order `(t_us, mote, seq)`. Tracing stays
    /// enabled; subsequent events start a fresh buffer.
    pub fn take_trace(&mut self) -> Vec<FlightRecord> {
        let Some(retired) = self.trace.as_mut() else { return Vec::new() };
        let mut events = std::mem::take(retired);
        for shard in &mut self.shards {
            events.append(shard.trace.as_mut().expect("tracing shards"));
        }
        events.sort_by_key(|e| (e.t_us, e.mote, e.seq));
        events
    }

    /// Switches on parallel-scheduler introspection: subsequent
    /// [`run_until_parallel`](World::run_until_parallel) calls record one
    /// [`ParWindowStats`] per window (stall attribution, per-worker load,
    /// heap traffic, per-shard aggregates) into a bounded collector.
    /// Collection never alters scheduling decisions, so the simulation —
    /// and its world trace — stays bit-identical with stats on or off, at
    /// any thread count.
    pub fn enable_par_stats(&mut self) {
        if self.par_stats.is_none() {
            self.par_stats = Some(ParStats::new(DEFAULT_WINDOW_CAP));
        }
    }

    pub fn par_stats_enabled(&self) -> bool {
        self.par_stats.is_some()
    }

    /// The stats collected so far (None until [`World::enable_par_stats`]).
    pub fn par_stats(&self) -> Option<&ParStats> {
        self.par_stats.as_ref()
    }

    /// Takes the collected parallel-scheduler stats; collection stays
    /// enabled and restarts fresh.
    pub fn take_par_stats(&mut self) -> Option<ParStats> {
        let taken = self.par_stats.take();
        if taken.is_some() {
            self.par_stats = Some(ParStats::new(DEFAULT_WINDOW_CAP));
        }
        taken
    }

    /// Switches on the always-on flight recorder: every shard keeps a
    /// fixed-capacity ring of the last `capacity` interesting trace
    /// events (reaction boundaries, emits, crashes — see
    /// [`FlightRecorder::wants`]) plus scheduler window marks. Unlike the
    /// full world trace this is bounded memory and cheap enough to leave
    /// on for million-mote runs; on a crash the rings feed the
    /// `ceu-blackbox/v1` dump (see [`World::set_blackbox_out`]).
    /// Recorded content is bit-identical between [`World::run_until`] and
    /// [`World::run_until_parallel`] at any thread count. Céu motes must
    /// also surface machine traces (`CeuMote::enable_trace`), exactly as
    /// for the full world trace.
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        self.recorder_capacity = capacity.max(1);
        for shard in &mut self.shards {
            match &mut shard.recorder {
                Some(_) => {} // keep contents; capacity changes apply at reshard
                none => *none = Some(FlightRecorder::new(self.recorder_capacity)),
            }
        }
    }

    pub fn flight_recorder_enabled(&self) -> bool {
        self.recorder_capacity > 0
    }

    /// Where crash black-box dumps land. Setting a path arms automatic
    /// dumps on mote crashes, exhausted budgets and parallel-worker panics
    /// (the recorder must be on for a dump to carry any history).
    pub fn set_blackbox_out(&mut self, path: impl Into<PathBuf>) {
        self.blackbox_out = Some(path.into());
    }

    /// Every live flight-recorder record, merged across shards into the
    /// canonical `(t_us, mote, seq)` order (same order as the world
    /// trace). Empty when the recorder is off.
    pub fn flight_records(&self) -> Vec<FlightRecord> {
        let mut out: Vec<FlightRecord> = self
            .shards
            .iter()
            .filter_map(|s| s.recorder.as_ref())
            .flat_map(|r| r.iter().copied())
            .collect();
        out.sort_by_key(|r| (r.t_us, r.mote, r.seq));
        out
    }

    /// `(live records, total capacity, dropped)` summed across shards —
    /// the ring-occupancy line item of the soak heartbeat. `None` when
    /// the recorder is off.
    pub fn flight_recorder_stats(&self) -> Option<(usize, usize, u64)> {
        if self.recorder_capacity == 0 {
            return None;
        }
        let mut live = 0usize;
        let mut cap = 0usize;
        let mut dropped = 0u64;
        for rec in self.shards.iter().filter_map(|s| s.recorder.as_ref()) {
            live += rec.len();
            cap += rec.capacity();
            dropped += rec.dropped();
        }
        Some((live, cap, dropped))
    }

    /// The world-level counters: network aggregates, radio-medium drop
    /// reasons, crash/reboot totals, and the per-mote packet/timer/fault
    /// stats. Drivers merge this with the machine metrics and scheduler
    /// stats into one `--metrics-out` file.
    pub fn metrics(&self) -> WorldMetrics<'_> {
        let motes: Vec<MoteMetrics> = (0..self.mote_count())
            .map(|mote| {
                let (up, stats) = match self.mote_loc(mote) {
                    Some((s, l)) => (self.shards[s].status[l].is_up(), self.shards[s].stats[l]),
                    None => (true, MoteStats::default()),
                };
                MoteMetrics { mote, up, stats }
            })
            .collect();
        WorldMetrics {
            now_us: self.now,
            stats: &self.stats,
            crashes: motes.iter().map(|m| m.stats.crashes).sum(),
            reboots: motes.iter().map(|m| m.stats.reboots).sum(),
            radio: &self.radio.stats,
            motes,
        }
    }

    /// [`World::metrics`] as one JSON object (stable key order).
    pub fn metrics_json(&self) -> String {
        to_json(&self.metrics())
    }

    pub fn add_mote(&mut self, backend: Box<dyn Backend>) -> MoteId {
        let id = self.mote_shard.len() + self.staged.len();
        self.staged.push(backend);
        id
    }

    /// Built + staged motes.
    pub fn mote_count(&self) -> usize {
        self.mote_shard.len() + self.staged.len()
    }

    /// How many shards the current plan holds (0 before the first run).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Sets the shard-count target; the roster is re-partitioned at the
    /// next `boot`/`run_until*` call. Resharding migrates every pending
    /// event with its original scheduling key, so the simulated behaviour
    /// is unchanged — only the parallel work units move.
    pub fn set_target_shards(&mut self, target: usize) {
        self.target_shards = target.max(1);
        self.plan_stale = true;
    }

    /// `(shard, local index)` for a built mote.
    #[inline]
    fn loc(&self, mote: MoteId) -> (usize, usize) {
        let s = self.mote_shard[mote] as usize;
        (s, mote - self.shards[s].base)
    }

    /// `(shard, local index)` for a built mote; `None` while it is still
    /// staged. Panics for ids the world has never seen.
    fn mote_loc(&self, mote: MoteId) -> Option<(usize, usize)> {
        if mote < self.mote_shard.len() {
            Some(self.loc(mote))
        } else {
            assert!(
                mote < self.mote_count(),
                "mote {mote} does not exist (the world has {} motes)",
                self.mote_count()
            );
            None
        }
    }

    pub fn leds(&self, mote: MoteId) -> &Leds {
        match self.mote_loc(mote) {
            Some((s, l)) => &self.shards[s].leds[l],
            None => &EMPTY_LEDS,
        }
    }

    /// Per-mote counters (sends, receives, losses, timers, CPU slices).
    pub fn mote_stats(&self, mote: MoteId) -> &MoteStats {
        match self.mote_loc(mote) {
            Some((s, l)) => &self.shards[s].stats[l],
            None => &ZERO_STATS,
        }
    }

    /// Whether a mote is up or crashed (and why).
    pub fn mote_status(&self, mote: MoteId) -> &MoteStatus {
        match self.mote_loc(mote) {
            Some((s, l)) => &self.shards[s].status[l],
            None => &STATUS_UP,
        }
    }

    /// Folds staged motes in and (re)builds the shard plan when needed.
    /// Pending events migrate between heaps carrying their original
    /// `(at, key)` — the global firing order is invariant under any cut.
    fn ensure_shards(&mut self) {
        if self.staged.is_empty() && !self.plan_stale {
            return;
        }
        self.plan_stale = false;
        // each column is allocated once, at its final length: growing nine
        // columns side by side would reallocate each of them several times
        let n = self.staged.len() + self.shards.iter().map(|s| s.backends.len()).sum::<usize>();
        let mut backends: Vec<Box<dyn Backend>> = Vec::with_capacity(n);
        let mut status: Vec<MoteStatus> = Vec::with_capacity(n);
        let mut timer_at: Vec<Option<u64>> = Vec::with_capacity(n);
        let mut cpu_scheduled: Vec<bool> = Vec::with_capacity(n);
        let mut skew_ppm: Vec<i64> = Vec::with_capacity(n);
        let mut trace_seq: Vec<u64> = Vec::with_capacity(n);
        let mut crashes: Vec<u32> = Vec::with_capacity(n);
        let mut stats: Vec<MoteStats> = Vec::with_capacity(n);
        let mut leds: Vec<Leds> = Vec::with_capacity(n);
        let mut events: Vec<(u64, u64, Fire)> = Vec::new();
        // flight-recorder content survives a reshard: records carry their
        // mote id, so they re-route into the new owning shard's ring below
        // (window marks are per-old-shard and are dropped; the monotonic
        // `dropped` counters restart with the new rings)
        let mut old_records: Vec<FlightRecord> = Vec::new();
        for mut shard in std::mem::take(&mut self.shards) {
            if let Some(rec) = shard.recorder.take() {
                old_records.extend(rec.iter().copied());
            }
            if let (Some(retired), Some(trace)) = (self.trace.as_mut(), shard.trace.as_mut()) {
                retired.append(trace);
            }
            events.extend(shard.heap.drain_unordered());
            backends.extend(shard.backends);
            status.extend(shard.status);
            timer_at.extend(shard.timer_at);
            cpu_scheduled.extend(shard.cpu_scheduled);
            skew_ppm.extend(shard.skew_ppm);
            trace_seq.extend(shard.trace_seq);
            crashes.extend(shard.crashes);
            stats.extend(shard.stats);
            leds.extend(shard.leds);
        }
        for backend in self.staged.drain(..) {
            backends.push(backend);
            status.push(MoteStatus::Up);
            timer_at.push(None);
            cpu_scheduled.push(false);
            skew_ppm.push(0);
            trace_seq.push(0);
            crashes.push(0);
            stats.push(MoteStats::default());
            leds.push(Leds::default());
        }
        let plan = ShardPlan::from_radio(&self.radio, n, self.target_shards);
        let mut backends = backends.into_iter();
        let mut status = status.into_iter();
        let mut timer_at = timer_at.into_iter();
        let mut cpu_scheduled = cpu_scheduled.into_iter();
        let mut skew_ppm = skew_ppm.into_iter();
        let mut trace_seq = trace_seq.into_iter();
        let mut crashes = crashes.into_iter();
        let mut stats = stats.into_iter();
        let mut leds = leds.into_iter();
        self.shards = plan
            .ranges
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                let mut sh = Shard::new(i as u32, a, b, plan.lookahead_us[i]);
                sh.trace = self.trace.as_ref().map(|_| Vec::new());
                for _ in a..b {
                    sh.push_mote(
                        backends.next().expect("column covers the roster"),
                        status.next().expect("column covers the roster"),
                        timer_at.next().expect("column covers the roster"),
                        cpu_scheduled.next().expect("column covers the roster"),
                        skew_ppm.next().expect("column covers the roster"),
                        trace_seq.next().expect("column covers the roster"),
                        crashes.next().expect("column covers the roster"),
                        stats.next().expect("column covers the roster"),
                        leds.next().expect("column covers the roster"),
                    );
                }
                sh
            })
            .collect();
        self.mote_shard = plan.mote_shard;
        if self.recorder_capacity > 0 {
            for shard in &mut self.shards {
                shard.recorder = Some(FlightRecorder::new(self.recorder_capacity));
            }
            // re-insert surviving records in canonical order: each new
            // ring receives exactly its motes' subsequence, oldest first
            old_records.sort_by_key(|r| (r.t_us, r.mote, r.seq));
            for r in old_records {
                let s = self.mote_shard[r.mote] as usize;
                self.shards[s].recorder.as_mut().expect("installed above").record_raw(r);
            }
        }
        self.max_lookahead_us = self
            .shards
            .iter()
            .map(|s| s.lookahead_us)
            .max()
            .unwrap_or(0)
            .max(self.radio.min_latency());
        for (at, key, fire) in events {
            debug_assert!(!is_world_fire(&fire), "world fires never enter a shard heap");
            let m = dest_mote(&fire).expect("mote fire");
            self.shards[self.mote_shard[m] as usize].heap.push(at, key, fire);
        }
    }

    /// Schedules a firing: world events into the world queue, everything
    /// else into the destination mote's shard heap — all under one global
    /// monotone `seq`, so the `(at, lane, seq)` order is exactly the
    /// single-heap order of the unsharded scheduler.
    fn schedule(&mut self, at: u64, fire: Fire) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.seq += 1;
        let key = order_key(lane_of(&fire), kind_of(&fire), self.seq);
        match dest_mote(&fire) {
            None => self.world_queue.push(at, key, fire),
            Some(m) => self.shards[self.mote_shard[m] as usize].heap.push(at, key, fire),
        }
    }

    /// Installs a fault plan: each entry is applied at exactly its
    /// scheduled virtual time, in both the sequential and the parallel
    /// stepper (where it acts as a window barrier, so fault timing is
    /// identical at any thread count). Entries whose time has already
    /// passed apply at the current time. Several plans may be installed;
    /// their entries interleave by time.
    ///
    /// Fails if the plan names a mote the world doesn't have, or skews a
    /// clock by −1,000,000 ppm or less: such a clock stands still, so a
    /// timer it asks for would fire at once and re-arm forever.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), String> {
        if let Some(max) = plan.max_mote() {
            if max >= self.mote_count() {
                return Err(format!(
                    "fault plan names mote {max}, but the world has only {} motes",
                    self.mote_count()
                ));
            }
        }
        for (i, entry) in plan.entries().iter().enumerate() {
            if let FaultAction::ClockSkew { mote, ppm } = entry.action {
                if ppm <= -1_000_000 {
                    return Err(format!(
                        "fault plan entry {} (`at {}us skew {mote} ppm {ppm}`): a skew of \
                         -1000000 ppm or less stops the mote's clock",
                        i + 1,
                        entry.at_us
                    ));
                }
            }
        }
        for entry in plan.entries() {
            let index = self.fault_entries.len();
            self.fault_entries.push(entry.clone());
            let at = entry.at_us.max(self.now);
            self.schedule(at, Fire::Fault { index });
        }
        Ok(())
    }

    /// What happens after a machine crash (runtime error / exhausted
    /// budget).
    /// Plan-driven `Reboot` actions carry their own delay and ignore this.
    pub fn set_reboot_policy(&mut self, policy: RebootPolicy) {
        self.reboot_policy = policy;
    }

    /// Powers a mote's radio off/on, validating the id against the mote
    /// roster (unlike [`Radio::set_down`], which silently grows its `down`
    /// vector for any index).
    pub fn set_mote_down(&mut self, mote: MoteId, down: bool) -> Result<(), String> {
        if mote >= self.mote_count() {
            return Err(format!(
                "mote {mote} does not exist (the world has {} motes)",
                self.mote_count()
            ));
        }
        self.radio.set_down(mote, down);
        Ok(())
    }

    /// A reboot may never land inside a window some shard has already
    /// stepped through: clamping the delay to at least the **largest**
    /// per-shard lookahead (and the radio minimum, and ≥ 1 µs) keeps every
    /// reboot a clean window barrier — even one discovered at a merge,
    /// whose crash time lies at the start of a window that a slower shard
    /// ran `max_lookahead` past. The same clamp applies in the sequential
    /// stepper, so both paths stay bit-identical; on uniform-latency media
    /// it degenerates to the old global-lookahead clamp.
    fn effective_reboot_delay(&self, delay: u64) -> u64 {
        delay.max(1).max(self.radio.min_latency()).max(self.max_lookahead_us)
    }

    /// Schedules `mote`'s reboot the clamped `delay` after `from`. The sum
    /// saturates, and a reboot due at `u64::MAX` is never reached, so it is
    /// not scheduled at all.
    fn schedule_reboot(&mut self, mote: MoteId, from: u64, delay: u64) {
        let at = from.saturating_add(self.effective_reboot_delay(delay)).max(self.now);
        if at < u64::MAX {
            self.schedule(at, Fire::Reboot { mote });
        }
    }

    /// Crashes a mote at the current time (a fault-plan crash): the
    /// shard-local half ([`Shard::crash`]), then the world effects, with
    /// `reboot_override` in place of the reboot policy.
    fn crash_mote(&mut self, mote: MoteId, cause: CrashCause, reboot_override: Option<u64>) {
        let (s, l) = self.loc(mote);
        if !self.shards[s].status[l].is_up() {
            return;
        }
        self.shards[s].crash(l, self.now, cause);
        self.apply_crash_world_effects(mote, self.now, reboot_override);
    }

    /// The world effects of a crash at `crash_at`, whose shard-local half
    /// is already applied: radio off, the reboot (after `reboot_override`,
    /// else per the reboot policy) and the black-box dump.
    fn apply_crash_world_effects(
        &mut self,
        mote: MoteId,
        crash_at: u64,
        reboot_override: Option<u64>,
    ) {
        self.radio.set_down(mote, true);
        let (s, l) = self.loc(mote);
        let nth = self.shards[s].crashes[l];
        if let Some(d) = reboot_override.or_else(|| self.reboot_policy.delay_for(nth)) {
            self.schedule_reboot(mote, crash_at, d);
        }
        self.maybe_dump_blackbox("mote-crashed", Some(mote));
    }

    /// Renders the full `ceu-blackbox/v1` crash dump: a self-describing
    /// header, per-shard ring stats, scheduler window marks, per-mote
    /// stats for every mote the rings mention, then every live flight
    /// record in canonical `(t_us, mote, seq)` order (each line the same
    /// wire shape as a world-trace line, so `ceu-trace` parses them
    /// directly). Line discrimination for readers: `"schema"` → header,
    /// `"blackbox"` → stats/marks, `"ev"` → record.
    pub fn blackbox_json(&self, reason: &str, mote: Option<MoteId>) -> String {
        let records = self.flight_records();
        let (live, cap, dropped) = self.flight_recorder_stats().unwrap_or((0, 0, 0));
        let crash = mote.and_then(|m| self.mote_loc(m)).and_then(|(s, l)| {
            match &self.shards[s].status[l] {
                MoteStatus::Crashed { at, cause } => Some((*at, cause)),
                MoteStatus::Up => None,
            }
        });
        let header = BlackboxHeader {
            reason: reason.to_string(),
            t_us: self.now,
            mote,
            crash_us: crash.map(|(at, _)| at),
            kind: crash.map(|(_, c)| c.kind),
            cause: crash.map(|(_, c)| c.message.clone()),
            line: crash.map(|(_, c)| c.span.line),
            col: crash.map(|(_, c)| c.span.col),
            motes: self.mote_count(),
            shards: self.shards.len(),
            ring_capacity: cap,
            ring_records: live,
            ring_dropped: dropped,
        };
        let mut stats = Vec::new();
        for shard in &self.shards {
            let Some(rec) = shard.recorder.as_ref() else { continue };
            stats.push(BlackboxStat::Shard {
                shard: shard.id,
                motes: shard.n(),
                lookahead_us: shard.lookahead_us,
                ring_len: rec.len(),
                ring_dropped: rec.dropped(),
                ring_recorded: rec.recorded(),
            });
            for &mark in rec.windows() {
                stats.push(BlackboxStat::Window { shard: shard.id, mark });
            }
        }
        // per-mote stats only for motes the rings mention (plus the
        // crashed mote): keeps a 1M-mote soak dump bounded by ring size
        let mut mentioned: Vec<MoteId> = records.iter().map(|r| r.mote).chain(mote).collect();
        mentioned.sort_unstable();
        mentioned.dedup();
        for m in mentioned {
            let Some((s, l)) = self.mote_loc(m) else { continue };
            let st = &self.shards[s].stats[l];
            stats.push(BlackboxStat::Mote {
                mote: m,
                up: self.shards[s].status[l].is_up(),
                sent: st.sent,
                received: st.received,
                dropped_in_flight: st.dropped_in_flight,
                crashes: st.crashes,
                reboots: st.reboots,
            });
        }
        blackbox_dump(&header, &stats, &records)
    }

    /// Writes the `ceu-blackbox/v1` dump to `path` (parent directories
    /// are created). Also invoked automatically on crashes when
    /// [`World::set_blackbox_out`] armed a path.
    pub fn write_blackbox_to(
        &self,
        path: &Path,
        reason: &str,
        mote: Option<MoteId>,
    ) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.blackbox_json(reason, mote))
    }

    /// Writes the dump to the configured path, returning it.
    pub fn write_blackbox(&self, reason: &str, mote: Option<MoteId>) -> std::io::Result<PathBuf> {
        let path = self.blackbox_out.clone().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no black-box path configured")
        })?;
        self.write_blackbox_to(&path, reason, mote)?;
        Ok(path)
    }

    /// The automatic crash trigger: quiet no-op unless both a dump path
    /// and the recorder are configured. Each dump overwrites the last, so
    /// the file always reflects the most recent crash; a dump failure
    /// warns on stderr rather than masking the crash being reported.
    fn maybe_dump_blackbox(&self, reason: &str, mote: Option<MoteId>) {
        let Some(path) = self.blackbox_out.as_deref() else { return };
        if self.recorder_capacity == 0 {
            return;
        }
        if let Err(e) = self.write_blackbox_to(path, reason, mote) {
            eprintln!("wsn-sim: black-box dump to {} failed: {e}", path.display());
        }
    }

    /// Applies one fault-plan entry at its scheduled time.
    fn apply_fault(&mut self, index: usize) {
        let entry = self.fault_entries[index].clone();
        match entry.action {
            FaultAction::Crash { mote } => {
                self.crash_mote(mote, CrashCause::injected(), None);
            }
            FaultAction::Reboot { mote, delay_us } => {
                let (s, l) = self.loc(mote);
                if self.shards[s].status[l].is_up() {
                    // crash-then-reboot in one action
                    self.crash_mote(mote, CrashCause::injected(), Some(delay_us));
                } else {
                    self.schedule_reboot(mote, self.now, delay_us);
                }
            }
            FaultAction::Partition { ref group_a, ref group_b, until_us } => {
                self.radio.set_partition(group_a, group_b, until_us);
            }
            FaultAction::Heal => self.radio.heal(),
            FaultAction::LossBurst { from, to, rate, until_us } => {
                self.radio.set_link_loss(from, to, rate, until_us);
            }
            FaultAction::ClockSkew { mote, ppm } => {
                let (s, l) = self.loc(mote);
                self.shards[s].skew_ppm[l] = ppm;
            }
            FaultAction::DropInFlight { mote } => {
                // in-flight deliveries to one mote live in exactly one
                // heap: its own shard's
                let (s, l) = self.loc(mote);
                let shard = &mut self.shards[s];
                let dropped = shard
                    .heap
                    .retain(|_, _, f| !matches!(f, Fire::Deliver { to, .. } if *to == mote))
                    as u64;
                shard.stats[l].dropped_in_flight += dropped;
                shard.fx.dropped_in_flight += dropped;
                self.absorb(s);
            }
        }
    }

    /// Revives a crashed mote: radio back up, `MoteRebooted` trace event,
    /// then the backend's `reboot` callback (fresh boot with state loss).
    fn apply_reboot(&mut self, mote: MoteId) {
        let (s, l) = self.loc(mote);
        let shard = &mut self.shards[s];
        if shard.status[l].is_up() {
            return; // a stale reboot (mote was already revived)
        }
        shard.status[l] = MoteStatus::Up;
        shard.stats[l].reboots += 1;
        let boots = shard.crashes[l] + 1;
        shard.stamp(l, self.now, &TraceEvent::MoteRebooted { boots });
        self.radio.set_down(mote, false);
        self.step_mote(mote, Callback::Reboot);
    }

    /// Boots every mote (virtual time 0).
    pub fn boot(&mut self) {
        self.ensure_shards();
        for id in 0..self.mote_count() {
            self.step_mote(id, Callback::Boot);
        }
    }

    /// Runs one callback of `mote` at the current time, outside any event
    /// (boot, reboot), and applies its effects at once.
    fn step_mote(&mut self, mote: MoteId, cb: Callback) {
        let (s, l) = self.loc(mote);
        let shard = &mut self.shards[s];
        if let Err(payload) = shard.run_callback(l, self.now, cb, &mut self.seq, self.cpu_slice_us)
        {
            std::panic::resume_unwind(payload);
        }
        self.apply_step(s);
    }

    /// Applies the effects one sequential step left on shard `s` at once,
    /// through the merge's own replay (`flush_merge_actions`): nothing else
    /// is pending, so the step's sends and crash are the whole batch.
    fn apply_step(&mut self, s: usize) {
        debug_assert!(self.pending_sends.is_empty() && self.pending_crashes.is_empty());
        self.absorb(s);
        self.flush_merge_actions(None);
    }

    /// Moves shard `s`'s [`Effects`](crate::shard::Effects) into the world:
    /// its counters into the stats, its sends and crashes into the pending
    /// buffers.
    fn absorb(&mut self, s: usize) {
        let fx = &mut self.shards[s].fx;
        let dropped = std::mem::take(&mut fx.dropped_in_flight);
        self.stats.delivered += std::mem::take(&mut fx.delivered);
        self.stats.cpu_slices += std::mem::take(&mut fx.cpu_slices);
        self.stats.dropped_in_flight += dropped;
        self.radio.stats.dropped_in_flight += dropped;
        self.pending_sends.append(&mut fx.sends);
        self.pending_crashes.append(&mut fx.crashes);
    }

    /// Total `(pushes, pops)` across the world queue and every shard heap.
    /// The counters travel with checked-out shards, so window deltas
    /// include the workers' own scheduling traffic.
    fn heap_op_totals(&self) -> (u64, u64) {
        let (mut pushes, mut pops) = self.world_queue.op_counts();
        for shard in &self.shards {
            let (p, q) = shard.heap.op_counts();
            pushes += p;
            pops += q;
        }
        (pushes, pops)
    }

    /// The global head: the smallest pending `(at, key)` over the world
    /// queue and every shard heap, with the shard holding it (`None` for
    /// the world queue). Every key packs `(lane, kind, seq)`, so the scan
    /// yields the exact order a single merged heap would pop.
    fn head(&self) -> Option<((u64, u64), Option<usize>)> {
        let mut best = self.world_queue.peek_key().map(|k| (k, None));
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some(k) = shard.heap.peek_key() {
                if best.is_none_or(|(b, _)| k < b) {
                    best = Some((k, Some(i)));
                }
            }
        }
        best
    }

    /// Pops the world queue's head and applies it (a fault or a reboot).
    fn fire_world(&mut self) {
        let (at, _, fire) = self.world_queue.pop().expect("peeked");
        self.now = at;
        match fire {
            Fire::Fault { index } => self.apply_fault(index),
            Fire::Reboot { mote } => self.apply_reboot(mote),
            _ => unreachable!("only world fires enter the world queue"),
        }
    }

    /// Runs until the given virtual time (µs), or until nothing is left —
    /// the reference stepper: one event at a time from the global head,
    /// each mote event fired by [`Shard::fire`] against the live radio and
    /// its effects applied at once.
    pub fn run_until(&mut self, deadline: u64) {
        self.ensure_shards();
        while let Some(((at, _), src)) = self.head() {
            if at > deadline {
                break;
            }
            let Some(s) = src else {
                self.fire_world();
                continue;
            };
            let (at, _, fire) = self.shards[s].heap.pop().expect("peeked");
            self.now = at;
            let shard = &mut self.shards[s];
            if let Err((_, payload)) =
                shard.fire(at, fire, Some(&self.radio), &mut self.seq, self.cpu_slice_us)
            {
                std::panic::resume_unwind(payload);
            }
            self.apply_step(s);
        }
        self.now = self.now.max(deadline);
    }

    /// Replays pending effects — sends and crash world-effects — whose
    /// time lies strictly before `threshold` (all of them when `None`),
    /// interleaved in the canonical `(time, mote, emission)` order through
    /// the single radio RNG. Deferral is what keeps the RNG draw order
    /// global-time-sorted under *per-shard* lookaheads: a fast-lookahead
    /// window can emit a send later (in virtual time) than a send a slower
    /// shard will only emit next window, so transmits must wait until no
    /// earlier emission can still appear — i.e. until the global head has
    /// moved past them. Returns whether anything was replayed (new
    /// deliveries may change the global head).
    fn flush_merge_actions(&mut self, threshold: Option<u64>) -> bool {
        if self.pending_sends.is_empty() && self.pending_crashes.is_empty() {
            return false;
        }
        let mut sends = std::mem::take(&mut self.pending_sends);
        let mut crashes = std::mem::take(&mut self.pending_crashes);
        sends.sort_unstable_by_key(|s| (s.0, s.1, s.2));
        crashes.sort_unstable();
        let within = |at: u64| threshold.is_none_or(|t| at < t);
        let n_s = sends.iter().take_while(|s| within(s.0)).count();
        let n_c = crashes.iter().take_while(|c| within(c.0)).count();
        let mut crash_iter = crashes.drain(..n_c).peekable();
        for (at, from, emission, to, packet) in sends.drain(..n_s) {
            // crash world-effects precede the sends they beat in the
            // canonical order: the crash powers the radio off, and later
            // loss rolls must see it down
            while let Some(&(c_at, c_mote, c_emission)) = crash_iter.peek() {
                if (c_at, c_mote, c_emission) <= (at, from, emission) {
                    self.apply_crash_world_effects(c_mote, c_at, None);
                    crash_iter.next();
                } else {
                    break;
                }
            }
            if let Some(arrival) = self.radio.transmit(at, from, to, &packet) {
                self.schedule(arrival, Fire::Deliver { to, packet });
            } else {
                self.stats.lost += 1;
                let (s, l) = self.loc(from);
                self.shards[s].stats[l].lost += 1;
            }
        }
        for (c_at, c_mote, _) in crash_iter {
            self.apply_crash_world_effects(c_mote, c_at, None);
        }
        self.pending_sends = sends;
        self.pending_crashes = crashes;
        n_s + n_c > 0
    }

    /// Runs until `deadline` using a conservative sharded-PDES scheduler
    /// across `threads` workers — **bit-identical** to [`World::run_until`].
    ///
    /// Per window: pop any world events at the global head (they mutate
    /// shared state, so they barrier); then every shard with pending work
    /// runs independently on a pooled worker up to its own bound
    /// `run_end(S) = start + lookahead(S)`, clipped by the next world
    /// event. `lookahead(S)` is the minimum latency over links *into* `S`
    /// (see [`ShardPlan`]), so no in-window send — cross-shard or local —
    /// can arrive before any shard's bound. Workers defer every radio
    /// interaction; the merge sorts the window's sends into the canonical
    /// `(time, sender, emission)` order and replays them through the
    /// single radio RNG, which keeps loss rolls — and therefore the whole
    /// event stream — identical to the sequential stepper's.
    ///
    /// If a mote panics inside a window the panic is re-raised here with
    /// window context after the merge (other motes' effects are kept).
    pub fn run_until_parallel(&mut self, deadline: u64, threads: usize) {
        self.ensure_shards();
        let run_t0 = std::time::Instant::now();
        let lookahead = self.radio.min_latency();
        let stats_on = self.par_stats.is_some();
        if let Some(ps) = self.par_stats.as_mut() {
            ps.threads = threads as u32;
            ps.lookahead_us = lookahead;
            ps.motes = self.mote_shard.len() as u32;
            ps.shards = self.shards.len() as u32;
        }
        // Degenerate worlds fall back to the sequential stepper: nothing
        // to parallelise (≤1 thread or ≤1 mote) or no safe lookahead
        // (a zero-latency link makes every window empty).
        if threads <= 1 || lookahead == 0 || self.mote_shard.len() <= 1 {
            self.run_until(deadline);
            if let Some(ps) = self.par_stats.as_mut() {
                ps.fallback = true;
                ps.wall_ns += run_t0.elapsed().as_nanos() as u64;
            }
            return;
        }
        let need_pool = match &self.pool {
            Some(p) => p.size() < threads,
            None => true,
        };
        if need_pool {
            self.pool = Some(WorkerPool::new(threads));
        }
        let hard_end = deadline.saturating_add(1);
        let wall_base = self.par_stats.as_ref().map_or(0, |ps| ps.wall_ns);
        loop {
            let head = self.head();
            // replay deferred effects that nothing can precede anymore
            let threshold = match head {
                Some(((at, _), _)) if at <= deadline => Some(at),
                _ => None,
            };
            if self.flush_merge_actions(threshold) {
                continue; // fresh deliveries may have moved the head
            }
            let Some(((start, _), src)) = head else { break };
            if start > deadline {
                break;
            }
            if src.is_none() {
                // world events (faults, reboots) barrier: apply on the
                // simulation thread at exactly their scheduled time
                self.fire_world();
                continue;
            }
            let world_at = self.world_queue.peek_key().map(|(at, _)| at);
            let win_t0 = stats_on.then(std::time::Instant::now);
            let heap_ops_0 = stats_on.then(|| self.heap_op_totals());
            // check out every shard with work inside its own window
            let refresh = self.radio.down.iter().any(|&d| d);
            let mut jobs: Vec<ShardJob> = Vec::new();
            let mut any_clipped = false;
            let mut max_run_end = start;
            for i in 0..self.shards.len() {
                let Some((head_at, _)) = self.shards[i].heap.peek_key() else { continue };
                let la = self.shards[i].lookahead_us;
                let mut run_end = start.saturating_add(la).min(hard_end);
                if let Some(w) = world_at {
                    // never step past a pending world event; `max(start+1)`
                    // keeps the head-owning shard's window non-empty (the
                    // world event itself sits at or after `start`)
                    run_end = run_end.min(w.max(start + 1));
                }
                if head_at >= run_end {
                    continue;
                }
                any_clipped |= run_end < start.saturating_add(la);
                max_run_end = max_run_end.max(run_end);
                if refresh || self.shards[i].has_down {
                    self.shards[i].refresh_down(&self.radio);
                }
                let shard = std::mem::replace(&mut self.shards[i], Shard::placeholder(i as u32));
                jobs.push(ShardJob { shard, run_end });
            }
            // the shard holding the global head always qualifies:
            // head_at == start < run_end (run_end ≥ start+1)
            debug_assert!(!jobs.is_empty());
            let workers = threads.min(jobs.len()).max(1);
            let mut batches: Vec<Vec<ShardJob>> = (0..workers).map(|_| Vec::new()).collect();
            for (k, job) in jobs.into_iter().enumerate() {
                batches[k % workers].push(job);
            }
            let seq_base = self.seq;
            let drain_done = stats_on.then(std::time::Instant::now);
            let outs = self.pool.as_mut().expect("pool created above").dispatch(
                batches,
                seq_base,
                self.cpu_slice_us,
                stats_on,
            );
            let par_done = stats_on.then(std::time::Instant::now);
            // ---- merge barrier (simulation thread) ----
            self.now = start;
            let mut busy_ns = vec![0u64; if stats_on { workers } else { 0 }];
            let mut events_per_worker = vec![0u64; if stats_on { workers } else { 0 }];
            let mut motes_per_worker = vec![0u32; if stats_on { workers } else { 0 }];
            let mut shard_busy: Vec<(u32, u32, u64, u64)> = Vec::new();
            let mut win_events = 0u64;
            let mut win_motes = 0u32;
            let mut max_seq = self.seq;
            let pend0 = self.pending_sends.len();
            let mut panicked: Option<(MoteId, String, u64)> = None;
            for bout in outs {
                let wait_each = bout.channel_wait_ns / bout.jobs.len().max(1) as u64;
                if stats_on {
                    busy_ns[bout.worker] = bout.busy_ns;
                }
                for JobOut { shard, out, run_end: job_end, busy_ns: jbusy } in bout.jobs {
                    let sid = shard.id;
                    if stats_on {
                        events_per_worker[bout.worker] += out.events;
                        motes_per_worker[bout.worker] += shard.n() as u32;
                    }
                    win_events += out.events;
                    win_motes += shard.n() as u32;
                    let n_sends = shard.fx.sends.len() as u64;
                    max_seq = max_seq.max(out.seq_used);
                    if let Some((mote, msg)) = out.panicked {
                        panicked.get_or_insert((mote, msg, job_end));
                    }
                    if let Some(ps) = self.par_stats.as_mut() {
                        ps.record_shard(
                            sid,
                            shard.n() as u32,
                            out.events,
                            jbusy,
                            n_sends,
                            wait_each,
                        );
                    }
                    if stats_on {
                        shard_busy.push((sid, bout.worker as u32, jbusy, out.events));
                    }
                    self.shards[sid as usize] = shard;
                    self.absorb(sid as usize);
                }
            }
            if let Some((mote, msg, run_end)) = panicked {
                // last-gasp black box: the shards (and their rings) were
                // merged back above, so the dump carries history right up
                // to the failing window
                self.maybe_dump_blackbox("worker-panic", Some(mote));
                panic!("mote {mote} panicked in parallel window [{start}, {run_end}): {msg}");
            }
            // workers consumed seqs from `seq_base` upward for their own
            // timer/CPU pushes; advance past them so the merge's Deliver
            // seqs sort after every in-window push (matching the
            // sequential stepper, where the send is scheduled after the
            // callback's own requests)
            self.seq = max_seq;
            // the window's sends and crash effects stay *deferred* in the
            // pending buffers — the pre-window flush replays them through
            // the radio RNG once nothing earlier can still appear (see
            // `flush_merge_actions`); here we only record the stats
            let heap_ops_1 = stats_on.then(|| self.heap_op_totals());
            if let (
                Some(ps),
                Some(win_t0),
                Some(drain_done),
                Some(par_done),
                Some(ops0),
                Some(ops1),
            ) = (self.par_stats.as_mut(), win_t0, drain_done, par_done, heap_ops_0, heap_ops_1)
            {
                let ((p0, q0), (pushes, pops)) = (ops0, ops1);
                // the sample lists the window's sends in canonical order;
                // the flush sorts every pending send itself, so only the
                // stats need this sort
                let new_sends = &mut self.pending_sends[pend0..];
                new_sends.sort_unstable_by_key(|s| (s.0, s.1, s.2));
                let cross_sends = new_sends.len() as u64;
                let send_sample = new_sends
                    .iter()
                    .take(SEND_SAMPLE_CAP)
                    .map(|&(at, from, _, to, _)| (at, from as u32, to as u32))
                    .collect();
                let index = ps.totals.windows;
                ps.record_window(ParWindowStats {
                    index,
                    t_wall_ns: wall_base + win_t0.duration_since(run_t0).as_nanos() as u64,
                    start_us: start,
                    end_us: max_run_end,
                    lookahead_us: lookahead,
                    clipped: any_clipped,
                    threads: threads as u32,
                    workers: workers as u32,
                    motes: win_motes,
                    events: win_events,
                    busy_ns,
                    events_per_worker,
                    motes_per_worker,
                    drain_ns: drain_done.duration_since(win_t0).as_nanos() as u64,
                    par_ns: par_done.duration_since(drain_done).as_nanos() as u64,
                    merge_ns: par_done.elapsed().as_nanos() as u64,
                    heap_pushes: pushes - p0,
                    heap_pops: pops - q0,
                    cross_sends,
                    send_sample,
                    shard_busy,
                });
            }
        }
        debug_assert!(self.pending_sends.is_empty() && self.pending_crashes.is_empty());
        if let Some(ps) = self.par_stats.as_mut() {
            ps.fallback = false;
            ps.wall_ns += run_t0.elapsed().as_nanos() as u64;
        }
        self.now = self.now.max(deadline);
    }
}

/// Shared-handle backends: a harness can keep an `Arc<Mutex<B>>` to a
/// mote it adds to the world and read its state (metrics, clock drift)
/// after the run. `Mutex` rather than `RefCell` so the handle stays
/// `Send` and the mote can be stepped on a worker thread.
impl<B: Backend> Backend for std::sync::Arc<std::sync::Mutex<B>> {
    fn boot(&mut self, ctx: &mut MoteCtx) {
        self.lock().unwrap().boot(ctx)
    }
    fn deliver(&mut self, ctx: &mut MoteCtx, packet: Packet) {
        self.lock().unwrap().deliver(ctx, packet)
    }
    fn timer(&mut self, ctx: &mut MoteCtx) {
        self.lock().unwrap().timer(ctx)
    }
    fn cpu(&mut self, ctx: &mut MoteCtx) {
        self.lock().unwrap().cpu(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::Radio;

    /// Backend that pings a peer every millisecond.
    struct Pinger {
        peer: MoteId,
        received: u32,
    }

    impl Backend for Pinger {
        fn boot(&mut self, ctx: &mut MoteCtx) {
            ctx.set_timer_at(1_000);
        }
        fn deliver(&mut self, ctx: &mut MoteCtx, _p: Packet) {
            self.received += 1;
            ctx.leds.toggle(ctx.now, 0);
        }
        fn timer(&mut self, ctx: &mut MoteCtx) {
            ctx.send(self.peer, Packet::with_value(ctx.id, self.peer, 1));
            ctx.set_timer_at(ctx.now + 1_000);
        }
        fn cpu(&mut self, _: &mut MoteCtx) {}
    }

    #[test]
    fn timers_and_delivery_flow() {
        let mut w = World::new(Radio::ideal(1_000));
        let a = w.add_mote(Box::new(Pinger { peer: 1, received: 0 }));
        let b = w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
        assert_eq!((a, b), (0, 1));
        w.boot();
        w.run_until(10_500);
        // pings at 1..=10ms, 1ms latency: arrivals at 2..=10ms by 10.5ms
        assert_eq!(w.stats.delivered, 18);
        assert_eq!(w.leds(0).history.len(), 9);
        assert_eq!(w.leds(1).history.len(), 9);
        // per-mote view agrees with the aggregate
        for m in [a, b] {
            assert_eq!(w.mote_stats(m).sent, 10);
            assert_eq!(w.mote_stats(m).received, 9);
            assert_eq!(w.mote_stats(m).lost, 0);
            assert_eq!(w.mote_stats(m).timer_firings, 10);
        }
        assert_eq!(w.radio.stats.attempts, 20);
        assert_eq!(w.radio.stats.delivered, 20, "two arrivals are past the deadline, not lost");
    }

    #[test]
    fn per_mote_losses_attribute_to_the_sender() {
        // mote 0 can reach mote 1 but not vice versa
        let mut w = World::new(Radio::new(crate::radio::Topology::Links(vec![(0, 1)]), 10, 0.0, 1));
        let a = w.add_mote(Box::new(Pinger { peer: 1, received: 0 }));
        let b = w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
        w.boot();
        w.run_until(5_000);
        assert_eq!(w.mote_stats(a).lost, 0);
        assert_eq!(w.mote_stats(b).lost, w.mote_stats(b).sent);
        assert_eq!(w.stats.lost, w.mote_stats(b).lost);
        assert_eq!(w.radio.stats.dropped_link, w.stats.lost);
        assert_eq!(w.mote_count(), 2);
    }

    fn pinger_world(radio: Radio) -> World {
        let mut w = World::new(radio);
        w.add_mote(Box::new(Pinger { peer: 1, received: 0 }));
        w.add_mote(Box::new(Pinger { peer: 2, received: 0 }));
        w.add_mote(Box::new(Pinger { peer: 3, received: 0 }));
        w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
        w.boot();
        w
    }

    type LedHistory = Vec<(u64, u8, bool)>;

    fn observe(w: &World) -> (Stats, Vec<MoteStats>, Vec<LedHistory>) {
        (
            w.stats,
            (0..w.mote_count()).map(|m| *w.mote_stats(m)).collect(),
            (0..w.mote_count()).map(|m| w.leds(m).history.clone()).collect(),
        )
    }

    #[test]
    fn parallel_stepping_matches_sequential() {
        let mut seq = pinger_world(Radio::ideal(1_000));
        let mut par = pinger_world(Radio::ideal(1_000));
        seq.run_until(50_500);
        par.run_until_parallel(50_500, 4);
        assert_eq!(seq.now(), par.now());
        let (s_stats, s_motes, s_leds) = observe(&seq);
        let (p_stats, p_motes, p_leds) = observe(&par);
        assert_eq!(s_stats.delivered, p_stats.delivered);
        assert_eq!(s_stats.lost, p_stats.lost);
        assert_eq!(s_stats.cpu_slices, p_stats.cpu_slices);
        assert_eq!(s_motes, p_motes);
        assert_eq!(s_leds, p_leds);
    }

    #[test]
    fn parallel_stepping_is_thread_count_invariant() {
        // a lossy medium exercises the deterministic merge order: any
        // thread count must produce the identical run
        let radio = || Radio::new(crate::radio::Topology::Full, 700, 0.25, 9);
        let mut base = pinger_world(radio());
        base.run_until_parallel(40_000, 2);
        for threads in [3, 4, 8] {
            let mut w = pinger_world(radio());
            w.run_until_parallel(40_000, threads);
            assert_eq!(observe(&base), observe(&w), "threads={threads}");
        }
    }

    /// A pinger that also records a synthetic VM event per callback, so
    /// the unified world trace can be checked without a full Céu machine.
    struct TracingPinger {
        peer: MoteId,
    }

    impl Backend for TracingPinger {
        fn boot(&mut self, ctx: &mut MoteCtx) {
            ctx.vm_events.push(TraceEvent::Terminated { value: Some(-1) });
            ctx.set_timer_at(1_000);
        }
        fn deliver(&mut self, ctx: &mut MoteCtx, p: Packet) {
            ctx.vm_events.push(TraceEvent::Terminated { value: Some(p.value()) });
        }
        fn timer(&mut self, ctx: &mut MoteCtx) {
            ctx.vm_events.push(TraceEvent::Terminated { value: Some(ctx.now as i64) });
            ctx.send(self.peer, Packet::with_value(ctx.id, self.peer, ctx.now as i64));
            ctx.set_timer_at(ctx.now + 1_000);
        }
        fn cpu(&mut self, _: &mut MoteCtx) {}
    }

    fn tracing_world(radio: Radio) -> World {
        let mut w = World::new(radio);
        w.enable_trace();
        for peer in [1, 2, 3, 0] {
            w.add_mote(Box::new(TracingPinger { peer }));
        }
        w.boot();
        w
    }

    #[test]
    fn world_trace_is_identical_across_thread_counts() {
        // a lossy medium exercises the window merge; the merged stream
        // must be byte-identical for 1 (sequential fallback), 2 and 4
        // worker threads
        let radio = || Radio::new(crate::radio::Topology::Full, 700, 0.25, 9);
        let mut base = tracing_world(radio());
        base.run_until_parallel(40_000, 1);
        let reference = base.take_trace();
        assert!(!reference.is_empty(), "the pingers must actually trace");
        let jsonl_ref: Vec<String> = reference.iter().map(|e| e.to_json()).collect();
        for threads in [2, 4] {
            let mut w = tracing_world(radio());
            w.run_until_parallel(40_000, threads);
            let trace = w.take_trace();
            assert_eq!(reference, trace, "threads={threads}");
            let jsonl: Vec<String> = trace.iter().map(|e| e.to_json()).collect();
            assert_eq!(jsonl_ref, jsonl, "wire format, threads={threads}");
        }
    }

    #[test]
    fn world_trace_orders_by_time_mote_seq() {
        let mut w = tracing_world(Radio::ideal(1_000));
        w.run_until(5_500);
        let trace = w.take_trace();
        let keys: Vec<_> = trace.iter().map(|e| (e.t_us, e.mote, e.seq)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // per-mote seq is monotone from 1 with no gaps
        for mote in 0..w.mote_count() {
            let seqs: Vec<u64> = trace.iter().filter(|e| e.mote == mote).map(|e| e.seq).collect();
            assert_eq!(seqs, (1..=seqs.len() as u64).collect::<Vec<_>>(), "mote {mote}");
        }
        // taking the trace re-arms collection
        assert!(w.trace_enabled());
        w.run_until(6_500);
        assert!(!w.take_trace().is_empty());
    }

    #[test]
    fn parallel_mote_panics_carry_mote_and_window() {
        struct Bomb;
        impl Backend for Bomb {
            fn boot(&mut self, ctx: &mut MoteCtx) {
                ctx.set_timer_at(1_000);
            }
            fn deliver(&mut self, _: &mut MoteCtx, _: Packet) {}
            fn timer(&mut self, _: &mut MoteCtx) {
                panic!("the backend blew up");
            }
            fn cpu(&mut self, _: &mut MoteCtx) {}
        }
        let mut w = World::new(Radio::ideal(500));
        w.add_mote(Box::new(Pinger { peer: 1, received: 0 }));
        w.add_mote(Box::new(Bomb));
        w.boot();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the test log quiet
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.run_until_parallel(5_000, 2);
        }))
        .expect_err("the mote panic must resurface");
        std::panic::set_hook(prev);
        let msg = err.downcast_ref::<String>().cloned().expect("panic message is a string");
        assert!(msg.contains("mote 1 panicked in parallel window ["), "{msg}");
        assert!(msg.contains("the backend blew up"), "{msg}");
    }

    #[test]
    fn sequential_mote_panics_propagate_unchanged() {
        // the shared callback routine catches the panic; `run_until`
        // re-raises the backend's own payload (on this thread, so the
        // default hook's message stays in the test's captured output)
        struct Bomb;
        impl Backend for Bomb {
            fn boot(&mut self, ctx: &mut MoteCtx) {
                ctx.set_timer_at(1_000);
            }
            fn deliver(&mut self, _: &mut MoteCtx, _: Packet) {}
            fn timer(&mut self, _: &mut MoteCtx) {
                panic!("the backend blew up");
            }
            fn cpu(&mut self, _: &mut MoteCtx) {}
        }
        let mut w = World::new(Radio::ideal(500));
        w.add_mote(Box::new(Pinger { peer: 1, received: 0 }));
        w.add_mote(Box::new(Bomb));
        w.boot();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.run_until(5_000)))
            .expect_err("the mote panic must propagate");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"the backend blew up"));
    }

    #[test]
    fn zero_latency_media_fall_back_to_sequential() {
        let mut seq = pinger_world(Radio::ideal(0));
        let mut par = pinger_world(Radio::ideal(0));
        seq.run_until(10_000);
        par.run_until_parallel(10_000, 4);
        assert_eq!(observe(&seq), observe(&par));
    }

    #[test]
    fn led_history_records_on_times() {
        let mut leds = Leds::default();
        leds.toggle(5, 1);
        leds.toggle(10, 1);
        leds.toggle(15, 1);
        assert_eq!(leds.on_times(1), vec![5, 15]);
    }

    /// Pings like `Pinger` but deliberately fails its "machine" during
    /// the first timer callback at/after `fail_at` (one-shot: a reboot
    /// more than 1 ms later does not re-trigger it).
    struct FlakyPinger {
        peer: MoteId,
        fail_at: u64,
    }

    impl Backend for FlakyPinger {
        fn boot(&mut self, ctx: &mut MoteCtx) {
            ctx.set_timer_at(ctx.now + 1_000);
        }
        fn deliver(&mut self, ctx: &mut MoteCtx, _p: Packet) {
            ctx.leds.toggle(ctx.now, 0);
        }
        fn timer(&mut self, ctx: &mut MoteCtx) {
            if ctx.now >= self.fail_at && ctx.now < self.fail_at + 1_000 {
                let e = RuntimeError::new(Span::default(), "sensor read of nothing");
                ctx.fail(CrashCause::from_error(&e));
                return;
            }
            ctx.send(self.peer, Packet::with_value(ctx.id, self.peer, 1));
            ctx.set_timer_at(ctx.now + 1_000);
        }
        fn cpu(&mut self, _: &mut MoteCtx) {}
    }

    #[test]
    fn set_mote_down_validates_ids() {
        let mut w = World::new(Radio::ideal(10));
        w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
        assert!(w.set_mote_down(0, true).is_ok());
        assert!(w.radio.is_down(0));
        let err = w.set_mote_down(5, true).unwrap_err();
        assert!(err.contains("mote 5"), "{err}");
        assert!(!w.radio.is_down(5), "rejected ids must not grow the down set");
    }

    #[test]
    fn fault_plans_reject_unknown_motes() {
        let mut w = World::new(Radio::ideal(10));
        w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
        let plan = FaultPlan::new().at(5, FaultAction::Crash { mote: 3 });
        assert!(w.set_fault_plan(&plan).unwrap_err().contains("mote 3"));
    }

    #[test]
    fn in_flight_packets_drop_when_the_destination_crashes() {
        // pings every ms with 1 ms latency; crashing mote 1 at 1.5 ms
        // catches exactly one packet (sent at 1 ms, due at 2 ms) mid-air
        let mut w = World::new(Radio::ideal(1_000));
        w.add_mote(Box::new(Pinger { peer: 1, received: 0 }));
        w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
        w.set_fault_plan(&FaultPlan::new().at(1_500, FaultAction::Crash { mote: 1 })).unwrap();
        w.boot();
        w.run_until(10_000);
        assert_eq!(w.stats.dropped_in_flight, 1);
        assert_eq!(w.mote_stats(1).dropped_in_flight, 1);
        assert_eq!(w.radio.stats.dropped_in_flight, 1);
        assert!(!w.mote_status(1).is_up());
        assert_eq!(w.mote_stats(1).crashes, 1);
        // later pings toward the downed mote die at the radio instead
        assert!(w.radio.stats.dropped_link > 0);
    }

    #[test]
    fn crashed_motes_reboot_and_reconverge() {
        let mut w = World::new(Radio::ideal(1_000));
        w.add_mote(Box::new(Pinger { peer: 1, received: 0 }));
        w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
        w.set_fault_plan(
            &FaultPlan::new().at(5_500, FaultAction::Reboot { mote: 1, delay_us: 3_000 }),
        )
        .unwrap();
        w.boot();
        w.run_until(30_000);
        assert!(w.mote_status(1).is_up(), "rebooted");
        assert_eq!(w.mote_stats(1).crashes, 1);
        assert_eq!(w.mote_stats(1).reboots, 1);
        // traffic resumed after the reboot: mote 0 kept receiving pings
        // well past the outage window
        let received_after = w.leds(0).history.iter().filter(|(t, _, _)| *t > 12_000).count();
        assert!(received_after > 0, "mote 1's pings resumed after its reboot");
    }

    #[test]
    fn machine_failures_crash_the_mote_not_the_process() {
        let mut w = World::new(Radio::ideal(1_000));
        w.add_mote(Box::new(FlakyPinger { peer: 1, fail_at: 4_000 }));
        w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
        w.enable_trace();
        w.boot();
        w.run_until(10_000);
        match w.mote_status(0) {
            MoteStatus::Crashed { at, cause } => {
                assert_eq!(*at, 4_000);
                assert_eq!(cause.kind, CrashKind::RuntimeError);
                assert!(cause.message.contains("sensor read of nothing"));
            }
            MoteStatus::Up => panic!("mote 0 should have crashed"),
        }
        // the crash is visible in the world trace
        let trace = w.take_trace();
        assert!(trace
            .iter()
            .any(|e| e.mote == 0 && matches!(e.event, TraceEvent::MoteCrashed { .. })));
        // RebootPolicy::Never: it stays down
        assert_eq!(w.mote_stats(0).reboots, 0);
    }

    #[test]
    fn reboot_policy_revives_machine_crashes() {
        let mut w = World::new(Radio::ideal(1_000));
        w.set_reboot_policy(RebootPolicy::After(2_000));
        w.add_mote(Box::new(FlakyPinger { peer: 1, fail_at: 4_000 }));
        w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
        w.boot();
        w.run_until(20_000);
        assert!(w.mote_status(0).is_up());
        assert_eq!(w.mote_stats(0).crashes, 1);
        assert_eq!(w.mote_stats(0).reboots, 1);
    }

    fn chaotic_world(radio: Radio) -> World {
        let mut w = World::new(radio);
        w.enable_trace();
        w.set_reboot_policy(RebootPolicy::After(2_500));
        w.add_mote(Box::new(FlakyPinger { peer: 1, fail_at: 7_300 }));
        for peer in [2, 3, 0] {
            w.add_mote(Box::new(TracingPinger { peer }));
        }
        let plan = FaultPlan::new()
            .at(3_200, FaultAction::ClockSkew { mote: 2, ppm: 300 })
            .at(
                5_100,
                FaultAction::Partition {
                    group_a: vec![0, 1],
                    group_b: vec![2, 3],
                    until_us: 9_000,
                },
            )
            .at(10_400, FaultAction::Reboot { mote: 3, delay_us: 2_000 })
            .at(12_000, FaultAction::LossBurst { from: 1, to: 2, rate: 0.6, until_us: 20_000 })
            .at(15_000, FaultAction::DropInFlight { mote: 2 })
            .at(21_000, FaultAction::Heal);
        w.set_fault_plan(&plan).unwrap();
        w.boot();
        w
    }

    #[test]
    fn fault_injection_is_thread_count_invariant() {
        // the acceptance property: under a plan mixing crashes, reboots,
        // partitions, skew, bursts and in-flight drops — on a lossy
        // medium, with a machine crash mid-run — the world trace and all
        // counters are bit-identical at any thread count
        let radio = || Radio::new(crate::radio::Topology::Full, 700, 0.2, 13);
        let mut seq = chaotic_world(radio());
        seq.run_until(40_000);
        let seq_obs = observe(&seq);
        let seq_trace = seq.take_trace();
        assert!(
            seq_trace.iter().any(|e| matches!(e.event, TraceEvent::MoteCrashed { .. })),
            "somebody must crash for this test to bite"
        );
        assert!(
            seq_trace.iter().any(|e| matches!(e.event, TraceEvent::MoteRebooted { .. })),
            "somebody must reboot for this test to bite"
        );
        for threads in [2, 4, 8] {
            let mut par = chaotic_world(radio());
            par.run_until_parallel(40_000, threads);
            assert_eq!(seq_obs, observe(&par), "threads={threads}");
            assert_eq!(seq_trace, par.take_trace(), "threads={threads}");
        }
    }

    #[test]
    fn sharded_clustered_world_is_thread_count_invariant() {
        // the sharded acceptance property: a clustered medium (distinct
        // per-cluster latencies → distinct per-shard lookaheads) under a
        // chaotic fault plan, with par-stats enabled, stays bit-identical
        // to the sequential stepper at every thread count
        let build = || {
            let mut w =
                World::new(Radio::clustered(4, 3, vec![600, 900, 750, 650], 4_000, 0.15, 21));
            w.enable_trace();
            w.enable_par_stats();
            w.set_reboot_policy(RebootPolicy::After(2_500));
            for m in 0..12 {
                let peer = (m / 3) * 3 + (m + 1) % 3;
                w.add_mote(Box::new(TracingPinger { peer }));
            }
            let plan = FaultPlan::new()
                .at(4_000, FaultAction::Crash { mote: 5 })
                .at(9_000, FaultAction::ClockSkew { mote: 2, ppm: 400 })
                .at(14_000, FaultAction::LossBurst { from: 0, to: 1, rate: 0.5, until_us: 25_000 });
            w.set_fault_plan(&plan).unwrap();
            w.boot();
            w
        };
        let mut seq = build();
        seq.run_until(40_000);
        let seq_obs = observe(&seq);
        let seq_trace = seq.take_trace();
        assert!(seq_trace.iter().any(|e| matches!(e.event, TraceEvent::MoteCrashed { .. })));
        for threads in [1, 2, 4, 8] {
            let mut par = build();
            par.run_until_parallel(40_000, threads);
            assert_eq!(seq_obs, observe(&par), "threads={threads}");
            assert_eq!(seq_trace, par.take_trace(), "threads={threads}");
            let ps = par.take_par_stats().expect("enabled");
            if threads > 1 {
                assert!(ps.totals.windows > 0, "threads={threads}");
                assert!(ps.shards >= 2, "threads={threads}");
            }
        }
    }

    #[test]
    fn resharding_mid_run_preserves_the_event_stream() {
        // set_target_shards mid-run migrates every pending event with its
        // original key, so the merged behaviour cannot change
        let mut a = tracing_world(Radio::ideal(1_000));
        a.run_until(5_500);
        let mut b = tracing_world(Radio::ideal(1_000));
        b.run_until_parallel(2_500, 4);
        b.set_target_shards(2);
        b.run_until_parallel(5_500, 4);
        assert_eq!(observe(&a), observe(&b));
        assert_eq!(a.take_trace(), b.take_trace());
        assert_eq!(b.shard_count(), 2);
    }

    #[test]
    fn clock_skew_stretches_timers_deterministically() {
        // +100000 ppm (10% fast): the mote's local 1 ms period spans only
        // ~0.91 ms of world time, so it fires more timers over the run
        let run = |ppm: i64| {
            let mut w = World::new(Radio::ideal(1_000));
            w.add_mote(Box::new(Pinger { peer: 1, received: 0 }));
            w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
            if ppm != 0 {
                w.set_fault_plan(&FaultPlan::new().at(0, FaultAction::ClockSkew { mote: 0, ppm }))
                    .unwrap();
            }
            w.boot();
            w.run_until(50_000);
            w.mote_stats(0).timer_firings
        };
        let straight = run(0);
        let fast = run(100_000);
        assert!(fast > straight, "skewed {fast} vs straight {straight}");
        assert_eq!(fast, run(100_000), "and it is reproducible");
    }

    #[test]
    fn unskew_always_reaches_the_local_deadline() {
        // regression: the plain floor inverse could return a world time
        // whose local view was still short of the deadline (+500 ppm,
        // local 3000 → world 2998, skewed back to only 2999), so the
        // timer gate never fired and the mote re-armed the identical
        // request at the same instant forever
        for &ppm in &[500i64, -400, 300, 777, -777, 100_000, -100_000, 999_999, -999_999] {
            for local in (0..5_000u64).chain([123_456, 10_000_000]) {
                let w = unskew(local, ppm);
                assert!(skewed(w, ppm) >= local, "ppm={ppm} local={local} w={w}");
            }
        }
    }

    #[test]
    fn positive_skew_cannot_livelock_timers() {
        // end-to-end form of the regression above: +500 ppm used to spin
        // at a fixed virtual time instead of reaching the deadline
        let mut w = World::new(Radio::ideal(1_000));
        w.add_mote(Box::new(Pinger { peer: 1, received: 0 }));
        w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
        w.set_fault_plan(&FaultPlan::new().at(0, FaultAction::ClockSkew { mote: 0, ppm: 500 }))
            .unwrap();
        w.boot();
        w.run_until(50_000);
        assert!(w.mote_stats(0).timer_firings > 40, "the skewed mote must keep ticking");
    }

    /// Checks that sequential and parallel runs (threads 2 and 4) of
    /// `build` to `horizon` agree on every counter, LED, trace record and
    /// flight record; returns the sequential world.
    fn assert_steppers_agree(build: impl Fn() -> World, horizon: u64) -> World {
        let mut seq = build();
        seq.run_until(horizon);
        let seq_trace = seq.take_trace();
        for threads in [2, 4] {
            let mut par = build();
            par.run_until_parallel(horizon, threads);
            assert_eq!(observe(&seq), observe(&par), "threads={threads}");
            assert_eq!(seq_trace, par.take_trace(), "threads={threads}");
            assert_eq!(seq.flight_records(), par.flight_records(), "threads={threads}");
        }
        seq
    }

    #[test]
    fn reboot_times_saturate_instead_of_overflowing() {
        // every reboot below is due past u64::MAX: none may overflow, and
        // none is ever reached
        let forever = "18446744073709551615us";
        let plans = [
            format!("at 1ms reboot 0 after {forever}"),
            format!("at 1ms crash 0\nat 2ms reboot 0 after {forever}"),
        ];
        for plan in &plans {
            let plan = FaultPlan::parse(plan).unwrap();
            let seq = assert_steppers_agree(
                || {
                    let mut w = pinger_world(Radio::ideal(1_000));
                    w.set_fault_plan(&plan).unwrap();
                    w
                },
                10_000,
            );
            assert!(!seq.mote_status(0).is_up(), "{plan:?}");
            assert_eq!(seq.mote_stats(0).reboots, 0, "{plan:?}");
        }
        let seq = assert_steppers_agree(
            || {
                let mut w = World::new(Radio::ideal(1_000));
                w.set_reboot_policy(RebootPolicy::After(u64::MAX));
                w.add_mote(Box::new(FlakyPinger { peer: 1, fail_at: 4_000 }));
                w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
                w.boot();
                w
            },
            10_000,
        );
        assert!(!seq.mote_status(0).is_up());
        assert_eq!(seq.mote_stats(0).crashes, 1);
    }

    #[test]
    fn skews_that_stop_the_clock_are_refused() {
        // at -1e6 ppm a mote's clock stands still: every timer it asks for
        // lands at once and is asked for again, forever
        for ppm in [-1_000_000, i64::MIN] {
            let mut w = World::new(Radio::ideal(1_000));
            w.add_mote(Box::new(Pinger { peer: 1, received: 0 }));
            w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
            let plan = FaultPlan::new()
                .at(0, FaultAction::Heal)
                .at(1_000, FaultAction::ClockSkew { mote: 0, ppm });
            let err = w.set_fault_plan(&plan).expect_err("a clock that stands still");
            assert!(err.contains("entry 2") && err.contains(&format!("ppm {ppm}")), "{err}");
            // nothing of a refused plan is installed
            w.boot();
            w.run_until(5_000);
            assert!(w.mote_stats(0).timer_firings >= 4);
        }
        let mut w = World::new(Radio::ideal(1_000));
        w.add_mote(Box::new(Pinger { peer: 1, received: 0 }));
        w.add_mote(Box::new(Pinger { peer: 0, received: 0 }));
        let slowest = FaultPlan::new().at(0, FaultAction::ClockSkew { mote: 0, ppm: -999_999 });
        assert!(w.set_fault_plan(&slowest).is_ok());
    }

    /// In one timer callback at `fail_at`, traces, sends, asks for a timer
    /// and a CPU slice, then fails: the crash must discard all three.
    struct Discarder {
        peer: MoteId,
        fail_at: u64,
    }

    impl Backend for Discarder {
        fn boot(&mut self, ctx: &mut MoteCtx) {
            ctx.set_timer_at(ctx.now + 1_000);
        }
        fn deliver(&mut self, ctx: &mut MoteCtx, p: Packet) {
            ctx.vm_events.push(TraceEvent::Terminated { value: Some(p.value()) });
        }
        fn timer(&mut self, ctx: &mut MoteCtx) {
            ctx.vm_events.push(TraceEvent::Terminated { value: Some(ctx.now as i64) });
            ctx.send(self.peer, Packet::with_value(ctx.id, self.peer, ctx.now as i64));
            ctx.set_timer_at(ctx.now + 1_000);
            ctx.wants_cpu = true;
            if ctx.now == self.fail_at {
                let e = RuntimeError::new(Span::default(), "discard everything");
                ctx.fail(CrashCause::from_error(&e));
            }
        }
        fn cpu(&mut self, ctx: &mut MoteCtx) {
            ctx.vm_events.push(TraceEvent::Terminated { value: Some(0) });
        }
    }

    /// A pinger whose first reboot sends, asks for a timer and a CPU
    /// slice, then fails: it crashes again and only the second reboot
    /// brings it back.
    struct RebootFailer {
        peer: MoteId,
        reboots: u32,
    }

    impl Backend for RebootFailer {
        fn boot(&mut self, ctx: &mut MoteCtx) {
            ctx.set_timer_at(ctx.now + 1_000);
        }
        fn deliver(&mut self, _: &mut MoteCtx, _: Packet) {}
        fn timer(&mut self, ctx: &mut MoteCtx) {
            ctx.send(self.peer, Packet::with_value(ctx.id, self.peer, 1));
            ctx.set_timer_at(ctx.now + 1_000);
        }
        fn cpu(&mut self, _: &mut MoteCtx) {}
        fn reboot(&mut self, ctx: &mut MoteCtx) {
            self.reboots += 1;
            ctx.vm_events.push(TraceEvent::Terminated { value: Some(self.reboots as i64) });
            ctx.send(self.peer, Packet::with_value(ctx.id, self.peer, 2));
            ctx.set_timer_at(ctx.now + 1_000);
            ctx.wants_cpu = true;
            if self.reboots == 1 {
                let e = RuntimeError::new(Span::default(), "reboot failed");
                ctx.fail(CrashCause::from_error(&e));
            }
        }
    }

    #[test]
    fn a_failing_callback_discards_its_sends_timer_and_cpu_request() {
        let build = || {
            let mut w = World::new(Radio::new(crate::radio::Topology::Full, 700, 0.2, 5));
            w.enable_trace();
            w.enable_flight_recorder(64);
            w.set_reboot_policy(RebootPolicy::After(2_500));
            w.add_mote(Box::new(Discarder { peer: 1, fail_at: 4_000 }));
            w.add_mote(Box::new(RebootFailer { peer: 2, reboots: 0 }));
            w.add_mote(Box::new(TracingPinger { peer: 3 }));
            w.add_mote(Box::new(TracingPinger { peer: 0 }));
            w.set_fault_plan(&FaultPlan::new().at(3_500, FaultAction::Crash { mote: 1 })).unwrap();
            w.boot();
            w
        };
        let w = assert_steppers_agree(build, 30_000);
        let (discarder, failer) = (w.mote_stats(0), w.mote_stats(1));
        assert_eq!((discarder.crashes, discarder.reboots), (1, 1));
        // every timer callback sent one packet, except the failing one
        assert_eq!(discarder.sent, discarder.timer_firings - 1);
        // and every CPU slice was asked for by a timer callback that kept
        // its effects (the slice fires 100 µs later)
        assert_eq!(discarder.cpu_slices, discarder.timer_firings - 1);
        assert_eq!((failer.crashes, failer.reboots), (2, 2));
        // the second reboot's send counts; the first one's was discarded
        assert_eq!(failer.sent, failer.timer_firings + 1);
        assert_eq!(failer.cpu_slices, 1);
        let sent: u64 = (0..4).map(|m| w.mote_stats(m).sent).sum();
        assert_eq!(w.radio.stats.attempts, sent, "a discarded packet never reaches the radio");
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut w = World::new(Radio::ideal(0));
        struct Recorder {
            seen: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
        }
        impl Backend for Recorder {
            fn boot(&mut self, ctx: &mut MoteCtx) {
                ctx.set_timer_at(500);
            }
            fn deliver(&mut self, _: &mut MoteCtx, _: Packet) {}
            fn timer(&mut self, ctx: &mut MoteCtx) {
                self.seen.lock().unwrap().push(ctx.now);
                if ctx.now < 2_000 {
                    ctx.set_timer_at(ctx.now + 500);
                }
            }
            fn cpu(&mut self, _: &mut MoteCtx) {}
        }
        let seen = std::sync::Arc::new(std::sync::Mutex::new(vec![]));
        w.add_mote(Box::new(Recorder { seen: seen.clone() }));
        w.boot();
        w.run_until(3_000);
        assert_eq!(*seen.lock().unwrap(), vec![500, 1000, 1500, 2000]);
    }
}
