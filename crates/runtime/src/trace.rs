//! Execution tracing — the structured event model behind the Figure-1
//! reaction-chain reproduction, the profiling sinks in
//! [`telemetry`](crate::telemetry), and several semantics tests.
//!
//! Every record is self-contained: reaction boundaries carry both the
//! *virtual* clock (`now_us`, the machine's logical time in µs) and the
//! *host* clock (`wall_ns`, nanoseconds since the machine was created),
//! so downstream sinks can reconstruct spans without asking the machine
//! anything. [`TraceEvent::ReactionEnd`] additionally summarises the
//! whole chain (tracks run, gates fired/armed, emits, queue high-water,
//! internal-event stack depth) — the per-reaction numbers that feed the
//! [`Metrics`](crate::telemetry::Metrics) registry.

use ceu_ast::EventId;
use ceu_codegen::{AsyncId, BlockId, GateId};
use serde::{Deserialize, Serialize};

/// Globally unique identity of one reaction chain: which machine ran it
/// (`mote`, a world-assigned id — 0 for standalone machines) and its
/// per-machine sequence number (1-based; 0 never names a reaction).
/// This is the Dapper-style causal id that radio packets carry across
/// motes so the receive-side [`Cause`] can name its parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReactionId {
    pub mote: u32,
    pub seq: u64,
}

impl ReactionId {
    pub fn new(mote: u32, seq: u64) -> Self {
        ReactionId { mote, seq }
    }

    /// Compact stable label, e.g. `m2.17`.
    pub fn label(&self) -> String {
        format!("m{}.{}", self.mote, self.seq)
    }
}

/// What started a reaction chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cause {
    /// The boot reaction.
    Boot,
    /// An external input event; `parent` is the reaction (possibly on
    /// another mote) whose emission caused it, when known.
    Event { event: EventId, parent: Option<ReactionId> },
    /// A wall-clock deadline (absolute µs).
    Timer(u64),
    /// Completion of an async block.
    AsyncDone(u32),
}

impl Cause {
    /// An externally-caused event with no known causal parent.
    pub fn event(event: EventId) -> Cause {
        Cause::Event { event, parent: None }
    }

    /// The causal parent reaction, when recorded.
    pub fn parent(&self) -> Option<ReactionId> {
        match self {
            Cause::Event { parent, .. } => *parent,
            _ => None,
        }
    }

    /// Stable small index (per-cause metric arrays).
    pub fn index(&self) -> usize {
        match self {
            Cause::Boot => 0,
            Cause::Event { .. } => 1,
            Cause::Timer(_) => 2,
            Cause::AsyncDone(_) => 3,
        }
    }

    /// Short human label: `boot`, `event #3`, `timer 1500µs` or `async`.
    /// The one wording every text and Perfetto rendering of a cause uses.
    pub fn label(&self) -> String {
        match self {
            Cause::Boot => "boot".into(),
            Cause::Event { event, .. } => format!("event #{}", event.0),
            Cause::Timer(deadline_us) => format!("timer {deadline_us}µs"),
            Cause::AsyncDone(_) => "async".into(),
        }
    }
}

/// Why a mote's machine crashed. Recorded by the world-level fault
/// handling (`wsn-sim`) in [`TraceEvent::MoteCrashed`] events and crash
/// states; `Copy` so trace records stay `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrashKind {
    /// The machine surfaced an `Err(RuntimeError)` from a reaction.
    RuntimeError,
    /// A reaction chain exhausted its budget
    /// ([`set_fuel_limit`](crate::Machine::set_fuel_limit), or the
    /// safety-net default); the label stays `"watchdog"` on the wire.
    Watchdog,
    /// A fault plan took the mote down deliberately.
    FaultInjected,
}

impl CrashKind {
    /// Stable lowercase label (JSON wire format, text sinks).
    pub fn label(&self) -> &'static str {
        match self {
            CrashKind::RuntimeError => "runtime-error",
            CrashKind::Watchdog => "watchdog",
            CrashKind::FaultInjected => "fault-injected",
        }
    }
}

impl std::fmt::Display for CrashKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One trace record. Buffered by the machine once
/// [`Machine::enable_events`](crate::Machine::enable_events) is on; drained
/// with [`Machine::drain_events_into`](crate::Machine::drain_events_into).
///
/// On the wire (the `jsonl` format) an event is one object: its kind under
/// `"ev"`, then the variant's fields in declaration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "ev")]
pub enum TraceEvent {
    /// A reaction chain begins. `now_us` is the virtual clock, `wall_ns`
    /// the host clock relative to machine creation. `id` is the causal
    /// identity of this reaction (see [`ReactionId`]).
    ReactionStart {
        id: ReactionId,
        cause: Cause,
        now_us: u64,
        wall_ns: u64,
    },
    /// An occurring event found no active gates and was discarded (§2).
    Discarded {
        event: EventId,
    },
    /// A track was dequeued and executed.
    TrackRun {
        block: BlockId,
        rank: u8,
    },
    /// A gate was armed (a trail reached an `await`).
    GateArmed {
        gate: GateId,
    },
    /// A trail awoke from a gate.
    GateFired {
        gate: GateId,
    },
    /// An internal event was emitted; a nested reaction follows at stack
    /// depth `depth` (1 = emitted from the outermost reaction).
    EmitInt {
        event: EventId,
        depth: u32,
    },
    /// One round-robin slice of an async block ran (§2.7).
    AsyncSlice {
        async_id: AsyncId,
    },
    /// The reaction chain exhausted its budget (`tracks` executed so far,
    /// see [`set_fuel_limit`](crate::Machine::set_fuel_limit)); the
    /// machine aborts the reaction with a fuel error right after.
    BudgetExceeded {
        tracks: u32,
        wall_ns: u64,
    },
    /// The reaction chain ran to completion; summary of the whole chain.
    ReactionEnd {
        now_us: u64,
        /// Host clock at chain end (same epoch as `ReactionStart`).
        wall_ns: u64,
        /// Tracks executed, nested reactions included.
        tracks: u32,
        /// Internal events emitted within the chain.
        emits: u32,
        gates_fired: u32,
        gates_armed: u32,
        /// High-water mark of the track queue during the chain.
        queue_peak: u32,
        /// High-water mark of the internal-event stack (§2.2).
        emit_depth_max: u32,
    },
    Terminated {
        value: Option<i64>,
    },
    /// World-level: the mote hosting this machine crashed and degraded
    /// gracefully (no process abort). `line`/`col` locate the failing
    /// source statement for machine errors (`0:0` when unknown, e.g. a
    /// fault-injected crash). Emitted by the simulator, not the machine.
    MoteCrashed {
        kind: CrashKind,
        line: u32,
        col: u32,
    },
    /// World-level: the mote restarted from its boot image with full
    /// state loss. `boots` counts completed reboots (1 = first reboot).
    MoteRebooted {
        boots: u32,
    },
}

impl TraceEvent {
    /// Stable kind name (JSON `ev` field, text sink tags).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ReactionStart { .. } => "ReactionStart",
            TraceEvent::Discarded { .. } => "Discarded",
            TraceEvent::TrackRun { .. } => "TrackRun",
            TraceEvent::GateArmed { .. } => "GateArmed",
            TraceEvent::GateFired { .. } => "GateFired",
            TraceEvent::EmitInt { .. } => "EmitInt",
            TraceEvent::AsyncSlice { .. } => "AsyncSlice",
            TraceEvent::BudgetExceeded { .. } => "BudgetExceeded",
            TraceEvent::ReactionEnd { .. } => "ReactionEnd",
            TraceEvent::Terminated { .. } => "Terminated",
            TraceEvent::MoteCrashed { .. } => "MoteCrashed",
            TraceEvent::MoteRebooted { .. } => "MoteRebooted",
        }
    }

    /// `true` for the coarse, reaction-granularity events — everything
    /// except the per-track / per-gate firehose (`TrackRun`, `GateArmed`,
    /// `GateFired`, `AsyncSlice`). This is exactly the set the flight
    /// recorder keeps; [`Machine::enable_events`](crate::Machine::enable_events)
    /// with [`TraceMask::Coarse`] suppresses the rest at the source.
    #[inline]
    pub fn is_coarse(&self) -> bool {
        !matches!(
            self,
            TraceEvent::TrackRun { .. }
                | TraceEvent::GateArmed { .. }
                | TraceEvent::GateFired { .. }
                | TraceEvent::AsyncSlice { .. }
        )
    }

    /// The same event with its host-clock (`wall_ns`) fields zeroed — the
    /// only nondeterministic fields in a trace. Deterministic comparison
    /// paths (world traces, differential tests, `ceu-trace diff`) compare
    /// normalised events.
    #[inline]
    pub fn normalized(&self) -> TraceEvent {
        let mut e = *self;
        match &mut e {
            TraceEvent::ReactionStart { wall_ns, .. }
            | TraceEvent::ReactionEnd { wall_ns, .. }
            | TraceEvent::BudgetExceeded { wall_ns, .. } => *wall_ns = 0,
            _ => {}
        }
        e
    }
}

/// How much of the event stream a machine buffers.
///
/// `Full` is the debugging configuration: every event, including the
/// per-track firehose, with real `wall_ns` stamps. `Coarse` is the
/// always-on flight-recorder configuration: only [`TraceEvent::is_coarse`]
/// events are buffered, and — when neither metrics nor profiling need
/// the host clock — the per-reaction `Instant` samples are skipped too
/// (`wall_ns` is 0, which the recorder normalizes away anyway). This is what keeps the recorder's steady-state overhead in
/// the low single digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMask {
    Full,
    Coarse,
}
