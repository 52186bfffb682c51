//! Telemetry: metrics registry, reaction spans, and pluggable trace sinks.
//!
//! The machine buffers a flat [`TraceEvent`] stream (see
//! [`trace`](crate::trace) and
//! [`Machine::enable_events`](crate::Machine::enable_events)); everything
//! here is built *on top of* that stream, consuming drained events, so no
//! sink runs inside a reaction and nothing costs anything while the event
//! channel and metrics are off:
//!
//! * [`Metrics`] — counters and log₂-bucketed latency histograms,
//!   maintained by the machine itself when enabled via
//!   [`Machine::enable_metrics`](crate::Machine::enable_metrics);
//! * [`ReactionSpan`] / [`SpanCollector`] — reconstructs one span per
//!   reaction chain (cause, virtual time, host wall time, counters,
//!   nested events) from the event stream;
//! * [`TextSink`] — human-readable log lines;
//! * [`JsonLinesSink`] — one JSON object per event (`jsonl`), written
//!   through the event's `serde::Serialize` impl ([`event_to_json`]);
//! * [`to_perfetto`] — the one Chrome `trace_event` / Perfetto writer:
//!   renders [`FlightRecord`]s as per-mote processes with a `B`/`E` slice
//!   per reaction, an instant per in-reaction event and `s`/`f` flow
//!   arrows from each causal parent, on the [`TimeAxis`] its caller picks.
//!   The `chrome` [`TraceFormat`] stamps a machine's events into mote-0
//!   records and renders them on the host axis when it finishes.
//!
//! Sinks implement [`TraceSink`]: the embedding drains the machine with
//! [`Machine::drain_events_into`](crate::Machine::drain_events_into) and
//! hands each event to [`TraceSink::on_event`], then calls
//! [`TraceSink::finish`] once after the run (sinks with a footer, e.g.
//! the `chrome` format's, need it).

use crate::trace::{Cause, CrashKind, ReactionId, TraceEvent};
use serde::de::{field, tag, unknown_variant, Error, Value};
use serde::{Deserialize, Serialize, Serializer};
use std::collections::HashMap;
use std::io::Write;

// ---- metrics registry ------------------------------------------------------

/// A log₂-bucketed histogram of `u64` samples (latencies, counts).
///
/// Bucket `i` holds samples whose value has `i` significant bits, i.e.
/// `v == 0` → bucket 0, otherwise bucket `64 - v.leading_zeros()`; the
/// upper bound of bucket `i > 0` is `2^i - 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; 65] }
    }
}

impl Histogram {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (0 ≤ q ≤ 1).
    /// An estimate: exact to within a factor of two, clamped to `max`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let ub = if i == 0 { 0 } else { (1u64 << i).wrapping_sub(1) };
                return ub.min(self.max).max(self.min);
            }
        }
        self.max
    }
}

#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Counter + histogram registry maintained by the machine (and by the
/// simulators on top of it). All counters are cumulative since
/// [`Machine::enable_metrics`](crate::Machine::enable_metrics). Serializes
/// as one JSON object in field order.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct Metrics {
    /// Reaction chains completed.
    pub reactions: u64,
    /// Reactions by [`Cause::index`]: boot, event, timer, async-done.
    pub reactions_by_cause: [u64; 4],
    /// Tracks executed (basic blocks dequeued and run).
    pub tracks_run: u64,
    /// Tracks actually enqueued (spawn-dedup hits excluded).
    pub trail_spawns: u64,
    /// Active gates cleared by region aborts (`par/or`, `ClearRegion`).
    pub trail_kills: u64,
    /// Internal events emitted (§2.2 stack policy).
    pub emits_int: u64,
    /// Input events emitted by asyncs toward the synchronous side.
    pub emits_ext: u64,
    /// Output events delivered to the host.
    pub emits_out: u64,
    /// Timer gates fired (deadline expiries that awoke a trail).
    pub timer_firings: u64,
    /// Events (external or internal) that found no active gate.
    pub discarded_events: u64,
    /// Round-robin async slices executed (§2.7).
    pub async_slices: u64,
    pub gates_armed: u64,
    pub gates_fired: u64,
    /// High-water mark of the internal-event stack across all reactions.
    pub emit_depth_hwm: u32,
    /// High-water mark of the track queue across all reactions.
    pub queue_peak: u32,
    /// Reaction chains that exhausted their budget (see
    /// [`Machine::set_fuel_limit`](crate::Machine::set_fuel_limit)).
    pub watchdog_trips: u64,
    /// Host wall time per reaction chain (ns).
    pub reaction_wall_ns: Histogram,
    /// Tracks executed per reaction chain.
    pub tracks_per_reaction: Histogram,
}

impl Metrics {
    /// Human-readable multi-line summary (the `--metrics` report).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln_kv(&mut out, "reactions", self.reactions);
        out.push_str(&format!(
            "    by cause: boot={} event={} timer={} async={}\n",
            self.reactions_by_cause[0],
            self.reactions_by_cause[1],
            self.reactions_by_cause[2],
            self.reactions_by_cause[3],
        ));
        let _ = writeln_kv(&mut out, "tracks run", self.tracks_run);
        let _ = writeln_kv(&mut out, "trail spawns", self.trail_spawns);
        let _ = writeln_kv(&mut out, "trail kills", self.trail_kills);
        let _ = writeln_kv(&mut out, "emits (internal)", self.emits_int);
        let _ = writeln_kv(&mut out, "emits (async input)", self.emits_ext);
        let _ = writeln_kv(&mut out, "emits (output)", self.emits_out);
        let _ = writeln_kv(&mut out, "timer firings", self.timer_firings);
        let _ = writeln_kv(&mut out, "discarded events", self.discarded_events);
        let _ = writeln_kv(&mut out, "async slices", self.async_slices);
        let _ = writeln_kv(&mut out, "gates armed", self.gates_armed);
        let _ = writeln_kv(&mut out, "gates fired", self.gates_fired);
        let _ = writeln_kv(&mut out, "emit-stack high-water", self.emit_depth_hwm as u64);
        let _ = writeln_kv(&mut out, "queue high-water", self.queue_peak as u64);
        let _ = writeln_kv(&mut out, "watchdog trips", self.watchdog_trips);
        if !self.reaction_wall_ns.is_empty() {
            out.push_str(&format!(
                "  reaction latency: mean={:.0}ns p50≤{}ns p99≤{}ns max={}ns\n",
                self.reaction_wall_ns.mean(),
                self.reaction_wall_ns.quantile(0.50),
                self.reaction_wall_ns.quantile(0.99),
                self.reaction_wall_ns.max,
            ));
        }
        if !self.tracks_per_reaction.is_empty() {
            out.push_str(&format!(
                "  tracks/reaction:  mean={:.1} max={}\n",
                self.tracks_per_reaction.mean(),
                self.tracks_per_reaction.max,
            ));
        }
        out
    }

    /// One JSON object (stable key order).
    pub fn to_json(&self) -> String {
        to_json(self)
    }
}

fn writeln_kv(out: &mut String, k: &str, v: u64) -> std::fmt::Result {
    use std::fmt::Write as _;
    writeln!(out, "  {k:<22} {v}")
}

/// `{"count","sum","min","max","mean","p50","p90","p99"}`: an empty
/// histogram reports `min` 0, and `mean` has three decimals.
impl Serialize for Histogram {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_object();
        s.field("count", &self.count);
        s.field("sum", &self.sum);
        s.field("min", &if self.count == 0 { 0 } else { self.min });
        s.field("max", &self.max);
        s.field("mean", &Fixed::<3>(self.mean()));
        s.field("p50", &self.quantile(0.50));
        s.field("p90", &self.quantile(0.90));
        s.field("p99", &self.quantile(0.99));
        s.end_object();
    }
}

// ---- per-block profiling ---------------------------------------------------

/// Per-block execution counts and cumulative wall time (ns), indexed by
/// `BlockId`. Switched on via
/// [`Machine::enable_profiling`](crate::Machine::enable_profiling); wall
/// time is inclusive (nested reactions triggered by a block's emits count
/// toward the emitter too). Render against the original source via the
/// program's `DebugMap` ([`render_hot_statements`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockProfile {
    pub counts: Vec<u64>,
    pub wall_ns: Vec<u64>,
}

impl BlockProfile {
    pub fn new(n_blocks: usize) -> Self {
        BlockProfile { counts: vec![0; n_blocks], wall_ns: vec![0; n_blocks] }
    }

    /// Attributes one execution and `ns` of wall time to `block`.
    #[inline]
    pub fn record(&mut self, block: u32, ns: u64) {
        self.counts[block as usize] += 1;
        self.wall_ns[block as usize] += ns;
    }

    /// Executed blocks as `(block, count, wall_ns)`, hottest (by
    /// cumulative wall time, count as tiebreak) first.
    pub fn hot(&self) -> Vec<(u32, u64, u64)> {
        let mut rows: Vec<(u32, u64, u64)> = self
            .counts
            .iter()
            .zip(&self.wall_ns)
            .enumerate()
            .filter(|(_, (&c, _))| c > 0)
            .map(|(b, (&c, &ns))| (b as u32, c, ns))
            .collect();
        rows.sort_by(|a, b| (b.2, b.1).cmp(&(a.2, a.1)).then(a.0.cmp(&b.0)));
        rows
    }

    /// One JSON object (executed blocks only).
    pub fn to_json(&self) -> String {
        to_json(self)
    }
}

/// `{"blocks":[{"block","count","wall_ns"},…]}`, hottest first.
impl Serialize for BlockProfile {
    fn serialize(&self, s: &mut Serializer) {
        #[derive(Serialize)]
        struct Row {
            block: u32,
            count: u64,
            wall_ns: u64,
        }
        let rows: Vec<Row> = self
            .hot()
            .into_iter()
            .map(|(block, count, wall_ns)| Row { block, count, wall_ns })
            .collect();
        s.begin_object();
        s.field("blocks", &rows);
        s.end_object();
    }
}

/// Renders a profile as "hot statements" against the original source:
/// one line per profiled block, hottest first, quoting the source line
/// its `DebugMap` span points at. `top` bounds the number of rows.
pub fn render_hot_statements(
    src: &str,
    debug: &ceu_codegen::DebugMap,
    profile: &BlockProfile,
    top: usize,
) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let total_ns: u64 = profile.wall_ns.iter().sum();
    let mut out = String::new();
    out.push_str("  wall(ns)     %    count  block  source\n");
    for (b, count, ns) in profile.hot().into_iter().take(top) {
        let pct = if total_ns == 0 { 0.0 } else { ns as f64 * 100.0 / total_ns as f64 };
        let span = debug.block_span(b);
        let loc = if span.line > 0 {
            let text = lines.get(span.line as usize - 1).map(|l| l.trim()).unwrap_or("");
            format!("{}:{}: {}", span.line, span.col, text)
        } else {
            "<no span>".to_string()
        };
        out.push_str(&format!("  {ns:>9} {pct:>5.1}% {count:>8}  #{b:<4} {loc}\n"));
    }
    out
}

// ---- JSON wire format ------------------------------------------------------

/// Renders any wire record as one compact JSON string.
pub fn to_json<T: Serialize + ?Sized>(value: &T) -> String {
    let mut s = Serializer::new();
    value.serialize(&mut s);
    s.into_string()
}

/// A float written with exactly `D` decimals (`{:.D}`), as the wire
/// formats print means, rates and Chrome-trace timestamps.
#[derive(Clone, Copy, Debug)]
pub struct Fixed<const D: usize>(pub f64);

impl<const D: usize> Serialize for Fixed<D> {
    fn serialize(&self, s: &mut Serializer) {
        s.raw(&format!("{:.*}", D, self.0));
    }
}

/// A crash kind is its stable label, e.g. `"watchdog"`.
impl Serialize for CrashKind {
    fn serialize(&self, s: &mut Serializer) {
        s.string(self.label());
    }
}

impl Deserialize for CrashKind {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let kinds = [CrashKind::RuntimeError, CrashKind::Watchdog, CrashKind::FaultInjected];
        let label = String::deserialize(v)?;
        let kind = kinds.into_iter().find(|k| k.label() == label);
        kind.ok_or_else(|| Error::custom(format!("is not a crash kind: {label:?}")))
    }
}

/// `{"type":"event","id":3}` (plus a `parent` reaction id when the cause
/// records one), `{"type":"timer","deadline_us":…}`, `{"type":"boot"}`
/// or `{"type":"async","id":…}`.
impl Serialize for Cause {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_object();
        match self {
            Cause::Boot => s.field("type", "boot"),
            Cause::Event { event, parent } => {
                s.field("type", "event");
                s.field("id", event);
                if let Some(p) = parent {
                    s.field("parent", p);
                }
            }
            Cause::Timer(deadline_us) => {
                s.field("type", "timer");
                s.field("deadline_us", deadline_us);
            }
            Cause::AsyncDone(id) => {
                s.field("type", "async");
                s.field("id", id);
            }
        }
        s.end_object();
    }
}

impl Deserialize for Cause {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(match tag(v, "type")?.as_str() {
            "boot" => Cause::Boot,
            "event" => Cause::Event { event: field(v, "id")?, parent: field(v, "parent")? },
            "timer" => Cause::Timer(field(v, "deadline_us")?),
            "async" => Cause::AsyncDone(field(v, "id")?),
            other => return Err(unknown_variant("type", other)),
        })
    }
}

/// Renders one [`TraceEvent`] as a single JSON object (the `jsonl`
/// format).
pub fn event_to_json(e: &TraceEvent) -> String {
    to_json(e)
}

// ---- spans -----------------------------------------------------------------

/// One reaction chain, reconstructed from the event stream.
#[derive(Clone, Debug, PartialEq)]
pub struct ReactionSpan {
    /// Causal identity of the chain (see [`ReactionId`]).
    pub id: ReactionId,
    pub cause: Cause,
    /// Virtual clock at chain start (µs).
    pub now_us: u64,
    /// Host clock at chain start (ns since machine creation).
    pub wall_start_ns: u64,
    /// Host-time duration of the chain (ns).
    pub wall_dur_ns: u64,
    pub tracks: u32,
    pub emits: u32,
    pub gates_fired: u32,
    pub gates_armed: u32,
    pub queue_peak: u32,
    pub emit_depth_max: u32,
    /// Every event inside the chain, boundaries excluded, in order.
    pub events: Vec<TraceEvent>,
}

// ---- sinks -----------------------------------------------------------------

/// A consumer of drained trace events. `Any` lets a driver that boxed a
/// sink (e.g. `Simulator::set_trace_sink`) take it back by its concrete
/// type after the run.
pub trait TraceSink: std::any::Any {
    fn on_event(&mut self, e: &TraceEvent);

    /// Writes any trailer the format needs (e.g. closing a JSON array).
    /// Idempotence is not required; call exactly once, after the run.
    fn finish(&mut self) {}
}

/// Collects [`ReactionSpan`]s (plus any events seen outside a reaction,
/// e.g. `AsyncSlice`, kept in `orphans`).
#[derive(Default)]
pub struct SpanCollector {
    spans: Vec<ReactionSpan>,
    orphans: Vec<TraceEvent>,
    open: Option<ReactionSpan>,
}

impl SpanCollector {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn spans(&self) -> &[ReactionSpan] {
        &self.spans
    }

    pub fn orphans(&self) -> &[TraceEvent] {
        &self.orphans
    }

    pub fn into_spans(self) -> Vec<ReactionSpan> {
        self.spans
    }
}

impl TraceSink for SpanCollector {
    fn on_event(&mut self, e: &TraceEvent) {
        match e {
            TraceEvent::ReactionStart { id, cause, now_us, wall_ns } => {
                self.open = Some(ReactionSpan {
                    id: *id,
                    cause: *cause,
                    now_us: *now_us,
                    wall_start_ns: *wall_ns,
                    wall_dur_ns: 0,
                    tracks: 0,
                    emits: 0,
                    gates_fired: 0,
                    gates_armed: 0,
                    queue_peak: 0,
                    emit_depth_max: 0,
                    events: Vec::new(),
                });
            }
            TraceEvent::ReactionEnd {
                wall_ns,
                tracks,
                emits,
                gates_fired,
                gates_armed,
                queue_peak,
                emit_depth_max,
                ..
            } => {
                if let Some(mut span) = self.open.take() {
                    span.wall_dur_ns = wall_ns.saturating_sub(span.wall_start_ns);
                    span.tracks = *tracks;
                    span.emits = *emits;
                    span.gates_fired = *gates_fired;
                    span.gates_armed = *gates_armed;
                    span.queue_peak = *queue_peak;
                    span.emit_depth_max = *emit_depth_max;
                    self.spans.push(span);
                }
            }
            other => match &mut self.open {
                Some(span) => span.events.push(*other),
                None => self.orphans.push(*other),
            },
        }
    }
}

/// Human-readable log lines, nested events indented under their reaction.
pub struct TextSink<W: Write> {
    out: W,
}

impl<W: Write> TextSink<W> {
    pub fn new(out: W) -> Self {
        TextSink { out }
    }
}

impl<W: Write + 'static> TraceSink for TextSink<W> {
    fn on_event(&mut self, e: &TraceEvent) {
        let line = match e {
            TraceEvent::ReactionStart { cause, now_us, .. } => {
                format!("[{:>10}µs] reaction <- {}", now_us, cause.label())
            }
            TraceEvent::Discarded { event } => {
                format!("             | discarded event:{}", event.0)
            }
            TraceEvent::TrackRun { block, rank } => {
                format!("             | run block:{block} rank:{rank}")
            }
            TraceEvent::GateArmed { gate } => format!("             | arm gate:{gate}"),
            TraceEvent::GateFired { gate } => format!("             | fire gate:{gate}"),
            TraceEvent::EmitInt { event, depth } => {
                format!("             | emit event:{} depth:{}", event.0, depth)
            }
            TraceEvent::AsyncSlice { async_id } => {
                format!("             ~ async slice id:{async_id}")
            }
            TraceEvent::BudgetExceeded { tracks, .. } => {
                format!("             ! fuel budget exhausted after {tracks} tracks")
            }
            TraceEvent::ReactionEnd { wall_ns, tracks, emits, .. } => {
                format!("             ` end: {tracks} tracks, {emits} emits, {wall_ns}ns")
            }
            TraceEvent::Terminated { value } => match value {
                Some(v) => format!("             * terminated({v})"),
                None => "             * terminated".to_string(),
            },
            TraceEvent::MoteCrashed { kind, line, col } => {
                format!("             ! mote crashed ({kind}) at {line}:{col}")
            }
            TraceEvent::MoteRebooted { boots } => {
                format!("             * mote rebooted (boot {boots})")
            }
        };
        let _ = writeln!(self.out, "{line}");
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }
}

/// One JSON object per line, per event (the `jsonl` format).
pub struct JsonLinesSink<W: Write> {
    out: W,
}

impl<W: Write> JsonLinesSink<W> {
    pub fn new(out: W) -> Self {
        JsonLinesSink { out }
    }
}

impl<W: Write + 'static> TraceSink for JsonLinesSink<W> {
    fn on_event(&mut self, e: &TraceEvent) {
        let _ = writeln!(self.out, "{}", to_json(e));
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }
}

/// The `chrome` format: stamps each event into a mote-0 [`FlightRecord`]
/// (host clock kept) and renders them all with [`to_perfetto`] on the
/// host axis at [`finish`](TraceSink::finish).
struct PerfettoSink<W: Write> {
    out: W,
    stamper: Stamper,
    records: Vec<FlightRecord>,
}

impl<W: Write + 'static> TraceSink for PerfettoSink<W> {
    fn on_event(&mut self, e: &TraceEvent) {
        self.records.push(self.stamper.stamp(e));
    }

    fn finish(&mut self) {
        let _ = self.out.write_all(to_perfetto(&self.records, TimeAxis::Host, &[]).as_bytes());
        let _ = self.out.flush();
    }
}

// ---- format selection ------------------------------------------------------

/// Trace output formats understood by drivers (`ceuc run --trace=<fmt>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Human-readable lines ([`TextSink`]).
    Text,
    /// One JSON object per event per line ([`JsonLinesSink`]).
    Jsonl,
    /// Chrome trace-event / Perfetto JSON array ([`to_perfetto`] on the
    /// host axis).
    Chrome,
}

impl std::str::FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "text" | "txt" => Ok(TraceFormat::Text),
            "jsonl" | "json" => Ok(TraceFormat::Jsonl),
            "chrome" | "perfetto" => Ok(TraceFormat::Chrome),
            other => {
                Err(format!("unknown trace format `{other}` (expected text, jsonl, or chrome)"))
            }
        }
    }
}

impl TraceFormat {
    /// Builds a sink of this format over a writer (call `finish` on it
    /// after the run).
    pub fn build<W: Write + Send + 'static>(self, out: W) -> Box<dyn TraceSink + Send> {
        match self {
            TraceFormat::Text => Box::new(TextSink::new(out)),
            TraceFormat::Jsonl => Box::new(JsonLinesSink::new(out)),
            TraceFormat::Chrome => {
                Box::new(PerfettoSink { out, stamper: Stamper::default(), records: Vec::new() })
            }
        }
    }
}

// ---- flight recorder -------------------------------------------------------

/// One flight-recorder entry: a trace event stamped with the virtual
/// clock and the mote it happened on. Also the world trace's element and
/// JSONL line, `{"t_us":…,"mote":…,"seq":…,"ev":{…}}`, so every
/// `ceu-trace` reader understands it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Virtual clock (µs) when the event was recorded.
    pub t_us: u64,
    pub mote: usize,
    /// Per-mote trace sequence number (canonical tie-break within a µs).
    pub seq: u64,
    /// The event, wall-clock-normalized (see [`TraceEvent::normalized`]).
    #[serde(rename = "ev")]
    pub event: TraceEvent,
}

impl FlightRecord {
    /// One JSONL line of the world-trace wire format.
    pub fn to_json(&self) -> String {
        to_json(self)
    }
}

/// Stamps a bare machine's events as mote-0 [`FlightRecord`]s, as a world
/// stamps its motes': the virtual clock rides along on reaction
/// boundaries (everything between two shares the enclosing reaction's
/// time) and `seq` counts events from 1. The event is kept as it is,
/// host clock included.
#[derive(Default)]
pub struct Stamper {
    now_us: u64,
    seq: u64,
}

impl Stamper {
    pub fn stamp(&mut self, e: &TraceEvent) -> FlightRecord {
        if let TraceEvent::ReactionStart { now_us, .. } | TraceEvent::ReactionEnd { now_us, .. } = e
        {
            self.now_us = *now_us;
        }
        self.seq += 1;
        FlightRecord { t_us: self.now_us, mote: 0, seq: self.seq, event: *e }
    }
}

/// One scheduler window, as seen by the shard that ran it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowMark {
    /// Window bounds (virtual µs, half-open `[start, end)`).
    pub start_us: u64,
    pub end_us: u64,
    /// Events the shard processed inside the window.
    pub events: u64,
}

/// Fixed-capacity ring: `push` past capacity overwrites oldest-first and
/// bumps `dropped`. Never allocates after construction.
struct Ring<T> {
    buf: Vec<T>,
    /// Index of the oldest live element.
    head: usize,
    len: usize,
    dropped: u64,
}

impl<T: Copy> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring { buf: Vec::with_capacity(capacity), head: 0, len: 0, dropped: 0 }
    }

    #[inline]
    fn push(&mut self, v: T) {
        let cap = self.buf.capacity();
        // index arithmetic avoids `%` — a runtime-divisor divide would be
        // the single most expensive instruction on this path
        if cap == 0 {
            self.dropped += 1;
        } else if self.len < cap {
            let idx = self.head + self.len;
            let idx = if idx >= cap { idx - cap } else { idx };
            if idx == self.buf.len() {
                self.buf.push(v); // cold path: first fill only
            } else {
                self.buf[idx] = v;
            }
            self.len += 1;
        } else {
            self.buf[self.head] = v;
            self.head += 1;
            if self.head == cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Live elements, oldest first.
    fn iter(&self) -> impl Iterator<Item = &T> {
        let (head, len) = (self.head, self.len);
        (0..len).map(move |i| &self.buf[(head + i) % self.buf.capacity().max(1)])
    }

    /// Empties the ring; `dropped` stays monotonic across clears.
    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// Always-on, bounded-memory flight recorder: the last `capacity`
/// interesting trace events (reaction boundaries, emissions, exhausted
/// budgets, crashes/reboots — per-track/gate detail is filtered out) plus
/// a small out-of-band ring of scheduler [`WindowMark`]s. Steady-state
/// recording is allocation-free and O(1) per event; overflow drops
/// oldest-first behind a monotonic [`dropped`](FlightRecorder::dropped)
/// counter. In the sharded simulator each shard owns one, so recording
/// never crosses a shard boundary.
pub struct FlightRecorder {
    ring: Ring<FlightRecord>,
    marks: Ring<WindowMark>,
    recorded: u64,
}

impl FlightRecorder {
    /// Capacity of the window-marks ring (windows are coarse — a handful
    /// per shard per run segment — so a small fixed ring suffices).
    pub const WINDOW_MARKS: usize = 64;

    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Ring::new(capacity),
            marks: Ring::new(Self::WINDOW_MARKS),
            recorded: 0,
        }
    }

    /// The recording filter: reaction begin/end, emissions, discards,
    /// faults, exhausted budgets, termination, crash/reboot — everything a
    /// post-mortem needs; per-track and per-gate detail is too fine for
    /// a bounded ring and is skipped. Identical to
    /// [`TraceEvent::is_coarse`], so a machine running under
    /// `TraceMask::Coarse` emits exactly the recorded set.
    #[inline]
    pub fn wants(e: &TraceEvent) -> bool {
        e.is_coarse()
    }

    /// Records one event (if [`wants`](Self::wants) accepts it),
    /// wall-clock-normalized so recorded content is reproducible.
    /// `#[inline]`: callers live in other crates (simulator, CLIs) and the
    /// body is two branches and a copy — an opaque call would cost more
    /// than the recording.
    #[inline]
    pub fn record(&mut self, t_us: u64, mote: usize, seq: u64, event: &TraceEvent) {
        if !Self::wants(event) {
            return;
        }
        self.recorded += 1;
        self.ring.push(FlightRecord { t_us, mote, seq, event: event.normalized() });
    }

    /// Re-inserts an already-built record verbatim (ring migration on
    /// resharding; bypasses the filter — the source ring already applied it).
    pub fn record_raw(&mut self, r: FlightRecord) {
        self.recorded += 1;
        self.ring.push(r);
    }

    /// Records a scheduler window mark (kept out of the event ring so
    /// parallel-only marks never perturb seq-vs-par event content).
    pub fn record_window(&mut self, start_us: u64, end_us: u64, events: u64) {
        self.marks.push(WindowMark { start_us, end_us, events });
    }

    /// Live records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &FlightRecord> {
        self.ring.iter()
    }

    /// Live window marks, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowMark> {
        self.marks.iter()
    }

    pub fn len(&self) -> usize {
        self.ring.len
    }

    pub fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    pub fn capacity(&self) -> usize {
        self.ring.buf.capacity()
    }

    /// Events accepted by the filter over the recorder's lifetime
    /// (monotonic; `recorded - dropped` are still in the ring).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted oldest-first on overflow (monotonic).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped
    }

    /// Ring fill fraction in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        let cap = self.capacity();
        if cap == 0 {
            0.0
        } else {
            self.ring.len as f64 / cap as f64
        }
    }

    /// Empties both rings; the monotonic counters are preserved.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.marks.clear();
    }
}

// ---- crash black box ------------------------------------------------------

/// Schema tag of a crash black-box dump.
pub const BLACKBOX_SCHEMA: &str = "ceu-blackbox/v1";

/// The first line of a `ceu-blackbox/v1` dump, after the schema tag
/// [`blackbox_dump`] writes. A world dump names the crashed mote and, when
/// it is down, its crash kind and source site; a single-machine dump has
/// `shards: 0`. `None` members are left out.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BlackboxHeader {
    pub reason: String,
    pub t_us: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub mote: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub crash_us: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub kind: Option<CrashKind>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cause: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub line: Option<u32>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub col: Option<u32>,
    pub motes: usize,
    pub shards: usize,
    pub ring_capacity: usize,
    pub ring_records: usize,
    pub ring_dropped: u64,
}

/// A `ceu-blackbox/v1` stat line, `{"blackbox":"<kind>",…}`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "blackbox", rename_all = "lowercase")]
pub enum BlackboxStat {
    /// One shard's ring (world dumps).
    Shard {
        shard: u32,
        motes: usize,
        lookahead_us: u64,
        ring_len: usize,
        ring_dropped: u64,
        ring_recorded: u64,
    },
    /// One scheduler window mark of a shard (world dumps).
    Window {
        shard: u32,
        #[serde(flatten)]
        mark: WindowMark,
    },
    /// One mote the rings mention (world dumps).
    Mote {
        mote: usize,
        up: bool,
        sent: u64,
        received: u64,
        dropped_in_flight: u64,
        crashes: u64,
        reboots: u64,
    },
    /// The one ring of a single-machine dump.
    Machine { boots: u32, ring_len: usize, ring_dropped: u64, ring_recorded: u64 },
}

/// Renders a whole `ceu-blackbox/v1` dump: the header (tagged with
/// [`BLACKBOX_SCHEMA`]), the stat lines, then every flight record in
/// world-trace wire shape, one JSON object per line.
pub fn blackbox_dump<'r>(
    header: &BlackboxHeader,
    stats: &[BlackboxStat],
    records: impl IntoIterator<Item = &'r FlightRecord>,
) -> String {
    #[derive(Serialize)]
    struct Tagged<'h> {
        schema: &'static str,
        #[serde(flatten)]
        header: &'h BlackboxHeader,
    }
    let mut out = to_json(&Tagged { schema: BLACKBOX_SCHEMA, header }) + "\n";
    let lines = stats.iter().map(to_json).chain(records.into_iter().map(to_json));
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

// ---- Chrome / Perfetto -----------------------------------------------------

/// The time axis [`to_perfetto`] puts `ts` on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeAxis {
    /// `ts` is the record's virtual clock, `t_us`. A reaction takes no
    /// logical time, so on this axis its slice is a point.
    Virtual,
    /// `ts` is the event's host clock, `wall_ns`, in µs with three
    /// decimals; an event that carries none sits at the last reaction
    /// boundary. Only this axis shows what a reaction cost.
    Host,
}

/// A Chrome `ts` or `dur`: whole µs of virtual time, or host nanoseconds
/// written as µs with three decimals.
#[derive(Clone, Copy, Debug)]
pub enum Micros {
    Virtual(u64),
    HostNs(u64),
}

impl Default for Micros {
    fn default() -> Self {
        Micros::Virtual(0)
    }
}

impl Serialize for Micros {
    fn serialize(&self, s: &mut Serializer) {
        match *self {
            Micros::Virtual(us) => us.serialize(s),
            Micros::HostNs(ns) => Fixed::<3>(ns as f64 / 1_000.0).serialize(s),
        }
    }
}

/// One Chrome trace-event object ("JSON Array Format"); `None` members
/// are left out.
#[derive(Clone, Copy, Default, Serialize)]
pub struct ChromeEvent<'a> {
    pub ph: &'a str,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub bp: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub s: Option<&'a str>,
    pub pid: u64,
    pub tid: u64,
    pub ts: Micros,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dur: Option<Micros>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub id: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub name: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cat: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub args: Option<Args<'a>>,
}

/// The `args` of a [`ChromeEvent`]; `None` members are left out. A
/// reaction slice or instant carries its whole trace event, host clock
/// zeroed (its `ts` shows that), so the rendering drops no detail.
#[derive(Clone, Copy, Default, Serialize)]
pub struct Args<'a> {
    #[serde(skip_serializing_if = "Option::is_none")]
    pub name: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub events: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub span_us: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cross_sends: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub worker: Option<u32>,
    #[serde(flatten, skip_serializing_if = "Option::is_none")]
    pub event: Option<TraceEvent>,
}

/// The one Chrome trace-event / Perfetto writer (load the output in
/// `ui.perfetto.dev` or `chrome://tracing`): one process per mote, a
/// `B`/`E` slice per reaction named `reaction m0.3 (event #1)`, a
/// thread-scoped instant per in-reaction event, and an `s`/`f` flow
/// arrow from each causal parent's slice to the reaction it caused
/// (cross-mote arrows are the radio packets). `extra` events, already
/// rendered, join the same array (`ceu-trace to-perfetto --par-stats`
/// adds the scheduler's tracks this way).
pub fn to_perfetto(records: &[FlightRecord], axis: TimeAxis, extra: &[String]) -> String {
    let mut boundary_ns = 0;
    let stamps: Vec<Micros> = records
        .iter()
        .map(|r| match (axis, r.event) {
            (TimeAxis::Virtual, _) => Micros::Virtual(r.t_us),
            (
                TimeAxis::Host,
                TraceEvent::ReactionStart { wall_ns, .. } | TraceEvent::ReactionEnd { wall_ns, .. },
            ) => {
                boundary_ns = wall_ns;
                Micros::HostNs(wall_ns)
            }
            (TimeAxis::Host, TraceEvent::BudgetExceeded { wall_ns, .. }) => Micros::HostNs(wall_ns),
            (TimeAxis::Host, _) => Micros::HostNs(boundary_ns),
        })
        .collect();
    // index reaction starts so flows can anchor on the parent slice
    let mut starts: HashMap<ReactionId, Micros> = HashMap::new();
    for (r, &ts) in records.iter().zip(&stamps) {
        if let TraceEvent::ReactionStart { id, .. } = r.event {
            starts.entry(id).or_insert(ts);
        }
    }
    let mut motes: Vec<usize> = records.iter().map(|r| r.mote).collect();
    motes.sort();
    motes.dedup();
    let mut out: Vec<String> = motes
        .into_iter()
        .map(|m| {
            let name = format!("mote {m}");
            to_json(&ChromeEvent {
                ph: "M",
                pid: m as u64,
                tid: m as u64,
                name: Some("process_name"),
                args: Some(Args { name: Some(&name), ..Args::default() }),
                ..ChromeEvent::default()
            })
        })
        .collect();
    let mut flow_id = 0u64;
    for (r, &ts) in records.iter().zip(&stamps) {
        let (pid, tid) = (r.mote as u64, r.mote as u64);
        let args = Some(Args { event: Some(r.event.normalized()), ..Args::default() });
        let at = ChromeEvent { pid, tid, ts, args, ..ChromeEvent::default() };
        match r.event {
            TraceEvent::ReactionStart { id, cause, .. } => {
                let name = format!("reaction {} ({})", id.label(), cause.label());
                let cat = Some("reaction");
                out.push(to_json(&ChromeEvent { ph: "B", name: Some(&name), cat, ..at }));
                if let Some((p, &pt)) = cause.parent().and_then(|p| Some((p, starts.get(&p)?))) {
                    let pm = p.mote as u64;
                    flow_id += 1;
                    let flow = ChromeEvent {
                        ph: "s",
                        pid: pm,
                        tid: pm,
                        ts: pt,
                        id: Some(flow_id),
                        name: Some("cause"),
                        cat: Some("flow"),
                        ..ChromeEvent::default()
                    };
                    out.push(to_json(&flow));
                    out.push(to_json(&ChromeEvent {
                        ph: "f",
                        bp: Some("e"),
                        pid,
                        tid,
                        ts,
                        ..flow
                    }));
                }
            }
            TraceEvent::ReactionEnd { .. } => out.push(to_json(&ChromeEvent { ph: "E", ..at })),
            ev => {
                let kind = ev.kind();
                let name = match ev {
                    TraceEvent::TrackRun { block, .. } => format!("TrackRun #{block}"),
                    TraceEvent::GateFired { gate } | TraceEvent::GateArmed { gate } => {
                        format!("{kind} g{gate}")
                    }
                    TraceEvent::EmitInt { event, .. } | TraceEvent::Discarded { event } => {
                        format!("{kind} #{}", event.0)
                    }
                    _ => kind.to_string(),
                };
                let (s, cat) = (Some("t"), Some("vm"));
                out.push(to_json(&ChromeEvent { ph: "i", s, name: Some(&name), cat, ..at }));
            }
        }
    }
    out.extend(extra.iter().cloned());
    format!("[\n{}\n]\n", out.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceu_ast::EventId;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert!((h.mean() - 1107.0 / 7.0).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), 0);
        // p50 falls in the 2-3 bucket: upper bound 3
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 1000);
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn event_json_is_one_object_per_event() {
        let e = TraceEvent::ReactionStart {
            id: ReactionId::new(0, 7),
            cause: Cause::event(EventId(3)),
            now_us: 42,
            wall_ns: 1500,
        };
        assert_eq!(
            event_to_json(&e),
            r#"{"ev":"ReactionStart","id":{"mote":0,"seq":7},"cause":{"type":"event","id":3},"now_us":42,"wall_ns":1500}"#
        );
        let with_parent = TraceEvent::ReactionStart {
            id: ReactionId::new(2, 1),
            cause: Cause::Event { event: EventId(3), parent: Some(ReactionId::new(0, 7)) },
            now_us: 42,
            wall_ns: 1500,
        };
        assert_eq!(
            event_to_json(&with_parent),
            r#"{"ev":"ReactionStart","id":{"mote":2,"seq":1},"cause":{"type":"event","id":3,"parent":{"mote":0,"seq":7}},"now_us":42,"wall_ns":1500}"#
        );
        let t = TraceEvent::Terminated { value: None };
        assert_eq!(event_to_json(&t), r#"{"ev":"Terminated","value":null}"#);
    }

    #[test]
    fn block_profile_sorts_hot_blocks() {
        let mut p = BlockProfile::new(4);
        p.record(1, 100);
        p.record(3, 900);
        p.record(3, 100);
        p.record(0, 50);
        assert_eq!(p.hot(), vec![(3, 2, 1000), (1, 1, 100), (0, 1, 50)]);
        let json = p.to_json();
        assert!(json.starts_with(r#"{"blocks":[{"block":3,"count":2,"wall_ns":1000}"#), "{json}");
    }

    #[test]
    fn span_collector_builds_spans() {
        let mut c = SpanCollector::new();
        c.on_event(&TraceEvent::ReactionStart {
            id: ReactionId::new(0, 1),
            cause: Cause::Boot,
            now_us: 0,
            wall_ns: 100,
        });
        c.on_event(&TraceEvent::TrackRun { block: 0, rank: 0 });
        c.on_event(&TraceEvent::GateArmed { gate: 2 });
        c.on_event(&TraceEvent::ReactionEnd {
            now_us: 0,
            wall_ns: 600,
            tracks: 1,
            emits: 0,
            gates_fired: 0,
            gates_armed: 1,
            queue_peak: 1,
            emit_depth_max: 0,
        });
        let spans = c.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].cause, Cause::Boot);
        assert_eq!(spans[0].wall_dur_ns, 500);
        assert_eq!(spans[0].tracks, 1);
        assert_eq!(spans[0].events.len(), 2);
    }

    #[test]
    fn chrome_sink_emits_balanced_pairs() {
        let stamper = Stamper::default();
        let mut sink = PerfettoSink { out: Vec::new(), stamper, records: Vec::new() };
        sink.on_event(&TraceEvent::ReactionStart {
            id: ReactionId::new(0, 1),
            cause: Cause::Timer(500),
            now_us: 500,
            wall_ns: 2000,
        });
        sink.on_event(&TraceEvent::ReactionEnd {
            now_us: 500,
            wall_ns: 9000,
            tracks: 2,
            emits: 0,
            gates_fired: 1,
            gates_armed: 1,
            queue_peak: 1,
            emit_depth_max: 0,
        });
        sink.finish();
        let text = String::from_utf8(sink.out).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(text.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(text.matches("\"ph\":\"E\"").count(), 1);
        assert!(text.contains("\"ts\":2.000"), "{text}");
        assert!(text.contains("\"name\":\"reaction m0.1 (timer 500µs)\""), "{text}");
    }

    #[test]
    fn trace_format_parses() {
        assert_eq!("jsonl".parse::<TraceFormat>().unwrap(), TraceFormat::Jsonl);
        assert_eq!("perfetto".parse::<TraceFormat>().unwrap(), TraceFormat::Chrome);
        assert_eq!("text".parse::<TraceFormat>().unwrap(), TraceFormat::Text);
        assert!("yaml".parse::<TraceFormat>().is_err());
    }

    fn emit_at(t: u64) -> TraceEvent {
        TraceEvent::EmitInt { event: EventId(t as u16), depth: 0 }
    }

    #[test]
    fn flight_recorder_wraps_oldest_first_with_monotonic_dropped() {
        let mut r = FlightRecorder::new(4);
        for t in 0..10u64 {
            r.record(t, 0, t, &emit_at(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6, "10 recorded into 4 slots drops 6");
        let kept: Vec<u64> = r.iter().map(|rec| rec.t_us).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest dropped first, order preserved");
        // dropped never resets, even across clear
        r.clear();
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 6);
        r.record(42, 1, 0, &emit_at(42));
        assert_eq!(r.iter().map(|rec| rec.t_us).collect::<Vec<_>>(), vec![42]);
        for t in 100..110u64 {
            r.record(t, 1, t, &emit_at(t));
        }
        assert_eq!(r.dropped(), 6 + 7, "dropped stays monotonic after reuse");
    }

    #[test]
    fn flight_recorder_filters_fine_grained_events() {
        let mut r = FlightRecorder::new(8);
        r.record(1, 0, 1, &TraceEvent::TrackRun { block: 3, rank: 0 });
        r.record(1, 0, 2, &TraceEvent::GateArmed { gate: 1 });
        r.record(1, 0, 3, &TraceEvent::GateFired { gate: 1 });
        r.record(1, 0, 4, &TraceEvent::AsyncSlice { async_id: 0 });
        assert_eq!(r.len(), 0, "per-track/gate detail is filtered");
        assert_eq!(r.recorded(), 0);
        r.record(2, 0, 5, &emit_at(2));
        r.record(
            2,
            0,
            6,
            &TraceEvent::ReactionEnd {
                now_us: 2,
                wall_ns: 999, // normalized away below
                tracks: 1,
                emits: 1,
                gates_fired: 0,
                gates_armed: 0,
                queue_peak: 1,
                emit_depth_max: 0,
            },
        );
        assert_eq!(r.len(), 2);
        let end = r.iter().nth(1).unwrap();
        match end.event {
            TraceEvent::ReactionEnd { wall_ns, .. } => {
                assert_eq!(wall_ns, 0, "records are wall-clock-normalized")
            }
            ref other => panic!("expected ReactionEnd, got {other:?}"),
        }
    }

    #[test]
    fn flight_recorder_window_marks_are_bounded_and_separate() {
        let mut r = FlightRecorder::new(2);
        for w in 0..(FlightRecorder::WINDOW_MARKS as u64 + 5) {
            r.record_window(w * 100, (w + 1) * 100, w);
        }
        assert_eq!(r.windows().count(), FlightRecorder::WINDOW_MARKS);
        assert_eq!(r.windows().next().unwrap().events, 5, "oldest marks evicted first");
        assert_eq!(r.len(), 0, "marks never occupy event slots");
        assert_eq!(r.dropped(), 0, "mark overflow is not an event drop");
    }

    #[test]
    fn flight_record_json_matches_world_trace_shape() {
        let rec = FlightRecord {
            t_us: 7,
            mote: 3,
            seq: 9,
            event: TraceEvent::EmitInt { event: EventId(2), depth: 1 },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t_us":7,"mote":3,"seq":9,"ev":{"ev":"EmitInt","event":2,"depth":1}}"#
        );
    }

    #[test]
    fn zero_capacity_recorder_counts_everything_as_dropped() {
        let mut r = FlightRecorder::new(0);
        r.record(1, 0, 1, &emit_at(1));
        assert_eq!(r.len(), 0);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.occupancy(), 0.0);
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(to_json("a\"b\\c\nd\u{1}"), r#""a\"b\\c\nd\u0001""#);
    }
}
