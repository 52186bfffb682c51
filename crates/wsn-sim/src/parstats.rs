//! Parallel-scheduler introspection: per-window stall attribution for
//! [`World::run_until_parallel`](crate::world::World::run_until_parallel).
//!
//! The conservative-PDES stepper advances in lookahead-wide windows:
//! drain the heap into per-mote batches (serial), step the batches on
//! worker threads (parallel), then merge cross-window effects back
//! deterministically (serial). This module is the instrument panel:
//! when enabled, every window records its span, lookahead, per-worker
//! busy time, merge/drain durations, heap traffic and cross-window send
//! volume into a preallocated collector (zero cost when disabled,
//! bounded memory when enabled), and the whole run can be emitted as the
//! stable JSONL schema **`ceu-par-stats/v2`** for `ceu-trace par-report`
//! and the Perfetto worker-track export.
//!
//! v2 extends v1 **additively** for the sharded scheduler: the run line
//! gains `shards`, per-shard aggregate lines (`kind:"shard"`: mote count,
//! events, busy time, cross-shard sends, channel-wait) follow the run
//! line, and each window line carries its `(shard, worker, busy, events)`
//! placement. Every v1 field keeps its name and meaning; `ceu-trace`
//! reads both versions.
//!
//! ## Stall attribution
//!
//! Wall time is accounted in *thread-time*: a run at `threads = T` has a
//! capacity of `T × wall` nanoseconds, and every window splits its slice
//! of that capacity exactly (integer arithmetic, no residue) into:
//!
//! * **busy** — workers actually stepping motes (`Σ busy_w`);
//! * **imbalance** — active workers waiting on the slowest one
//!   (`workers × max(busy) − Σ busy`);
//! * **lookahead** — threads with *no batch at all* this window because
//!   the lookahead-clipped window held too few motes with events
//!   (`(T − workers) × max(busy)`);
//! * **barrier** — scoped-thread spawn/join overhead around the parallel
//!   phase (`T × (par − max(busy))`);
//! * **merge** — the serial deterministic merge plus the serial heap
//!   drain that brackets every window (`T × (merge + drain)`).
//!
//! The five categories sum to `T × (drain + par + merge)`, the window's
//! wall-clock, by construction — the invariant
//! [`ParWindowStats::attribution`] documents and the tier-1 tests pin.
//!
//! ## Wire format
//!
//! The records serialize through `serde`: [`ParStats`] is the `run` line,
//! [`ParShardStats`] a `shard` line and [`ParWindowStats`] a `window`
//! line. [`parse_par_stats`] reads v1 and v2 streams back into
//! [`ParStats`] values, so `ceu-trace` renders the same type the
//! simulator collects.

use serde::{Serialize, Serializer};
use serde_json::Value;
use std::io::Write;

/// Schema tag of every line this module writes.
pub const PAR_STATS_SCHEMA: &str = "ceu-par-stats/v2";

/// Upper bound on fully-detailed windows kept per [`ParStats`] (the
/// aggregate totals keep counting past it). Bounds enabled-mode memory:
/// a week-long soak cannot OOM the collector.
pub const DEFAULT_WINDOW_CAP: usize = 65_536;

/// Per-window sample cap for cross-window sends (the Perfetto flow-arrow
/// source material); the full count is always in `cross_sends`.
pub const SEND_SAMPLE_CAP: usize = 32;

/// One parallel window, fully attributed. All durations are host
/// nanoseconds; all times suffixed `_us` are virtual microseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParWindowStats {
    /// Window index within the run (0-based).
    pub index: u64,
    /// Host-clock offset of the window start since the run began (ns).
    pub t_wall_ns: u64,
    /// Virtual span: `[start_us, end_us)`.
    pub start_us: u64,
    pub end_us: u64,
    /// The lookahead the stepper computed for this window (today: the
    /// global minimum radio latency — the conservative fallback).
    pub lookahead_us: u64,
    /// The window was clipped short of `start + lookahead` by a pending
    /// world event (fault/reboot barrier) or the run deadline.
    pub clipped: bool,
    /// Requested thread count for the run.
    pub threads: u32,
    /// Workers actually spawned (`min(threads, motes with events)`).
    pub workers: u32,
    /// Motes checked out and stepped this window.
    pub motes: u32,
    /// Events fired inside the window (incl. locally scheduled ones).
    pub events: u64,
    /// Per-worker busy nanoseconds (length = `workers`).
    pub busy_ns: Vec<u64>,
    /// Per-worker events stepped (length = `workers`).
    pub events_per_worker: Vec<u64>,
    /// Per-worker motes stepped (length = `workers`).
    pub motes_per_worker: Vec<u32>,
    /// Serial heap-drain/batching phase (ns).
    pub drain_ns: u64,
    /// Parallel phase wall: scoped-thread spawn → join (ns).
    pub par_ns: u64,
    /// Serial deterministic-merge phase (ns).
    pub merge_ns: u64,
    /// Heap pushes/pops attributed to this window (drain + merge).
    pub heap_pushes: u64,
    pub heap_pops: u64,
    /// Packets emitted inside the window and routed at the merge.
    pub cross_sends: u64,
    /// Bounded sample of those sends as `(emit_us, from, to)` — the
    /// Perfetto exporter draws flow arrows from these.
    pub send_sample: Vec<(u64, u32, u32)>,
    /// Where each shard ran this window: `(shard, worker, busy_ns,
    /// events)`, one entry per shard that had work. The Perfetto exporter
    /// turns these into per-shard tracks; `par-report` reads imbalance
    /// from them.
    pub shard_busy: Vec<(u32, u32, u64, u64)>,
}

/// The exact thread-time split of one window (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    pub busy_ns: u64,
    pub imbalance_ns: u64,
    pub lookahead_ns: u64,
    pub barrier_ns: u64,
    pub merge_ns: u64,
}

impl Attribution {
    /// Total thread-time covered (equals `threads × window wall`);
    /// saturates rather than overflowing on corrupt input.
    pub fn total_ns(&self) -> u64 {
        [self.imbalance_ns, self.lookahead_ns, self.barrier_ns, self.merge_ns]
            .into_iter()
            .fold(self.busy_ns, u64::saturating_add)
    }

    /// The largest stall category (busy excluded) as `(name, ns)`;
    /// `("none", 0)` when no stall time was recorded. The names match the
    /// `ceu-trace par-report` table rows.
    pub fn dominant_stall(&self) -> (&'static str, u64) {
        let rows = [
            ("imbalance-bound", self.imbalance_ns),
            ("lookahead-bound", self.lookahead_ns),
            ("barrier-bound", self.barrier_ns),
            ("merge-bound", self.merge_ns),
        ];
        let best = rows.into_iter().max_by_key(|&(_, ns)| ns).unwrap_or(("none", 0));
        if best.1 == 0 {
            ("none", 0)
        } else {
            best
        }
    }

    fn add(&mut self, other: &Attribution) {
        self.busy_ns += other.busy_ns;
        self.imbalance_ns += other.imbalance_ns;
        self.lookahead_ns += other.lookahead_ns;
        self.barrier_ns += other.barrier_ns;
        self.merge_ns += other.merge_ns;
    }
}

impl ParWindowStats {
    /// Host wall-clock of the window: serial drain + parallel phase +
    /// serial merge.
    pub fn wall_ns(&self) -> u64 {
        self.drain_ns.saturating_add(self.par_ns).saturating_add(self.merge_ns)
    }

    /// Splits `threads × wall_ns` exactly into the five stall categories
    /// (the sum is an identity, not a measurement — tested as such).
    pub fn attribution(&self) -> Attribution {
        let t = self.threads as u64;
        let busy: u64 = self.busy_ns.iter().sum();
        let max_busy = self.busy_ns.iter().copied().max().unwrap_or(0);
        let workers = self.workers as u64;
        // par_ns brackets every worker's busy interval, so this cannot
        // underflow — but a saturating_sub keeps a clock hiccup from
        // panicking an instrumentation path.
        let barrier = t * self.par_ns.saturating_sub(max_busy);
        Attribution {
            busy_ns: busy,
            imbalance_ns: (workers * max_busy).saturating_sub(busy),
            lookahead_ns: (t - workers.min(t)) * max_busy,
            barrier_ns: barrier,
            merge_ns: t * (self.merge_ns + self.drain_ns),
        }
    }
}

/// Aggregate counters over *all* windows, including the ones past the
/// detailed-window cap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParTotals {
    pub windows: u64,
    pub events: u64,
    pub motes_stepped: u64,
    pub cross_sends: u64,
    pub heap_pushes: u64,
    pub heap_pops: u64,
    /// Σ drain / par / merge over all windows (ns).
    pub drain_ns: u64,
    pub par_ns: u64,
    pub merge_ns: u64,
    /// Σ max-over-workers busy per window: the critical chain through
    /// the parallel phases (ns) — the floor any thread count must walk.
    pub critical_busy_ns: u64,
    pub attribution: Attribution,
}

/// Lifetime aggregates for one shard across every recorded window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParShardStats {
    pub shard: u32,
    /// Motes the shard held (last observed — resharding may change it).
    pub motes: u32,
    /// Windows in which this shard had work.
    pub windows: u64,
    /// Events the shard fired across those windows.
    pub events: u64,
    /// Wall time workers spent stepping this shard (ns).
    pub busy_ns: u64,
    /// Packets the shard emitted for the merge barrier to route (every
    /// send is merge-routed, local destinations included).
    pub cross_sends: u64,
    /// This shard's share of job-channel wait (its batch's send-to-pickup
    /// latency divided evenly over the batch's shards; ns).
    pub channel_wait_ns: u64,
}

/// A whole `run_until_parallel` call (or several — the collector keeps
/// accumulating until [`World::take_par_stats`](crate::world::World::take_par_stats)).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParStats {
    /// Requested thread count of the (last) run.
    pub threads: u32,
    /// The global-min lookahead of the (last) run (µs).
    pub lookahead_us: u64,
    /// Mote roster size.
    pub motes: u32,
    /// Shard count of the (last) run's plan.
    pub shards: u32,
    /// The run fell back to the sequential stepper (threads ≤ 1, zero
    /// lookahead, or a ≤1-mote world) — no windows were recorded.
    pub fallback: bool,
    /// Host wall-clock of the whole `run_until_parallel` call(s) (ns),
    /// including world-event barriers between windows.
    pub wall_ns: u64,
    /// Detailed windows (capped; see `dropped_windows`).
    pub windows: Vec<ParWindowStats>,
    /// Windows past the cap: counted in `totals`, details discarded.
    pub dropped_windows: u64,
    pub totals: ParTotals,
    /// Per-shard lifetime aggregates, indexed by shard id (never capped:
    /// one small row per shard, not per window).
    pub per_shard: Vec<ParShardStats>,
    pub(crate) cap: usize,
}

impl ParStats {
    pub fn new(cap: usize) -> Self {
        ParStats { cap, ..Default::default() }
    }

    /// Folds one finished window into the collector.
    pub(crate) fn record_window(&mut self, w: ParWindowStats) {
        let a = w.attribution();
        self.totals.windows += 1;
        self.totals.events += w.events;
        self.totals.motes_stepped += w.motes as u64;
        self.totals.cross_sends += w.cross_sends;
        self.totals.heap_pushes += w.heap_pushes;
        self.totals.heap_pops += w.heap_pops;
        self.totals.drain_ns += w.drain_ns;
        self.totals.par_ns += w.par_ns;
        self.totals.merge_ns += w.merge_ns;
        self.totals.critical_busy_ns += w.busy_ns.iter().copied().max().unwrap_or(0);
        self.totals.attribution.add(&a);
        if self.windows.len() < self.cap {
            self.windows.push(w);
        } else {
            self.dropped_windows += 1;
        }
    }

    /// Folds one shard's slice of one window into its lifetime row.
    pub(crate) fn record_shard(
        &mut self,
        shard: u32,
        motes: u32,
        events: u64,
        busy_ns: u64,
        cross_sends: u64,
        channel_wait_ns: u64,
    ) {
        let idx = shard as usize;
        if self.per_shard.len() <= idx {
            self.per_shard.resize_with(idx + 1, ParShardStats::default);
        }
        let row = &mut self.per_shard[idx];
        row.shard = shard;
        row.motes = motes;
        row.windows += 1;
        row.events += events;
        row.busy_ns += busy_ns;
        row.cross_sends += cross_sends;
        row.channel_wait_ns += channel_wait_ns;
    }

    /// Host wall-clock attributed to windows (ns). The remainder of
    /// `wall_ns` is inter-window bookkeeping (world-event barriers).
    pub fn window_wall_ns(&self) -> u64 {
        let t = &self.totals;
        t.drain_ns.saturating_add(t.par_ns).saturating_add(t.merge_ns)
    }

    /// Thread-time capacity of the run: `threads × wall_ns` (u128, so a
    /// corrupt record cannot overflow it).
    pub fn capacity_ns(&self) -> u128 {
        self.threads as u128 * self.wall_ns as u128
    }

    /// Worker utilization: busy thread-time over total thread-time
    /// capacity, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let cap = self.capacity_ns();
        if cap == 0 {
            return 0.0;
        }
        self.totals.attribution.busy_ns as f64 / cap as f64
    }

    /// Work/critical-path bound on achievable speedup for this workload
    /// at any thread count: `(Σ busy + serial) / (critical chain + serial)`,
    /// where serial = drain + merge. An upper bound for the *current*
    /// window structure — a reworked scheduler can beat it by changing
    /// the windows themselves.
    pub fn achievable_speedup(&self) -> f64 {
        let t = &self.totals;
        let serial = t.drain_ns as u128 + t.merge_ns as u128;
        let work = t.attribution.busy_ns as u128 + serial;
        let critical = t.critical_busy_ns as u128 + serial;
        if critical == 0 {
            return 1.0;
        }
        work as f64 / critical as f64
    }
}

// ---- ceu-par-stats/v2 JSONL -------------------------------------------------

/// Opens one record: `{"schema":"ceu-par-stats/v2","kind":…`.
fn begin_record(s: &mut Serializer, kind: &str) {
    s.begin_object();
    s.field("schema", PAR_STATS_SCHEMA);
    s.field("kind", kind);
}

/// The `kind:"run"` line: the run header + aggregate attribution.
impl Serialize for ParStats {
    fn serialize(&self, s: &mut Serializer) {
        let (t, a) = (&self.totals, &self.totals.attribution);
        begin_record(s, "run");
        s.field("threads", &self.threads);
        s.field("lookahead_us", &self.lookahead_us);
        s.field("motes", &self.motes);
        s.field("shards", &self.shards);
        s.field("fallback", &self.fallback);
        s.field("wall_ns", &self.wall_ns);
        s.field("window_wall_ns", &self.window_wall_ns());
        s.field("windows", &t.windows);
        s.field("dropped_windows", &self.dropped_windows);
        s.field("events", &t.events);
        s.field("motes_stepped", &t.motes_stepped);
        s.field("cross_sends", &t.cross_sends);
        s.field("heap_pushes", &t.heap_pushes);
        s.field("heap_pops", &t.heap_pops);
        s.field("busy_ns", &a.busy_ns);
        s.field("imbalance_ns", &a.imbalance_ns);
        s.field("lookahead_ns", &a.lookahead_ns);
        s.field("barrier_ns", &a.barrier_ns);
        s.field("merge_ns", &a.merge_ns);
        s.field("critical_busy_ns", &t.critical_busy_ns);
        s.field("drain_wall_ns", &t.drain_ns);
        s.field("par_wall_ns", &t.par_ns);
        s.field("merge_wall_ns", &t.merge_ns);
        s.end_object();
    }
}

/// A `kind:"shard"` line: one shard's lifetime aggregates.
impl Serialize for ParShardStats {
    fn serialize(&self, s: &mut Serializer) {
        begin_record(s, "shard");
        s.field("shard", &self.shard);
        s.field("motes", &self.motes);
        s.field("windows", &self.windows);
        s.field("events", &self.events);
        s.field("busy_ns", &self.busy_ns);
        s.field("cross_sends", &self.cross_sends);
        s.field("channel_wait_ns", &self.channel_wait_ns);
        s.end_object();
    }
}

/// One sampled cross-window send of a `window` line.
#[derive(Serialize)]
struct SendRow {
    at_us: u64,
    from: u32,
    to: u32,
}

/// One shard's placement in a `window` line.
#[derive(Serialize)]
struct ShardBusyRow {
    shard: u32,
    worker: u32,
    busy_ns: u64,
    events: u64,
}

/// A `kind:"window"` line.
impl Serialize for ParWindowStats {
    fn serialize(&self, s: &mut Serializer) {
        let sends: Vec<SendRow> =
            self.send_sample.iter().map(|&(at_us, from, to)| SendRow { at_us, from, to }).collect();
        let shard_busy: Vec<ShardBusyRow> = self
            .shard_busy
            .iter()
            .map(|&(shard, worker, busy_ns, events)| ShardBusyRow {
                shard,
                worker,
                busy_ns,
                events,
            })
            .collect();
        begin_record(s, "window");
        s.field("i", &self.index);
        s.field("t_wall_ns", &self.t_wall_ns);
        s.field("start_us", &self.start_us);
        s.field("end_us", &self.end_us);
        s.field("lookahead_us", &self.lookahead_us);
        s.field("clipped", &self.clipped);
        s.field("threads", &self.threads);
        s.field("workers", &self.workers);
        s.field("motes", &self.motes);
        s.field("events", &self.events);
        s.field("busy_ns", &self.busy_ns);
        s.field("events_per_worker", &self.events_per_worker);
        s.field("motes_per_worker", &self.motes_per_worker);
        s.field("drain_ns", &self.drain_ns);
        s.field("par_ns", &self.par_ns);
        s.field("merge_ns", &self.merge_ns);
        s.field("wall_ns", &self.wall_ns());
        s.field("heap_pushes", &self.heap_pushes);
        s.field("heap_pops", &self.heap_pops);
        s.field("cross_sends", &self.cross_sends);
        s.field("sends", &sends);
        s.field("shard_busy", &shard_busy);
        s.end_object();
    }
}

/// Writes a whole run as `ceu-par-stats/v2` JSONL: the `run` line first,
/// then one `shard` line per shard, then one `window` line per detailed
/// window.
pub fn write_par_stats_jsonl<W: Write>(stats: &ParStats, mut out: W) -> std::io::Result<()> {
    use ceu::runtime::telemetry::to_json;
    writeln!(out, "{}", to_json(stats))?;
    for s in &stats.per_shard {
        writeln!(out, "{}", to_json(s))?;
    }
    for w in &stats.windows {
        writeln!(out, "{}", to_json(w))?;
    }
    Ok(())
}

/// Parses a `ceu-par-stats/v1` or `/v2` JSONL stream: one [`ParStats`]
/// per `run` line, holding the `shard` and `window` lines that follow
/// it. A key a v1 stream lacks reads as 0 or empty; a value that does
/// not fit its field (wrong type, negative, `threads > u32::MAX`) is an
/// error naming the line. Fields the writer derives (`window_wall_ns`, a
/// window's `wall_ns`) are not read back.
pub fn parse_par_stats(text: &str) -> Result<Vec<ParStats>, String> {
    let mut runs = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.is_empty() {
            parse_line(line, &mut runs).map_err(|e| format!("line {}: {e}", idx + 1))?;
        }
    }
    if runs.is_empty() {
        return Err("no ceu-par-stats run records in input".into());
    }
    Ok(runs)
}

fn parse_line(line: &str, runs: &mut Vec<ParStats>) -> Result<(), String> {
    let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let schema = v.get("schema").and_then(|s| s.as_str());
    if !matches!(schema, Some(PAR_STATS_SCHEMA | "ceu-par-stats/v1")) {
        return Err(format!("not a ceu-par-stats/v1|v2 record (schema={schema:?})"));
    }
    match v.get("kind").and_then(|k| k.as_str()) {
        Some("run") => runs.push(ParStats {
            threads: num(&v, "threads")?,
            lookahead_us: num(&v, "lookahead_us")?,
            motes: num(&v, "motes")?,
            shards: num(&v, "shards")?,
            fallback: flag(&v, "fallback")?,
            wall_ns: num(&v, "wall_ns")?,
            dropped_windows: num(&v, "dropped_windows")?,
            totals: ParTotals {
                windows: num(&v, "windows")?,
                events: num(&v, "events")?,
                motes_stepped: num(&v, "motes_stepped")?,
                cross_sends: num(&v, "cross_sends")?,
                heap_pushes: num(&v, "heap_pushes")?,
                heap_pops: num(&v, "heap_pops")?,
                drain_ns: num(&v, "drain_wall_ns")?,
                par_ns: num(&v, "par_wall_ns")?,
                merge_ns: num(&v, "merge_wall_ns")?,
                critical_busy_ns: num(&v, "critical_busy_ns")?,
                attribution: Attribution {
                    busy_ns: num(&v, "busy_ns")?,
                    imbalance_ns: num(&v, "imbalance_ns")?,
                    lookahead_ns: num(&v, "lookahead_ns")?,
                    barrier_ns: num(&v, "barrier_ns")?,
                    merge_ns: num(&v, "merge_ns")?,
                },
            },
            ..ParStats::new(DEFAULT_WINDOW_CAP)
        }),
        Some("shard") => {
            runs.last_mut().ok_or("shard before any run header")?.per_shard.push(ParShardStats {
                shard: num(&v, "shard")?,
                motes: num(&v, "motes")?,
                windows: num(&v, "windows")?,
                events: num(&v, "events")?,
                busy_ns: num(&v, "busy_ns")?,
                cross_sends: num(&v, "cross_sends")?,
                channel_wait_ns: num(&v, "channel_wait_ns")?,
            })
        }
        Some("window") => {
            runs.last_mut().ok_or("window before any run header")?.windows.push(ParWindowStats {
                index: num(&v, "i")?,
                t_wall_ns: num(&v, "t_wall_ns")?,
                start_us: num(&v, "start_us")?,
                end_us: num(&v, "end_us")?,
                lookahead_us: num(&v, "lookahead_us")?,
                clipped: flag(&v, "clipped")?,
                threads: num(&v, "threads")?,
                workers: num(&v, "workers")?,
                motes: num(&v, "motes")?,
                events: num(&v, "events")?,
                busy_ns: list(&v, "busy_ns", |x| num_of(x, "busy_ns"))?,
                events_per_worker: list(&v, "events_per_worker", |x| {
                    num_of(x, "events_per_worker")
                })?,
                motes_per_worker: list(&v, "motes_per_worker", |x| num_of(x, "motes_per_worker"))?,
                drain_ns: num(&v, "drain_ns")?,
                par_ns: num(&v, "par_ns")?,
                merge_ns: num(&v, "merge_ns")?,
                heap_pushes: num(&v, "heap_pushes")?,
                heap_pops: num(&v, "heap_pops")?,
                cross_sends: num(&v, "cross_sends")?,
                send_sample: list(&v, "sends", |x| {
                    Ok((num(x, "at_us")?, num(x, "from")?, num(x, "to")?))
                })?,
                shard_busy: list(&v, "shard_busy", |x| {
                    Ok((num(x, "shard")?, num(x, "worker")?, num(x, "busy_ns")?, num(x, "events")?))
                })?,
            })
        }
        other => return Err(format!("unknown kind {other:?}")),
    }
    Ok(())
}

/// Member `key` of `v` as a `T`; absent reads as 0.
fn num<T: TryFrom<u64> + Default>(v: &Value, key: &str) -> Result<T, String> {
    v.get(key).map_or(Ok(T::default()), |x| num_of(x, key))
}

fn num_of<T: TryFrom<u64>>(x: &Value, key: &str) -> Result<T, String> {
    x.as_u64()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("`{key}` does not fit a {}: {x:?}", std::any::type_name::<T>()))
}

/// Member `key` of `v` as a bool; absent reads as `false`.
fn flag(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key).map_or(Ok(false), |x| x.as_bool().ok_or_else(|| format!("`{key}` is not a bool")))
}

/// Member `key` of `v` as an array, each element read by `item`; absent
/// reads as empty.
fn list<T>(
    v: &Value,
    key: &str,
    item: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    match v.get(key) {
        None => Ok(Vec::new()),
        Some(x) => x
            .as_array()
            .ok_or_else(|| format!("`{key}` is not an array"))?
            .iter()
            .map(item)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_window() -> ParWindowStats {
        ParWindowStats {
            index: 3,
            t_wall_ns: 10_000,
            start_us: 2_000,
            end_us: 2_700,
            lookahead_us: 700,
            clipped: false,
            threads: 4,
            workers: 2,
            motes: 3,
            events: 9,
            busy_ns: vec![900, 400],
            events_per_worker: vec![6, 3],
            motes_per_worker: vec![2, 1],
            drain_ns: 150,
            par_ns: 1_200,
            merge_ns: 250,
            heap_pushes: 4,
            heap_pops: 9,
            cross_sends: 3,
            send_sample: vec![(2_100, 0, 1)],
            shard_busy: vec![(0, 0, 900, 6), (2, 1, 400, 3)],
        }
    }

    #[test]
    fn attribution_is_an_exact_partition_of_thread_time() {
        let w = sample_window();
        let a = w.attribution();
        // busy = 1300; imbalance = 2*900-1300 = 500; lookahead = 2*900;
        // barrier = 4*(1200-900); merge = 4*(250+150)
        assert_eq!(a.busy_ns, 1_300);
        assert_eq!(a.imbalance_ns, 500);
        assert_eq!(a.lookahead_ns, 1_800);
        assert_eq!(a.barrier_ns, 1_200);
        assert_eq!(a.merge_ns, 1_600);
        assert_eq!(a.total_ns(), w.threads as u64 * w.wall_ns());
    }

    #[test]
    fn collector_caps_detailed_windows_but_keeps_totals() {
        let mut s = ParStats::new(2);
        s.threads = 4;
        for i in 0..5 {
            let mut w = sample_window();
            w.index = i;
            s.record_window(w);
        }
        assert_eq!(s.windows.len(), 2);
        assert_eq!(s.dropped_windows, 3);
        assert_eq!(s.totals.windows, 5);
        assert_eq!(s.totals.events, 45);
        assert_eq!(s.totals.critical_busy_ns, 5 * 900);
        let w = sample_window();
        assert_eq!(s.totals.attribution.total_ns(), 5 * 4 * w.wall_ns());
    }

    #[test]
    fn jsonl_lines_carry_the_stable_schema() {
        let mut s = ParStats::new(DEFAULT_WINDOW_CAP);
        s.threads = 4;
        s.lookahead_us = 700;
        s.motes = 3;
        s.shards = 2;
        s.wall_ns = 5_000;
        s.record_shard(0, 2, 6, 900, 2, 50);
        s.record_shard(2, 1, 3, 400, 1, 50);
        s.record_window(sample_window());
        let mut buf = Vec::new();
        write_par_stats_jsonl(&s, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "run + 3 shard rows (ids 0..=2) + window");
        for line in &lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
            assert_eq!(v["schema"].as_str(), Some("ceu-par-stats/v2"));
        }
        let run: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        for key in [
            "kind",
            "threads",
            "lookahead_us",
            "shards",
            "fallback",
            "wall_ns",
            "windows",
            "busy_ns",
            "imbalance_ns",
            "lookahead_ns",
            "barrier_ns",
            "merge_ns",
            "critical_busy_ns",
        ] {
            assert!(run.get(key).is_some(), "run record lost key {key}");
        }
        let shard: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(shard["kind"].as_str(), Some("shard"));
        for key in
            ["shard", "motes", "windows", "events", "busy_ns", "cross_sends", "channel_wait_ns"]
        {
            assert!(shard.get(key).is_some(), "shard record lost key {key}");
        }
        let win: serde_json::Value = serde_json::from_str(lines[4]).unwrap();
        for key in
            ["start_us", "end_us", "busy_ns", "drain_ns", "par_ns", "merge_ns", "sends", "workers"]
        {
            assert!(win.get(key).is_some(), "window record lost key {key}");
        }
        assert_eq!(win["busy_ns"].as_array().unwrap().len(), 2);
        let sb = win["shard_busy"].as_array().unwrap();
        assert_eq!(sb.len(), 2);
        assert_eq!(sb[1]["shard"].as_u64(), Some(2));
        assert_eq!(sb[1]["worker"].as_u64(), Some(1));
    }

    #[test]
    fn shard_rows_accumulate_across_windows() {
        let mut s = ParStats::new(4);
        s.record_shard(1, 3, 10, 500, 4, 20);
        s.record_shard(1, 3, 8, 300, 2, 30);
        assert_eq!(s.per_shard.len(), 2);
        let row = s.per_shard[1];
        assert_eq!(row.shard, 1);
        assert_eq!(row.motes, 3);
        assert_eq!(row.windows, 2);
        assert_eq!(row.events, 18);
        assert_eq!(row.busy_ns, 800);
        assert_eq!(row.cross_sends, 6);
        assert_eq!(row.channel_wait_ns, 50);
        // the gap row (shard 0) stays zeroed and harmless
        assert_eq!(s.per_shard[0].windows, 0);
    }

    #[test]
    fn utilization_and_speedup_estimates() {
        let mut s = ParStats::new(8);
        s.threads = 2;
        s.wall_ns = 4_000;
        let w = ParWindowStats {
            threads: 2,
            workers: 2,
            busy_ns: vec![1_000, 1_000],
            drain_ns: 0,
            par_ns: 1_000,
            merge_ns: 1_000,
            ..Default::default()
        };
        s.record_window(w);
        // busy 2000 of 2*4000 capacity
        assert!((s.utilization() - 0.25).abs() < 1e-9);
        // work = 2000 + 1000 serial; critical = 1000 + 1000 serial
        assert!((s.achievable_speedup() - 1.5).abs() < 1e-9);
    }
}
