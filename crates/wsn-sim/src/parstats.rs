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
//! Each line kind has one private wire row that derives both `Serialize`
//! and `Deserialize`: [`ParStats`] is written as a `run` row,
//! [`ParShardStats`] as a `shard` line as it is, and [`ParWindowStats`]
//! as a `window` row. [`parse_par_stats`] decodes v1 and v2 streams
//! through the same rows back into [`ParStats`] values, so `ceu-trace`
//! renders the same type the simulator collects.

use ceu::runtime::telemetry::to_json;
use serde::{Deserialize, Serialize, Serializer};
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
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
/// detailed-window cap. Written, in field order, as the tail of a `run`
/// line; `windows` sits earlier on that line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct ParTotals {
    #[serde(skip)]
    pub windows: u64,
    pub events: u64,
    pub motes_stepped: u64,
    pub cross_sends: u64,
    pub heap_pushes: u64,
    pub heap_pops: u64,
    #[serde(flatten)]
    pub attribution: Attribution,
    /// Σ max-over-workers busy per window: the critical chain through
    /// the parallel phases (ns) — the floor any thread count must walk.
    pub critical_busy_ns: u64,
    /// Σ drain / par / merge over all windows (ns).
    #[serde(rename = "drain_wall_ns")]
    pub drain_ns: u64,
    #[serde(rename = "par_wall_ns")]
    pub par_ns: u64,
    #[serde(rename = "merge_wall_ns")]
    pub merge_ns: u64,
}

/// Lifetime aggregates for one shard across every recorded window; also
/// the body of a `shard` line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
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

/// One line of a `ceu-par-stats` stream after its `schema` tag. The
/// fields of each kind are listed once, here: the writer and the reader
/// both go through these rows. A key a v1 stream lacks reads as 0 or
/// empty.
#[derive(Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "lowercase")]
enum Line {
    Run {
        #[serde(flatten)]
        row: RunRow,
    },
    Shard {
        #[serde(flatten)]
        row: ParShardStats,
    },
    Window {
        #[serde(flatten)]
        row: WindowRow,
    },
}

/// The `run` line: the run header, then the totals. `window_wall_ns` is
/// derived on write and not read back.
#[derive(Serialize, Deserialize)]
#[serde(default)]
struct RunRow {
    threads: u32,
    lookahead_us: u64,
    motes: u32,
    shards: u32,
    fallback: bool,
    wall_ns: u64,
    window_wall_ns: u64,
    windows: u64,
    dropped_windows: u64,
    #[serde(flatten)]
    totals: ParTotals,
}

impl RunRow {
    fn new(s: &ParStats) -> RunRow {
        RunRow {
            threads: s.threads,
            lookahead_us: s.lookahead_us,
            motes: s.motes,
            shards: s.shards,
            fallback: s.fallback,
            wall_ns: s.wall_ns,
            window_wall_ns: s.window_wall_ns(),
            windows: s.totals.windows,
            dropped_windows: s.dropped_windows,
            totals: s.totals,
        }
    }

    fn stats(self) -> ParStats {
        ParStats {
            threads: self.threads,
            lookahead_us: self.lookahead_us,
            motes: self.motes,
            shards: self.shards,
            fallback: self.fallback,
            wall_ns: self.wall_ns,
            dropped_windows: self.dropped_windows,
            totals: ParTotals { windows: self.windows, ..self.totals },
            ..ParStats::new(DEFAULT_WINDOW_CAP)
        }
    }
}

/// A `window` line. `wall_ns` is derived on write and not read back.
#[derive(Serialize, Deserialize)]
#[serde(default)]
struct WindowRow {
    i: u64,
    t_wall_ns: u64,
    start_us: u64,
    end_us: u64,
    lookahead_us: u64,
    clipped: bool,
    threads: u32,
    workers: u32,
    motes: u32,
    events: u64,
    busy_ns: Vec<u64>,
    events_per_worker: Vec<u64>,
    motes_per_worker: Vec<u32>,
    drain_ns: u64,
    par_ns: u64,
    merge_ns: u64,
    wall_ns: u64,
    heap_pushes: u64,
    heap_pops: u64,
    cross_sends: u64,
    sends: Vec<SendRow>,
    shard_busy: Vec<ShardBusyRow>,
}

/// One sampled cross-window send of a `window` line.
#[derive(Serialize, Deserialize)]
struct SendRow {
    at_us: u64,
    from: u32,
    to: u32,
}

/// One shard's placement in a `window` line.
#[derive(Serialize, Deserialize)]
struct ShardBusyRow {
    shard: u32,
    worker: u32,
    busy_ns: u64,
    events: u64,
}

impl WindowRow {
    fn new(w: &ParWindowStats) -> WindowRow {
        WindowRow {
            i: w.index,
            t_wall_ns: w.t_wall_ns,
            start_us: w.start_us,
            end_us: w.end_us,
            lookahead_us: w.lookahead_us,
            clipped: w.clipped,
            threads: w.threads,
            workers: w.workers,
            motes: w.motes,
            events: w.events,
            busy_ns: w.busy_ns.clone(),
            events_per_worker: w.events_per_worker.clone(),
            motes_per_worker: w.motes_per_worker.clone(),
            drain_ns: w.drain_ns,
            par_ns: w.par_ns,
            merge_ns: w.merge_ns,
            wall_ns: w.wall_ns(),
            heap_pushes: w.heap_pushes,
            heap_pops: w.heap_pops,
            cross_sends: w.cross_sends,
            sends: w
                .send_sample
                .iter()
                .map(|&(at_us, from, to)| SendRow { at_us, from, to })
                .collect(),
            shard_busy: w
                .shard_busy
                .iter()
                .map(|&(shard, worker, busy_ns, events)| ShardBusyRow {
                    shard,
                    worker,
                    busy_ns,
                    events,
                })
                .collect(),
        }
    }

    fn stats(self) -> ParWindowStats {
        ParWindowStats {
            index: self.i,
            t_wall_ns: self.t_wall_ns,
            start_us: self.start_us,
            end_us: self.end_us,
            lookahead_us: self.lookahead_us,
            clipped: self.clipped,
            threads: self.threads,
            workers: self.workers,
            motes: self.motes,
            events: self.events,
            busy_ns: self.busy_ns,
            events_per_worker: self.events_per_worker,
            motes_per_worker: self.motes_per_worker,
            drain_ns: self.drain_ns,
            par_ns: self.par_ns,
            merge_ns: self.merge_ns,
            heap_pushes: self.heap_pushes,
            heap_pops: self.heap_pops,
            cross_sends: self.cross_sends,
            send_sample: self.sends.into_iter().map(|s| (s.at_us, s.from, s.to)).collect(),
            shard_busy: self
                .shard_busy
                .into_iter()
                .map(|b| (b.shard, b.worker, b.busy_ns, b.events))
                .collect(),
        }
    }
}

/// A whole line as written: the schema tag, then the [`Line`].
#[derive(Serialize)]
struct Tagged {
    schema: &'static str,
    #[serde(flatten)]
    line: Line,
}

/// A [`ParStats`] serializes as its `run` line.
impl Serialize for ParStats {
    fn serialize(&self, s: &mut Serializer) {
        Tagged { schema: PAR_STATS_SCHEMA, line: Line::Run { row: RunRow::new(self) } }.serialize(s)
    }
}

/// Writes a whole run as `ceu-par-stats/v2` JSONL: the `run` line first,
/// then one `shard` line per shard, then one `window` line per detailed
/// window.
pub fn write_par_stats_jsonl<W: Write>(stats: &ParStats, mut out: W) -> std::io::Result<()> {
    writeln!(out, "{}", to_json(stats))?;
    let shards = stats.per_shard.iter().map(|&row| Line::Shard { row });
    let windows = stats.windows.iter().map(|w| Line::Window { row: WindowRow::new(w) });
    for line in shards.chain(windows) {
        writeln!(out, "{}", to_json(&Tagged { schema: PAR_STATS_SCHEMA, line }))?;
    }
    Ok(())
}

/// Parses a `ceu-par-stats/v1` or `/v2` JSONL stream: one [`ParStats`]
/// per `run` line, holding the `shard` and `window` lines that follow
/// it. A key a v1 stream lacks reads as 0 or empty; a value that does
/// not fit its field (wrong type, negative, `threads > u32::MAX`) or an
/// unknown `kind` is an error naming the line. Fields the writer derives
/// (`window_wall_ns`, a window's `wall_ns`) are not read back.
pub fn parse_par_stats(text: &str) -> Result<Vec<ParStats>, String> {
    let mut runs = Vec::new();
    for (n, line) in (1u64..).zip(text.lines()).filter(|(_, l)| !l.trim().is_empty()) {
        parse_line(line.trim(), &mut runs).map_err(|e| format!("line {n}: {e}"))?;
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
    match serde_json::from_value(v).map_err(|e| e.to_string())? {
        Line::Run { row } => runs.push(row.stats()),
        Line::Shard { row } => {
            runs.last_mut().ok_or("shard before any run header")?.per_shard.push(row)
        }
        Line::Window { row } => {
            runs.last_mut().ok_or("window before any run header")?.windows.push(row.stats())
        }
    }
    Ok(())
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
