//! Topology-sharded conservative-PDES core.
//!
//! This module is the parallel stepper's substrate:
//!
//! * [`ShardPlan`] partitions the mote roster into **shards derived from
//!   the radio topology** — cluster-aligned ranges for
//!   [`Topology::Clusters`], connected-component blocks for
//!   [`Topology::Links`], plain range chunks for meshes/rings where every
//!   cut is equivalent.
//! * Each [`Shard`] owns its motes' **hot state as struct-of-arrays**
//!   (status, pending timer, skew, counters — scanned linearly by the
//!   worker stepping the shard) plus **its own [`EventHeap`]** holding
//!   every pending firing addressed to its motes.
//! * Each shard carries a **per-shard lookahead**: a lower bound on the
//!   latency of every link whose *destination* lies in the shard. A shard
//!   whose incoming links are all slow may step further per window than
//!   the global minimum would allow (see the proof sketch in DESIGN.md).
//!
//! Cross-shard packet handoff stays at the window barrier: all sends are
//! routed through the world's single radio RNG in canonical
//! `(time, sender, emission)` order, which is what keeps the simulation
//! bit-identical to the sequential stepper at any thread count.

use crate::radio::{Packet, Radio, Topology};
use crate::sched::EventHeap;
use crate::world::{
    order_key, panic_message, skewed, unskew, Backend, Fire, Leds, MoteCtx, MoteId, MoteStats,
    MoteStatus, WorldTraceEvent,
};
use ceu::runtime::{FlightRecorder, TraceEvent};

/// Default shard-count target for [`ShardPlan::from_radio`] (the world's
/// `set_target_shards` overrides it). Eight keeps a handful of shards per
/// worker at common thread counts, so round-robin assignment stays
/// balanced without a scheduler.
pub const DEFAULT_TARGET_SHARDS: usize = 8;

/// How a world's motes are split into shards, plus each shard's lookahead.
///
/// Shards are contiguous mote-id ranges: the partitioners below only pick
/// *where the boundaries fall*. That is sufficient — correctness never
/// depends on the cut (every packet crosses the merge barrier regardless);
/// the cut only decides how tight each shard's lookahead can be and how
/// evenly work spreads across workers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Shard id → contiguous mote-id range `[start, end)`, ascending and
    /// covering the whole roster.
    pub ranges: Vec<(MoteId, MoteId)>,
    /// Mote id → owning shard.
    pub mote_shard: Vec<u32>,
    /// Shard id → lookahead (µs): a lower bound on the latency of every
    /// topology link whose destination lies in the shard. Falls back to
    /// the radio's global `min_latency()` when a shard has no incoming
    /// links at all (such a shard never receives anything, so any finite
    /// bound is safe — and the global bound keeps reboot clamping
    /// identical to the unsharded stepper).
    pub lookahead_us: Vec<u64>,
}

impl ShardPlan {
    /// Partitions `n_motes` motes into about `target_shards` shards along
    /// the radio topology and computes each shard's lookahead.
    pub fn from_radio(radio: &Radio, n_motes: usize, target_shards: usize) -> ShardPlan {
        let ranges = partition(radio, n_motes, target_shards);
        let mut mote_shard = vec![0u32; n_motes];
        for (s, &(a, b)) in ranges.iter().enumerate() {
            for m in mote_shard.iter_mut().take(b).skip(a) {
                *m = s as u32;
            }
        }
        let lookahead_us = lookaheads(radio, &ranges, &mote_shard);
        ShardPlan { ranges, mote_shard, lookahead_us }
    }

    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The shard owning `mote`.
    pub fn shard_of(&self, mote: MoteId) -> usize {
        self.mote_shard[mote] as usize
    }
}

/// `[start, end)` chunks of at most `cap` motes.
fn chunk_ranges(start: usize, end: usize, cap: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut a = start;
    while a < end {
        let b = (a + cap).min(end);
        out.push((a, b));
        a = b;
    }
    out
}

/// Picks the shard boundaries for `n` motes under `radio`'s topology.
fn partition(radio: &Radio, n: usize, target: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let cap = n.div_ceil(target.max(1)).max(1);
    match &radio.topology {
        // every cut of a full mesh or a ring is equivalent (uniform link
        // class), so plain range chunks are as good as any min-cut
        Topology::Full | Topology::Ring { .. } => chunk_ranges(0, n, cap),
        // align boundaries to cluster edges so a shard's incoming links
        // are its clusters' own intra latencies (plus slow bridges);
        // oversized clusters split into cap-sized chunks — still safe,
        // the halves share the cluster's intra latency as lookahead
        Topology::Clusters { size, .. } => {
            let size = (*size).max(1);
            let mut out = Vec::new();
            let (mut cur_start, mut cur_len) = (0usize, 0usize);
            let mut c = 0usize;
            while c * size < n {
                let cl_start = c * size;
                let cl_end = ((c + 1) * size).min(n);
                let len = cl_end - cl_start;
                if len > cap {
                    if cur_len > 0 {
                        out.push((cur_start, cl_start));
                        cur_len = 0;
                    }
                    out.extend(chunk_ranges(cl_start, cl_end, cap));
                    cur_start = cl_end;
                } else if cur_len + len > cap {
                    out.push((cur_start, cl_start));
                    cur_start = cl_start;
                    cur_len = len;
                } else {
                    if cur_len == 0 {
                        cur_start = cl_start;
                    }
                    cur_len += len;
                }
                c += 1;
            }
            if cur_len > 0 {
                out.push((cur_start, n));
            }
            out
        }
        // weakly-connected components, merged into contiguous blocks
        // (a component's id interval may straddle others'), then packed
        // into cap-sized shards; a block bigger than cap stays whole so
        // no component is ever cut
        Topology::Links(edges) => {
            let mut parent: Vec<usize> = (0..n).collect();
            fn find(parent: &mut [usize], mut x: usize) -> usize {
                while parent[x] != x {
                    parent[x] = parent[parent[x]];
                    x = parent[x];
                }
                x
            }
            for &(a, b) in edges {
                if a < n && b < n {
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    if ra != rb {
                        parent[ra.max(rb)] = ra.min(rb);
                    }
                }
            }
            // block boundaries: positions no component interval crosses
            let mut comp_max = vec![0usize; n];
            for m in 0..n {
                let r = find(&mut parent, m);
                comp_max[r] = comp_max[r].max(m);
            }
            let mut blocks: Vec<(usize, usize)> = Vec::new();
            let mut a = 0usize;
            let mut reach = 0usize;
            for m in 0..n {
                reach = reach.max(comp_max[find(&mut parent, m)]);
                if reach == m {
                    blocks.push((a, m + 1));
                    a = m + 1;
                }
            }
            let mut out = Vec::new();
            let (mut cur_start, mut cur_len) = (0usize, 0usize);
            for (ba, bb) in blocks {
                let len = bb - ba;
                if cur_len > 0 && cur_len + len > cap {
                    out.push((cur_start, ba));
                    cur_start = ba;
                    cur_len = 0;
                }
                if cur_len == 0 {
                    cur_start = ba;
                }
                cur_len += len;
            }
            if cur_len > 0 {
                out.push((cur_start, n));
            }
            out
        }
    }
}

/// Per-shard lookahead: for each shard, a lower bound on the latency of
/// every link whose destination lies in it. Exact for `Links` (edge walk)
/// and `Clusters` (structural); the global minimum — always a valid lower
/// bound — for the uniform-cut topologies.
fn lookaheads(radio: &Radio, ranges: &[(usize, usize)], mote_shard: &[u32]) -> Vec<u64> {
    let global = radio.min_latency();
    let n = mote_shard.len();
    let mut la = vec![u64::MAX; ranges.len()];
    match &radio.topology {
        Topology::Full | Topology::Ring { .. } => {
            return vec![global; ranges.len()];
        }
        Topology::Links(edges) => {
            for &(u, v) in edges {
                if u < n && v < n {
                    let s = mote_shard[v] as usize;
                    la[s] = la[s].min(radio.latency_of(u, v));
                }
            }
        }
        Topology::Clusters { clusters, size } => {
            let size = (*size).max(1);
            for (s, &(a, b)) in ranges.iter().enumerate() {
                let mut c = a / size;
                while c * size < b && c < *clusters {
                    let cl_start = c * size;
                    let cl_end = ((c + 1) * size).min(n);
                    // an intra-mesh link into this shard exists when the
                    // cluster has ≥ 2 motes (source may lie outside the
                    // shard if the cluster was split)
                    if cl_end - cl_start >= 2 {
                        let dst = a.max(cl_start);
                        let src = if dst == cl_start { cl_start + 1 } else { cl_start };
                        la[s] = la[s].min(radio.latency_of(src, dst));
                    }
                    // the bridge from the previous cluster lands on this
                    // cluster's first mote
                    if *clusters >= 2 && cl_start >= a && cl_start < b {
                        let prev = (c + *clusters - 1) % *clusters;
                        let prev_last = prev * size + (size - 1);
                        if prev_last < n {
                            la[s] = la[s].min(radio.latency_of(prev_last, cl_start));
                        }
                    }
                    c += 1;
                }
            }
        }
    }
    la.into_iter().map(|x| if x == u64::MAX { global } else { x }).collect()
}

/// One shard of the world: a contiguous mote-id range, its pending events,
/// and its motes' hot state laid out struct-of-arrays so the worker that
/// steps the shard touches dense, same-typed columns instead of striding
/// across fat per-mote structs.
pub(crate) struct Shard {
    pub id: u32,
    /// Mote-id range `[base, end)`.
    pub base: MoteId,
    pub end: MoteId,
    /// Lower bound on every incoming link latency (µs) — how far past the
    /// window start this shard may safely run.
    pub lookahead_us: u64,
    /// Every pending firing addressed to this shard's motes.
    pub heap: EventHeap<Fire>,
    // --- SoA hot state, indexed by `mote - base` ---
    pub backends: Vec<Box<dyn Backend>>,
    pub status: Vec<MoteStatus>,
    pub timer_at: Vec<Option<u64>>,
    pub cpu_scheduled: Vec<bool>,
    pub skew_ppm: Vec<i64>,
    pub trace_seq: Vec<u64>,
    pub crashes: Vec<u32>,
    pub stats: Vec<MoteStats>,
    pub leds: Vec<Leds>,
    /// Per-window snapshot of `radio.down` for this shard's motes
    /// (refreshed by the simulation thread only while any mote is down).
    pub down: Vec<bool>,
    /// Whether the last [`refresh_down`](Shard::refresh_down) left any
    /// `true` in `down` — tells the world the snapshot needs one more
    /// refresh even after the radio's down set empties out.
    pub has_down: bool,
    /// Always-on flight recorder (None = off). Shard-owned so recording
    /// never crosses a shard boundary: it travels with the shard when a
    /// worker checks it out, and it consumes exactly the shard's slice of
    /// the canonical trace stream — which is what keeps recorded content
    /// bit-identical between the sequential and parallel steppers.
    pub recorder: Option<FlightRecorder>,
    /// Whether the world keeps a unified trace: when `false`, windows skip
    /// building [`WorldTraceEvent`]s the merge would only drop (a recorder
    /// can still be live — it consumes the stream shard-locally).
    pub trace_on: bool,
    /// Persistent per-callback VM-event scratch, lent to each [`MoteCtx`]
    /// and drained in place — steady-state tracing allocates nothing here.
    pub vm_scratch: Vec<TraceEvent>,
    /// Persistent per-callback send buffer, lent to each [`MoteCtx`] like
    /// `vm_scratch` and drained after the callback.
    pub outbox: Vec<(MoteId, Packet)>,
    /// Scratch: per-mote send-emission counter, reset each window.
    send_idx: Vec<u32>,
}

/// Everything one shard produced during a parallel window; merged back on
/// the simulation thread in canonical `(time, mote, emission)` order.
pub(crate) struct ShardWindowOut {
    pub shard: u32,
    /// `(emit_us, from, per-mote emission index, to, packet)` — the
    /// cross-shard (and intra-shard) packet handoff, routed through the
    /// world's single radio RNG at the merge barrier.
    pub sends: Vec<(u64, MoteId, usize, MoteId, Packet)>,
    /// In-window machine crashes: `(crash_us, mote, sends emitted first)`.
    pub crashes: Vec<(u64, MoteId, usize)>,
    pub delivered: u64,
    pub cpu_slices: u64,
    pub dropped_in_flight: u64,
    /// Firings popped inside the window (incl. locally scheduled ones).
    pub events: u64,
    pub trace: Vec<WorldTraceEvent>,
    /// Highest scheduling seq this shard's worker assigned (`seq_base` if
    /// none) — the world bumps its counter past the maximum at the merge.
    pub seq_used: u64,
    /// A backend panicked: `(mote, message)`. The shard stops stepping and
    /// the simulation thread re-raises with window context.
    pub panicked: Option<(MoteId, String)>,
}

impl Shard {
    pub fn new(id: u32, base: MoteId, end: MoteId, lookahead_us: u64) -> Self {
        let n = end - base;
        Shard {
            id,
            base,
            end,
            lookahead_us,
            heap: EventHeap::new(),
            backends: Vec::with_capacity(n),
            status: Vec::with_capacity(n),
            timer_at: Vec::with_capacity(n),
            cpu_scheduled: Vec::with_capacity(n),
            skew_ppm: Vec::with_capacity(n),
            trace_seq: Vec::with_capacity(n),
            crashes: Vec::with_capacity(n),
            stats: Vec::with_capacity(n),
            leds: Vec::with_capacity(n),
            down: Vec::with_capacity(n),
            has_down: false,
            recorder: None,
            trace_on: false,
            vm_scratch: Vec::new(),
            outbox: Vec::new(),
            send_idx: Vec::new(),
        }
    }

    /// Stand-in left in the world while the real shard is checked out to a
    /// worker. Touching it is a bug; its empty columns panic loudly.
    pub fn placeholder(id: u32) -> Self {
        Shard::new(id, 0, 0, 0)
    }

    /// Appends one mote's state columns (used when (re)building shards).
    #[allow(clippy::too_many_arguments)]
    pub fn push_mote(
        &mut self,
        backend: Box<dyn Backend>,
        status: MoteStatus,
        timer_at: Option<u64>,
        cpu_scheduled: bool,
        skew_ppm: i64,
        trace_seq: u64,
        crashes: u32,
        stats: MoteStats,
        leds: Leds,
    ) {
        self.backends.push(backend);
        self.status.push(status);
        self.timer_at.push(timer_at);
        self.cpu_scheduled.push(cpu_scheduled);
        self.skew_ppm.push(skew_ppm);
        self.trace_seq.push(trace_seq);
        self.crashes.push(crashes);
        self.stats.push(stats);
        self.leds.push(leds);
        self.down.push(false);
    }

    pub fn n(&self) -> usize {
        self.end - self.base
    }

    #[inline]
    pub fn local(&self, mote: MoteId) -> usize {
        debug_assert!(mote >= self.base && mote < self.end, "mote {mote} not in shard {}", self.id);
        mote - self.base
    }

    /// Re-snapshots the radio's power state for this shard's motes.
    pub fn refresh_down(&mut self, radio: &Radio) {
        self.has_down = false;
        for (l, d) in self.down.iter_mut().enumerate() {
            *d = radio.is_down(self.base + l);
            self.has_down |= *d;
        }
    }

    /// Steps this shard through `[its current head, run_end)`: pops its own
    /// heap in `(time, lane, seq)` order, runs backend callbacks, and
    /// pushes the timers/CPU slices they request straight back into the
    /// heap (in-window ones fire later in the same call; post-window ones
    /// wait for a future window). Packet sends and crash side effects that
    /// touch shared state are returned for the deterministic merge.
    ///
    /// Mirrors the sequential stepper's per-event logic exactly — that, the
    /// lane-major equal-time order, and the merge-barrier radio are what
    /// make the sharded run bit-identical to `World::run_until`.
    pub fn run_window(&mut self, run_end: u64, seq_base: u64, cpu_slice_us: u64) -> ShardWindowOut {
        let mut out = ShardWindowOut {
            shard: self.id,
            sends: Vec::new(),
            crashes: Vec::new(),
            delivered: 0,
            cpu_slices: 0,
            dropped_in_flight: 0,
            events: 0,
            trace: Vec::new(),
            seq_used: seq_base,
            panicked: None,
        };
        self.send_idx.clear();
        self.send_idx.resize(self.n(), 0);
        let window_start = self.heap.peek_key().map(|(at, _)| at);
        let mut seq = seq_base;
        while let Some((at, _)) = self.heap.peek_key() {
            if at >= run_end {
                break;
            }
            let (at, _, fire) = self.heap.pop().expect("peeked");
            out.events += 1;
            let now = at;
            let mote = match &fire {
                Fire::Deliver { to, .. } => *to,
                Fire::Timer { mote } | Fire::Cpu { mote } => *mote,
                Fire::Fault { .. } | Fire::Reboot { .. } => {
                    unreachable!("world fires never enter a shard heap")
                }
            };
            let l = self.local(mote);
            if matches!(&fire, Fire::Deliver { .. }) && (!self.status[l].is_up() || self.down[l]) {
                // down at arrival (crashed earlier — this window or a past
                // one — or powered off): the packet drops in flight
                out.dropped_in_flight += 1;
                self.stats[l].dropped_in_flight += 1;
                continue;
            }
            if !self.status[l].is_up() {
                continue; // timers/CPU slices died with the crash
            }
            enum Cb {
                Deliver(Packet),
                Timer,
                Cpu,
            }
            let cb = match fire {
                Fire::Deliver { packet, .. } => {
                    out.delivered += 1;
                    self.stats[l].received += 1;
                    Cb::Deliver(packet)
                }
                Fire::Timer { .. } => {
                    if self.timer_at[l] == Some(at) {
                        self.timer_at[l] = None;
                        self.stats[l].timer_firings += 1;
                        Cb::Timer
                    } else {
                        continue; // stale (re-requested or crashed)
                    }
                }
                Fire::Cpu { .. } => {
                    out.cpu_slices += 1;
                    self.stats[l].cpu_slices += 1;
                    self.cpu_scheduled[l] = false;
                    Cb::Cpu
                }
                Fire::Fault { .. } | Fire::Reboot { .. } => unreachable!(),
            };
            let mut ctx = MoteCtx::new(
                mote,
                skewed(now, self.skew_ppm[l]),
                &mut self.leds[l],
                &mut self.outbox,
                &mut self.vm_scratch,
            );
            let backend = self.backends[l].as_mut();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match cb {
                Cb::Deliver(p) => backend.deliver(&mut ctx, p),
                Cb::Timer => backend.timer(&mut ctx),
                Cb::Cpu => backend.cpu(&mut ctx),
            }));
            if let Err(payload) = result {
                // surface with mote context on the simulation thread; the
                // worker itself stays alive for the next window
                out.panicked = Some((mote, panic_message(payload)));
                break;
            }
            let timer_request = ctx.timer_request;
            let wants_cpu = ctx.wants_cpu;
            let failure = ctx.take_failure();
            drop(ctx);
            if self.trace_on || self.recorder.is_some() {
                for event in &self.vm_scratch {
                    self.trace_seq[l] += 1;
                    if let Some(rec) = &mut self.recorder {
                        rec.record(now, mote, self.trace_seq[l], event);
                    }
                    if self.trace_on {
                        out.trace.push(WorldTraceEvent {
                            world_time_us: now,
                            mote,
                            seq: self.trace_seq[l],
                            event: event.normalized(),
                        });
                    }
                }
            } else {
                // mirror the sequential stepper: the counter advances even
                // with no consumer, so enabling one later stays bit-stable
                self.trace_seq[l] += self.vm_scratch.len() as u64;
            }
            self.vm_scratch.clear();
            if let Some(cause) = failure {
                // mirror of World::crash_mote, minus the shared state
                // (radio down + reboot scheduling), which the merge applies
                // at this exact point of the (time, mote, emission) sweep
                self.trace_seq[l] += 1;
                let crashed = TraceEvent::MoteCrashed {
                    kind: cause.kind,
                    line: cause.span.line,
                    col: cause.span.col,
                };
                if let Some(rec) = &mut self.recorder {
                    rec.record(now, mote, self.trace_seq[l], &crashed);
                }
                if self.trace_on {
                    out.trace.push(WorldTraceEvent {
                        world_time_us: now,
                        mote,
                        seq: self.trace_seq[l],
                        event: crashed.normalized(),
                    });
                }
                self.status[l] = MoteStatus::Crashed { at: now, cause };
                self.crashes[l] += 1;
                self.stats[l].crashes += 1;
                self.timer_at[l] = None;
                self.cpu_scheduled[l] = false;
                out.crashes.push((now, mote, self.send_idx[l] as usize));
                self.outbox.clear();
                continue; // discard this callback's sends / timer / CPU asks
            }
            for (to, packet) in self.outbox.drain(..) {
                self.stats[l].sent += 1;
                let i = self.send_idx[l] as usize;
                self.send_idx[l] += 1;
                out.sends.push((now, mote, i, to, packet));
            }
            if let Some(req) = timer_request {
                let req = unskew(req, self.skew_ppm[l]).max(now);
                let better = match self.timer_at[l] {
                    Some(t) => req < t,
                    None => true,
                };
                if better {
                    self.timer_at[l] = Some(req);
                    seq += 1;
                    self.heap.push(req, order_key(mote as u64 + 1, 1, seq), Fire::Timer { mote });
                }
            }
            if wants_cpu && !self.cpu_scheduled[l] {
                self.cpu_scheduled[l] = true;
                seq += 1;
                let cat = now + cpu_slice_us;
                self.heap.push(cat, order_key(mote as u64 + 1, 1, seq), Fire::Cpu { mote });
            }
        }
        out.seq_used = seq;
        if out.events > 0 {
            if let (Some(rec), Some(start)) = (&mut self.recorder, window_start) {
                rec.record_window(start, run_end, out.events);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::LinkLatency;

    fn assert_exact_partition(plan: &ShardPlan, n: usize) {
        // ranges ascend, are contiguous, and cover [0, n)
        let mut covered = 0usize;
        for (s, &(a, b)) in plan.ranges.iter().enumerate() {
            assert_eq!(a, covered, "shard {s} does not start where the previous ended");
            assert!(b > a, "shard {s} is empty");
            covered = b;
            for m in a..b {
                assert_eq!(plan.mote_shard[m] as usize, s, "mote {m} maps to the wrong shard");
            }
        }
        assert_eq!(covered, n, "the shards must cover every mote exactly once");
        assert_eq!(plan.lookahead_us.len(), plan.ranges.len());
    }

    #[test]
    fn every_mote_lands_in_exactly_one_shard() {
        let cases: Vec<(Radio, usize)> = vec![
            (Radio::ideal(500), 24),
            (Radio::new(Topology::Ring { n: 10 }, 300, 0.0, 1), 10),
            (Radio::clustered(4, 6, vec![500, 900, 700, 600], 5_000, 0.0, 1), 24),
            (Radio::clustered(3, 4, vec![200], 9_000, 0.0, 1), 11), // truncated last cluster
            (Radio::new(Topology::Links(vec![(0, 1), (2, 3), (3, 4), (6, 5)]), 250, 0.0, 1), 7),
        ];
        for (radio, n) in &cases {
            for target in [1, 2, 8, 64] {
                let plan = ShardPlan::from_radio(radio, *n, target);
                assert_exact_partition(&plan, *n);
            }
        }
        assert!(ShardPlan::from_radio(&Radio::ideal(10), 0, 8).is_empty());
    }

    #[test]
    fn clustered_partitions_align_to_cluster_boundaries() {
        // 4 clusters × 6 motes, target 4: one shard per cluster
        let radio = Radio::clustered(4, 6, vec![500, 900, 700, 600], 5_000, 0.0, 1);
        let plan = ShardPlan::from_radio(&radio, 24, 4);
        assert_eq!(plan.ranges, vec![(0, 6), (6, 12), (12, 18), (18, 24)]);
        // per-shard lookahead = the cluster's own intra latency (bridges
        // are slower and don't bind)
        assert_eq!(plan.lookahead_us, vec![500, 900, 700, 600]);
        // target 2: two clusters per shard, lookahead = min of the pair
        let plan = ShardPlan::from_radio(&radio, 24, 2);
        assert_eq!(plan.ranges, vec![(0, 12), (12, 24)]);
        assert_eq!(plan.lookahead_us, vec![500, 600]);
        // target 8 splits clusters (cap 3) but boundaries stay inside
        // cluster spans and the halves keep the cluster's intra lookahead
        let plan = ShardPlan::from_radio(&radio, 24, 8);
        assert_eq!(plan.ranges.len(), 8);
        assert_exact_partition(&plan, 24);
        assert_eq!(plan.lookahead_us[0], 500);
        assert_eq!(plan.lookahead_us[2], 900);
    }

    #[test]
    fn link_partitions_never_cut_a_component() {
        // components {0,1,4} (interval straddles 2,3), {2,3}, {5}, {6,7}
        let radio =
            Radio::new(Topology::Links(vec![(0, 1), (1, 4), (2, 3), (6, 7), (7, 6)]), 250, 0.0, 1);
        for target in [1, 2, 4, 8] {
            let plan = ShardPlan::from_radio(&radio, 8, target);
            assert_exact_partition(&plan, 8);
            for &(u, v) in &[(0usize, 1usize), (1, 4), (2, 3), (6, 7)] {
                assert_eq!(
                    plan.mote_shard[u], plan.mote_shard[v],
                    "edge ({u},{v}) cut at target {target}"
                );
            }
        }
        // the {0,1,4} interval forces 0..5 into one shard at high targets
        let plan = ShardPlan::from_radio(&radio, 8, 8);
        assert_eq!(plan.mote_shard[0], plan.mote_shard[4]);
    }

    /// Brute-force minimum incoming link latency per shard, straight from
    /// the topology's own connectivity.
    fn true_min_incoming(radio: &Radio, plan: &ShardPlan, n: usize) -> Vec<u64> {
        let mut best = vec![u64::MAX; plan.len()];
        for from in 0..n {
            for to in 0..n {
                if radio.topology.connected(from, to) {
                    let s = plan.shard_of(to);
                    best[s] = best[s].min(radio.latency_of(from, to));
                }
            }
        }
        best
    }

    #[test]
    fn per_shard_lookahead_never_exceeds_true_min_incoming_latency() {
        // property test over seeded pseudo-random configurations: the
        // computed lookahead must be a valid lower bound for every link
        // into the shard (that is the entire safety argument), and when a
        // shard has no incoming links it falls back to the global minimum
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for case in 0..200 {
            let radio = match case % 3 {
                0 => {
                    let clusters = 1 + next(5) as usize;
                    let size = 1 + next(6) as usize;
                    let intra: Vec<u64> = (0..1 + next(4)).map(|_| 100 + next(900)).collect();
                    Radio::clustered(clusters, size, intra, 100 + next(9_000), 0.0, 1)
                }
                1 => {
                    let n = 2 + next(20) as usize;
                    let edges: Vec<(usize, usize)> = (0..next(30))
                        .map(|_| (next(n as u64) as usize, next(n as u64) as usize))
                        .collect();
                    Radio::new(Topology::Links(edges), 100 + next(900), 0.0, 1)
                }
                _ => {
                    Radio::new(Topology::Ring { n: 2 + next(20) as usize }, 100 + next(900), 0.0, 1)
                }
            };
            let n = match &radio.topology {
                Topology::Clusters { clusters, size } => clusters * size,
                Topology::Ring { n } => *n,
                Topology::Links(_) => 21,
                Topology::Full => 12,
            };
            let target = 1 + next(8) as usize;
            let plan = ShardPlan::from_radio(&radio, n, target);
            assert_exact_partition(&plan, n);
            let truth = true_min_incoming(&radio, &plan, n);
            for (s, (&la, &truth)) in plan.lookahead_us.iter().zip(&truth).enumerate() {
                if truth == u64::MAX {
                    assert_eq!(la, radio.min_latency(), "case {case} shard {s}: isolated fallback");
                } else {
                    assert!(
                        la <= truth,
                        "case {case} shard {s}: lookahead {la} exceeds true min incoming {truth}"
                    );
                    assert!(la >= radio.min_latency(), "case {case} shard {s}: below global min");
                }
            }
        }
    }

    #[test]
    fn cross_shard_latency_covers_the_destination_shard_lookahead() {
        // the merge-safety invariant directly: every link (cross-shard or
        // not) must pay at least the destination shard's lookahead
        let radio = Radio::clustered(4, 6, vec![500, 900, 700, 600], 5_000, 0.0, 1);
        let plan = ShardPlan::from_radio(&radio, 24, 4);
        for from in 0..24 {
            for to in 0..24 {
                if radio.topology.connected(from, to) {
                    let s = plan.shard_of(to);
                    assert!(
                        radio.latency_of(from, to) >= plan.lookahead_us[s],
                        "link {from}→{to} undercuts shard {s}'s lookahead"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_media_keep_the_global_lookahead_everywhere() {
        let radio = Radio::ideal(1_000);
        let plan = ShardPlan::from_radio(&radio, 16, 4);
        assert!(matches!(radio.link_latency, LinkLatency::Uniform));
        assert!(plan.lookahead_us.iter().all(|&la| la == 1_000));
    }
}
