//! **Benchmark-regression harness** — the PR-gating perf rows.
//!
//! Emits a schema-stable report (`ceu-bench-regression/v1`) with these
//! row families:
//!
//! * `reaction_latency` — median-of-N ns/event for the steady-state
//!   reaction loop, optimized vs `--no-opt` flat code, on an
//!   expression-heavy workload (where the optimizer has material to
//!   fold) and on the §2.2 dataflow chain (emit-chain dispatch cost);
//! * `alloc_per_event` — allocations per reaction measured by a counting
//!   global allocator, asserted **zero** after warmup (the hot-path
//!   invariant; see docs/PERFORMANCE.md). Scheduler stats are *off*
//!   here, which is exactly the guarantee: introspection disabled must
//!   leave the hot path untouched;
//! * `par_scaling` — shared-artifact throughput on 1..=T threads;
//! * `world_par` — PDES scheduler over the chaos network at 1/2/4
//!   threads with `ceu-par-stats/v1` on: wall, speedup, utilization and
//!   the dominant stall category per thread count;
//! * `stats_overhead` — the same 2-thread world run with stats off vs
//!   on, reported as an overhead percentage (the tracked cost of
//!   enabling introspection);
//! * `world_shard` — the sharded engine on the workload it is shaped
//!   for: the 48-mote clustered mesh (`ceu_bench::shard_mesh`) at 1/2/4
//!   threads with per-shard stats on. Where `world_par`'s chaos ring is
//!   deliberately barrier-hostile (one global lookahead), these rows
//!   track the topology-aligned case — cluster-aligned shards, per-shard
//!   lookahead — whose 2-thread speedup CI gates on;
//! * `recorder_overhead` — the always-on flight recorder's cost, on the
//!   machine (expr_heavy with a ring fed from drained events vs bare) and on the
//!   world (shard mesh, recorder + machine traces vs neither). The
//!   recorded machine loop is also held to the zero-alloc invariant: a
//!   black box that allocates per event is not "always-on";
//! * `native_latency` — the AOT Rust backend (`rsbackend::emit_rust`,
//!   attached via `Machine::set_native` from `ceu-native-corpus`) on the
//!   same two workloads and artifacts as `reaction_latency`. The lane is
//!   held to the same zero-alloc bar (rows land in `alloc_per_event` as
//!   `<workload>+native`), and each trial asserts the machine really
//!   stepped natively rather than silently falling back.
//!
//! ```sh
//! cargo run --release -p ceu-bench --bin bench_regression -- \
//!     [--trials N] [--events K] [--out PATH] [--snapshot PATH] [--quick]
//! ```
//!
//! The JSON lands in `target/experiments/BENCH_PR9.json` unless `--out`
//! says otherwise; `--snapshot PATH` writes a second copy (CI commits it
//! as `BENCH_PR9.json` at the repo root). CI's `bench-smoke` job runs
//! `--quick` and fails on any steady-state allocation.

use ceu::runtime::{FlightRecorder, Machine, NativeProgram, NullHost, TraceEvent, TraceMask};
use ceu::Compiler;
use ceu_bench::{DATAFLOW_CHAIN, EXPR_HEAVY};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Counts every heap operation that obtains memory. Deallocation is left
/// uncounted: the invariant under test is "the reaction loop does not
/// *acquire* memory", and frees would double-count realloc churn.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

#[derive(serde::Serialize)]
struct LatencyRow {
    workload: &'static str,
    opt: bool,
    trials: usize,
    events_per_trial: u64,
    median_ns_per_event: f64,
}

#[derive(serde::Serialize)]
struct AllocRow {
    workload: &'static str,
    opt: bool,
    warmup_events: u64,
    measured_events: u64,
    allocs: u64,
    allocs_per_event: f64,
}

#[derive(serde::Serialize)]
struct ParRow {
    workload: &'static str,
    machines: usize,
    reactions: u64,
    threads: usize,
    throughput_rps: f64,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct WorldParRow {
    workload: &'static str,
    horizon_us: u64,
    threads: usize,
    wall_ns: u64,
    speedup: f64,
    utilization: f64,
    dominant_stall: &'static str,
    windows: u64,
    achievable_speedup: f64,
}

#[derive(serde::Serialize)]
struct WorldShardRow {
    workload: &'static str,
    horizon_us: u64,
    threads: usize,
    shards: u64,
    wall_ns: u64,
    speedup: f64,
    utilization: f64,
    dominant_stall: &'static str,
    windows: u64,
    achievable_speedup: f64,
}

#[derive(serde::Serialize)]
struct StatsOverheadRow {
    workload: &'static str,
    horizon_us: u64,
    threads: usize,
    wall_off_ns: u64,
    wall_on_ns: u64,
    overhead_pct: f64,
}

#[derive(serde::Serialize)]
struct RecorderOverheadRow {
    workload: &'static str,
    /// `machine` (ns/event medians) or `world` (wall-clock medians).
    mode: &'static str,
    threads: usize,
    off_ns: u64,
    on_ns: u64,
    overhead_pct: f64,
}

/// The wire format of the regression report. Field names and nesting are
/// the schema — downstream diffing relies on them staying put; new row
/// families are only ever appended.
#[derive(serde::Serialize)]
struct Report {
    schema: &'static str,
    reaction_latency: Vec<LatencyRow>,
    alloc_per_event: Vec<AllocRow>,
    par_scaling: Vec<ParRow>,
    world_par: Vec<WorldParRow>,
    stats_overhead: Vec<StatsOverheadRow>,
    world_shard: Vec<WorldShardRow>,
    recorder_overhead: Vec<RecorderOverheadRow>,
    native_latency: Vec<LatencyRow>,
}

/// Boots a machine over the shared artifact and returns it with the
/// driving event resolved.
fn boot(prog: &Arc<ceu::CompiledProgram>, event: &str) -> (Machine, ceu::ast::EventId) {
    let mut m = Machine::from_arc(Arc::clone(prog));
    let ev = m.event_id(event).expect("workload declares its driving event");
    m.go_init(&mut NullHost).expect("boot");
    (m, ev)
}

/// A flight recorder (plus its reused drain buffer) fed the way `ceuc run
/// --blackbox` and the simulators feed theirs: the machine buffers coarse
/// events, and the driver drains them into the bounded ring after every
/// call.
type Recorder = (FlightRecorder, Vec<TraceEvent>);

fn attach_recorder(m: &mut Machine, capacity: usize) -> Recorder {
    m.enable_events(TraceMask::Coarse);
    (FlightRecorder::new(capacity), Vec::new())
}

/// One reaction to `ev`, then the recorder (if any) drains the machine.
fn react(m: &mut Machine, ev: ceu::ast::EventId, recorder: &mut Option<Recorder>) {
    m.go_event(ev, Some(ceu::runtime::Value::Int(1)), &mut NullHost).expect("react");
    if let Some((rec, drained)) = recorder {
        m.drain_events_into(drained);
        for e in drained.drain(..) {
            rec.record(0, 0, rec.recorded() + 1, &e);
        }
    }
}

/// Median-of-N ns/event over fresh machines (one per trial).
fn median_latency(
    prog: &Arc<ceu::CompiledProgram>,
    event: &str,
    trials: usize,
    events: u64,
) -> f64 {
    median_latency_opts(prog, event, trials, events, None)
}

/// [`median_latency`] with an optional flight recorder of the given
/// capacity attached before warmup.
fn median_latency_opts(
    prog: &Arc<ceu::CompiledProgram>,
    event: &str,
    trials: usize,
    events: u64,
    recorder: Option<usize>,
) -> f64 {
    let mut per_event: Vec<f64> =
        (0..trials).map(|_| latency_trial(prog, event, events, recorder)).collect();
    per_event.sort_by(|a, b| a.total_cmp(b));
    per_event[per_event.len() / 2]
}

/// One timed trial on a fresh machine: ns/event over `events` reactions
/// after warmup. Split out so overhead rows can interleave their off/on
/// arms (clock drift on shared runners hits both arms equally only when
/// they alternate within the same pass).
fn latency_trial(
    prog: &Arc<ceu::CompiledProgram>,
    event: &str,
    events: u64,
    recorder: Option<usize>,
) -> f64 {
    let (mut m, ev) = boot(prog, event);
    let mut recorder = recorder.map(|cap| attach_recorder(&mut m, cap));
    // warm caches, grow every machine buffer to steady state
    for _ in 0..events.min(200) {
        react(&mut m, ev, &mut recorder);
    }
    let start = Instant::now();
    for _ in 0..events {
        react(&mut m, ev, &mut recorder);
    }
    start.elapsed().as_nanos() as f64 / events as f64
}

/// One timed native-lane trial: the same shape as [`latency_trial`], but
/// the AOT build is attached first, and the machine is checked to have
/// actually stepped natively — tracing or metrics would make the lane
/// silently fall back to the interpreter and measure nothing.
fn native_latency_trial(
    prog: &Arc<ceu::CompiledProgram>,
    native: &Arc<dyn NativeProgram>,
    event: &str,
    events: u64,
) -> f64 {
    let (mut m, ev) = boot(prog, event);
    m.set_native(Arc::clone(native)).expect("AOT build matches the compiled artifact");
    for _ in 0..events.min(200) {
        m.go_event(ev, Some(ceu::runtime::Value::Int(1)), &mut NullHost).expect("warmup");
    }
    let start = Instant::now();
    for _ in 0..events {
        m.go_event(ev, Some(ceu::runtime::Value::Int(1)), &mut NullHost).expect("react");
    }
    let ns = start.elapsed().as_nanos() as f64 / events as f64;
    assert!(m.native_steps() > 0, "native lane must execute natively, not fall back");
    ns
}

/// [`alloc_count`] for the native lane.
fn native_alloc_count(
    prog: &Arc<ceu::CompiledProgram>,
    native: &Arc<dyn NativeProgram>,
    event: &str,
    warmup: u64,
    events: u64,
) -> u64 {
    let (mut m, ev) = boot(prog, event);
    m.set_native(Arc::clone(native)).expect("AOT build matches the compiled artifact");
    for _ in 0..warmup {
        m.go_event(ev, Some(ceu::runtime::Value::Int(1)), &mut NullHost).expect("warmup");
    }
    let before = allocs();
    for _ in 0..events {
        m.go_event(ev, Some(ceu::runtime::Value::Int(1)), &mut NullHost).expect("react");
    }
    let n = allocs() - before;
    assert!(m.native_steps() > 0, "native lane must execute natively, not fall back");
    n
}

/// Counts allocations across `events` steady-state reactions (after a
/// warmup long enough to grow every reusable buffer).
fn alloc_count(prog: &Arc<ceu::CompiledProgram>, event: &str, warmup: u64, events: u64) -> u64 {
    alloc_count_opts(prog, event, warmup, events, None)
}

/// [`alloc_count`] with an optional flight recorder attached — warmup
/// must wrap the ring at least once so the measured window exercises the
/// overwrite path, not the initial fill.
fn alloc_count_opts(
    prog: &Arc<ceu::CompiledProgram>,
    event: &str,
    warmup: u64,
    events: u64,
    recorder: Option<usize>,
) -> u64 {
    let (mut m, ev) = boot(prog, event);
    let mut recorder = recorder.map(|cap| attach_recorder(&mut m, cap));
    for _ in 0..warmup {
        react(&mut m, ev, &mut recorder);
    }
    let before = allocs();
    for _ in 0..events {
        react(&mut m, ev, &mut recorder);
    }
    allocs() - before
}

/// One `par_throughput`-style configuration (shared artifact, N machines
/// split over T threads); returns reactions/second.
fn par_run(
    prog: &Arc<ceu::CompiledProgram>,
    machines: usize,
    reactions: u64,
    threads: usize,
) -> f64 {
    let start = Instant::now();
    let per = |prog: Arc<ceu::CompiledProgram>, n: usize| {
        for _ in 0..n {
            let (mut m, ev) = boot(&prog, "Go");
            for _ in 0..reactions {
                m.go_event(ev, None, &mut NullHost).expect("react");
            }
        }
    };
    if threads <= 1 {
        per(Arc::clone(prog), machines);
    } else {
        let base = machines / threads;
        let extra = machines % threads;
        std::thread::scope(|s| {
            for t in 0..threads {
                let n = base + usize::from(t < extra);
                if n > 0 {
                    let prog = Arc::clone(prog);
                    s.spawn(move || per(prog, n));
                }
            }
        });
    }
    (machines as f64 * reactions as f64) / start.elapsed().as_secs_f64()
}

/// Steps the six-mote chaos network (no faults, no traces) on `threads`
/// workers; returns the measured wall and, when `stats` is on, the
/// `ceu-par-stats/v1` record.
fn world_wall(horizon_us: u64, threads: usize, stats: bool) -> (u64, Option<wsn_sim::ParStats>) {
    let mut w = ceu_bench::chaos::build_chaos_world_opts(&wsn_sim::FaultPlan::new(), false);
    if stats {
        w.enable_par_stats();
    }
    let t0 = Instant::now();
    w.run_until_parallel(horizon_us, threads);
    (t0.elapsed().as_nanos() as u64, w.take_par_stats())
}

/// Steps the clustered shard-mesh (cluster-aligned shards, per-shard
/// lookahead) on `threads` workers with per-shard stats on.
fn shard_world_wall(horizon_us: u64, threads: usize) -> (u64, wsn_sim::ParStats) {
    let mut w = ceu_bench::shard_mesh::build_shard_mesh_world(false);
    w.enable_par_stats();
    let t0 = Instant::now();
    w.run_until_parallel(horizon_us, threads);
    (t0.elapsed().as_nanos() as u64, w.take_par_stats().expect("par stats enabled"))
}

/// The same mesh run bare (no stats, no recorder) or with the flight
/// recorder on — the two halves of the world `recorder_overhead` row.
fn shard_world_wall_recorder(horizon_us: u64, threads: usize, capacity: Option<usize>) -> u64 {
    let mut w = match capacity {
        Some(cap) => ceu_bench::shard_mesh::build_shard_mesh_world_recorded(cap),
        None => ceu_bench::shard_mesh::build_shard_mesh_world(false),
    };
    let t0 = Instant::now();
    w.run_until_parallel(horizon_us, threads);
    t0.elapsed().as_nanos() as u64
}

fn main() {
    let mut trials = 5usize;
    let mut events = 50_000u64;
    let mut horizon_us = 120_000u64;
    let mut out: Option<std::path::PathBuf> = None;
    let mut snapshot: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trials" => trials = args.next().and_then(|v| v.parse().ok()).expect("--trials N"),
            "--events" => events = args.next().and_then(|v| v.parse().ok()).expect("--events K"),
            "--out" => out = Some(args.next().expect("--out PATH").into()),
            "--snapshot" => snapshot = Some(args.next().expect("--snapshot PATH").into()),
            "--quick" => {
                trials = 3;
                events = 5_000;
                horizon_us = 30_000;
            }
            other => panic!("unknown flag `{other}`"),
        }
    }
    let out = out.unwrap_or_else(|| ceu_bench::out_dir().join("BENCH_PR9.json"));

    let workloads: Vec<(&'static str, &str, &str)> =
        vec![("expr_heavy", EXPR_HEAVY, "E"), ("dataflow_chain", DATAFLOW_CHAIN, "Go")];
    let mut latency_rows = Vec::new();
    let mut alloc_rows = Vec::new();
    let mut par_rows = Vec::new();

    println!("benchmark-regression harness — {trials} trials × {events} events\n");
    for (name, src, event) in &workloads {
        let optimized = Arc::new(Compiler::new().compile(src).expect("workload compiles"));
        let baseline = Arc::new(Compiler::unoptimized().compile(src).expect("workload compiles"));
        for (opt, prog) in [(true, &optimized), (false, &baseline)] {
            let median = median_latency(prog, event, trials, events);
            println!(
                "reaction_latency  {name:<16} {}  {median:8.1} ns/event",
                if opt { "opt   " } else { "no-opt" }
            );
            latency_rows.push(LatencyRow {
                workload: name,
                opt,
                trials,
                events_per_trial: events,
                median_ns_per_event: median,
            });
        }

        // the zero-alloc invariant holds with and without the optimizer
        for (opt, prog) in [(true, &optimized), (false, &baseline)] {
            let warmup = 200;
            let n = alloc_count(prog, event, warmup, events);
            println!(
                "alloc_per_event   {name:<16} {}  {n} allocs / {events} events",
                if opt { "opt   " } else { "no-opt" }
            );
            alloc_rows.push(AllocRow {
                workload: name,
                opt,
                warmup_events: warmup,
                measured_events: events,
                allocs: n,
                allocs_per_event: n as f64 / events as f64,
            });
            assert_eq!(
                n,
                0,
                "{name} ({}): the steady-state reaction path must not allocate",
                if opt { "opt" } else { "no-opt" }
            );
        }
    }

    // the native lane: the AOT Rust backend over the same workloads and
    // artifacts, with a matching zero-alloc row. The lookup name is the
    // ceu-corpus name (dataflow_chain registers there as "dataflow").
    let mut native_rows = Vec::new();
    let native_workloads: Vec<(&'static str, &'static str, &'static str, &str, &str)> = vec![
        ("expr_heavy", "expr_heavy+native", "expr_heavy", EXPR_HEAVY, "E"),
        ("dataflow_chain", "dataflow_chain+native", "dataflow", DATAFLOW_CHAIN, "Go"),
    ];
    for (name, alloc_name, lookup_name, src, event) in native_workloads {
        for opt in [true, false] {
            let compiler = if opt { Compiler::new() } else { Compiler::unoptimized() };
            let prog = Arc::new(compiler.compile(src).expect("workload compiles"));
            let native = ceu_native_corpus::lookup(lookup_name, opt)
                .expect("workload has an AOT build in ceu-native-corpus");
            let mut per: Vec<f64> =
                (0..trials).map(|_| native_latency_trial(&prog, &native, event, events)).collect();
            per.sort_by(|a, b| a.total_cmp(b));
            let median = per[per.len() / 2];
            println!(
                "native_latency    {name:<16} {}  {median:8.1} ns/event",
                if opt { "opt   " } else { "no-opt" }
            );
            native_rows.push(LatencyRow {
                workload: name,
                opt,
                trials,
                events_per_trial: events,
                median_ns_per_event: median,
            });

            let warmup = 200;
            let n = native_alloc_count(&prog, &native, event, warmup, events);
            println!(
                "alloc_per_event   {:<16} {}  {n} allocs / {events} events",
                alloc_name,
                if opt { "opt   " } else { "no-opt" }
            );
            alloc_rows.push(AllocRow {
                workload: alloc_name,
                opt,
                warmup_events: warmup,
                measured_events: events,
                allocs: n,
                allocs_per_event: n as f64 / events as f64,
            });
            assert_eq!(
                n,
                0,
                "{name} ({}, native): the steady-state reaction path must not allocate",
                if opt { "opt" } else { "no-opt" }
            );
        }
    }

    // shared-artifact scaling (kept small: this is a smoke row, the full
    // sweep lives in par_throughput)
    let prog = Arc::new(Compiler::new().compile(DATAFLOW_CHAIN).expect("dataflow compiles"));
    let machines = 8;
    let reactions = events.min(2_000);
    par_run(&prog, 2, reactions.min(500), 1); // warm-up
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut base_rps = 0.0;
    for threads in [1, cores.max(2)] {
        let rps = par_run(&prog, machines, reactions, threads);
        if threads == 1 {
            base_rps = rps;
        }
        let speedup = rps / base_rps;
        println!("par_scaling       dataflow_chain   t={threads}  {rps:12.0} rps  {speedup:.2}x");
        par_rows.push(ParRow {
            workload: "dataflow_chain",
            machines,
            reactions,
            threads,
            throughput_rps: rps,
            speedup,
        });
    }

    // PDES scheduler scaling over the chaos network, stats on — the
    // world-level counterpart of par_scaling, with stall attribution
    let mut world_rows = Vec::new();
    world_wall(horizon_us.min(10_000), 2, true); // warm-up
    let mut base_wall = 0u64;
    for threads in [1usize, 2, 4] {
        let (wall, stats) = world_wall(horizon_us, threads, true);
        let stats = stats.expect("par stats enabled");
        if threads == 1 {
            base_wall = wall.max(1);
        }
        let speedup = base_wall as f64 / wall.max(1) as f64;
        let dominant = stats.totals.attribution.dominant_stall().0;
        println!(
            "world_par         chaos_ring       t={threads}  {:9.2} ms  {speedup:.2}x  util {:5.1}%  {dominant}",
            wall as f64 / 1e6,
            stats.utilization() * 100.0
        );
        world_rows.push(WorldParRow {
            workload: "chaos_ring",
            horizon_us,
            threads,
            wall_ns: wall,
            speedup,
            utilization: stats.utilization(),
            dominant_stall: dominant,
            windows: stats.totals.windows,
            achievable_speedup: stats.achievable_speedup(),
        });
    }

    // the tracked cost of turning introspection on (same run, stats off
    // vs on; medians over a few trials to tame scheduler noise)
    let overhead_trials = trials.max(3);
    let median = |mut v: Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    // arms alternate within one pass so clock drift on shared runners
    // cannot masquerade as instrumentation cost
    let mut stats_off = Vec::with_capacity(overhead_trials);
    let mut stats_on = Vec::with_capacity(overhead_trials);
    for _ in 0..overhead_trials {
        stats_off.push(world_wall(horizon_us, 2, false).0);
        stats_on.push(world_wall(horizon_us, 2, true).0);
    }
    let wall_off = median(stats_off);
    let wall_on = median(stats_on);
    let overhead_pct = (wall_on as f64 / wall_off.max(1) as f64 - 1.0) * 100.0;
    println!(
        "stats_overhead    chaos_ring       t=2  off {:.2} ms  on {:.2} ms  {overhead_pct:+.1}%",
        wall_off as f64 / 1e6,
        wall_on as f64 / 1e6
    );
    let overhead_rows = vec![StatsOverheadRow {
        workload: "chaos_ring",
        horizon_us,
        threads: 2,
        wall_off_ns: wall_off,
        wall_on_ns: wall_on,
        overhead_pct,
    }];

    // the topology-aligned counterpart of world_par: cluster-aligned
    // shards over the 48-mote mesh, the configuration CI gates on
    let mut shard_rows = Vec::new();
    shard_world_wall(horizon_us.min(10_000), 2); // warm-up
    let mut shard_base_wall = 0u64;
    for threads in [1usize, 2, 4] {
        let (wall, stats) = shard_world_wall(horizon_us, threads);
        if threads == 1 {
            shard_base_wall = wall.max(1);
        }
        let speedup = shard_base_wall as f64 / wall.max(1) as f64;
        let dominant = stats.totals.attribution.dominant_stall().0;
        println!(
            "world_shard       shard_mesh       t={threads}  {:9.2} ms  {speedup:.2}x  util {:5.1}%  {dominant}",
            wall as f64 / 1e6,
            stats.utilization() * 100.0
        );
        shard_rows.push(WorldShardRow {
            workload: "shard_mesh",
            horizon_us,
            threads,
            shards: stats.shards as u64,
            wall_ns: wall,
            speedup,
            utilization: stats.utilization(),
            dominant_stall: dominant,
            windows: stats.totals.windows,
            achievable_speedup: stats.achievable_speedup(),
        });
    }

    // the flight recorder's cost: machine flavor (ns/event with a ring
    // fed from drained events vs bare) and world flavor (shard-mesh wall
    // with recorder + machine traces vs neither), medians over trials
    let mut recorder_rows = Vec::new();
    let expr = Arc::new(Compiler::new().compile(EXPR_HEAVY).expect("workload compiles"));
    // off/on trials alternate so clock drift cannot masquerade as
    // recorder cost; medians are taken per arm afterwards
    let mut off_trials = Vec::with_capacity(trials);
    let mut on_trials = Vec::with_capacity(trials);
    for _ in 0..trials {
        off_trials.push(latency_trial(&expr, "E", events, None));
        on_trials.push(latency_trial(&expr, "E", events, Some(4096)));
    }
    let median_f64 = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let off_ns = median_f64(off_trials);
    let on_ns = median_f64(on_trials);
    let machine_pct = (on_ns / off_ns.max(1e-9) - 1.0) * 100.0;
    println!(
        "recorder_overhead expr_heavy       machine  off {off_ns:7.1}  on {on_ns:7.1} ns/event  {machine_pct:+.1}%"
    );
    recorder_rows.push(RecorderOverheadRow {
        workload: "expr_heavy",
        mode: "machine",
        threads: 1,
        off_ns: off_ns as u64,
        on_ns: on_ns as u64,
        overhead_pct: machine_pct,
    });
    shard_world_wall_recorder(horizon_us.min(10_000), 2, Some(1_024)); // warm-up
    let mut world_off = Vec::with_capacity(overhead_trials);
    let mut world_on = Vec::with_capacity(overhead_trials);
    for _ in 0..overhead_trials {
        world_off.push(shard_world_wall_recorder(horizon_us, 2, None));
        world_on.push(shard_world_wall_recorder(horizon_us, 2, Some(1_024)));
    }
    let rec_off = median(world_off);
    let rec_on = median(world_on);
    let world_pct = (rec_on as f64 / rec_off.max(1) as f64 - 1.0) * 100.0;
    println!(
        "recorder_overhead shard_mesh       world    off {:7.2}  on {:7.2} ms       {world_pct:+.1}%",
        rec_off as f64 / 1e6,
        rec_on as f64 / 1e6
    );
    recorder_rows.push(RecorderOverheadRow {
        workload: "shard_mesh",
        mode: "world",
        threads: 2,
        off_ns: rec_off,
        on_ns: rec_on,
        overhead_pct: world_pct,
    });

    // the recorded hot path is held to the same zero-alloc bar as the
    // bare one; warmup wraps the ring so the overwrite path is measured
    let rec_warmup = 2_048;
    let n = alloc_count_opts(&expr, "E", rec_warmup, events, Some(1_024));
    println!("alloc_per_event   expr_heavy+rec   opt     {n} allocs / {events} events");
    alloc_rows.push(AllocRow {
        workload: "expr_heavy+recorder",
        opt: true,
        warmup_events: rec_warmup,
        measured_events: events,
        allocs: n,
        allocs_per_event: n as f64 / events as f64,
    });
    assert_eq!(n, 0, "the recorded steady-state reaction path must not allocate");

    let report = Report {
        schema: "ceu-bench-regression/v1",
        reaction_latency: latency_rows,
        alloc_per_event: alloc_rows,
        par_scaling: par_rows,
        world_par: world_rows,
        stats_overhead: overhead_rows,
        world_shard: shard_rows,
        recorder_overhead: recorder_rows,
        native_latency: native_rows,
    };
    let json = serde_json::to_string(&report).expect("serialize report");
    std::fs::write(&out, json.clone() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("\nreport -> {}", out.display());
    if let Some(snap) = snapshot {
        std::fs::write(&snap, json + "\n")
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", snap.display()));
        println!("snapshot -> {}", snap.display());
    }
    println!("zero-allocation steady state verified ✓ (scheduler stats disabled on the hot path)");
}
