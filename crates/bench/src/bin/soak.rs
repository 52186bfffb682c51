//! **Soak harness** — the sharded engine at population scale.
//!
//! The other world harnesses hold dozens of motes; this one holds a
//! million (default) and asks one question: does the sharded PDES core —
//! cluster-aligned shards, SoA mote state, one `Arc<CompiledProgram>`
//! behind the whole roster — actually sustain that population? It builds
//! a clustered mesh ([`ceu_bench::shard_mesh::mesh_program`] scaled up),
//! steps it in parallel with per-shard stats on, and reports motes held,
//! events/second, resident set size and the per-shard busy spread.
//!
//! ```sh
//! cargo run --release -p ceu-bench --bin soak -- \
//!     [--quick] [--motes N] [--horizon-us T] [--threads T] [--shards S] \
//!     [--out PATH] [--metrics-out PATH] [--blackbox PATH]
//! ```
//!
//! `--quick` is the CI configuration: 50k motes over a short horizon,
//! small enough for a shared runner. Results land as `ceu-soak/v1` JSONL
//! (one `kind:"run"` line, then one `kind:"shard"` line per shard) in
//! `target/experiments/soak.jsonl` unless `--out` says otherwise; CI
//! uploads the file as an artifact. The scheduler record of the run goes
//! to `target/experiments/par_stats.jsonl` as `ceu-par-stats/v2`, the
//! input of `ceu-trace par-report` and `to-perfetto --par-stats`.
//! `--threads` must be at least 2: a 1-thread run falls back to the
//! sequential stepper, a different engine than the one being soaked.
//!
//! The run is stepped in slices with a one-line health heartbeat after
//! each (virtual time, cumulative events/s, RSS, flight-recorder ring
//! occupancy) — a soak that is quietly dying should say so while it
//! dies, not after. `--metrics-out` writes the combined machine, world
//! and scheduler snapshot; `--blackbox` arms a crash dump path (the
//! recorder itself is always on here).

use ceu::runtime::telemetry::{to_json, Fixed};
use ceu_bench::shard_mesh::{mesh_program, MESH_BRIDGE_US, MESH_INTRA_US};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use wsn_sim::{CeuMote, Radio, World};

/// Motes per cluster — matches the standard mesh so the per-cluster
/// event density (and thus window weight) is the one the sweep tunes.
const CLUSTER_SIZE: usize = 8;

/// Per-shard flight-recorder capacity: small, because at soak scale the
/// ring is a liveness witness (occupancy in the heartbeat, context in a
/// crash dump), not an archive.
const SOAK_RECORDER_CAPACITY: usize = 1_024;

/// How many slices the horizon is cut into: one heartbeat line each.
const HEARTBEAT_SLICES: u64 = 8;

/// Schema tag of the soak's result lines.
const SOAK_SCHEMA: &str = "ceu-soak/v1";

/// The `ceu-soak/v1` `run` line: population, timing and throughput.
#[derive(Serialize)]
struct SoakRun {
    schema: &'static str,
    kind: &'static str,
    motes: usize,
    clusters: usize,
    cluster_size: usize,
    threads: usize,
    shards: u32,
    horizon_us: u64,
    build_ns: u64,
    wall_ns: u64,
    events: u64,
    events_per_sec: Fixed<1>,
    rss_bytes: u64,
}

/// One `ceu-soak/v1` `shard` line: a shard's load and its busy share.
#[derive(Serialize)]
struct SoakShard {
    schema: &'static str,
    kind: &'static str,
    shard: u32,
    motes: u32,
    windows: u64,
    events: u64,
    busy_ns: u64,
    busy_share: Fixed<4>,
}

/// Resident set size in bytes, from `/proc/self/statm` (field 2 is
/// resident pages). Returns 0 where procfs is unavailable.
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|v| v.parse::<u64>().ok()))
        .map_or(0, |pages| pages * 4096)
}

/// Reports a malformed command line and exits 1.
fn usage(msg: &str) -> ! {
    eprintln!(
        "soak: {msg}\nusage: soak [--quick] [--motes N] [--horizon-us T] [--threads T] \
         [--shards S] [--out PATH] [--metrics-out PATH] [--blackbox PATH]"
    );
    std::process::exit(1);
}

/// The value following `flag`, parsed.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(v) = args.next() else { usage(&format!("{flag} needs a value")) };
    v.parse().unwrap_or_else(|_| usage(&format!("{flag}: `{v}` is not a valid value")))
}

fn main() {
    let mut motes = 1_000_000usize;
    let mut horizon_us = 10_000u64;
    // at least 2: a 1-thread run falls back to the sequential stepper,
    // which is a different engine than the one being soaked
    let mut threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).max(2);
    let mut shards = 0usize; // 0 = derive from the thread count
    let mut out: Option<std::path::PathBuf> = None;
    let mut blackbox: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--motes" => motes = value(&mut args, "--motes"),
            "--horizon-us" => horizon_us = value(&mut args, "--horizon-us"),
            "--threads" => threads = value(&mut args, "--threads"),
            "--shards" => shards = value(&mut args, "--shards"),
            "--out" => out = Some(value::<String>(&mut args, "--out").into()),
            "--metrics-out" => {
                // consumed later by `write_combined_metrics_out`
                value::<String>(&mut args, "--metrics-out");
            }
            "--blackbox" => blackbox = Some(value(&mut args, "--blackbox")),
            "--quick" => {
                motes = 50_000;
                horizon_us = 5_000;
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if threads < 2 {
        usage(&format!(
            "--threads {threads}: need at least 2 (1 thread runs the sequential stepper)"
        ));
    }
    let clusters = motes.div_ceil(CLUSTER_SIZE).max(1);
    let motes = clusters * CLUSTER_SIZE; // whole clusters only
    let shards = if shards == 0 { (threads * 8).min(clusters) } else { shards };
    let out = out.unwrap_or_else(|| ceu_bench::out_dir().join("soak.jsonl"));

    println!(
        "soak: {motes} motes ({clusters} clusters × {CLUSTER_SIZE}), \
         {threads} threads, target {shards} shards, horizon {horizon_us} µs"
    );

    // Build: one compile, one Arc, a million `from_shared` machines. The
    // intra latencies cycle over the standard mesh's heterogeneous set so
    // per-shard lookaheads differ; zero loss keeps the soak about volume,
    // not the RNG.
    let b0 = Instant::now();
    let prog = Arc::new(
        ceu::Compiler::new().compile(&mesh_program(motes)).expect("soak program compiles"),
    );
    let radio =
        Radio::clustered(clusters, CLUSTER_SIZE, MESH_INTRA_US.to_vec(), MESH_BRIDGE_US, 0.0, 29);
    let mut w = World::new(radio);
    w.set_target_shards(shards);
    w.enable_par_stats();
    w.enable_flight_recorder(SOAK_RECORDER_CAPACITY);
    if let Some(path) = &blackbox {
        w.set_blackbox_out(path);
    }
    for id in 0..motes as i64 {
        let mut mote = CeuMote::from_shared(Arc::clone(&prog), id);
        // coarse machine-level tracing feeds the flight recorder; the
        // buffers are drained into the bounded rings every window, so this
        // does not grow with the horizon (unlike the world trace, which
        // the soak deliberately leaves off), and the per-track firehose
        // never leaves the machine
        mote.enable_trace_coarse();
        w.add_mote(Box::new(mote));
    }
    w.boot();
    let build_ns = b0.elapsed().as_nanos() as u64;
    let rss_built = rss_bytes();
    println!(
        "build: {:.2} s, rss {:.1} MiB ({} shards)",
        build_ns as f64 / 1e9,
        rss_built as f64 / (1024.0 * 1024.0),
        w.shard_count()
    );

    // Step in slices so health is visible while the soak runs. Par-stats
    // collection accumulates across calls; the snapshot is taken once at
    // the end.
    let t0 = Instant::now();
    let slice = (horizon_us / HEARTBEAT_SLICES).max(1);
    let mut next = 0u64;
    while next < horizon_us {
        next = (next + slice).min(horizon_us);
        w.run_until_parallel(next, threads);
        let so_far = w.par_stats().map_or(0, |s| s.totals.events);
        let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
        let (live, cap, dropped) = w.flight_recorder_stats().unwrap_or((0, 0, 0));
        println!(
            "heartbeat: t={next}/{horizon_us} µs, {so_far} events ({:.0} events/s), \
             rss {:.1} MiB, ring {live}/{cap} ({dropped} dropped)",
            so_far as f64 / elapsed,
            rss_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
    let wall_ns = t0.elapsed().as_nanos().max(1) as u64;
    let stats = w.take_par_stats().expect("par stats enabled");
    let rss = rss_bytes().max(rss_built);
    let events = stats.totals.events;
    let events_per_sec = events as f64 * 1e9 / wall_ns as f64;

    let busy_total: u64 = stats.per_shard.iter().map(|s| s.busy_ns).sum();
    let run = SoakRun {
        schema: SOAK_SCHEMA,
        kind: "run",
        motes,
        clusters,
        cluster_size: CLUSTER_SIZE,
        threads,
        shards: stats.shards,
        horizon_us,
        build_ns,
        wall_ns,
        events,
        events_per_sec: Fixed(events_per_sec),
        rss_bytes: rss,
    };
    let mut lines = to_json(&run) + "\n";
    for s in &stats.per_shard {
        let shard = SoakShard {
            schema: SOAK_SCHEMA,
            kind: "shard",
            shard: s.shard,
            motes: s.motes,
            windows: s.windows,
            events: s.events,
            busy_ns: s.busy_ns,
            busy_share: Fixed(s.busy_ns as f64 / busy_total.max(1) as f64),
        };
        lines.push_str(&(to_json(&shard) + "\n"));
    }
    std::fs::write(&out, lines).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    let stats_path = ceu_bench::out_dir().join("par_stats.jsonl");
    let mut stats_jsonl = Vec::new();
    wsn_sim::write_par_stats_jsonl(&stats, &mut stats_jsonl).expect("writing to a Vec");
    std::fs::write(&stats_path, stats_jsonl)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", stats_path.display()));

    let max_busy = stats.per_shard.iter().map(|s| s.busy_ns).max().unwrap_or(0);
    let mean_busy = busy_total / (stats.per_shard.len().max(1) as u64);
    println!(
        "run: {:.2} s wall, {events} events, {:.0} events/s, rss {:.1} MiB",
        wall_ns as f64 / 1e9,
        events_per_sec,
        rss as f64 / (1024.0 * 1024.0)
    );
    println!(
        "shards: {} active, busy max/mean {:.2}x, utilization {:.1}%",
        stats.per_shard.iter().filter(|s| s.events > 0).count(),
        max_busy as f64 / mean_busy.max(1) as f64,
        stats.utilization() * 100.0
    );
    println!("soak -> {}", out.display());
    println!("par stats -> {}", stats_path.display());
    ceu_bench::write_combined_metrics_out(None, Some(&w), Some(&stats));
    assert!(events > 0, "a soak that fired no events measured nothing");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `run` and one `shard` line, byte for byte, from fixed values.
    #[test]
    fn soak_lines_keep_their_bytes() {
        let run = SoakRun {
            schema: SOAK_SCHEMA,
            kind: "run",
            motes: 16,
            clusters: 2,
            cluster_size: CLUSTER_SIZE,
            threads: 2,
            shards: 2,
            horizon_us: 2_000,
            build_ns: 123_456,
            wall_ns: 1_000_000,
            events: 3_210,
            events_per_sec: Fixed(3_210.0 * 1e9 / 1e6),
            rss_bytes: 4_096,
        };
        assert_eq!(
            to_json(&run),
            concat!(
                r#"{"schema":"ceu-soak/v1","kind":"run","motes":16,"clusters":2,"cluster_size":8,"#,
                r#""threads":2,"shards":2,"horizon_us":2000,"build_ns":123456,"wall_ns":1000000,"#,
                r#""events":3210,"events_per_sec":3210000.0,"rss_bytes":4096}"#
            )
        );
        let shard = SoakShard {
            schema: SOAK_SCHEMA,
            kind: "shard",
            shard: 1,
            motes: 8,
            windows: 5,
            events: 1_500,
            busy_ns: 700,
            busy_share: Fixed(700.0 / 1_900.0),
        };
        assert_eq!(
            to_json(&shard),
            concat!(
                r#"{"schema":"ceu-soak/v1","kind":"shard","shard":1,"motes":8,"windows":5,"#,
                r#""events":1500,"busy_ns":700,"busy_share":0.3684}"#
            )
        );
    }
}
