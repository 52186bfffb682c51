//! Chaos-harness core: a six-mote Céu network stepped under seeded
//! fault plans, with every run checked bit-identical across thread
//! counts (the robustness analog of the determinism experiments).
//!
//! The scenario is deliberately busy: every mote both relays received
//! counters to its LEDs and beacons its own counter to the next mote
//! once per millisecond, so crashes, reboots, partitions, bursts and
//! clock skew all land on live traffic. A rebooted mote restarts from
//! its boot image and its beacon loop resumes — LED activity after
//! the revival time is the observable re-convergence signal.
//!
//! The binary (`cargo run -p ceu-bench --bin chaos`) drives this over
//! the named plans plus randomized ones and writes `ceu-chaos/v1` JSONL
//! rows; the tier-1 test (`tests/chaos_acceptance.rs`) runs the named
//! plans only.

use ceu::runtime::TraceEvent;
use std::sync::{Arc, Mutex};
use wsn_sim::world::Stats;
use wsn_sim::{
    CeuMote, FaultAction, FaultPlan, MoteStats, ParStats, Radio, RebootPolicy, Topology, World,
};

/// Shared handle to a chaos mote, readable after the run (the
/// `Arc<Mutex<B>>` backend impl keeps the world free to step it on
/// worker threads).
pub type MoteHandle = Arc<Mutex<CeuMote>>;

/// Roster size: big enough that partitions split live traffic and the
/// parallel stepper actually fans out.
pub const CHAOS_MOTES: usize = 6;

/// Default horizon (µs) for a chaos run.
pub const CHAOS_HORIZON_US: u64 = 40_000;

/// Per-shard flight-recorder capacity for chaos worlds: the recorder is
/// always on here — crashes are the whole point of the harness, and the
/// ring is what the black-box dump snapshots.
pub const CHAOS_RECORDER_CAPACITY: usize = 1_024;

/// Every mote: relay received counters onto the LEDs, and beacon an own
/// counter to the next mote in the ring once per millisecond.
const CHAOS_MOTE_CEU: &str = r#"
    input _message_t* Radio_receive;
    par do
       loop do
          _message_t* msg = await Radio_receive;
          int* cnt = _Radio_getPayload(msg);
          _Leds_set(*cnt % 8);
       end
    with
       _message_t out;
       int* cnt = _Radio_getPayload(&out);
       *cnt = _TOS_NODE_ID;
       loop do
          await 1ms;
          *cnt = *cnt + 1;
          _Leds_led0Toggle();
          _Radio_send((_TOS_NODE_ID + 1) % 6, &out);
       end
    end
"#;

/// Crash one mote with an explicit revival, hard-crash another and
/// revive it later: the basic die-and-come-back story.
pub fn crash_reboot_plan() -> FaultPlan {
    FaultPlan::new()
        .at(5_000, FaultAction::Reboot { mote: 2, delay_us: 3_000 })
        .at(9_000, FaultAction::Crash { mote: 4 })
        .at(16_000, FaultAction::Reboot { mote: 4, delay_us: 1_500 })
}

/// Split the roster, split it differently while the first split is
/// still active, then heal everything.
pub fn partition_heal_plan() -> FaultPlan {
    FaultPlan::new()
        .at(
            4_000,
            FaultAction::Partition {
                group_a: vec![0, 1, 2],
                group_b: vec![3, 4, 5],
                until_us: 14_000,
            },
        )
        .at(
            10_000,
            FaultAction::Partition { group_a: vec![0, 5], group_b: vec![2, 3], until_us: 30_000 },
        )
        .at(18_000, FaultAction::Heal)
}

/// Degrade links and clocks without killing anyone: loss bursts on two
/// hops, one fast and one slow clock, and a mid-run in-flight purge.
pub fn burst_skew_plan() -> FaultPlan {
    FaultPlan::new()
        .at(2_000, FaultAction::ClockSkew { mote: 1, ppm: 500 })
        .at(3_000, FaultAction::ClockSkew { mote: 4, ppm: -400 })
        .at(6_000, FaultAction::LossBurst { from: 0, to: 1, rate: 0.7, until_us: 18_000 })
        .at(9_000, FaultAction::LossBurst { from: 3, to: 4, rate: 0.5, until_us: 15_000 })
        .at(12_000, FaultAction::DropInFlight { mote: 5 })
        .at(20_000, FaultAction::Heal)
}

/// The three hand-written plans, named.
pub fn named_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("crash-reboot", crash_reboot_plan()),
        ("partition-heal", partition_heal_plan()),
        ("burst-skew", burst_skew_plan()),
    ]
}

/// A fresh chaos world: lossy full-mesh radio, reboot policy armed, the
/// fault plan scheduled, traces on everywhere.
pub fn build_chaos_world(plan: &FaultPlan) -> World {
    let mut w = World::new(Radio::new(Topology::Full, 700, 0.15, 23));
    w.enable_trace();
    w.enable_flight_recorder(CHAOS_RECORDER_CAPACITY);
    w.set_reboot_policy(RebootPolicy::After(2_500));
    let prog = ceu::Compiler::new().compile(CHAOS_MOTE_CEU).expect("chaos program compiles");
    for id in 0..CHAOS_MOTES as i64 {
        let mut mote = CeuMote::new(prog.clone(), id);
        mote.enable_trace();
        w.add_mote(Box::new(mote));
    }
    w.set_fault_plan(plan).expect("plan fits the roster");
    w.boot();
    w
}

/// A chaos world whose mote 0 is held through a shared handle with
/// machine metrics on — the source of the "machine" section of the
/// combined `--metrics-out` snapshot (machine + world + scheduler in one
/// file).
pub fn build_chaos_world_instrumented(plan: &FaultPlan) -> (World, MoteHandle) {
    let mut w = World::new(Radio::new(Topology::Full, 700, 0.15, 23));
    w.set_reboot_policy(RebootPolicy::After(2_500));
    let prog = ceu::Compiler::new().compile(CHAOS_MOTE_CEU).expect("chaos program compiles");
    let mut first = CeuMote::new(prog.clone(), 0);
    first.enable_metrics();
    let handle = Arc::new(Mutex::new(first));
    w.add_mote(Box::new(Arc::clone(&handle)));
    for id in 1..CHAOS_MOTES as i64 {
        w.add_mote(Box::new(CeuMote::new(prog.clone(), id)));
    }
    w.set_fault_plan(plan).expect("plan fits the roster");
    w.boot();
    (w, handle)
}

/// What one scenario produced, after the cross-thread checks passed.
pub struct ChaosOutcome {
    pub scenario: String,
    pub seed: Option<u64>,
    pub horizon_us: u64,
    pub threads_checked: Vec<usize>,
    pub trace_events: usize,
    pub crashes: usize,
    pub reboots: usize,
    pub stats: Stats,
    pub mote_stats: Vec<MoteStats>,
    /// Last LED-change time per mote (the re-convergence witness).
    pub led_last_activity: Vec<u64>,
    /// Scheduler introspection from the widest parallel check
    /// (`ceu-par-stats/v1`, collected with the bit-identity asserts on —
    /// proof that stats collection does not perturb the run).
    pub par_stats: Option<ParStats>,
    /// Flight-recorder `(live, capacity, dropped)` from the sequential
    /// run; the parallel runs must (and do) match it exactly.
    pub ring: Option<(usize, usize, u64)>,
}

type Snapshot = (Stats, Vec<MoteStats>, Vec<Vec<(u64, u8, bool)>>);

fn snapshot(w: &World) -> Snapshot {
    (
        w.stats,
        (0..w.mote_count()).map(|m| *w.mote_stats(m)).collect(),
        (0..w.mote_count()).map(|m| w.leds(m).history.clone()).collect(),
    )
}

/// Runs one plan sequentially, then on every requested thread count,
/// and panics unless every run is bit-identical (world trace, stats,
/// LED histories). Never aborts on mote failure — that is the point.
pub fn run_chaos_scenario(
    name: &str,
    plan: &FaultPlan,
    horizon_us: u64,
    threads: &[usize],
) -> ChaosOutcome {
    let mut seq = build_chaos_world(plan);
    seq.run_until(horizon_us);
    let obs = snapshot(&seq);
    let records = seq.flight_records();
    let trace = seq.take_trace();
    let mut par_stats: Option<ParStats> = None;
    for &t in threads {
        // stats stay ON during the bit-identity asserts: collection must
        // never perturb the simulation
        let mut par = build_chaos_world(plan);
        par.enable_par_stats();
        par.run_until_parallel(horizon_us, t);
        assert_eq!(obs, snapshot(&par), "{name}: observables diverge at threads={t}");
        assert_eq!(records, par.flight_records(), "{name}: flight records diverge at threads={t}");
        assert_eq!(trace, par.take_trace(), "{name}: world trace diverges at threads={t}");
        let stats = par.take_par_stats().expect("par stats enabled");
        if !stats.fallback {
            par_stats = Some(stats);
        }
    }
    // a rebooted machine keeps counting: one id names one reaction
    let mut ids = std::collections::HashSet::new();
    for e in &trace {
        if let TraceEvent::ReactionStart { id, .. } = e.event {
            assert!(ids.insert(id), "{name}: reaction id {id:?} repeats in the world trace");
        }
    }
    let crashes =
        trace.iter().filter(|e| matches!(e.event, TraceEvent::MoteCrashed { .. })).count();
    let reboots =
        trace.iter().filter(|e| matches!(e.event, TraceEvent::MoteRebooted { .. })).count();
    let (stats, mote_stats, leds) = obs;
    ChaosOutcome {
        scenario: name.to_string(),
        seed: plan.seed,
        horizon_us,
        threads_checked: threads.to_vec(),
        trace_events: trace.len(),
        crashes,
        reboots,
        stats,
        mote_stats,
        led_last_activity: leds.iter().map(|h| h.last().map(|&(t, _, _)| t).unwrap_or(0)).collect(),
        par_stats,
        ring: seq.flight_recorder_stats(),
    }
}
