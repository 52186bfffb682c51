//! `world`: the 48-mote clustered mesh on the sharded PDES stepper
//! (`World::run_until_parallel` on 2 threads), 100 simulated ms per
//! operation, timed as wall time per simulated second.
//!
//! The mesh is the benchmark's own copy of `crates/bench`'s shard mesh,
//! so edits there cannot change this workload. Six full meshes of eight
//! Céu motes with fast links inside a cluster and slow bridges between
//! them: the sharder aligns shards with clusters and each shard's
//! lookahead is its own intra-cluster latency. Motes react to timers
//! (`go_time`) and radio receptions rather than `go_event` calls from
//! the benchmark, and the PDES windows and barriers dominate.

use super::{heap_bytes, timed_setup, Outcome, Params};
use crate::alloc;
use crate::gen;
use crate::span::Tracer;
use crate::stats::{fnv, median};
use ceu::{CompiledProgram, Compiler, Machine};
use std::sync::Arc;
use std::time::Instant;
use wsn_sim::world::Stats;
use wsn_sim::{CeuMote, Radio, RebootPolicy, TosHost, World};

const CLUSTERS: usize = 6;
const CLUSTER_SIZE: usize = 8;
const MOTES: usize = CLUSTERS * CLUSTER_SIZE;
/// Per-cluster intra-mesh latencies (µs), heterogeneous so per-shard
/// lookahead differs from the global minimum.
const INTRA_US: [u64; CLUSTERS] = [5_000, 6_500, 8_500, 5_500, 7_500, 6_000];
const BRIDGE_US: u64 = 20_000;
const LOSS: f64 = 0.10;
const THREADS: usize = 2;
/// Simulated seconds per trial.
const TRIAL_S: u64 = 5;
/// Simulated µs per timed operation. Every trial starts from the same
/// state, so its `j`-th chunk replays the same events: each is a unit.
const CHUNK_US: u64 = 100_000;
const MIN_TRIALS: usize = 5;

/// Each mote shows received counters on its LEDs and beacons to
/// `(id + 1) % total` every millisecond: inside its cluster except at
/// cluster boundaries, where the beacon crosses a bridge.
fn mesh_program(total: usize) -> String {
    format!(
        r#"
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
          _Radio_send((_TOS_NODE_ID + 1) % {total}, &out);
       end
    end
"#
    )
}

fn build(prog: &Arc<CompiledProgram>, seed: u64) -> World {
    let radio = Radio::clustered(
        CLUSTERS,
        CLUSTER_SIZE,
        INTRA_US.to_vec(),
        BRIDGE_US,
        LOSS,
        gen::radio_seed(seed),
    );
    let mut w = World::new(radio);
    w.set_target_shards(CLUSTERS);
    w.set_reboot_policy(RebootPolicy::After(2_500));
    for id in 0..MOTES as i64 {
        w.add_mote(Box::new(CeuMote::from_shared(Arc::clone(prog), id)));
    }
    w.boot();
    w
}

/// What a run must reproduce: network stats and a hash of every mote's
/// LED history.
fn observe(w: &World) -> (Stats, u64) {
    let mut h = Vec::new();
    for m in 0..w.mote_count() {
        for &(t, led, on) in &w.leds(m).history {
            h.extend_from_slice(&t.to_le_bytes());
            h.push(led);
            h.push(on as u8);
        }
        h.push(0xff);
    }
    (w.stats, fnv(&h))
}

pub fn run(p: &Params, tr: &mut Tracer, out: &mut Outcome) {
    let trial_us = if p.smoke { 2 * CHUNK_US } else { TRIAL_S * 1_000_000 };
    out.unit_us.resize((trial_us / CHUNK_US) as usize, Vec::new());
    let prog = match Compiler::new().compile(&mesh_program(MOTES)) {
        Ok(prog) => Arc::new(prog),
        Err(e) => return out.fail(format!("mesh program: {e}")),
    };

    // The sequential stepper is the reference: same seed, same horizon.
    // Its wall time only feeds `wsn-sim.par_speedup`.
    tr.enter("wsn-sim.run_until", 0);
    let t0 = Instant::now();
    let mut reference = build(&prog, p.seed);
    reference.run_until(trial_us);
    let seq_s = t0.elapsed().as_secs_f64();
    tr.exit();
    let want = observe(&reference);
    let reactions: u64 = (0..MOTES)
        .map(|m| reference.mote_stats(m).timer_firings + reference.mote_stats(m).received)
        .sum();
    drop(reference);

    let mut trial_s = Vec::new();
    let mut par = None;
    let mut allocs = 0;
    let t_run = Instant::now();
    tr.enter("benchmark.measure", 0);
    while trial_s.len() < MIN_TRIALS || t_run.elapsed().as_secs_f64() < p.seconds {
        let trial = trial_s.len() as u64;
        // Set-up: a fresh world per trial (each must start at t = 0).
        let mut w = timed_setup(out, tr, trial, |_| build(&prog, p.seed));
        if tr.is_on() {
            w.enable_par_stats();
        }
        let t_trial = Instant::now();
        for j in 0..out.unit_us.len() {
            tr.enter("wsn-sim.run_until_parallel", trial);
            let a0 = alloc::allocs();
            let t0 = Instant::now();
            w.run_until_parallel((j as u64 + 1) * CHUNK_US, THREADS);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            allocs += alloc::allocs() - a0;
            // wall time per simulated second
            out.op_us.push(us * 1e6 / CHUNK_US as f64);
            out.unit_us[j].push(us * 1e6 / trial_us as f64);
            tr.exit();
        }
        trial_s.push(t_trial.elapsed().as_secs_f64());
        let got = observe(&w);
        out.check(got == want, || {
            format!("trial {trial}: {got:?} differs from the sequential run's {want:?}")
        });
        par = w.take_par_stats();
    }
    tr.exit();
    let sim_s = trial_us as f64 / 1e6;
    out.allocs_per_op = allocs as f64 / out.op_us.len() as f64;

    // par stats are only collected in the traced run
    if let Some(ps) = par {
        let a = &ps.totals.attribution;
        let total = a.total_ns().max(1) as f64;
        out.set("wsn-sim.windows", ps.totals.windows as f64);
        out.set("wsn-sim.utilization_pct", 100.0 * ps.utilization());
        out.set("wsn-sim.busy_pct", 100.0 * a.busy_ns as f64 / total);
        out.set("wsn-sim.barrier_pct", 100.0 * a.barrier_ns as f64 / total);
        out.set("wsn-sim.imbalance_pct", 100.0 * a.imbalance_ns as f64 / total);
        out.set("wsn-sim.lookahead_pct", 100.0 * a.lookahead_ns as f64 / total);
        out.set("wsn-sim.merge_pct", 100.0 * a.merge_ns as f64 / total);
        out.set("wsn-sim.achievable_speedup", ps.achievable_speedup());
        out.set("wsn-sim.par_speedup", seq_s / median(&trial_s).unwrap_or(seq_s));
        out.set("wsn-sim.reactions_per_sim_s", reactions as f64 / sim_s);
        out.set("wsn-sim.delivered", want.0.delivered as f64);
        out.set("wsn-sim.lost", want.0.lost as f64);
        let (_, bytes) = heap_bytes(|| {
            let mut m = Machine::from_arc(Arc::clone(&prog));
            let mut host = TosHost::new(0);
            m.go_init(&mut host).map(|_| (m, host))
        });
        out.set("runtime.machine_bytes", bytes as f64);
    }
}
