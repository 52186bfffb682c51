//! **World-trace export** — runs a three-mote Céu radio ring with the
//! unified world trace enabled, twice: on the sequential stepper and on
//! the 4-thread conservative-parallel stepper. Both merged streams land
//! as JSONL under `target/experiments/` for the `ceu-trace` CLI, beside
//! the parallel run's scheduler record (`ceu-par-stats/v2`), so its
//! worker-thread tracks describe the run the trace came from:
//!
//! ```sh
//! cargo run --release -p ceu-bench --bin world_trace
//! ceu-trace diff target/experiments/world_trace_seq.jsonl \
//!                target/experiments/world_trace_par.jsonl   # zero divergence
//! ceu-trace to-perfetto target/experiments/world_trace_par.jsonl \
//!     --par-stats target/experiments/world_trace_par_stats.jsonl -o ring.json
//! ```
//!
//! The export is the paper's determinism argument made inspectable: the
//! two schedulers interleave mote execution completely differently, yet
//! the observable reactive behaviour — every reaction, track, gate and
//! causal link on every mote — is bit-identical.

use ceu_bench::out_dir;
use wsn_sim::{write_trace_jsonl, CeuMote, Radio, World};

/// Each mote bumps the counter and forwards it around a 3-ring.
const RING: &str = r#"
    input _message_t* Radio_receive;
    loop do
       _message_t* msg = await Radio_receive;
       int* cnt = _Radio_getPayload(msg);
       _Leds_set(*cnt);
       *cnt = *cnt + 1;
       _Radio_send((_TOS_NODE_ID+1)%3, msg);
    end
"#;

/// Mote 0: the forwarder plus the boot-time kick that starts the ring.
const KICK: &str = r#"
    input _message_t* Radio_receive;
    par do
       loop do
          _message_t* msg = await Radio_receive;
          int* cnt = _Radio_getPayload(msg);
          _Leds_set(*cnt);
          *cnt = *cnt + 1;
          _Radio_send((_TOS_NODE_ID+1)%3, msg);
       end
    with
       _message_t msg;
       int* cnt = _Radio_getPayload(&msg);
       *cnt = 1;
       _Radio_send(1, &msg)
       await forever;
    end
"#;

const DEADLINE_US: u64 = 30_000;

fn build_world() -> World {
    let mut w = World::new(Radio::ideal(1_000));
    w.enable_trace();
    for id in 0..3i64 {
        let src = if id == 0 { KICK } else { RING };
        let prog = ceu::Compiler::new().compile(src).expect("ring program compiles");
        let mut mote = CeuMote::new(prog, id);
        mote.enable_trace();
        w.add_mote(Box::new(mote));
    }
    w.boot();
    w
}

fn main() {
    let dir = out_dir();

    let mut seq = build_world();
    seq.run_until(DEADLINE_US);
    let seq_trace = seq.take_trace();

    let mut par = build_world();
    par.enable_par_stats();
    par.run_until_parallel(DEADLINE_US, 4);
    let par_trace = par.take_trace();
    let stats = par.take_par_stats().expect("par stats enabled");

    assert_eq!(seq_trace, par_trace, "sequential vs 4-thread world traces must be identical");
    let cross_links = seq_trace
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                ceu::runtime::TraceEvent::ReactionStart {
                    cause: ceu::runtime::Cause::Event { parent: Some(_), .. },
                    ..
                }
            )
        })
        .count();
    assert!(cross_links >= 3, "the ring must produce causal radio links");

    for (name, trace) in [("world_trace_seq", &seq_trace), ("world_trace_par", &par_trace)] {
        let path = dir.join(format!("{name}.jsonl"));
        let file =
            std::io::BufWriter::new(std::fs::File::create(&path).expect("create trace file"));
        write_trace_jsonl(trace, file).expect("write world trace");
        println!("world trace -> {}", path.display());
    }
    let mut stats_jsonl = Vec::new();
    wsn_sim::write_par_stats_jsonl(&stats, &mut stats_jsonl).expect("writing to a Vec");
    let stats_jsonl = String::from_utf8(stats_jsonl).expect("JSON is UTF-8");
    let windows = stats_jsonl.lines().filter(|l| l.contains("\"kind\":\"window\"")).count();
    assert!(windows >= 1, "the parallel run must record its windows");
    let path = dir.join("world_trace_par_stats.jsonl");
    std::fs::write(&path, stats_jsonl).expect("write par stats");
    println!("scheduler record ({windows} windows) -> {}", path.display());
    println!(
        "3 motes, {} events, {cross_links} causal radio links, seq == par(4) ✓",
        seq_trace.len()
    );
}
