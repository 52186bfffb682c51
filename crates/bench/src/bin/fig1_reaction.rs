//! **Figure 1 reproduction** — the three reaction chains of §2: boot
//! splits one trail into three; `A` awakes trails 1 and 3 (trail 3 forks
//! trail 4's parent); a second `A` is discarded; `B` finishes everything;
//! the enqueued `C` never gets a reaction because the program terminated.
//!
//! The harness traces the real machine, prints the chains in the
//! figure's structure, and exports the run as a Chrome/Perfetto trace
//! plus a metrics snapshot under `target/experiments/`.
//!
//! ```sh
//! cargo run -p ceu-bench --bin fig1_reaction
//! ```

use ceu::runtime::telemetry::{to_perfetto, Stamper, TimeAxis};
use ceu::runtime::{NullHost, Status, TraceEvent, TraceMask, Value};
use ceu::{Compiler, Simulator};
use ceu_bench::{out_dir, table, FIG1_PROGRAM};

fn main() {
    let program = Compiler::new().compile(FIG1_PROGRAM).expect("figure-1 program is safe");
    let mut sim = Simulator::new(program, NullHost);
    sim.machine_mut().enable_metrics();
    // four short chains: the whole run fits in the machine's buffer
    sim.machine_mut().enable_events(TraceMask::Full);

    sim.start().unwrap();
    let s1 = sim.event("A", None).unwrap();
    let s2 = sim.event("A", None).unwrap(); // discarded
    let s3 = sim.event("B", None).unwrap();
    // C is "enqueued" conceptually; the program is over, so it is a no-op
    let s4 = sim.event("C", Some(Value::Int(0))).err().is_none();
    let mut events = Vec::new();
    sim.machine_mut().drain_events_into(&mut events);

    // render the trace, one block per reaction chain
    println!("Figure 1 — reaction chains\n");
    let mut chain = 0;
    for e in &events {
        match e {
            TraceEvent::ReactionStart { cause, .. } => {
                chain += 1;
                println!("reaction chain {chain} ({}):", cause.label());
            }
            TraceEvent::TrackRun { block, rank } => {
                println!("    run track {block} (rank {rank})");
            }
            TraceEvent::GateArmed { gate } => println!("      trail awaits (gate {gate})"),
            TraceEvent::GateFired { gate } => println!("      trail awakes (gate {gate})"),
            TraceEvent::Discarded { event } => {
                println!("    event #{} DISCARDED (no awaiting trails)", event.0)
            }
            TraceEvent::Terminated { .. } => println!("    program terminates"),
            TraceEvent::ReactionEnd { .. } => println!(),
            _ => {}
        }
    }

    // the figure's claims
    assert_eq!(s1, Status::Running, "after the first A the program is still alive");
    assert_eq!(s2, Status::Running, "the second A is discarded, nothing changes");
    assert_eq!(s3, Status::Terminated(None), "B finishes the program");
    assert!(s4, "post-termination events are no-ops");
    let discards = events.iter().filter(|e| matches!(e, TraceEvent::Discarded { .. })).count();
    assert_eq!(discards, 1);
    // boot + A + A(discarded) + B = four reaction chains, no reaction to C
    let chains = events.iter().filter(|e| matches!(e, TraceEvent::ReactionStart { .. })).count();
    assert_eq!(chains, 4);

    // the chains on the host-time axis: what each reaction cost
    let trace_path = out_dir().join("fig1_trace.json");
    let mut stamper = Stamper::default();
    let records: Vec<_> = events.iter().map(|e| stamper.stamp(e)).collect();
    let chrome = to_perfetto(&records, TimeAxis::Host, &[]);
    std::fs::write(&trace_path, chrome).expect("write fig1_trace.json");
    let metrics = sim.machine().metrics().expect("metrics enabled").clone();
    table::record(
        "fig1_metrics",
        &MetricsRow {
            reactions: metrics.reactions,
            tracks_run: metrics.tracks_run,
            discarded_events: metrics.discarded_events,
            gates_fired: metrics.gates_fired,
        },
    );
    println!("perfetto trace -> {}", trace_path.display());
    ceu_bench::write_metrics_out(&metrics);
    print!("{}", metrics.summary());
    println!("figure-1 behaviour reproduced: 4 chains, 1 discard, C never reacts ✓");
}

#[derive(serde::Serialize)]
struct MetricsRow {
    reactions: u64,
    tracks_run: u64,
    discarded_events: u64,
    gates_fired: u64,
}
