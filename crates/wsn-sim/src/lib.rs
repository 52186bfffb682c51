//! `wsn-sim` — a discrete-event wireless-sensor-network simulator.
//!
//! This is the substrate standing in for the paper's micaz/TinyOS testbed
//! (see DESIGN.md for the substitution argument). It provides:
//!
//! * a virtual-time [`World`] with motes, timers, CPU slices and radio;
//! * a TinyOS-style Céu binding ([`CeuMote`]) running compiled programs;
//! * an event-driven **nesC-analog** backend (Table 1 baselines);
//! * a preemptive-thread **MantisOS-analog** scheduler (Table 2 baseline,
//!   blink-synchronization experiment);
//! * an **occam-analog** message-passing layer over the same scheduler.

pub mod ceu_mote;
pub mod faults;
pub mod mantis;
pub mod nesc;
pub mod parstats;
mod pool;
pub mod radio;
pub mod sched;
pub mod shard;
pub mod world;

pub use ceu::runtime::{FlightRecord, FlightRecorder, WindowMark};
pub use ceu_mote::{CeuMote, TosHost};
pub use faults::{FaultAction, FaultEntry, FaultPlan, RebootPolicy};
pub use mantis::{
    BlinkThread, MantisMote, OccamLedProc, OccamTimerProc, Step, ThreadBody, ThreadCtx,
};
pub use nesc::NescApp;
pub use parstats::{
    parse_par_stats, write_par_stats_jsonl, Attribution, ParShardStats, ParStats, ParTotals,
    ParWindowStats,
};
pub use pool::spin_budget;
pub use radio::{LinkLatency, Packet, Radio, RadioStats, Topology};
pub use sched::EventHeap;
pub use shard::{ShardPlan, DEFAULT_TARGET_SHARDS};
pub use world::{
    write_trace_jsonl, Backend, CrashCause, Leds, MoteCtx, MoteId, MoteMetrics, MoteStats,
    MoteStatus, World, WorldMetrics,
};
