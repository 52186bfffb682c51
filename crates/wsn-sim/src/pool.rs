//! The persistent shard-worker pool behind [`World::run_until_parallel`].
//!
//! The previous stepper paid a fresh `std::thread::scope` spawn/join per
//! lookahead window — ≈43 µs of pure barrier cost on windows that often
//! held a few microseconds of real work, which is how ~78% of thread-time
//! capacity ended up "barrier-bound" in `ceu-par-stats/v1`. The pool here
//! spawns its workers once; between windows they park in a blocking
//! `recv()` on their own bounded job channel, so a window dispatch is one
//! channel send per active worker and one result receive each — no thread
//! creation, no scheduler churn.
//!
//! Ownership makes this safe without locks: each [`ShardJob`] *moves* its
//! [`Shard`] (heap + SoA mote state) through the channel to the worker
//! and back, so workers never share state. The world checks shards out,
//! dispatches, and checks them back in every window.
//!
//! [`World::run_until_parallel`]: crate::world::World::run_until_parallel

use crate::shard::{Shard, ShardWindowOut};
use ceu::runtime::panic_message;
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender, TryRecvError};
use std::time::Instant;

/// Bounded spin before a blocking wait. Inter-window gaps are usually a
/// few microseconds of simulation-thread bookkeeping — far shorter than a
/// futex sleep/wake round trip (tens of µs on a busy host), which would
/// otherwise be paid twice per window per worker and show up as
/// barrier-bound thread-time. The bound keeps idle periods (world-event
/// barriers, gaps between `run_until_parallel` calls) from pinning cores:
/// after ~a few tens of µs the waiter parks as before.
const SPIN_ITERS: u32 = 20_000;

/// Spin budget, in `spin_loop` iterations, for a pool of `threads`
/// waiting threads (0 = park at once). The shard-worker pool and
/// `ceu-serve`'s workers both take their budget from here.
///
/// Spinning is only ever a win when every spinner has a core to itself
/// *and* the thread that produces its work has one too; on an
/// oversubscribed (or single-core) host it *steals* the producer's
/// cycles. So the spin is off unless the machine has strictly more cores
/// than `threads`.
pub fn spin_budget(threads: usize) -> u32 {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores > threads {
        SPIN_ITERS
    } else {
        0
    }
}

fn recv_spin<T>(rx: &Receiver<T>, spin_iters: u32) -> Result<T, RecvError> {
    for _ in 0..spin_iters {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
        }
    }
    rx.recv()
}

/// One shard checked out for one window: step it up to `run_end`.
pub(crate) struct ShardJob {
    pub shard: Shard,
    pub run_end: u64,
}

/// A stepped shard coming back from a worker.
pub(crate) struct JobOut {
    pub shard: Shard,
    pub out: ShardWindowOut,
    /// The window bound the shard ran under (for panic context).
    pub run_end: u64,
    /// Wall time spent stepping this shard (0 when stats are off).
    pub busy_ns: u64,
}

/// One window's worth of work for one worker.
struct Batch {
    jobs: Vec<ShardJob>,
    seq_base: u64,
    cpu_slice_us: u64,
    stats_on: bool,
    /// When the simulation thread sent the batch (stats only) — the gap
    /// to the worker's pickup is the channel-wait attribution.
    sent_at: Option<Instant>,
    worker: usize,
}

/// Everything one worker produced for one window.
pub(crate) struct BatchOut {
    pub worker: usize,
    pub jobs: Vec<JobOut>,
    /// Pickup-to-finish wall time over the whole batch (0 when stats off).
    pub busy_ns: u64,
    /// Send-to-pickup latency on the job channel (0 when stats off).
    pub channel_wait_ns: u64,
    /// The worker thread itself panicked outside the per-callback guard
    /// (a scheduler-logic bug, not an application panic): the message, so
    /// the simulation thread can re-raise instead of deadlocking.
    pub died: Option<String>,
}

/// A fixed-size pool of parked shard workers, kept alive across windows
/// (and across `run_until_parallel` calls — the world owns the pool).
pub(crate) struct WorkerPool {
    senders: Vec<SyncSender<Batch>>,
    results_rx: Receiver<BatchOut>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Spin budget for the result receive (0 = park immediately).
    spin_iters: u32,
}

impl WorkerPool {
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let spin_iters = spin_budget(size);
        let (results_tx, results_rx) = sync_channel::<BatchOut>(size);
        let mut senders = Vec::with_capacity(size);
        let mut handles = Vec::with_capacity(size);
        for i in 0..size {
            // capacity 1: the simulation thread sends at most one batch
            // per worker per window, so the send never blocks
            let (tx, rx) = sync_channel::<Batch>(1);
            let results_tx = results_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("wsn-shard-{i}"))
                .spawn(move || worker_loop(rx, results_tx, spin_iters))
                .expect("spawn shard worker");
            senders.push(tx);
            handles.push(handle);
        }
        WorkerPool { senders, results_rx, handles, spin_iters }
    }

    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Runs one window: sends each non-empty batch to its worker, then
    /// blocks until every one reports back. Panics (on the simulation
    /// thread) if a worker died on a scheduler bug.
    pub fn dispatch(
        &mut self,
        batches: Vec<Vec<ShardJob>>,
        seq_base: u64,
        cpu_slice_us: u64,
        stats_on: bool,
    ) -> Vec<BatchOut> {
        debug_assert!(batches.len() <= self.senders.len());
        let mut expected = 0usize;
        for (worker, jobs) in batches.into_iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            let batch = Batch {
                jobs,
                seq_base,
                cpu_slice_us,
                stats_on,
                sent_at: stats_on.then(Instant::now),
                worker,
            };
            self.senders[worker].send(batch).expect("shard worker hung up");
            expected += 1;
        }
        let mut outs = Vec::with_capacity(expected);
        for _ in 0..expected {
            let out = recv_spin(&self.results_rx, self.spin_iters).expect("shard worker hung up");
            if let Some(msg) = &out.died {
                panic!("shard worker {} died: {msg}", out.worker);
            }
            outs.push(out);
        }
        outs
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // closing the job channels pops every worker out of its recv()
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: Receiver<Batch>, results_tx: SyncSender<BatchOut>, spin_iters: u32) {
    while let Ok(batch) = recv_spin(&rx, spin_iters) {
        let worker = batch.worker;
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_batch(batch)))
            .unwrap_or_else(|payload| BatchOut {
                worker,
                jobs: Vec::new(),
                busy_ns: 0,
                channel_wait_ns: 0,
                died: Some(panic_message(&*payload)),
            });
        if results_tx.send(out).is_err() {
            break; // the world is gone; shut down
        }
    }
}

fn run_batch(batch: Batch) -> BatchOut {
    let t0 = batch.stats_on.then(Instant::now);
    let channel_wait_ns = match (t0, batch.sent_at) {
        (Some(picked), Some(sent)) => {
            picked.checked_duration_since(sent).map_or(0, |d| d.as_nanos() as u64)
        }
        _ => 0,
    };
    let worker = batch.worker;
    let mut jobs = Vec::with_capacity(batch.jobs.len());
    for ShardJob { mut shard, run_end } in batch.jobs {
        let j0 = batch.stats_on.then(Instant::now);
        let out = shard.run_window(run_end, batch.seq_base, batch.cpu_slice_us);
        let busy_ns = j0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        jobs.push(JobOut { shard, out, run_end, busy_ns });
    }
    let busy_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
    BatchOut { worker, jobs, busy_ns, channel_wait_ns, died: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::Radio;
    use crate::shard::ShardPlan;
    use crate::world::{order_key, Backend, Fire, Leds, MoteCtx, MoteStats, MoteStatus};

    /// Counts its timer firings and re-arms 100 µs out.
    struct Ticker;

    impl Backend for Ticker {
        fn boot(&mut self, ctx: &mut MoteCtx) {
            ctx.set_timer_at(100);
        }
        fn deliver(&mut self, _: &mut MoteCtx, _: crate::radio::Packet) {}
        fn timer(&mut self, ctx: &mut MoteCtx) {
            ctx.set_timer_at(ctx.now + 100);
        }
        fn cpu(&mut self, _: &mut MoteCtx) {}
    }

    #[test]
    fn pool_round_trips_shards_through_workers() {
        let radio = Radio::ideal(100);
        let plan = ShardPlan::from_radio(&radio, 4, 2);
        let mut shards: Vec<Shard> = plan
            .ranges
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                let mut sh = Shard::new(i as u32, a, b, plan.lookahead_us[i]);
                for m in a..b {
                    sh.push_mote(
                        Box::new(Ticker),
                        MoteStatus::Up,
                        Some(100),
                        false,
                        0,
                        0,
                        0,
                        MoteStats::default(),
                        Leds::default(),
                    );
                    sh.heap.push(
                        100,
                        order_key(m as u64 + 1, 1, m as u64 + 1),
                        Fire::Timer { mote: m },
                    );
                }
                sh
            })
            .collect();
        let mut pool = WorkerPool::new(2);
        assert_eq!(pool.size(), 2);
        // two windows back-to-back over the same parked workers
        for (window, run_end) in [(0u64, 200u64), (1, 300)] {
            let batches: Vec<Vec<ShardJob>> = shards
                .drain(..)
                .enumerate()
                .map(|(k, shard)| {
                    let _ = k;
                    vec![ShardJob { shard, run_end }]
                })
                .collect();
            let mut outs = pool.dispatch(batches, 1_000 * (window + 1), 100, true);
            outs.sort_by_key(|b| b.worker);
            let mut got: Vec<Shard> = Vec::new();
            for bout in outs {
                assert!(bout.died.is_none());
                for job in bout.jobs {
                    // each mote fired once and re-armed inside the window
                    assert_eq!(job.out.events, job.shard.n() as u64);
                    assert!(job.out.seq_used > 1_000 * (window + 1));
                    got.push(job.shard);
                }
            }
            got.sort_by_key(|s| s.id);
            for sh in &got {
                for l in 0..sh.n() {
                    assert_eq!(sh.stats[l].timer_firings, window + 1);
                    assert!(sh.timer_at[l].is_some(), "re-armed past the window");
                }
            }
            shards = got;
        }
    }
}
