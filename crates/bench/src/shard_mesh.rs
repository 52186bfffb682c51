//! Shard-mesh workload: the clustered network the sharded PDES engine is
//! shaped for, used (scaled up) by the `soak` bin.
//!
//! The chaos ring is deliberately hostile to parallelism — six motes on a
//! full mesh share one global lookahead, so a window holds ~one event per
//! mote and the barrier dominates. This workload is the other end of the
//! design space: `MESH_CLUSTERS` full meshes of `MESH_CLUSTER_SIZE` Céu
//! motes, fast links inside a cluster, slow bridges between them
//! ([`wsn_sim::Radio::clustered`]). The sharder aligns shard boundaries
//! with the clusters, each shard's lookahead is its own intra-cluster
//! latency, and the bridge latency decides how rarely the shards must
//! synchronize — which is what lets two workers actually beat one.
//!
//! Every mote relays received counters onto its LEDs and beacons to
//! `(id+1) % total` once per millisecond — inside its cluster's mesh for
//! all but the last mote of each cluster, whose beacon rides the bridge;
//! cross-shard traffic is exercised (and sampled into the
//! `ceu-par-stats/v2` flow arrows) without dominating the run.

use std::sync::Arc;
use wsn_sim::{CeuMote, Radio, RebootPolicy, World};

/// Cluster count of the standard mesh; the builder pins the shard target
/// to this, so each cluster is exactly one shard.
pub const MESH_CLUSTERS: usize = 6;
/// Motes per cluster.
pub const MESH_CLUSTER_SIZE: usize = 8;
/// Total roster of the standard mesh.
pub const MESH_MOTES: usize = MESH_CLUSTERS * MESH_CLUSTER_SIZE;
/// Per-cluster intra-mesh latencies (µs) — heterogeneous on purpose (so
/// per-shard lookahead differs from the global minimum) and a couple of
/// beacon periods wide (so each window carries enough reactions to pay
/// for its barrier).
pub const MESH_INTRA_US: [u64; MESH_CLUSTERS] = [5_000, 6_500, 8_500, 5_500, 7_500, 6_000];
/// Bridge latency (µs) between neighbouring clusters.
pub const MESH_BRIDGE_US: u64 = 20_000;

/// The per-mote Céu program, parameterized on the roster size (baked into
/// the generated source as a constant). `(id+1) % total` keeps each
/// beacon inside its own cluster's mesh except at cluster boundaries,
/// where the destination is the bridge hop to the next cluster.
pub fn mesh_program(total: usize) -> String {
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

/// The standard mesh's radio: six clusters, heterogeneous intra
/// latencies, slow bridges, a little loss to keep the RNG honest.
pub fn mesh_radio() -> Radio {
    Radio::clustered(
        MESH_CLUSTERS,
        MESH_CLUSTER_SIZE,
        MESH_INTRA_US.to_vec(),
        MESH_BRIDGE_US,
        0.10,
        29,
    )
}

/// A fresh shard-mesh world (reboot policy armed, booted). One
/// `Arc<CompiledProgram>` backs the whole roster.
pub fn build_shard_mesh_world(trace: bool) -> World {
    let mut w = World::new(mesh_radio());
    w.set_target_shards(MESH_CLUSTERS);
    if trace {
        w.enable_trace();
    }
    w.set_reboot_policy(RebootPolicy::After(2_500));
    let prog = Arc::new(
        ceu::Compiler::new().compile(&mesh_program(MESH_MOTES)).expect("mesh program compiles"),
    );
    for id in 0..MESH_MOTES as i64 {
        let mut mote = CeuMote::from_shared(Arc::clone(&prog), id);
        if trace {
            mote.enable_trace();
        }
        w.add_mote(Box::new(mote));
    }
    w.boot();
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_world_shards_along_clusters() {
        let mut w = build_shard_mesh_world(false);
        w.run_until_parallel(1_000, 2);
        assert_eq!(w.mote_count(), MESH_MOTES);
        assert_eq!(w.shard_count(), MESH_CLUSTERS, "one shard per cluster");
    }

    #[test]
    fn mesh_world_is_thread_count_invariant() {
        let observe = |threads: usize| {
            let mut w = build_shard_mesh_world(true);
            if threads == 0 {
                w.run_until(30_000);
            } else {
                w.run_until_parallel(30_000, threads);
            }
            let leds: Vec<_> = (0..w.mote_count()).map(|m| w.leds(m).history.clone()).collect();
            (w.stats, leds, w.take_trace())
        };
        let seq = observe(0);
        for threads in [1, 2, 4] {
            assert_eq!(seq, observe(threads), "mesh diverges at threads={threads}");
        }
        assert!(seq.0.delivered > 0, "beacons flow");
    }
}
