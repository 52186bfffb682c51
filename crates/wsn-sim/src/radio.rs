//! The radio medium: topology, latency, and loss.

use ceu::runtime::ReactionId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A radio message. The payload mirrors TinyOS's `message_t` closely
/// enough for the paper's demos: an opaque little buffer the application
//  reads and writes through `_Radio_getPayload`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    pub src: usize,
    pub dst: usize,
    pub payload: Vec<i64>,
    /// Causal parent: the reaction (on the sending mote) whose `_Radio_send`
    /// produced this packet. Carried across the medium so the receive-side
    /// reaction can record its cross-mote cause (Dapper-style flow ids in
    /// the Perfetto export). `None` for packets injected by test harnesses.
    pub origin: Option<ReactionId>,
}

impl Packet {
    pub fn new(src: usize, dst: usize, payload: Vec<i64>) -> Self {
        Packet { src, dst, payload, origin: None }
    }

    /// Single-word payload (the ring demo's counter).
    pub fn with_value(src: usize, dst: usize, value: i64) -> Self {
        Packet::new(src, dst, vec![value])
    }

    /// Stamps the causal origin (builder-style, used by the Céu binding).
    pub fn with_origin(mut self, origin: Option<ReactionId>) -> Self {
        self.origin = origin;
        self
    }

    pub fn value(&self) -> i64 {
        self.payload.first().copied().unwrap_or(0)
    }
}

/// Which links exist.
#[derive(Clone, Debug)]
pub enum Topology {
    /// Every mote hears every other.
    Full,
    /// Mote `i` reaches `(i+1) % n` (the ring demo).
    Ring { n: usize },
    /// Explicit adjacency.
    Links(Vec<(usize, usize)>),
    /// `clusters` groups of `size` motes each (mote `m` belongs to
    /// cluster `m / size`): a full mesh inside each cluster, plus one
    /// directed bridge from the last mote of each cluster to the first
    /// mote of the next (wrapping). Connectivity checks are O(1), so the
    /// variant scales to soak-sized fleets, and the cluster structure is
    /// what the PDES sharder partitions along (see `wsn_sim::shard`).
    Clusters { clusters: usize, size: usize },
}

impl Topology {
    pub fn connected(&self, from: usize, to: usize) -> bool {
        match self {
            Topology::Full => true,
            Topology::Ring { n } => (from + 1) % n == to,
            Topology::Links(ls) => ls.iter().any(|&(a, b)| a == from && b == to),
            Topology::Clusters { clusters, size } => {
                let (cf, ct) = (from / size, to / size);
                if cf >= *clusters || ct >= *clusters {
                    return false;
                }
                (cf == ct && from != to)
                    || (from == cf * size + (size - 1)
                        && ct == (cf + 1) % clusters
                        && to.is_multiple_of(*size))
            }
        }
    }
}

/// Per-link latency model. `Uniform` is the historical behaviour (every
/// hop costs the medium's base `latency_us`); `Clustered` gives each
/// cluster its own intra-mesh latency and a (typically slower) bridge
/// latency between clusters — which is exactly what makes *per-shard*
/// lookahead worth computing: a shard covering a fast cluster may step
/// further per window than the global minimum would allow.
#[derive(Clone, Debug)]
pub enum LinkLatency {
    /// Every link costs the base `latency_us`.
    Uniform,
    /// Motes `m` with equal `m / size` share a cluster: intra-cluster
    /// links cost `intra_us[cluster % intra_us.len()]`, links between
    /// clusters cost `bridge_us`.
    Clustered { size: usize, intra_us: Vec<u64>, bridge_us: u64 },
}

/// Counters kept by the medium itself, one step below the per-mote view:
/// how many transmissions were attempted and why the failed ones failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct RadioStats {
    /// Transmissions offered to the medium.
    pub attempts: u64,
    /// Transmissions that will arrive (barring an in-flight drop).
    pub delivered: u64,
    /// Dropped because no link exists or an endpoint is down.
    pub dropped_link: u64,
    /// Dropped by the probabilistic loss model.
    pub dropped_loss: u64,
    /// Dropped because the endpoints were on opposite sides of an active
    /// partition (fault injection).
    pub dropped_partition: u64,
    /// Dropped by a per-link loss burst (fault injection).
    pub dropped_burst: u64,
    /// Counted `delivered` at transmit time, but the destination went
    /// down before arrival so the packet was discarded in flight.
    pub dropped_in_flight: u64,
}

/// A temporary network split: no traffic crosses between group `a` and
/// group `b` until virtual time `until_us` (exclusive).
#[derive(Clone, Debug)]
struct PartitionSpec {
    a: Vec<bool>,
    b: Vec<bool>,
    until_us: u64,
}

/// A temporary elevated-loss window on one directed link.
#[derive(Clone, Debug)]
struct BurstSpec {
    from: usize,
    to: usize,
    rate: f64,
    until_us: u64,
}

/// The medium: decides whether and when a transmission arrives.
pub struct Radio {
    pub topology: Topology,
    /// Per-hop latency in µs.
    pub latency_us: u64,
    /// Probability a transmission is lost.
    pub loss: f64,
    /// Motes currently powered off (failure injection).
    pub down: Vec<bool>,
    pub stats: RadioStats,
    /// Per-link latency model (see [`LinkLatency`]); `latency_us` is the
    /// base cost under `Uniform` and the minimum under `Clustered`.
    pub link_latency: LinkLatency,
    rng: StdRng,
    /// Active partitions (fault injection); expired entries are ignored
    /// and pruned lazily.
    partitions: Vec<PartitionSpec>,
    /// Active per-link loss bursts (fault injection).
    bursts: Vec<BurstSpec>,
}

impl Radio {
    /// Fully connected, lossless medium with fixed latency.
    pub fn ideal(latency_us: u64) -> Self {
        Radio::new(Topology::Full, latency_us, 0.0, 42)
    }

    pub fn new(topology: Topology, latency_us: u64, loss: f64, seed: u64) -> Self {
        Radio {
            topology,
            latency_us,
            loss,
            down: Vec::new(),
            stats: RadioStats::default(),
            link_latency: LinkLatency::Uniform,
            rng: StdRng::seed_from_u64(seed),
            partitions: Vec::new(),
            bursts: Vec::new(),
        }
    }

    /// A clustered medium: `clusters` full meshes of `size` motes each
    /// with per-cluster intra latencies, chained by slower bridges. The
    /// natural substrate for the sharded PDES stepper — each cluster's
    /// lookahead is its own intra latency, not the global minimum.
    pub fn clustered(
        clusters: usize,
        size: usize,
        intra_us: Vec<u64>,
        bridge_us: u64,
        loss: f64,
        seed: u64,
    ) -> Self {
        assert!(!intra_us.is_empty(), "need at least one intra-cluster latency");
        let base = intra_us.iter().copied().min().unwrap().min(bridge_us);
        let mut r = Radio::new(Topology::Clusters { clusters, size }, base, loss, seed);
        r.link_latency = LinkLatency::Clustered { size, intra_us, bridge_us };
        r
    }

    /// The latency a packet on the directed link `from → to` would pay.
    /// Defined for every pair (whether or not the link exists in the
    /// topology); the sharder only consults it for existing links.
    pub fn latency_of(&self, from: usize, to: usize) -> u64 {
        match &self.link_latency {
            LinkLatency::Uniform => self.latency_us,
            LinkLatency::Clustered { size, intra_us, bridge_us } => {
                if from / size == to / size {
                    intra_us[(from / size) % intra_us.len()]
                } else {
                    *bridge_us
                }
            }
        }
    }

    /// The smallest delay the medium can impose on any transmission —
    /// the *lookahead* of conservative parallel simulation: a packet
    /// emitted at `t` cannot affect any other mote before
    /// `t + min_latency()`, so motes may be stepped independently in
    /// windows of this width (see [`World::run_until_parallel`]). The
    /// sharded stepper refines this per shard from the actual incoming
    /// link latencies (see `wsn_sim::shard::ShardPlan`).
    ///
    /// [`World::run_until_parallel`]: crate::world::World::run_until_parallel
    pub fn min_latency(&self) -> u64 {
        match &self.link_latency {
            LinkLatency::Uniform => self.latency_us,
            LinkLatency::Clustered { intra_us, bridge_us, .. } => {
                intra_us.iter().copied().min().unwrap_or(*bridge_us).min(*bridge_us)
            }
        }
    }

    /// Marks a mote as failed (drops everything to/from it).
    ///
    /// The medium itself accepts any id (it has no mote roster); use
    /// [`World::set_mote_down`](crate::world::World::set_mote_down) for a
    /// validated, roster-aware version.
    pub fn set_down(&mut self, mote: usize, down: bool) {
        if self.down.len() <= mote {
            self.down.resize(mote + 1, false);
        }
        self.down[mote] = down;
    }

    /// Whether a mote is currently powered off.
    pub fn is_down(&self, mote: usize) -> bool {
        self.down.get(mote).copied().unwrap_or(false)
    }

    /// Splits the network: until `until_us`, nothing crosses between the
    /// motes of `a` and the motes of `b` (both directions). Several
    /// partitions may be active at once; [`heal`](Self::heal) clears all.
    pub fn set_partition(&mut self, a: &[usize], b: &[usize], until_us: u64) {
        let mask = |ids: &[usize]| {
            let mut m = vec![false; ids.iter().max().map_or(0, |&x| x + 1)];
            for &i in ids {
                m[i] = true;
            }
            m
        };
        self.partitions.push(PartitionSpec { a: mask(a), b: mask(b), until_us });
    }

    /// Imposes an extra loss probability on one directed link until
    /// `until_us` (a burst of interference on that hop).
    pub fn set_link_loss(&mut self, from: usize, to: usize, rate: f64, until_us: u64) {
        self.bursts.push(BurstSpec { from, to, rate, until_us });
    }

    /// Clears every active partition and loss burst (the network heals).
    pub fn heal(&mut self) {
        self.partitions.clear();
        self.bursts.clear();
    }

    /// Whether an active partition separates `from` and `to` at `now`.
    fn partitioned(&self, now: u64, from: usize, to: usize) -> bool {
        let side = |m: &[bool], i: usize| m.get(i).copied().unwrap_or(false);
        self.partitions.iter().any(|p| {
            now < p.until_us
                && ((side(&p.a, from) && side(&p.b, to)) || (side(&p.b, from) && side(&p.a, to)))
        })
    }

    /// Returns the arrival time of the packet, or `None` if it is lost.
    ///
    /// Deterministic given the call order: the RNG is drawn only for the
    /// probabilistic checks (base loss, then each active matching burst),
    /// never for packets already dropped by a structural check, so the
    /// sequential and parallel steppers consume the identical stream.
    pub fn transmit(&mut self, now: u64, from: usize, to: usize, _p: &Packet) -> Option<u64> {
        self.stats.attempts += 1;
        if self.is_down(from) || self.is_down(to) || !self.topology.connected(from, to) {
            self.stats.dropped_link += 1;
            return None;
        }
        if self.partitioned(now, from, to) {
            self.stats.dropped_partition += 1;
            return None;
        }
        if self.loss > 0.0 && self.rng.gen::<f64>() < self.loss {
            self.stats.dropped_loss += 1;
            return None;
        }
        let mut burst_hit = false;
        for i in 0..self.bursts.len() {
            let b = &self.bursts[i];
            if now < b.until_us && b.from == from && b.to == to {
                // draw even after a hit: the stream must not depend on
                // earlier bursts' outcomes
                burst_hit |= self.rng.gen::<f64>() < self.bursts[i].rate;
            }
        }
        if burst_hit {
            self.stats.dropped_burst += 1;
            return None;
        }
        self.stats.delivered += 1;
        Some(now + self.latency_of(from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_topology_is_directional() {
        let mut r = Radio::new(Topology::Ring { n: 3 }, 100, 0.0, 1);
        let p = Packet::with_value(0, 1, 5);
        assert_eq!(r.transmit(0, 0, 1, &p), Some(100));
        assert_eq!(r.transmit(0, 1, 2, &p), Some(100));
        assert_eq!(r.transmit(0, 2, 0, &p), Some(100));
        assert_eq!(r.transmit(0, 0, 2, &p), None, "no shortcut across the ring");
        assert_eq!(r.transmit(0, 1, 0, &p), None, "ring is one-way");
    }

    #[test]
    fn down_motes_drop_traffic() {
        let mut r = Radio::ideal(10);
        let p = Packet::with_value(0, 1, 1);
        assert!(r.transmit(0, 0, 1, &p).is_some());
        r.set_down(1, true);
        assert!(r.transmit(0, 0, 1, &p).is_none());
        r.set_down(1, false);
        assert!(r.transmit(0, 0, 1, &p).is_some());
    }

    #[test]
    fn partitions_expire_and_heal() {
        let mut r = Radio::ideal(10);
        let p = Packet::with_value(0, 3, 1);
        r.set_partition(&[0, 1], &[2, 3], 500);
        assert_eq!(r.transmit(0, 0, 3, &p), None, "a→b blocked");
        assert_eq!(r.transmit(0, 3, 1, &p), None, "b→a blocked");
        assert!(r.transmit(0, 0, 1, &p).is_some(), "same side flows");
        assert!(r.transmit(500, 0, 3, &p).is_some(), "expired at until");
        r.set_partition(&[0], &[3], 1_000);
        assert_eq!(r.transmit(600, 0, 3, &p), None);
        r.heal();
        assert!(r.transmit(600, 0, 3, &p).is_some(), "heal clears partitions");
        assert_eq!(r.stats.dropped_partition, 3);
    }

    #[test]
    fn link_loss_bursts_are_seeded_and_bounded() {
        let p = Packet::with_value(0, 1, 1);
        let run = || {
            let mut r = Radio::new(Topology::Full, 10, 0.0, 11);
            r.set_link_loss(0, 1, 0.5, 1_000);
            (0..200u64).map(|t| r.transmit(t * 10, 0, 1, &p).is_some()).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same burst losses");
        let (in_burst, after): (Vec<_>, Vec<_>) = a.iter().enumerate().partition(|(i, _)| *i < 100);
        assert!(in_burst.iter().any(|(_, ok)| !**ok), "the burst drops packets");
        assert!(after.iter().all(|(_, ok)| **ok), "expired burst drops nothing");
    }

    #[test]
    fn clustered_topology_connects_meshes_and_bridges() {
        // 3 clusters × 4 motes: 0..4 | 4..8 | 8..12
        let mut r = Radio::clustered(3, 4, vec![500, 900, 700], 5_000, 0.0, 1);
        let p = Packet::with_value(0, 1, 1);
        // intra-cluster full mesh, per-cluster latency
        assert_eq!(r.transmit(0, 0, 3, &p), Some(500));
        assert_eq!(r.transmit(0, 5, 6, &p), Some(900));
        assert_eq!(r.transmit(0, 11, 8, &p), Some(700));
        // no self-links
        assert_eq!(r.transmit(0, 2, 2, &p), None);
        // bridges: last-of-cluster → first-of-next, wrapping, slow
        assert_eq!(r.transmit(0, 3, 4, &p), Some(5_000));
        assert_eq!(r.transmit(0, 7, 8, &p), Some(5_000));
        assert_eq!(r.transmit(0, 11, 0, &p), Some(5_000));
        // nothing else crosses clusters
        assert_eq!(r.transmit(0, 2, 4, &p), None);
        assert_eq!(r.transmit(0, 3, 5, &p), None);
        assert_eq!(r.transmit(0, 0, 8, &p), None);
        // the global lookahead is the fastest link anywhere
        assert_eq!(r.min_latency(), 500);
        assert_eq!(r.latency_of(4, 7), 900);
        assert_eq!(r.latency_of(3, 4), 5_000);
    }

    #[test]
    fn loss_is_probabilistic_but_seeded() {
        let mut r1 = Radio::new(Topology::Full, 0, 0.5, 7);
        let mut r2 = Radio::new(Topology::Full, 0, 0.5, 7);
        let p = Packet::with_value(0, 1, 1);
        let a: Vec<_> = (0..100).map(|_| r1.transmit(0, 0, 1, &p).is_some()).collect();
        let b: Vec<_> = (0..100).map(|_| r2.transmit(0, 0, 1, &p).is_some()).collect();
        assert_eq!(a, b, "same seed, same losses");
        let lost = a.iter().filter(|x| !**x).count();
        assert!(lost > 20 && lost < 80, "≈50% loss, got {lost}");
    }
}
