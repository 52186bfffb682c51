//! Deterministic fault injection for the WSN simulator.
//!
//! A [`FaultPlan`] is a time-ordered schedule of [`FaultAction`]s that the
//! [`World`](crate::world::World) applies at exact virtual times through
//! its event heap, so [`run_until`](crate::world::World::run_until) and
//! [`run_until_parallel`](crate::world::World::run_until_parallel) observe
//! identical fault timing at any thread count (the chaos harness in
//! `crates/bench` pins this bit-for-bit on the merged world trace).
//!
//! In the sharded engine, fault and reboot events live on the world queue
//! (lane 0), not on any shard heap: each one is a **global barrier**. No
//! shard window is allowed to span a pending world event, so a fault's
//! topology/loss/skew side effects are visible to every shard from the
//! exact virtual instant it fires, regardless of shard count or thread
//! count.
//!
//! Plans can be built in code ([`FaultPlan::at`]), parsed from the text
//! format below ([`FaultPlan::parse`]), or generated from a seed
//! ([`FaultPlan::randomized`] — same seed, same plan, on any host).
//!
//! ## Text format
//!
//! One directive per line; `#` starts a comment. Durations use the Céu
//! time grammar (`10ms`, `1s500ms`, `250us`, or a bare µs count).
//!
//! ```text
//! seed = 42                          # optional, informational
//! at 10ms   crash 1                  # power mote 1 off
//! at 20ms   reboot 1 after 5ms       # crash now, restart 5ms later
//! at 30ms   partition 0,1 | 2,3 until 60ms
//! at 45ms   loss 2->3 rate 0.5 until 90ms
//! at 50ms   skew 4 ppm -200          # mote 4's clock drifts -200 ppm
//! at 60ms   heal                     # clear partitions + loss bursts
//! at 95ms   drop-in-flight 3         # discard packets flying toward 3
//! ```

use crate::world::MoteId;
use ceu::ast::TimeSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injectable fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Power the mote off. It stays down unless the world's reboot policy
    /// (or a later [`FaultAction::Reboot`]) brings it back.
    Crash { mote: MoteId },
    /// Crash the mote now and restart it `delay_us` later (program state
    /// reset to the boot image, full state loss), regardless of the
    /// world's reboot policy.
    Reboot { mote: MoteId, delay_us: u64 },
    /// Split the network: no traffic between `group_a` and `group_b`
    /// until `until_us`.
    Partition { group_a: Vec<MoteId>, group_b: Vec<MoteId>, until_us: u64 },
    /// Clear every active partition and loss burst.
    Heal,
    /// Elevated loss probability on one directed link until `until_us`.
    LossBurst { from: MoteId, to: MoteId, rate: f64, until_us: u64 },
    /// Skew the mote's local clock by `ppm` parts per million from here
    /// on (callbacks see a drifted `now`; timers stretch accordingly).
    ClockSkew { mote: MoteId, ppm: i64 },
    /// Discard every delivery currently in flight toward the mote.
    DropInFlight { mote: MoteId },
}

impl FaultAction {
    /// The mote the action targets, when it targets exactly one.
    pub fn mote(&self) -> Option<MoteId> {
        match self {
            FaultAction::Crash { mote }
            | FaultAction::Reboot { mote, .. }
            | FaultAction::ClockSkew { mote, .. }
            | FaultAction::DropInFlight { mote } => Some(*mote),
            _ => None,
        }
    }

    /// Every mote id the action references (plan validation).
    fn motes(&self) -> Vec<MoteId> {
        match self {
            FaultAction::Partition { group_a, group_b, .. } => {
                group_a.iter().chain(group_b).copied().collect()
            }
            FaultAction::LossBurst { from, to, .. } => vec![*from, *to],
            FaultAction::Heal => Vec::new(),
            other => other.mote().into_iter().collect(),
        }
    }
}

/// One scheduled fault: what happens and when (virtual µs).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEntry {
    pub at_us: u64,
    pub action: FaultAction,
}

/// When (and whether) the world restarts a crashed mote that the fault
/// plan itself doesn't explicitly reboot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RebootPolicy {
    /// Crashed motes stay down.
    #[default]
    Never,
    /// Restart a fixed delay (µs) after every crash.
    After(u64),
    /// Exponential backoff: `base * 2^(n-1)` µs after the `n`-th crash,
    /// capped at `max`.
    Backoff { base_us: u64, max_us: u64 },
}

impl RebootPolicy {
    /// Reboot delay after this mote's `nth` crash (1-based), or `None`
    /// to leave it down.
    pub fn delay_for(&self, nth_crash: u32) -> Option<u64> {
        match *self {
            RebootPolicy::Never => None,
            RebootPolicy::After(d) => Some(d),
            RebootPolicy::Backoff { base_us, max_us } => {
                let shift = nth_crash.saturating_sub(1).min(63);
                // Clamp to ≥ 1 µs: with `base_us: 0` every delay would be
                // zero and a crash-looping node could hot-spin through
                // restarts forever — backoff must always back off. (The
                // world additionally clamps to its lookahead; direct
                // consumers like the session service rely on this floor.)
                Some(base_us.saturating_mul(1u64 << shift).min(max_us).max(1))
            }
        }
    }
}

/// A deterministic, time-ordered fault schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The seed a randomized plan was generated from (informational;
    /// round-trips through the text format).
    pub seed: Option<u64>,
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder-style: appends an action at `at_us`. Entries at equal
    /// times apply in insertion order.
    pub fn at(mut self, at_us: u64, action: FaultAction) -> Self {
        self.entries.push(FaultEntry { at_us, action });
        self
    }

    pub fn entries(&self) -> &[FaultEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The largest mote id any entry references, for roster validation.
    pub fn max_mote(&self) -> Option<MoteId> {
        self.entries.iter().flat_map(|e| e.action.motes()).max()
    }

    /// Parses the text format (see the module docs). Line numbers in
    /// errors are 1-based.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fail = |msg: &str| format!("fault plan line {}: {msg}", i + 1);
            if let Some(rest) = line.strip_prefix("seed") {
                let v = rest.trim_start().strip_prefix('=').ok_or_else(|| fail("expected `=`"))?;
                plan.seed = Some(v.trim().parse().map_err(|_| fail("bad seed"))?);
                continue;
            }
            let rest = line.strip_prefix("at").ok_or_else(|| fail("expected `at <time> …`"))?;
            let mut words = rest.split_whitespace();
            let at_us = parse_time(words.next().ok_or_else(|| fail("missing time"))?)
                .ok_or_else(|| fail("bad time"))?;
            let verb = words.next().ok_or_else(|| fail("missing action"))?;
            let words: Vec<&str> = words.collect();
            let action = parse_action(verb, &words).map_err(|m| fail(&m))?;
            plan.entries.push(FaultEntry { at_us, action });
        }
        Ok(plan)
    }

    /// Serialises back to the text format (`parse` round-trips it).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if let Some(seed) = self.seed {
            out.push_str(&format!("seed = {seed}\n"));
        }
        for e in &self.entries {
            let at = e.at_us;
            let line = match &e.action {
                FaultAction::Crash { mote } => format!("at {at}us crash {mote}"),
                FaultAction::Reboot { mote, delay_us } => {
                    format!("at {at}us reboot {mote} after {delay_us}us")
                }
                FaultAction::Partition { group_a, group_b, until_us } => format!(
                    "at {at}us partition {} | {} until {until_us}us",
                    ids(group_a),
                    ids(group_b)
                ),
                FaultAction::Heal => format!("at {at}us heal"),
                FaultAction::LossBurst { from, to, rate, until_us } => {
                    format!("at {at}us loss {from}->{to} rate {rate} until {until_us}us")
                }
                FaultAction::ClockSkew { mote, ppm } => {
                    format!("at {at}us skew {mote} ppm {ppm}")
                }
                FaultAction::DropInFlight { mote } => format!("at {at}us drop-in-flight {mote}"),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// A randomized-but-seeded plan over `motes` motes within
    /// `[horizon_us/8, horizon_us)`: a mix of crashes, reboots,
    /// partitions, heals, loss bursts, clock skews and in-flight drops.
    /// The same seed always yields the same plan.
    pub fn randomized(seed: u64, motes: usize, horizon_us: u64) -> FaultPlan {
        assert!(motes >= 2, "need at least two motes to fault meaningfully");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan { seed: Some(seed), entries: Vec::new() };
        let n = 3 + rng.gen_range(0usize..5);
        let lo = (horizon_us / 8).max(1);
        for _ in 0..n {
            let at_us = rng.gen_range(lo..horizon_us.max(lo + 1));
            let mote = rng.gen_range(0usize..motes);
            let action = match rng.gen_range(0u32..8) {
                0 => FaultAction::Crash { mote },
                1 | 2 => FaultAction::Reboot {
                    mote,
                    delay_us: rng.gen_range(horizon_us / 20..horizon_us / 4 + 2),
                },
                3 => {
                    // split the roster at a random pivot
                    let pivot = rng.gen_range(1usize..motes);
                    FaultAction::Partition {
                        group_a: (0..pivot).collect(),
                        group_b: (pivot..motes).collect(),
                        until_us: at_us + rng.gen_range(horizon_us / 10..horizon_us / 3 + 2),
                    }
                }
                4 => FaultAction::Heal,
                5 => {
                    let to = (mote + 1 + rng.gen_range(0usize..motes - 1)) % motes;
                    FaultAction::LossBurst {
                        from: mote,
                        to,
                        rate: rng.gen_range(0.3f64..0.9),
                        until_us: at_us + rng.gen_range(horizon_us / 10..horizon_us / 3 + 2),
                    }
                }
                6 => FaultAction::ClockSkew { mote, ppm: rng.gen_range(-500i64..500) },
                _ => FaultAction::DropInFlight { mote },
            };
            plan.entries.push(FaultEntry { at_us, action });
        }
        // time-ordered for readability; equal times keep generation order
        plan.entries.sort_by_key(|e| e.at_us);
        plan
    }
}

/// `10ms`-style Céu duration, or a bare µs count.
fn parse_time(text: &str) -> Option<u64> {
    TimeSpec::parse(text).map(|t| t.us).or_else(|| text.parse().ok())
}

fn parse_mote(text: &str) -> Result<MoteId, String> {
    text.parse().map_err(|_| format!("bad mote id `{text}`"))
}

fn parse_group(text: &str) -> Result<Vec<MoteId>, String> {
    text.split(',').filter(|s| !s.is_empty()).map(parse_mote).collect()
}

fn ids(group: &[MoteId]) -> String {
    group.iter().map(|m| m.to_string()).collect::<Vec<_>>().join(",")
}

fn parse_action(verb: &str, words: &[&str]) -> Result<FaultAction, String> {
    let time_arg = |w: Option<&&str>, what: &str| -> Result<u64, String> {
        w.and_then(|t| parse_time(t)).ok_or(format!("bad or missing {what}"))
    };
    match verb {
        "crash" => {
            Ok(FaultAction::Crash { mote: parse_mote(words.first().ok_or("missing mote")?)? })
        }
        "reboot" => {
            let mote = parse_mote(words.first().ok_or("missing mote")?)?;
            if words.get(1) != Some(&"after") {
                return Err("expected `reboot <mote> after <delay>`".into());
            }
            Ok(FaultAction::Reboot { mote, delay_us: time_arg(words.get(2), "delay")? })
        }
        "partition" => {
            // partition 0,1 | 2,3 until 60ms
            let bar = words.iter().position(|w| *w == "|").ok_or("expected `|`")?;
            let until = words.iter().position(|w| *w == "until").ok_or("expected `until`")?;
            if bar == 0 || until != words.len() - 2 || bar + 1 == until {
                return Err("expected `partition A | B until <time>`".into());
            }
            let join = |ws: &[&str]| ws.concat();
            Ok(FaultAction::Partition {
                group_a: parse_group(&join(&words[..bar]))?,
                group_b: parse_group(&join(&words[bar + 1..until]))?,
                until_us: time_arg(words.get(until + 1), "until time")?,
            })
        }
        "heal" => Ok(FaultAction::Heal),
        "loss" => {
            // loss 2->3 rate 0.5 until 90ms
            let link = words.first().ok_or("missing link")?;
            let (from, to) = link.split_once("->").ok_or("expected `from->to`")?;
            if words.get(1) != Some(&"rate") || words.get(3) != Some(&"until") {
                return Err("expected `loss F->T rate R until <time>`".into());
            }
            let rate: f64 = words.get(2).and_then(|r| r.parse().ok()).ok_or("bad rate")?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate {rate} outside [0, 1]"));
            }
            Ok(FaultAction::LossBurst {
                from: parse_mote(from)?,
                to: parse_mote(to)?,
                rate,
                until_us: time_arg(words.get(4), "until time")?,
            })
        }
        "skew" => {
            let mote = parse_mote(words.first().ok_or("missing mote")?)?;
            if words.get(1) != Some(&"ppm") {
                return Err("expected `skew <mote> ppm <n>`".into());
            }
            let ppm: i64 = words.get(2).and_then(|p| p.parse().ok()).ok_or("bad ppm")?;
            Ok(FaultAction::ClockSkew { mote, ppm })
        }
        "drop-in-flight" => Ok(FaultAction::DropInFlight {
            mote: parse_mote(words.first().ok_or("missing mote")?)?,
        }),
        other => Err(format!("unknown fault action `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_action_and_round_trips() {
        let text = "\
            # a chaotic afternoon\n\
            seed = 7\n\
            at 10ms crash 1\n\
            at 20ms reboot 1 after 5ms\n\
            at 30ms partition 0,1 | 2,3 until 60ms\n\
            at 45ms loss 2->3 rate 0.5 until 90ms\n\
            at 50ms skew 4 ppm -200\n\
            at 60ms heal\n\
            at 95ms drop-in-flight 3\n";
        let plan = FaultPlan::parse(text).expect("parses");
        assert_eq!(plan.seed, Some(7));
        assert_eq!(plan.len(), 7);
        assert_eq!(
            plan.entries()[0],
            FaultEntry { at_us: 10_000, action: FaultAction::Crash { mote: 1 } }
        );
        assert_eq!(
            plan.entries()[2],
            FaultEntry {
                at_us: 30_000,
                action: FaultAction::Partition {
                    group_a: vec![0, 1],
                    group_b: vec![2, 3],
                    until_us: 60_000,
                },
            }
        );
        assert_eq!(plan.max_mote(), Some(4));
        // round trip: text → plan → text → identical plan
        let again = FaultPlan::parse(&plan.to_text()).expect("round-trips");
        assert_eq!(plan, again);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = FaultPlan::parse("at 10ms crash 1\nat nope crash 2").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = FaultPlan::parse("at 5ms explode 1").unwrap_err();
        assert!(err.contains("unknown fault action"), "{err}");
        let err = FaultPlan::parse("at 5ms loss 0->1 rate 1.5 until 9ms").unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn randomized_plans_are_seed_deterministic() {
        let a = FaultPlan::randomized(99, 6, 1_000_000);
        let b = FaultPlan::randomized(99, 6, 1_000_000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.entries().windows(2).all(|w| w[0].at_us <= w[1].at_us), "time-ordered");
        assert!(a.max_mote().is_none_or(|m| m < 6));
        let c = FaultPlan::randomized(100, 6, 1_000_000);
        assert_ne!(a, c, "different seed, different plan");
        // and the text format carries the whole thing
        assert_eq!(FaultPlan::parse(&a.to_text()).unwrap(), a);
    }

    #[test]
    fn reboot_policies_compute_delays() {
        assert_eq!(RebootPolicy::Never.delay_for(1), None);
        assert_eq!(RebootPolicy::After(500).delay_for(3), Some(500));
        let b = RebootPolicy::Backoff { base_us: 100, max_us: 1_000 };
        assert_eq!(b.delay_for(1), Some(100));
        assert_eq!(b.delay_for(2), Some(200));
        assert_eq!(b.delay_for(3), Some(400));
        assert_eq!(b.delay_for(10), Some(1_000), "capped");
    }
}
