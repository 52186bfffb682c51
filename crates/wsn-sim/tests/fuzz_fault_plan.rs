//! No fault-plan text makes `FaultPlan::parse` panic: arbitrary bytes, and
//! valid plan lines whose numbers are replaced by 0, `u64::MAX` or
//! `i64::MIN`. Every plan the parser and a 4-mote world accept runs to
//! the horizon under `run_until` and `run_until_parallel(_, 2)`, and the
//! two agree on every counter, LED and trace record.
//!
//! CI runs this file under `PROPTEST_SEED=1..16`.

use proptest::prelude::*;
use wsn_sim::{Backend, FaultPlan, MoteCtx, MoteId, Packet, Radio, RebootPolicy, Topology, World};

/// Every directive the grammar has; times mostly as bare µs counts, so
/// that `u64::MAX` still parses.
const LINES: [&str; 12] = [
    "seed = 42",
    "at 1000 crash 1",
    "at 2000 reboot 1 after 3000",
    "at 2500 reboot 0 after 1ms",
    "at 3000 partition 0,1 | 2,3 until 9000",
    "at 4000 loss 2->3 rate 0.5 until 12000",
    "at 5000 skew 2 ppm -200",
    "at 6ms heal",
    "at 7000 drop-in-flight 3",
    "at 8000 skew 3 ppm 400",
    "at 9000 crash 0 # then the policy reboots it",
    "at 11000 reboot 0 after 500",
];

/// What a number may be replaced with.
const REPLACEMENTS: [&str; 3] = ["0", "18446744073709551615", "-9223372036854775808"];

/// `text` with each number (a digit run, with its leading `-`) kept, or —
/// where `picks` says so — replaced by one of [`REPLACEMENTS`].
fn mutate(text: &str, picks: &[u8]) -> String {
    let (mut out, mut n) = (String::new(), 0usize);
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        let starts_number =
            c.is_ascii_digit() || (c == '-' && chars.peek().is_some_and(|d| d.is_ascii_digit()));
        if !starts_number {
            out.push(c);
            continue;
        }
        let mut number = c.to_string();
        while let Some(&d) = chars.peek().filter(|d| d.is_ascii_digit()) {
            number.push(d);
            chars.next();
        }
        let pick = picks[n % picks.len()] as usize;
        n += 1;
        out.push_str(REPLACEMENTS.get(pick).copied().unwrap_or(&number));
    }
    out
}

/// Traces every callback and pings the next mote each millisecond.
struct Ticker {
    peer: MoteId,
}

impl Backend for Ticker {
    fn boot(&mut self, ctx: &mut MoteCtx) {
        ctx.set_timer_at(ctx.now.saturating_add(1_000));
    }
    fn deliver(&mut self, ctx: &mut MoteCtx, p: Packet) {
        ctx.vm_events.push(ceu::runtime::TraceEvent::Terminated { value: Some(p.value()) });
    }
    fn timer(&mut self, ctx: &mut MoteCtx) {
        ctx.vm_events.push(ceu::runtime::TraceEvent::Terminated { value: Some(ctx.now as i64) });
        ctx.send(self.peer, Packet::with_value(ctx.id, self.peer, ctx.now as i64));
        ctx.set_timer_at(ctx.now.saturating_add(1_000));
    }
    fn cpu(&mut self, _: &mut MoteCtx) {}
}

/// A traced 4-mote ring on a lossy medium under `plan`, booted; `None`
/// when the world refuses the plan.
fn world(plan: &FaultPlan) -> Option<World> {
    let mut w = World::new(Radio::new(Topology::Full, 700, 0.2, 7));
    w.enable_trace();
    w.set_reboot_policy(RebootPolicy::After(2_000));
    for m in 0..4 {
        w.add_mote(Box::new(Ticker { peer: (m + 1) % 4 }));
    }
    w.set_fault_plan(plan).ok()?;
    w.boot();
    Some(w)
}

/// Runs an accepted plan under both steppers to 20 ms.
fn run_both(text: &str) {
    let Ok(plan) = FaultPlan::parse(text) else { return };
    let Some(mut seq) = world(&plan) else { return };
    let mut par = world(&plan).expect("the same plan");
    seq.run_until(20_000);
    par.run_until_parallel(20_000, 2);
    assert_eq!(seq.stats, par.stats, "plan:\n{text}");
    for m in 0..4 {
        assert_eq!(seq.mote_stats(m), par.mote_stats(m), "mote {m}, plan:\n{text}");
        assert_eq!(seq.leds(m).history, par.leds(m).history, "mote {m}, plan:\n{text}");
    }
    assert_eq!(seq.take_trace(), par.take_trace(), "plan:\n{text}");
}

#[test]
fn the_template_plan_runs() {
    // the unmutated lines are accepted, so the mutations start from
    // plans that reach the world
    let plan = LINES.join("\n");
    assert!(world(&FaultPlan::parse(&plan).unwrap()).is_some());
    run_both(&plan);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..256)) {
        run_both(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mangled_numbers_never_panic(
        lines in prop::collection::vec(prop::sample::select(LINES.to_vec()), 1..6),
        // mostly keep the number; otherwise 0, u64::MAX or i64::MIN
        picks in prop::collection::vec(0u8..8, 1..32),
    ) {
        run_both(&mutate(&lines.join("\n"), &picks));
    }
}
