//! **Cost sweeps** behind three of the paper's claims, one table each:
//!
//! * A2 (§4.3): trails in parallel own a consecutive gate range, so a
//!   par/or kill is a clear of that range — ns per kill of N siblings;
//! * A3 (§6): the temporal-analysis DFA is exponential but usable in
//!   practice — states, transitions and µs per `analyze` (the product)
//!   and per `check_determinism` (the compiler's verdict, by coupled
//!   groups) for await chains (lcm-sized), coprime timer loops (the
//!   product frontier) and the same loops writing one shared variable
//!   (one group: the check pays the whole product);
//! * A4 (§2.1): creating and destroying trails is cheap — one reaction
//!   fanned out to N awaiting trails, and a par/or torn down and
//!   respawned per event.
//!
//! Each timing is the median of a few fixed-length batches. Only the
//! structural facts (DFA sizes, group counts, verdicts) are asserted;
//! timings never are. Rows
//! also go to `target/experiments/sweeps.jsonl`.
//!
//! ```sh
//! cargo run --release -p ceu-bench --bin sweeps
//! ```

use ceu::analysis::{analyze, check_determinism, DfaOptions};
use ceu::runtime::{Machine, NullHost};
use ceu::Compiler;
use ceu_bench::table;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median ns per call of `f` over a few batches of one length, chosen so
/// that a batch takes about `BATCH_TIME`.
fn median_ns(mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 5;
    const BATCH_TIME: Duration = Duration::from_millis(40);
    let t = Instant::now();
    f(); // warm-up, and the estimate that sizes the batches
    let iters = (BATCH_TIME.as_nanos() / t.elapsed().as_nanos().max(1)).clamp(1, 1 << 20) as u32;
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2]
}

/// ns per reaction to the input `event` on a booted `src`.
fn ns_per_event(src: &str, checked: bool, event: &str) -> f64 {
    let compiler = if checked { Compiler::new() } else { Compiler::unchecked() };
    let mut m = Machine::new(compiler.compile(src).expect("sweep program compiles"));
    m.go_init(&mut NullHost).expect("boots");
    let id = m.event_id(event).expect("declared input");
    median_ns(|| {
        black_box(m.go_event(id, None, &mut NullHost).expect("reacts"));
    })
}

/// A par/or whose first arm terminates on `Kill` while `n` siblings await
/// other things; wrapped in a loop so each event repeats the kill+respawn.
fn kill_program(n: usize) -> String {
    let mut src = String::from("input void Kill, Other;\nloop do\n par/or do\n  await Kill;\n");
    for _ in 0..n {
        src.push_str(" with\n  await Other;\n");
    }
    src.push_str(" end\nend");
    src
}

/// Two loops of `m` and `n` awaits on one event: an lcm(m, n)-sized DFA.
fn chain_program(m: usize, n: usize) -> String {
    let awaits = |k: usize| "  await A;\n".repeat(k);
    format!(
        "input void A;\nint v, w;\npar do\n loop do\n{}  v = 1;\n end\nwith\n loop do\n{}  w = 1;\n end\nend",
        awaits(m),
        awaits(n)
    )
}

/// `k` timer loops with coprime periods: a product state space.
fn timer_program(k: usize) -> String {
    let periods = [7u64, 11, 13, 17, 19, 23];
    let mut src = String::from("int x;\npar do\n");
    for (i, p) in periods.iter().take(k).enumerate() {
        if i > 0 {
            src.push_str("with\n");
        }
        src.push_str(&format!(" loop do\n  await {p}ms;\n end\n"));
    }
    src.push_str("with\n await forever;\nend");
    src
}

/// `k` timer loops with coprime periods that each write the shared `x`:
/// one coupled group, so the check explores the product.
fn shared_timer_program(k: usize) -> String {
    timer_program(k).replace("ms;\n end", "ms;\n  x = x + 1;\n end")
}

/// `n` trails all awaiting the same event in a loop.
fn fanout_program(n: usize) -> String {
    let mut src = String::from("input void E;\nint v;\npar do\n");
    for i in 0..n {
        if i > 0 {
            src.push_str("with\n");
        }
        src.push_str(" loop do\n  await E;\n end\n");
    }
    src.push_str("with\n await forever;\nend");
    src
}

/// The watchdog archetype: every event kills the timer arm and respawns
/// the whole par/or.
const RESPAWN: &str =
    "input void E;\nloop do\n par/or do\n  await E;\n with\n  await 100s;\n end\nend";

#[derive(serde::Serialize)]
struct Row<'a> {
    sweep: &'a str,
    case: String,
    ns: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    states: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    transitions: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    truncated: Option<bool>,
    /// ns per `check_determinism`, beside `ns` per `analyze`.
    #[serde(skip_serializing_if = "Option::is_none")]
    check_ns: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    check_runs: Option<usize>,
}

fn timed(sweep: &str, case: String, ns: f64) -> Vec<String> {
    let row = Row {
        sweep,
        case,
        ns,
        states: None,
        transitions: None,
        truncated: None,
        check_ns: None,
        check_runs: None,
    };
    table::record("sweeps", &row);
    vec![row.case, format!("{:.0}", row.ns)]
}

fn main() {
    println!("A2 (§4.3) — par/or kill of N sibling trails\n");
    let rows: Vec<_> = [2usize, 16, 128, 1024]
        .into_iter()
        .map(|n| timed("A2", n.to_string(), ns_per_event(&kill_program(n), true, "Kill")))
        .collect();
    println!("{}", table::render(&["siblings", "ns/kill"], &rows));

    println!("A3 (§6) — DFA growth and analysis time\n");
    let opts = DfaOptions { max_states: 100_000, ..Default::default() };
    let chains = [(2usize, 3usize), (4, 5), (8, 9), (16, 17)]
        .map(|(m, n)| (format!("chain {m}x{n}"), chain_program(m, n)));
    let timers = [1usize, 2, 3, 4].map(|k| (format!("timers k={k}"), timer_program(k)));
    let shared =
        [1usize, 2, 3, 4].map(|k| (format!("shared timers k={k}"), shared_timer_program(k)));
    let mut rows = Vec::new();
    let mut states = Vec::new();
    for (case, src) in chains.into_iter().chain(timers).chain(shared) {
        let program = Compiler::unchecked().compile(&src).expect("sweep program compiles");
        let d = analyze(&program, &opts);
        let v = check_determinism(&program, &opts);
        let ns = median_ns(|| {
            black_box(analyze(&program, &opts));
        });
        let check_ns = median_ns(|| {
            black_box(check_determinism(&program, &opts));
        });
        let row = Row {
            sweep: "A3",
            case,
            ns,
            states: Some(d.states.len()),
            transitions: Some(d.transitions.len()),
            truncated: Some(d.truncated),
            check_ns: Some(check_ns),
            check_runs: Some(v.runs),
        };
        table::record("sweeps", &row);
        let same = |a: &[ceu::analysis::Conflict], b: &[ceu::analysis::Conflict]| {
            let key = |c: &ceu::analysis::Conflict| (c.kind as u8, c.what.clone(), c.spans);
            a.iter().map(key).collect::<Vec<_>>() == b.iter().map(key).collect::<Vec<_>>()
        };
        states.push((
            d.states.len(),
            d.transitions.len(),
            d.truncated,
            v.runs,
            same(&v.conflicts, &d.conflicts),
        ));
        rows.push(vec![
            row.case,
            d.states.len().to_string(),
            d.transitions.len().to_string(),
            d.truncated.to_string(),
            format!("{:.1}", ns / 1e3),
            v.runs.to_string(),
            v.states.to_string(),
            format!("{:.1}", check_ns / 1e3),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "program",
                "states",
                "transitions",
                "truncated",
                "µs/analyze",
                "runs",
                "checked",
                "µs/check"
            ],
            &rows
        )
    );

    println!("A4 (§2.1) — trail cost per event\n");
    let mut rows: Vec<_> = [1usize, 4, 16, 64, 256]
        .into_iter()
        .map(|n| {
            let ns = ns_per_event(&fanout_program(n), false, "E");
            timed("A4", format!("fan-out to {n} trails"), ns)
        })
        .collect();
    rows.push(timed("A4", "par/or respawn".into(), ns_per_event(RESPAWN, true, "E")));
    println!("{}", table::render(&["reaction", "ns/event"], &rows));

    // the structural facts: chains are lcm-sized with one transition per
    // state; timers grow as a product; nothing hits the state cap; the
    // shared-variable timers stay one group, and every check finds the
    // product's conflicts
    let (chain, rest) = states.split_at(4);
    let (timer, shared) = rest.split_at(4);
    assert_eq!(chain.iter().map(|s| s.0).collect::<Vec<_>>(), [7, 21, 73, 273]);
    assert!(chain.iter().all(|s| s.0 == s.1), "one transition per chain state");
    assert_eq!(timer.iter().map(|s| s.0).collect::<Vec<_>>(), [2, 18, 282, 5498]);
    assert_eq!(shared.iter().map(|s| s.0).collect::<Vec<_>>(), [2, 18, 282, 5498]);
    assert!(shared.iter().all(|s| s.3 == 1), "shared timers are one group");
    assert!(states.iter().all(|s| !s.2), "no DFA is truncated");
    assert!(states.iter().all(|s| s.4), "check and analyze report the same conflicts");
    println!(
        "A3 DFA sizes reproduced: chains 7/21/73/273, timers and shared timers 2/18/282/5498, \
         none truncated; shared timers one group; check = analyze ✓"
    );
}
