//! Golden digest of the §2.6 temporal analysis: one line per (program,
//! option set) with the DFA's size, its conflicts (kind, text, spans,
//! state, label, depth) and an FNV-64 hash of the canonical state and
//! transition listing. Any change to what the explorer outputs — a state,
//! a transition, a conflict's attribution — shows up as a changed line.
//!
//! The expected lines live in `tests/data/dfa_golden.txt`. Every run
//! writes the lines it computed to `dfa_golden.txt` in Cargo's target
//! temporary directory; after an intended change, copy that file over
//! the checked-in one and review the diff.

use ceu::analysis::{check_determinism, Dfa, DfaOptions};
use ceu::{CompileOptions, Compiler};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use std::fmt::Write as _;
use std::path::Path;

mod programs;
use programs::conflict_set;

/// Generated programs in the digest (seeds `0..GENERATED`).
const GENERATED: u64 = 24;

/// The await-chain shape of the A3 table in `crates/bench/src/bin/sweeps.rs`.
fn chain_program(m: usize, n: usize) -> String {
    let awaits = |k: usize| "  await A;\n".repeat(k);
    format!(
        "input void A;\nint v, w;\npar do\n loop do\n{}  v = 1;\n end\nwith\n loop do\n{}  w = 1;\n end\nend",
        awaits(m),
        awaits(n)
    )
}

/// The coprime-timer shape of the A3 table in `crates/bench/src/bin/sweeps.rs`.
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

/// Every `.ceu` file under `dir`, recursively, named relative to `root`.
fn ceu_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            ceu_files(root, &path, out);
        } else if path.extension().is_some_and(|x| x == "ceu") {
            let name = path.strip_prefix(root).unwrap_or(&path).display().to_string();
            out.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
}

/// Every program in the digest, in a fixed order.
fn programs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out = Vec::new();
    ceu_files(&root, &root.join("corpus"), &mut out);
    ceu_files(&root, &root.join("examples"), &mut out);
    for (name, src) in ceu_corpus::all_programs() {
        out.push((format!("ceu_corpus/{name}"), src));
    }
    out.push(("fig2".into(), ceu_corpus::FIG2_PROGRAM.into()));
    for (m, n) in [(2, 3), (4, 5), (8, 9), (16, 17)] {
        out.push((format!("chain{m}x{n}"), chain_program(m, n)));
    }
    for k in 1..=4 {
        out.push((format!("timers{k}"), timer_program(k)));
    }
    let gen = programs::arb_program();
    for seed in 0..GENERATED {
        out.push((format!("generated{seed}"), gen.new_value(&mut TestRng::seed_from_u64(seed))));
    }
    out
}

fn option_sets() -> [(&'static str, DfaOptions); 3] {
    [
        ("default", DfaOptions::default()),
        ("max_states=7", DfaOptions { max_states: 7, ..DfaOptions::default() }),
        ("no_ccalls", DfaOptions { check_ccalls: false, ..DfaOptions::default() }),
    ]
}

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn digest_line(name: &str, opts: &str, d: &Dfa) -> String {
    let mut listing = String::new();
    for (i, s) in d.states.iter().enumerate() {
        let _ = write!(listing, "s{i}:");
        for (g, st) in s.gates.iter() {
            let _ = write!(listing, " g{g}={st:?}");
        }
        listing.push_str(" |");
        for f in s.flags.iter() {
            let _ = write!(listing, " f{f}");
        }
        listing.push('\n');
    }
    for t in &d.transitions {
        let _ = writeln!(listing, "{} -{:?}-> {}", t.from, t.label, t.to);
    }
    let mut line = format!(
        "{name} [{opts}] states={} transitions={} truncated={} hash={:016x}",
        d.states.len(),
        d.transitions.len(),
        d.truncated,
        fnv64(listing.as_bytes())
    );
    for c in &d.conflicts {
        let _ = write!(
            line,
            " | {:?} {} at {}/{} state={} label={:?} depth={:?}",
            c.kind,
            c.what,
            c.spans.0,
            c.spans.1,
            c.state,
            c.label,
            d.conflict_depth(c)
        );
    }
    line
}

#[test]
fn dfa_digest_matches_the_golden_file() {
    let mut actual = String::new();
    for (name, src) in programs() {
        for (opts_name, dfa) in option_sets() {
            // programs the bounded check refuses (or that do not compile)
            // never reach the analysis
            let compiler = Compiler::with_options(CompileOptions { dfa, ..Default::default() });
            if let Ok((_, d)) = compiler.analyze(&src) {
                actual.push_str(&digest_line(&name, opts_name, &d));
                actual.push('\n');
            }
        }
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("dfa_golden.txt");
    std::fs::write(&out, &actual).unwrap();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/dfa_golden.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    let diff: Vec<_> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .take(5)
        .map(|(g, a)| format!("  expected: {g}\n  actual:   {a}"))
        .collect();
    assert!(
        golden == actual,
        "DFA digest differs from {} ({} vs {} lines); computed lines are in {}\n{}",
        golden_path.display(),
        golden.lines().count(),
        actual.lines().count(),
        out.display(),
        diff.join("\n")
    );
}

/// `check_determinism`, the verdict the compiler acts on, finds exactly
/// the conflicts of the product on every digest program where both
/// explored everything. Where either hit `max_states` (the check's runs
/// share one budget, so a tight limit can stop them where it spares the
/// product), the verdicts may differ; the test names those programs.
#[test]
fn check_agrees_with_the_product_on_every_digest_program() {
    let mut truncated = Vec::new();
    for (name, src) in programs() {
        for (opts_name, dfa) in option_sets() {
            let compiler =
                Compiler::with_options(CompileOptions { dfa: dfa.clone(), ..Default::default() });
            let Ok((p, product)) = compiler.analyze(&src) else { continue };
            let check = check_determinism(&p, &dfa);
            if product.truncated || check.truncated {
                if check.deterministic() != product.deterministic() {
                    truncated.push(format!("{name} [{opts_name}]"));
                }
                continue;
            }
            assert_eq!(
                conflict_set(&check.conflicts),
                conflict_set(&product.conflicts),
                "{name} [{opts_name}]"
            );
        }
    }
    assert_eq!(truncated, Vec::<String>::new(), "verdicts that differ only past max_states");
}
