//! Golden digest of the Rust backend: one line per (program, mode) with
//! the byte length of `emit_rust`'s output and an FNV-64 hash of it with
//! the two fingerprint lines left out. Any change to the emitted code
//! other than the artifact fingerprint shows up as a changed line.
//!
//! The fingerprint lines are checked separately: both must carry
//! `CompiledProgram::fingerprint()` of the artifact they were emitted
//! from, so the digest stays valid across a change of the fingerprint's
//! definition while a stale or missing fingerprint still fails.
//!
//! The expected lines live in `tests/data/emit_golden.txt`. Every run
//! writes the lines it computed to `emit_golden.txt` in Cargo's target
//! temporary directory; after an intended change, copy that file over
//! the checked-in one and review the diff.

use ceu::codegen::rsbackend::emit_rust;
use ceu::Compiler;
use std::path::Path;

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
    out
}

/// FNV-1a, 64 bit.
fn fnv64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The digest line of one emission; panics unless both fingerprint lines
/// are present, once each, and carry `fingerprint`.
fn digest_line(name: &str, mode: &str, rs: &str, fingerprint: u64) -> String {
    let comment = format!("// fingerprint: {fingerprint:#018x}");
    let constant = format!("pub const FINGERPRINT: u64 = {fingerprint:#018x};");
    let (mut seen_comment, mut seen_constant) = (0, 0);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for line in rs.split_inclusive('\n') {
        if line.starts_with("// fingerprint:") {
            assert_eq!(line.trim_end(), comment, "{name} [{mode}]: fingerprint comment");
            seen_comment += 1;
        } else if line.starts_with("pub const FINGERPRINT:") {
            assert_eq!(line.trim_end(), constant, "{name} [{mode}]: FINGERPRINT constant");
            seen_constant += 1;
        } else {
            h = fnv64(h, line.as_bytes());
        }
    }
    assert_eq!((seen_comment, seen_constant), (1, 1), "{name} [{mode}]: fingerprint lines");
    format!("{name} [{mode}] bytes={} hash={h:016x}", rs.len())
}

#[test]
fn emitted_rust_matches_the_golden_digest() {
    let modes = [("opt", Compiler::new()), ("raw", Compiler::unoptimized())];
    let mut actual = String::new();
    for (name, src) in programs() {
        for (mode, compiler) in &modes {
            // refused programs have no emission
            if let Ok(p) = compiler.compile(&src) {
                actual.push_str(&digest_line(&name, mode, &emit_rust(&p), p.fingerprint()));
                actual.push('\n');
            }
        }
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("emit_golden.txt");
    std::fs::write(&out, &actual).unwrap();
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/emit_golden.txt");
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
        "emission digest differs from {} ({} vs {} lines); computed lines are in {}\n{}",
        golden_path.display(),
        golden.lines().count(),
        actual.lines().count(),
        out.display(),
        diff.join("\n")
    );
}
