//! The `soak` binary on small but valid-looking arguments: a single
//! cluster must run, and a thread count below 2, a malformed or missing
//! flag value and an unknown flag must each be refused with a usage error
//! (exit 1), never a panic (exit 101).

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `soak` with exactly `args` in a fresh directory of its own (the
/// binary writes under `target/experiments/` relative to its working
/// directory).
fn soak(case: &str, args: &[&str]) -> Output {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ceu-soak-args-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_soak"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run soak");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn one_cluster_runs() {
    let out = soak("one-cluster", &["--motes", "8", "--threads", "2", "--horizon-us", "2000"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "soak --motes 8: {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("8 motes (1 clusters"), "{stdout}");
}

#[test]
fn fewer_than_two_threads_is_a_usage_error() {
    for threads in ["1", "0"] {
        let args = ["--motes", "16", "--threads", threads, "--horizon-us", "2000"];
        let out = soak(&format!("threads-{threads}"), &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "soak --threads {threads}: {stderr}");
        assert!(stderr.contains("need at least 2"), "soak --threads {threads}: {stderr}");
    }
}

#[test]
fn malformed_flags_are_usage_errors() {
    let cases: [(&str, &[&str], &str); 3] = [
        ("bad-motes", &["--motes", "x"], "--motes: `x` is not a valid value"),
        ("no-horizon", &["--motes", "16", "--horizon-us"], "--horizon-us needs a value"),
        ("bogus", &["--bogus"], "unknown flag `--bogus`"),
    ];
    for (case, args, want) in cases {
        let out = soak(case, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "soak {args:?}: {stderr}");
        assert!(stderr.contains(want) && stderr.contains("usage:"), "soak {args:?}: {stderr}");
    }
}
