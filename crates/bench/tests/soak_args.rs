//! The `soak` binary on small but valid-looking arguments: a single
//! cluster must run, and a thread count below 2 must be refused with a
//! usage error, never a panic (exit 101).

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `soak` in a fresh directory of its own (the binary writes under
/// `target/experiments/` relative to its working directory).
fn soak(case: &str, args: &[&str]) -> Output {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ceu-soak-args-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_soak"))
        .args(args)
        .args(["--horizon-us", "2000"])
        .current_dir(&dir)
        .output()
        .expect("run soak");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn one_cluster_runs() {
    let out = soak("one-cluster", &["--motes", "8", "--threads", "2"]);
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
        let out = soak(&format!("threads-{threads}"), &["--motes", "16", "--threads", threads]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "soak --threads {threads}: {stderr}");
        assert!(stderr.contains("need at least 2"), "soak --threads {threads}: {stderr}");
    }
}
