//! Shared corpus and helpers for the experiment harnesses (one binary per
//! table/figure of the paper — see DESIGN.md's experiment index, and
//! EXPERIMENTS.md for paper-vs-measured numbers).

pub mod chaos;
pub mod shard_mesh;
pub mod table;

// the corpus sources live in the `ceu-corpus` leaf crate (so build
// scripts can AOT-compile them too)
pub use ceu_corpus::*;

/// Where harness binaries drop their artifacts (dot files, raw results).
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new("target").join("experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// `--metrics-out PATH` (shared by the harness binaries and `ceuc run`):
/// the path the final metrics snapshot should be written to, if the flag
/// is present anywhere on the command line.
pub fn metrics_out_path() -> Option<std::path::PathBuf> {
    metrics_out_from(std::env::args().skip(1))
}

fn metrics_out_from(args: impl Iterator<Item = String>) -> Option<std::path::PathBuf> {
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--metrics-out" {
            return args.next().map(std::path::PathBuf::from);
        }
        if let Some(p) = a.strip_prefix("--metrics-out=") {
            return Some(p.into());
        }
    }
    None
}

/// Honours `--metrics-out PATH`: writes the snapshot as one JSON object,
/// or does nothing when the flag is absent.
pub fn write_metrics_out(metrics: &ceu::runtime::Metrics) {
    if let Some(path) = metrics_out_path() {
        std::fs::write(&path, metrics.to_json() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("metrics -> {}", path.display());
    }
}

/// Renders the unified `--metrics-out` snapshot: one JSON object carrying
/// the machine-level runtime counters, the world-level network/fault
/// counters ([`wsn_sim::World::metrics`]) and the parallel-scheduler run
/// record (the `run` line of `ceu-par-stats/v2`). Absent sections are
/// `null`, so consumers can probe with one shape.
pub fn combined_metrics_json(
    machine: Option<&ceu::runtime::Metrics>,
    world: Option<&wsn_sim::World>,
    sched: Option<&wsn_sim::ParStats>,
) -> String {
    #[derive(serde::Serialize)]
    struct Snapshot<'a> {
        machine: Option<&'a ceu::runtime::Metrics>,
        world: Option<wsn_sim::WorldMetrics<'a>>,
        sched: Option<&'a wsn_sim::ParStats>,
    }
    let world = world.map(wsn_sim::World::metrics);
    ceu::runtime::telemetry::to_json(&Snapshot { machine, world, sched })
}

/// Honours `--metrics-out PATH` with the combined machine + world +
/// scheduler snapshot (see [`combined_metrics_json`]).
pub fn write_combined_metrics_out(
    machine: Option<&ceu::runtime::Metrics>,
    world: Option<&wsn_sim::World>,
    sched: Option<&wsn_sim::ParStats>,
) {
    if let Some(path) = metrics_out_path() {
        let json = combined_metrics_json(machine, world, sched);
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("metrics (machine+world+sched) -> {}", path.display());
    }
}

#[cfg(test)]
mod lib_tests {
    #[test]
    fn metrics_out_flag_parses_both_forms() {
        let parse = |v: &[&str]| super::metrics_out_from(v.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["--metrics-out", "m.json"]), Some("m.json".into()));
        assert_eq!(parse(&["--foo", "--metrics-out=m.json"]), Some("m.json".into()));
        assert_eq!(parse(&["--foo"]), None);
    }

    #[test]
    fn absent_metrics_sections_are_null() {
        assert_eq!(
            super::combined_metrics_json(None, None, None),
            r#"{"machine":null,"world":null,"sched":null}"#
        );
    }
}
