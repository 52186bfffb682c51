//! The benchmark's own contract: what `BENCHMARK.json` declares is what
//! a run prints, names are well-formed, and inputs depend on the seed
//! and nothing else.

use ceu_benchmark::gen;
use ceu_benchmark::metrics::{Spec, BENCHMARK_JSON};
use ceu_benchmark::workloads::NAMES;
use std::collections::BTreeSet;
use std::process::Command;

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs every workload at smoke size and returns each result line.
fn smoke(trace: &str) -> Vec<serde_json::Value> {
    let out = Command::new(env!("CARGO_BIN_EXE_ceu-benchmark"))
        .args([
            "run",
            "--workload",
            "all",
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--smoke",
            "--trace",
            trace,
        ])
        .output()
        .expect("run the benchmark binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "smoke run (trace {trace}) failed:\n{stderr}");
    let lines: Vec<serde_json::Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert_eq!(lines.len(), NAMES.len(), "one result line per workload");
    lines
}

fn check_printed(trace: &str, declared: &[String]) {
    let declared: BTreeSet<&str> = declared.iter().map(String::as_str).collect();
    for (line, workload) in smoke(trace).iter().zip(NAMES) {
        let keys: BTreeSet<&str> = line.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            BTreeSet::from(["correct", "attempted", "failed", "metrics"]),
            "{workload}"
        );
        assert_eq!(line["correct"].as_bool(), Some(true), "{workload}");
        assert_eq!(line["failed"].as_u64(), Some(0), "{workload}");
        assert!(line["attempted"].as_u64().unwrap() >= 1, "{workload}");
        let metrics = line["metrics"].as_object().unwrap();
        let printed: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
        assert_eq!(
            printed, declared,
            "{workload} (trace {trace}) prints exactly the declared metrics"
        );
        for (name, m) in metrics {
            let value = m["value"].as_f64().unwrap_or(f64::NAN);
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert!(m["unit"].as_str().is_some(), "{workload}: {name} has a unit");
        }
    }
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let spec = Spec::load();
    let names: Vec<String> = spec.end_to_end.iter().map(|d| d.name.clone()).collect();
    check_printed("0", &names);
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let spec = Spec::load();
    let names: Vec<String> = spec.per_layer.iter().map(|d| d.name.clone()).collect();
    check_printed("1", &names);
}

#[test]
fn benchmark_json_is_well_formed() {
    let v = serde_json::from_str(BENCHMARK_JSON).unwrap();
    let workloads: Vec<&str> =
        v["workloads"].as_array().unwrap().iter().map(|w| w["name"].as_str().unwrap()).collect();
    assert_eq!(workloads, NAMES, "BENCHMARK.json lists the workloads the binary runs");
    for w in v["workloads"].as_array().unwrap() {
        let why = w["why"].as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let spec = Spec::load();
    let mut seen = BTreeSet::new();
    for d in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(well_formed(&d.name), "bad metric name {}", d.name);
        assert!(seen.insert(d.name.clone()), "{} declared twice", d.name);
        assert!(
            d.unit.len() <= 16
                && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {}",
            d.unit
        );
    }
    for w in NAMES {
        assert!(well_formed(w) && seen.insert(w.to_string()), "bad or reused workload name {w}");
    }
    for d in &spec.end_to_end {
        let bound = d.bound.expect("end-to-end metrics have a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
    }
    let setup = spec.def("setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.higher), ("s", false));
    let largest = spec.end_to_end.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
}

#[test]
fn inputs_depend_on_the_seed_only() {
    let inputs = |seed: u64| {
        let mut rounds = Vec::new();
        for r in 0..4 {
            rounds.push(gen::round_order(seed, r, 20_000));
        }
        let mut go = gen::go_values(seed);
        let mut order: Vec<usize> = (0..83).collect();
        gen::pass_order(seed, &mut order);
        (
            order,
            gen::dfa_programs(seed),
            gen::expr_values(seed, 4096),
            gen::serve_tenants(seed, 20_000),
            rounds,
            (0..64).map(|_| go.below(100)).collect::<Vec<_>>(),
            gen::radio_seed(seed),
        )
    };
    let format = |seed| format!("{:?}", inputs(seed));
    assert_eq!(format(1), format(1), "same seed, same bytes");
    let (a, b) = (inputs(1), inputs(2));
    assert_ne!(a.0, b.0);
    assert_ne!(a.1, b.1);
    assert_ne!(a.2, b.2);
    assert_ne!(a.3, b.3);
    assert_ne!(a.4, b.4);
    assert_ne!(a.5, b.5);
    assert_ne!(a.6, b.6);
}

#[test]
fn seeds_vary_names_and_orders_but_not_the_work() {
    for seed in [1, 2, 3] {
        let mut shapes: Vec<String> = gen::dfa_programs(seed).into_iter().map(|(n, _)| n).collect();
        shapes.sort();
        let mut base: Vec<String> = gen::dfa_programs(0).into_iter().map(|(n, _)| n).collect();
        base.sort();
        assert_eq!(shapes, base, "every seed compiles the same shapes");
        let tenants = gen::serve_tenants(seed, 20_000);
        for t in 0..3u8 {
            let n = tenants.iter().filter(|&&x| x == t).count();
            assert!((6_666..=6_667).contains(&n), "tenant {t}: {n} sessions");
        }
        let (a, b) = gen::round_order(seed, 0, 20_000);
        let mut hit = vec![false; 20_000];
        for pos in 0..20_000 {
            hit[((a * pos + b) % 20_000) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "a round visits every session once");
    }
}
