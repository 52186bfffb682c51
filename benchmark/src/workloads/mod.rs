//! The workloads. Each drives the system from outside through public
//! APIs only, times set-up and operations separately, and checks every
//! output it times.

mod compile;
mod react;
mod serve;
mod world;

use crate::alloc;
use crate::span::Tracer;
use crate::stats::{quantile, sorted};
use std::collections::BTreeMap;
use std::time::Instant;

/// The latency quantile `op_us_p1` reports. A shared host slows every
/// workload, by up to 2x, for seconds to minutes at a time; the fastest
/// samples of a run are the ones it left alone, so a low quantile tracks
/// the code while the median tracks the host. Short samples escape it
/// more often than long ones, hence the units (see the README).
pub const OP_Q: f64 = 0.01;

/// Every workload, in the order `--workload all` runs them.
pub const NAMES: &[&str] = &[
    "compile_corpus",
    "compile_dfa",
    "react_expr",
    "react_expr_native",
    "react_chain",
    "react_chain_native",
    "serve",
    "world",
];

/// How a workload is run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    /// Wall time the measured phase should last.
    pub seconds: f64,
    /// Tiny sizes: every metric is still produced, in well under a second.
    pub smoke: bool,
    /// Part of a `--trace 1` run: also measure what only the per-layer
    /// metrics need (the serve rate ladder).
    pub per_layer: bool,
}

impl Params {
    /// Trials per run of [`run_trials`]: ten, or two at smoke size.
    fn trials(&self) -> usize {
        if self.smoke {
            2
        } else {
            10
        }
    }
}

/// What one run of a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (wrong output or refused).
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Latency of each measured operation, µs.
    pub op_us: Vec<f64>,
    /// What `op_us_p1` is taken from where `op_us` will not do, µs: where
    /// an operation is made of distinct units that repeat the same work
    /// run after run (the programs of a compile pass, the chunks of a
    /// simulated trial), the samples of each unit, scaled so that one
    /// sample of every unit adds up to one operation; for `serve`, one
    /// unit, the median latency of each window of events. Empty where
    /// `op_us` will do.
    pub unit_us: Vec<Vec<f64>>,
    /// Peak heap bytes live during the last set-up, above what was live
    /// before it.
    pub setup_heap_bytes: usize,
    /// Heap allocations (all threads) inside the timed calls, per
    /// operation; for `serve`, over the whole steady phase.
    pub allocs_per_op: f64,
    /// Workload-specific per-layer metrics (the rest read 0).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation; records `what` if it failed.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.fail_many(1, what);
    }

    fn fail_many(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    /// `op_us_p1`: the [`OP_Q`] quantile of `op_us`, or the sum of those
    /// of the units.
    pub fn op_us_p1(&self) -> Option<f64> {
        let q = |v: &[f64]| quantile(&sorted(v), OP_Q);
        if self.unit_us.is_empty() {
            q(&self.op_us)
        } else {
            self.unit_us.iter().map(|u| q(u)).sum()
        }
    }
}

/// Times one set-up: its wall time goes to `setup_s`, its heap peak
/// (above what was live before it) to `setup_heap_bytes`.
fn timed_setup<T>(
    out: &mut Outcome,
    tr: &mut Tracer,
    i: u64,
    setup: impl FnOnce(&mut Tracer) -> T,
) -> T {
    let base = alloc::live();
    alloc::reset_peak();
    tr.enter("benchmark.setup", i);
    let t0 = Instant::now();
    let v = setup(tr);
    out.setup_s.push(t0.elapsed().as_secs_f64());
    tr.exit();
    out.setup_heap_bytes = alloc::peak().saturating_sub(base);
    v
}

/// A run is a series of trials, each set up from scratch and then
/// measured for its share of `p.seconds`. Set-ups are timed, so
/// `setup_s`, their median, samples the whole run rather than its first
/// moments: on a shared machine, bursts from other tenants last from
/// milliseconds to minutes. `measure` consumes the trial's state, so the
/// next set-up starts with it freed.
fn run_trials<S>(
    p: &Params,
    out: &mut Outcome,
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<S, String>,
    mut measure: impl FnMut(S, f64, &mut Outcome, &mut Tracer),
) {
    let trials = p.trials();
    let t0 = Instant::now();
    for i in 0..trials {
        let state = match timed_setup(out, tr, i as u64, &mut setup) {
            Ok(s) => s,
            Err(e) => return out.fail(e),
        };
        let until = p.seconds * (i + 1) as f64 / trials as f64;
        measure(state, (until - t0.elapsed().as_secs_f64()).max(0.0), out, tr);
    }
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, p: &Params, tr: &mut Tracer) -> Option<Outcome> {
    let mut out = Outcome::default();
    match name {
        "compile_corpus" => compile::run(compile::Set::Corpus, p, tr, &mut out),
        "compile_dfa" => compile::run(compile::Set::Dfa, p, tr, &mut out),
        "react_expr" => react::run(react::Prog::Expr, false, p, tr, &mut out),
        "react_expr_native" => react::run(react::Prog::Expr, true, p, tr, &mut out),
        "react_chain" => react::run(react::Prog::Chain, false, p, tr, &mut out),
        "react_chain_native" => react::run(react::Prog::Chain, true, p, tr, &mut out),
        "serve" => serve::run(p, tr, &mut out),
        "world" => world::run(p, tr, &mut out),
        _ => return None,
    }
    Some(out)
}

/// Loops `op` until `seconds` have passed and at least `min_ops` ran.
fn for_seconds(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut i = 0;
    while i < min_ops || t0.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
}

/// Heap bytes a value holds: live bytes after `make` minus before.
fn heap_bytes<T>(make: impl FnOnce() -> T) -> (T, usize) {
    let base = alloc::live();
    let v = make();
    (v, alloc::live().saturating_sub(base))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_us_p1_adds_up_the_units() {
        let ramp = |lo: f64| (0..101).map(|i| lo + i as f64).collect::<Vec<_>>();
        let mut o = Outcome { op_us: ramp(1000.0), ..Outcome::default() };
        assert_eq!(o.op_us_p1(), Some(1001.0));
        o.unit_us = vec![ramp(10.0), ramp(200.0)];
        assert_eq!(o.op_us_p1(), Some(11.0 + 201.0));
    }
}
