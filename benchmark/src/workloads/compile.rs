//! `compile_corpus` and `compile_dfa`: source text through the checked
//! `Compiler` and then `emit_rust`, one pass over a program set per
//! operation. Each program's compile is timed on its own, as a unit of
//! the pass.
//!
//! The untraced run times the facade. The traced run instead calls each
//! phase's public function under its own span — the same sequence
//! `Compiler::compile` runs — and times the facade beside it, so the gap
//! between the facade and the sum of its phases is reported, not hidden.

use super::{for_seconds, run_trials, Outcome, Params};
use crate::alloc;
use crate::gen;
use crate::span::Tracer;
use crate::stats::fnv;
use ceu::analysis::{ConflictKind, DfaOptions};
use ceu::codegen::rsbackend::emit_rust;
use ceu::{Compiler, Error};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Set {
    /// Every `corpus/{accept,run,reject}/*.ceu` file plus
    /// `ceu_corpus::all_programs()`.
    Corpus,
    /// [`gen::dfa_programs`].
    Dfa,
}

/// The verdict a program must get.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Expect {
    Accept,
    Parse,
    Resolve,
    Unbounded,
    Nondet(ConflictKind),
}

struct Program {
    name: String,
    src: String,
    expect: Expect,
}

/// In the traced run every pass calls the phases one by one, and one pass
/// in this many records their spans (and times the facade beside them).
const TRACE_EVERY: usize = 4;

/// The spans of one traced compile, in pipeline order.
const PHASES: [(&str, &str); 8] = [
    ("parser.parse", "parser.parse_pct"),
    ("ast.desugar", "ast.desugar_pct"),
    ("analysis.bounded", "analysis.bounded_pct"),
    ("ast.resolve", "ast.resolve_pct"),
    ("codegen.lower", "codegen.lower_pct"),
    ("analysis.dfa", "analysis.dfa_pct"),
    ("codegen.opt", "codegen.opt_pct"),
    ("codegen.emit_rust", "codegen.emit_rust_pct"),
];

fn expect_of(directive: Option<&str>) -> Option<Expect> {
    Some(match directive {
        None | Some("ok") => Expect::Accept,
        Some("parse-error") => Expect::Parse,
        Some("resolve-error") => Expect::Resolve,
        Some("unbounded") => Expect::Unbounded,
        Some("nondeterministic variable") => Expect::Nondet(ConflictKind::Variable),
        Some("nondeterministic internal-event") => Expect::Nondet(ConflictKind::InternalEvent),
        Some("nondeterministic c-call") => Expect::Nondet(ConflictKind::CCall),
        Some(_) => return None,
    })
}

/// Reads the corpus from disk; files under `run/` carry no `expect`
/// directive and must be accepted.
fn load_corpus() -> Result<Vec<Program>, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../corpus");
    let mut out = Vec::new();
    for sub in ["accept", "run", "reject"] {
        let dir = root.join(sub);
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "ceu"))
            .collect();
        paths.sort();
        for path in paths {
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let directive =
                src.lines().find_map(|l| l.trim().strip_prefix("// expect:")).map(str::trim);
            let expect = expect_of(directive)
                .ok_or_else(|| format!("{}: unknown expect `{directive:?}`", path.display()))?;
            let file = path.file_name().unwrap_or_default().to_string_lossy();
            out.push(Program { name: format!("corpus/{sub}/{file}"), src, expect });
        }
    }
    for (name, src) in ceu_corpus::all_programs() {
        out.push(Program { name: name.to_string(), src, expect: Expect::Accept });
    }
    Ok(out)
}

fn verdict_ok(expect: Expect, res: &Result<String, Error>) -> bool {
    match (expect, res) {
        (Expect::Accept, Ok(_)) => true,
        (Expect::Parse, Err(Error::Parse(_)))
        | (Expect::Resolve, Err(Error::Resolve(_)))
        | (Expect::Unbounded, Err(Error::Unbounded(_))) => true,
        (Expect::Nondet(kind), Err(Error::Nondeterministic(cs))) => {
            cs.iter().any(|c| c.kind == kind)
        }
        _ => false,
    }
}

/// What one traced pass found in the intermediate representations.
#[derive(Default)]
struct Counts {
    dfa_states: usize,
    dfa_transitions: usize,
    blocks: usize,
    gates: usize,
    flat_ops_before_opt: usize,
    flat_ops_after_opt: usize,
    exprs_simplified: usize,
    emit_rust_bytes: usize,
}

/// `Compiler::new().compile` followed by `emit_rust`, one public call per
/// span.
fn compile_phases(src: &str, req: u64, tr: &mut Tracer, n: &mut Counts) -> Result<String, Error> {
    tr.enter("parser.parse", req);
    let parsed = ceu::parser::parse(src);
    tr.exit();
    let mut ast = parsed.map_err(Error::Parse)?;
    tr.enter("ast.desugar", req);
    ceu::ast::desugar(&mut ast);
    ceu::ast::number(&mut ast);
    tr.exit();
    tr.enter("analysis.bounded", req);
    let tight = ceu::analysis::check_bounded(&ast);
    tr.exit();
    if !tight.is_empty() {
        return Err(Error::Unbounded(tight));
    }
    tr.enter("ast.resolve", req);
    let resolved = ceu::ast::resolve::resolve(ast);
    tr.exit();
    let resolved = resolved.map_err(Error::Resolve)?;
    tr.enter("codegen.lower", req);
    let lowered = ceu::codegen::compile(&resolved);
    tr.exit();
    let mut prog = lowered.map_err(Error::Lower)?;
    tr.enter("analysis.dfa", req);
    let dfa = ceu::analysis::analyze(&prog, &DfaOptions::default());
    tr.exit();
    n.dfa_states += dfa.states.len();
    n.dfa_transitions += dfa.transitions.len();
    if !dfa.conflicts.is_empty() {
        return Err(Error::Nondeterministic(dfa.conflicts));
    }
    tr.enter("codegen.opt", req);
    let opt = ceu::codegen::optimize(&mut prog);
    tr.exit();
    tr.enter("codegen.emit_rust", req);
    let rs = emit_rust(&prog);
    tr.exit();
    n.blocks += prog.blocks.len();
    n.gates += prog.gates.len();
    n.flat_ops_before_opt += opt.flat_ops_before;
    n.flat_ops_after_opt += opt.flat_ops_after;
    n.exprs_simplified += opt.exprs_simplified;
    n.emit_rust_bytes += rs.len();
    Ok(rs)
}

fn facade(compiler: &Compiler, src: &str) -> Result<String, Error> {
    compiler.compile(src).map(|p| emit_rust(&p))
}

pub fn run(set: Set, p: &Params, tr: &mut Tracer, out: &mut Outcome) {
    let compiler = Compiler::new();
    let mut results: Vec<Result<String, Error>> = Vec::new();
    let mut counts = None;
    let mut facade_ns = 0u64;
    let mut quiet = Tracer::new(false);
    let mut allocs = 0;
    let mut pass = 0;
    let min_passes = if p.smoke { 1 } else { 2 };
    run_trials(
        p,
        out,
        tr,
        // Set-up: read or generate the sources, order them by seed, and
        // run one pass whose emitted code every later pass must reproduce.
        |_| {
            let mut programs = match set {
                Set::Corpus => load_corpus()?,
                Set::Dfa => gen::dfa_programs(p.seed)
                    .into_iter()
                    .map(|(name, src)| Program { name, src, expect: Expect::Accept })
                    .collect(),
            };
            if p.smoke {
                programs.truncate(if matches!(set, Set::Dfa) { 4 } else { 12 });
            }
            gen::pass_order(p.seed, &mut programs);
            let reference: Vec<Option<u64>> = programs
                .iter()
                .map(|prog| facade(&compiler, &prog.src).ok().map(|rs| fnv(rs.as_bytes())))
                .collect();
            Ok((programs, reference))
        },
        |(programs, reference), seconds, out, tr| {
            results.reserve(programs.len());
            // each program is a unit: the pass order is the same every trial
            out.unit_us.resize(programs.len(), Vec::new());
            tr.enter("benchmark.measure", 0);
            for_seconds(seconds, min_passes, |_| {
                let spans = tr.is_on() && pass % TRACE_EVERY == 0;
                pass += 1;
                if spans {
                    tr.enter("benchmark.pass", pass as u64);
                }
                let mut n = Counts::default();
                let a0 = alloc::allocs();
                let t0 = Instant::now();
                for (i, prog) in programs.iter().enumerate() {
                    let t1 = Instant::now();
                    let res = if tr.is_on() {
                        let t = if spans { &mut *tr } else { &mut quiet };
                        compile_phases(&prog.src, i as u64, t, &mut n)
                    } else {
                        facade(&compiler, &prog.src)
                    };
                    out.unit_us[i].push(t1.elapsed().as_secs_f64() * 1e6);
                    results.push(res);
                }
                let dt = t0.elapsed();
                if tr.is_on() {
                    counts.get_or_insert(n);
                }
                allocs += alloc::allocs() - a0;
                out.op_us.push(dt.as_secs_f64() * 1e6);
                if spans {
                    tr.exit();
                    for (i, prog) in programs.iter().enumerate() {
                        tr.enter("compile.facade", i as u64);
                        let t0 = Instant::now();
                        let _ = facade(&compiler, &prog.src);
                        facade_ns += t0.elapsed().as_nanos() as u64;
                        tr.exit();
                    }
                }
                for ((prog, res), want) in programs.iter().zip(results.drain(..)).zip(&reference) {
                    let got = res.as_ref().ok().map(|rs| fnv(rs.as_bytes()));
                    out.check(verdict_ok(prog.expect, &res) && got == *want, || {
                        format!(
                            "{}: expected {:?}, got {:?}",
                            prog.name,
                            prog.expect,
                            res.map(|_| ())
                        )
                    });
                }
            });
            tr.exit();
        },
    );
    out.allocs_per_op = allocs as f64 / out.op_us.len().max(1) as f64;

    if let Some(counts) = counts {
        let mut attributed = 0.0;
        for (span, metric) in PHASES {
            let pct = 100.0 * tr.total_ns(span) as f64 / facade_ns.max(1) as f64;
            attributed += pct;
            out.set(metric, pct);
        }
        out.set("compile.unattributed_pct", 100.0 - attributed);
        out.set("analysis.dfa_states", counts.dfa_states as f64);
        out.set("analysis.dfa_transitions", counts.dfa_transitions as f64);
        out.set("codegen.blocks", counts.blocks as f64);
        out.set("codegen.gates", counts.gates as f64);
        out.set("codegen.flat_ops_before_opt", counts.flat_ops_before_opt as f64);
        out.set("codegen.flat_ops_after_opt", counts.flat_ops_after_opt as f64);
        out.set("codegen.exprs_simplified", counts.exprs_simplified as f64);
        out.set("codegen.emit_rust_bytes", counts.emit_rust_bytes as f64);
    }
}
