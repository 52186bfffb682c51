//! The compilation pipeline.

use ceu_analysis::{Conflict, DfaOptions, TightLoop};
use ceu_codegen::CompiledProgram;
use std::fmt;

/// Any error the pipeline can produce, with a uniform display.
#[derive(Clone, Debug)]
pub enum Error {
    Parse(ceu_parser::ParseError),
    Resolve(ceu_ast::ResolveError),
    /// Loops that may iterate without consuming time (§2.5).
    Unbounded(Vec<TightLoop>),
    Lower(ceu_codegen::CompileError),
    /// Sources of nondeterminism found by the temporal analysis (§2.6).
    Nondeterministic(Vec<Conflict>),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Resolve(e) => write!(f, "{e}"),
            Error::Unbounded(ls) => {
                for (i, l) in ls.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{l}")?;
                }
                Ok(())
            }
            Error::Lower(e) => write!(f, "{e}"),
            Error::Nondeterministic(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for Error {}

/// Pipeline knobs.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Run the bounded-execution check (on by default; §2.5).
    pub check_bounded: bool,
    /// Run the DFA temporal analysis and refuse nondeterministic programs
    /// (on by default; §2.6).
    pub check_determinism: bool,
    /// Run the flat-code optimizer pass (on by default; `ceuc --no-opt`
    /// disables it for ablation benchmarks). Applied after the analyses,
    /// which want the unoptimized shape.
    pub optimize: bool,
    /// Temporal-analysis limits.
    pub dfa: DfaOptions,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            check_bounded: true,
            check_determinism: true,
            optimize: true,
            dfa: DfaOptions::default(),
        }
    }
}

/// The Céu compiler: source text in, executable [`CompiledProgram`] out.
#[derive(Clone, Debug, Default)]
pub struct Compiler {
    options: CompileOptions,
}

impl Compiler {
    pub fn new() -> Self {
        Compiler::default()
    }

    pub fn with_options(options: CompileOptions) -> Self {
        Compiler { options }
    }

    /// Disables the safety analyses (used by benches measuring their cost,
    /// and by programs that deliberately exercise runtime behaviour the
    /// analysis over-approximates).
    pub fn unchecked() -> Self {
        Compiler::with_options(CompileOptions {
            check_bounded: false,
            check_determinism: false,
            ..CompileOptions::default()
        })
    }

    /// Full pipeline minus the optimizer pass — the `--no-opt` ablation
    /// (benchmark baselines, differential tests against the opt output).
    pub fn unoptimized() -> Self {
        Compiler::with_options(CompileOptions { optimize: false, ..CompileOptions::default() })
    }

    /// Runs the full pipeline.
    pub fn compile(&self, src: &str) -> Result<CompiledProgram, Error> {
        let mut ast = ceu_parser::parse(src).map_err(Error::Parse)?;
        ceu_ast::desugar(&mut ast);
        ceu_ast::number(&mut ast);
        if self.options.check_bounded {
            let tight = ceu_analysis::check_bounded(&ast);
            if !tight.is_empty() {
                return Err(Error::Unbounded(tight));
            }
        }
        let resolved = ceu_ast::resolve::resolve(ast).map_err(Error::Resolve)?;
        let mut prog = ceu_codegen::compile(&resolved).map_err(Error::Lower)?;
        if self.options.check_determinism {
            let verdict = ceu_analysis::check_determinism(&prog, &self.options.dfa);
            if !verdict.conflicts.is_empty() {
                return Err(Error::Nondeterministic(verdict.conflicts));
            }
        }
        if self.options.optimize {
            ceu_codegen::optimize(&mut prog);
        }
        Ok(prog)
    }

    /// Runs the pipeline up to the temporal analysis and returns the DFA
    /// over the product of every trail (even for nondeterministic
    /// programs — used for diagnostics and the Figure-2 reproduction).
    pub fn analyze(&self, src: &str) -> Result<(CompiledProgram, ceu_analysis::Dfa), Error> {
        let mut ast = ceu_parser::parse(src).map_err(Error::Parse)?;
        ceu_ast::desugar(&mut ast);
        ceu_ast::number(&mut ast);
        if self.options.check_bounded {
            let tight = ceu_analysis::check_bounded(&ast);
            if !tight.is_empty() {
                return Err(Error::Unbounded(tight));
            }
        }
        let resolved = ceu_ast::resolve::resolve(ast).map_err(Error::Resolve)?;
        let prog = ceu_codegen::compile(&resolved).map_err(Error::Lower)?;
        let dfa = ceu_analysis::analyze(&prog, &self.options.dfa);
        Ok((prog, dfa))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_accepts_deterministic_program() {
        let p = Compiler::new().compile("input void A;\nloop do\n await A;\nend").unwrap();
        assert_eq!(p.gates.len(), 1);
    }

    #[test]
    fn pipeline_rejects_tight_loop() {
        let err = Compiler::new().compile("int v;\nloop do\n v = v + 1;\nend").unwrap_err();
        assert!(matches!(err, Error::Unbounded(_)), "{err}");
        assert!(err.to_string().contains("tight loop"));
    }

    #[test]
    fn pipeline_rejects_nondeterminism() {
        let err = Compiler::new()
            .compile("int v;\npar/and do\n v = 1;\nwith\n v = 2;\nend\nreturn v;")
            .unwrap_err();
        assert!(matches!(err, Error::Nondeterministic(_)), "{err}");
        assert!(err.to_string().contains("concurrent access"));
    }

    #[test]
    fn unchecked_compiler_skips_analyses() {
        let p = Compiler::unchecked()
            .compile("int v;\npar/and do\n v = 1;\nwith\n v = 2;\nend\nreturn v;")
            .unwrap();
        assert!(p.data_len >= 1);
    }

    #[test]
    fn optimizer_runs_by_default_and_can_be_disabled() {
        let src = "input int E;\nint v;\nloop do\n v = await E;\n v = v + (2 * 3);\nend";
        let opt = Compiler::new().compile(src).unwrap();
        let raw = Compiler::unoptimized().compile(src).unwrap();
        assert!(opt.flat.code.len() < raw.flat.code.len());
        // the tree side stays source-faithful in both
        assert_eq!(opt.exprs, raw.exprs);
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(Compiler::new().compile("loop od"), Err(Error::Parse(_))));
    }

    #[test]
    fn resolve_errors_surface() {
        assert!(matches!(Compiler::new().compile("await Nope;"), Err(Error::Resolve(_))));
    }
}
