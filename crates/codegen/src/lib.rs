//! Céu compiler back end: static memory layout (§4.2), gate allocation
//! (§4.3), track generation (§4.4), and the C source backend.
//!
//! The input is a [`ceu_ast::Resolved`] program (desugared and
//! alpha-renamed); the output is a [`CompiledProgram`] executed by
//! `ceu-runtime` and printable as C by [`cbackend::emit_c`].

pub mod cbackend;
pub mod flat;
pub mod ir;
pub mod layout;
pub mod lower;
pub mod opt;
pub mod report;
pub mod rsbackend;

pub use flat::{FlatOp, FlatPool, IntOp};
pub use ir::*;
pub use layout::{layout, Layout};
pub use lower::{compile, CompileError};
pub use opt::{optimize, OptStats};
pub use report::{memory_report, MemoryReport};

/// Convenience used by tests and benches: parse → desugar → resolve →
/// compile in one call.
pub fn compile_source(src: &str) -> Result<CompiledProgram, String> {
    let mut p = ceu_parser::parse(src).map_err(|e| e.to_string())?;
    ceu_ast::desugar(&mut p);
    ceu_ast::number(&mut p);
    let resolved = ceu_ast::resolve::resolve(p).map_err(|e| e.to_string())?;
    compile(&resolved).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{GateKind, Op, Term};

    fn compile_ok(src: &str) -> CompiledProgram {
        compile_source(src).unwrap_or_else(|e| panic!("compile failed: {e}"))
    }

    #[test]
    fn simple_await_splits_tracks() {
        // the paper's §4.4 example: two awaits in sequence split the code
        // into three parts
        let p =
            compile_ok("input int A, B;\nint a, b, ret;\na = await A;\nb = await B;\nret = a + b;");
        assert_eq!(p.gates.len(), 2);
        // boot + aft.A + aft.B
        assert!(p.blocks.len() >= 3);
        // boot arms gate 0 and halts
        let boot = p.block(p.boot);
        assert!(matches!(boot.instrs.last().unwrap().op, Op::ActivateEvt { gate: 0 }));
        assert_eq!(boot.term, Term::Halt);
        // final track terminates the program (fallthrough)
        assert!(p.blocks.iter().any(|b| matches!(b.term, Term::TerminateProgram { .. })));
    }

    #[test]
    fn dispatch_numbers_the_ranks_in_use_densely() {
        // a loop inside a par/or: escapes at two depths plus rank 0
        let p = compile_ok(
            "input void A, B;\npar/or do\n loop do\n  await A;\n  break;\n end\nwith\n await B;\nend",
        );
        let d = &p.dispatch;
        let mut used: Vec<u8> = p.blocks.iter().map(|b| b.rank).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(d.slot_ranks, used);
        assert!(d.slot_ranks.len() >= 3 && d.slot_ranks[0] == 0, "{:?}", d.slot_ranks);
        for (s, &r) in d.slot_ranks.iter().enumerate() {
            assert_eq!(d.rank_slot[r as usize] as usize, s);
        }
        assert!(d.rank_slot.windows(2).all(|w| w[0] <= w[1]), "rank order is bucket order");
    }

    #[test]
    fn par_spawns_one_track_per_arm() {
        let p = compile_ok(
            "input void A, B;\npar do\n await A;\nwith\n await B;\nwith\n await forever;\nend",
        );
        let boot = p.block(p.boot);
        let spawns = boot.instrs.iter().filter(|i| matches!(i.op, Op::Spawn(_))).count();
        assert_eq!(spawns, 3);
        assert_eq!(boot.term, Term::Halt);
    }

    #[test]
    fn par_or_gates_form_contiguous_region() {
        let p = compile_ok(
            "input void A, B;\nloop do\n par/or do\n  await A;\n with\n  await B;\n end\nend",
        );
        // two regions: the loop and the par/or; the par/or region nests
        // within the loop's range
        assert_eq!(p.regions.len(), 2);
        let (outer, inner) = (&p.regions[0], &p.regions[1]);
        assert!(outer.lo <= inner.lo && inner.hi <= outer.hi);
        assert_eq!(inner.hi - inner.lo, 2, "par/or owns both gates");
    }

    #[test]
    fn par_or_escape_outranks_normal_tracks() {
        let p =
            compile_ok("input void A, B;\npar/or do\n await A;\nwith\n await B;\nend\nawait A;");
        let esc = p.blocks.iter().find(|b| b.label == "par.esc").unwrap();
        assert!(esc.rank > 0, "escape blocks must run after normal tracks");
        assert!(esc.instrs.iter().any(|i| matches!(i.op, Op::ClearRegion(_))));
    }

    #[test]
    fn nested_escapes_rank_inner_before_outer() {
        let p = compile_ok(
            "input void A, B;\npar/or do\n par/or do\n  await A;\n with\n  await B;\n end\nwith\n await B;\nend",
        );
        let escs: Vec<u8> =
            p.blocks.iter().filter(|b| b.label == "par.esc").map(|b| b.rank).collect();
        assert_eq!(escs.len(), 2);
        // first created is the outer one
        assert!(escs[0] > escs[1], "outer esc must run later: {escs:?}");
    }

    #[test]
    fn par_and_uses_flags_and_join() {
        let p = compile_ok("input void A, B;\npar/and do\n await A;\nwith\n await B;\nend");
        let boot = p.block(p.boot);
        assert!(boot.instrs.iter().any(|i| matches!(i.op, Op::ClearFlags { .. })));
        let joins = p.blocks.iter().filter(|b| matches!(b.term, Term::JoinAnd { .. })).count();
        assert_eq!(joins, 2);
    }

    #[test]
    fn loop_back_edge_and_break_escape() {
        let p = compile_ok("input void A;\nloop do\n await A;\n break;\nend\nawait A;");
        let esc = p.blocks.iter().find(|b| b.label == "loop.esc").unwrap();
        assert!(esc.instrs.iter().any(|i| matches!(i.op, Op::ClearRegion(_))));
        // the break spawns the escape and halts
        let breaker = p
            .blocks
            .iter()
            .find(|b| {
                b.instrs.iter().any(|i| matches!(i.op, Op::Spawn(_)))
                    && b.term == Term::Halt
                    && b.label.starts_with("aft.")
            })
            .expect("break block");
        assert!(breaker.label.contains("aft.A"));
    }

    #[test]
    fn value_par_assigns_through_result_slot() {
        let p = compile_ok(
            "input void Key;\nint v;\nv = par do\n await Key;\n return 1;\nwith\n await forever;\nend;",
        );
        let esc = p.blocks.iter().find(|b| b.label == "par.esc").unwrap();
        // esc: clear region, copy result into v
        assert!(matches!(esc.instrs[0].op, Op::ClearRegion(_)));
        assert!(matches!(esc.instrs[1].op, Op::Assign { .. }));
    }

    #[test]
    fn async_is_compiled_with_done_gate() {
        let p = compile_ok(
            "int ret;\nret = async do\n int i;\n i = 0;\n loop do\n  if i == 10 then break; end\n  i = i + 1;\n end\n return i;\nend;",
        );
        assert_eq!(p.asyncs.len(), 1);
        let a = &p.asyncs[0];
        assert!(a.result.is_some());
        assert_eq!(p.gate(a.done_gate).kind, GateKind::AsyncDone(0));
        // async bodies terminate with TerminateAsync
        assert!(p.blocks.iter().any(|b| matches!(b.term, Term::TerminateAsync { .. })));
    }

    #[test]
    fn async_break_uses_goto_not_spawn() {
        let p = compile_ok("int r;\nr = async do\n loop do\n  break;\n end\n return 1;\nend;");
        // no Spawn instruction inside the async entry chain other than the
        // sync-side fork; async loops compile to direct gotos
        let async_entry = p.asyncs[0].entry as usize;
        let b = &p.blocks[async_entry];
        assert!(matches!(b.term, Term::Goto(_)));
    }

    #[test]
    fn emit_internal_vs_external() {
        let p = compile_ok(
            "input int Start;\ninternal void tick;\npar/or do\n emit tick;\n await forever;\nwith\n async do\n  emit Start = 1;\n end\nend",
        );
        let has_int =
            p.blocks.iter().flat_map(|b| &b.instrs).any(|i| matches!(i.op, Op::EmitInt { .. }));
        let has_ext =
            p.blocks.iter().flat_map(|b| &b.instrs).any(|i| matches!(i.op, Op::EmitExt { .. }));
        assert!(has_int && has_ext);
    }

    #[test]
    fn timer_awaits_compile_to_timer_gates() {
        let p = compile_ok("await 10ms;\nawait 1ms;");
        let timers = p.gates.iter().filter(|g| g.kind == GateKind::Timer).count();
        assert_eq!(timers, 2);
    }

    #[test]
    fn c_backend_paper_shape_across_corpus() {
        // One corpus-driven smoke covering what three near-identical
        // per-program tests used to: every corpus program emits C with
        // the paper's §4.4 shape, and any program with regions kills
        // them with a memset. (Exact emitted text is pinned by the
        // golden snapshots in tests/golden.rs.)
        let corpus = ceu_corpus::all_programs()
            .into_iter()
            .chain(std::iter::once(("ring_demo", RING_DEMO.to_string())));
        for (name, src) in corpus {
            let p = compile_ok(&src);
            let c = cbackend::emit_c(&p);
            assert!(c.contains("_SWITCH:"), "{name}: goto label per the paper");
            assert!(c.contains("switch (track)"), "{name}: track dispatch");
            assert!(c.contains("GATES["), "{name}: static gate table");
            assert!(c.contains("void ceu_go_event"), "{name}: four-function API");
            for (i, e) in p.events.iter() {
                assert!(c.contains(&format!("EVT_{} {}", e.name, i.0)), "{name}: event constants");
            }
            let kills_regions =
                p.blocks.iter().flat_map(|b| &b.instrs).any(|i| matches!(i.op, Op::ClearRegion(_)));
            if kills_regions {
                assert!(c.contains("memset(GATES +"), "{name}: region kill must be a memset");
            }
        }
    }

    #[test]
    fn memory_report_scales_with_program() {
        let small = memory_report(&compile_ok("input void A;\nawait A;"));
        let big = memory_report(&compile_ok(
            "input void A, B, C;\npar do\n loop do await A; end\nwith\n loop do await B; end\nwith\n loop do await C; end\nend",
        ));
        assert!(big.rom_bytes > small.rom_bytes);
        assert!(big.ram_bytes > small.ram_bytes);
        assert!(big.gates > small.gates);
    }

    #[test]
    fn rejects_call_through_variable() {
        assert!(compile_source("int f;\nf(1);").is_err());
    }

    #[test]
    fn rejects_whole_array_assignment() {
        assert!(compile_source("int[4] a;\nint b;\na = b;").is_err());
    }

    // The PPoPP ring demo: FFI-heavy, not part of `ceu_corpus` (it needs
    // host symbols), so it rides the corpus-driven smoke via a chain.
    const RING_DEMO: &str = r#"
            input _message_t* Radio_receive;
            internal void retry;
            par do
               loop do
                  _message_t* msg = await Radio_receive;
                  int* cnt = _Radio_getPayload(msg);
                  _Leds_set(*cnt);
                  await 1s;
                  *cnt = *cnt + 1;
                  _Radio_send((_TOS_NODE_ID+1)%3, msg);
               end
            with
               loop do
                  par/or do
                     await 5s;
                     par do
                        loop do
                           emit retry;
                           await 10s;
                        end
                     with
                        _Leds_set(0);
                        loop do
                           _Leds_led0Toggle();
                           await 500ms;
                        end
                     end
                  with
                     await Radio_receive;
                  end
               end
            with
               if _TOS_NODE_ID == 0 then
                  loop do
                     _message_t msg;
                     int* cnt = _Radio_getPayload(&msg);
                     *cnt = 1;
                     _Radio_send(1, &msg)
                     await retry;
                  end
               else
                  await forever;
               end
            end
        "#;

    #[test]
    fn ring_demo_compiles() {
        let p = compile_ok(RING_DEMO);
        assert!(p.gates.len() >= 7);
    }
}
