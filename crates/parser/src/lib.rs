//! Parser for the Céu language (lexer + recursive descent).
//!
//! Entry point: [`parse`], which returns a numbered
//! [`ceu_ast::Program`] ready for analysis and compilation.

pub mod error;
pub mod lexer;
pub mod parser;

pub use error::{ParseError, Result};
pub use parser::MAX_NESTING;

use ceu_ast::Program;

/// Parses Céu source into a numbered AST.
pub fn parse(src: &str) -> Result<Program> {
    let mut p = parser::Parser::new(src);
    let mut program = p.parse_program()?;
    ceu_ast::number(&mut program);
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceu_ast::{pretty, AssignRhs, ExprKind, ParKind, StmtKind, TimeSpec};

    /// §1 introductory example, verbatim from the paper.
    const INTRO: &str = r#"
        input int Restart;     // an external event
        internal void changed; // an internal event
        int v = 0;             // a variable
        par do
           loop do             // 1st trail
              await 1s;
              v = v + 1;
              emit changed;
           end
        with
           loop do             // 2nd trail
              v = await Restart;
              emit changed;
           end
        with
           loop do             // 3rd trail
              await changed;
              _printf("v = %d\n", v);
           end
        end
    "#;

    #[test]
    fn parses_intro_example() {
        let p = parse(INTRO).unwrap();
        assert_eq!(p.block.stmts.len(), 4);
        match &p.block.stmts[3].kind {
            StmtKind::Par { kind: ParKind::Par, arms } => assert_eq!(arms.len(), 3),
            other => panic!("expected par, got {other:?}"),
        }
    }

    #[test]
    fn parses_dataflow_example() {
        let src = r#"
            int v1, v2, v3;
            internal void v1_evt, v2_evt, v3_evt;
            par do
               loop do
                  await v1_evt;
                  v2 = v1 + 1;
                  emit v2_evt;
               end
            with
               loop do
                  await v2_evt;
                  v3 = v2 * 2;
                  emit v3_evt;
               end
            with
               nothing;
            end
        "#;
        let p = parse(src).unwrap();
        match &p.block.stmts[0].kind {
            StmtKind::VarDecl { vars, .. } => assert_eq!(vars.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_async_sum_example() {
        let src = r#"
            int ret;
            par/or do
               ret = async do
                  int sum = 0;
                  int i = 1;
                  loop do
                     sum = sum + i;
                     if i == 100 then
                        break;
                     else
                        i = i + 1;
                     end
                  end
                  return sum;
               end;
            with
               await 10ms;
               ret = 0;
            end
            return ret;
        "#;
        let p = parse(src).unwrap();
        match &p.block.stmts[1].kind {
            StmtKind::Par { kind: ParKind::Or, arms } => match &arms[0].stmts[0].kind {
                StmtKind::Assign { rhs: AssignRhs::Async(body), .. } => {
                    assert_eq!(body.stmts.len(), 4);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_ring_demo_fragments() {
        // Note line `_Radio_send(1, &msg)` without a semicolon: semicolons
        // are separators in our implementation (paper listings omit them).
        let src = r#"
            input void Radio_receive;
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
        parse(src).unwrap();
    }

    #[test]
    fn parses_ship_game_fragments() {
        let src = r#"
            input int Key;
            int dt = 500, step = 0, points = 0, ship = 0, win = 0;
            par do
               loop do
                  await(dt*1000);
                  step = step + 1;
                  _redraw(step, ship, points);
                  if _MAP[ship][step] == '#' then
                     return 0;
                  end
                  if step == _FINISH then
                     return 1;
                  end
                  points = points + 1;
               end
            with
               loop do
                  int key = await Key;
                  if key == _KEY_UP then
                     ship = 0;
                  end
                  if key == _KEY_DOWN then
                     ship = 1;
                  end
               end
            end
        "#;
        let p = parse(src).unwrap();
        // ensure `await(dt*1000)` parsed as expression await
        let text = pretty(&p);
        assert!(text.contains("await ((dt * 1000))"), "{text}");
    }

    #[test]
    fn parses_mario_fragments() {
        let src = r#"
            input int Seed;
            input void Key, Step;
            internal void collision;
            int seed = await Seed;
            _srand(seed);
            int mario_x = 10;
            int mario_dx = 1, mario_dy = 0;
            int turtle_x = 600, turtle_dx = 0;
            par do
                loop do
                    await 50ms;
                    turtle_dx = -(_rand()%4-1);
                end
            with
                loop do
                    int v =
                        par do
                            await Key;
                            return 1;
                        with
                            await collision;
                            return 0;
                        end;
                    if v == 1 then
                        mario_dy = -2;
                    else
                        mario_dx = -4;
                    end
                end
            with
                loop do
                    await Step;
                    if !( mario_x+32<turtle_x || turtle_x+32<mario_x ) then
                        emit collision;
                    end
                end
            end
        "#;
        parse(src).unwrap();
    }

    #[test]
    fn parses_c_block_and_symbols() {
        let src = r#"
            C do
                #include <assert.h>
                int I = 0;
                int inc (int i) {
                    return I+i;
                }
            end
            return _assert(_inc(_I));
        "#;
        let p = parse(src).unwrap();
        match &p.block.stmts[0].kind {
            StmtKind::CBlock { code } => assert!(code.contains("#include <assert.h>")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_pure_and_deterministic() {
        let src = r#"
            pure _abs;
            deterministic _led1On, _led2On;
            deterministic _led1Off, _led2Off;
            nothing;
        "#;
        let p = parse(src).unwrap();
        match &p.block.stmts[1].kind {
            StmtKind::Deterministic { names } => {
                assert_eq!(names, &vec!["led1On".to_string(), "led2On".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_event_named_c() {
        let src = "input int A, B, C;\nawait C;";
        let p = parse(src).unwrap();
        match &p.block.stmts[0].kind {
            StmtKind::InputDecl { names, .. } => assert_eq!(names.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_emit_with_value_and_time() {
        let src = r#"
            input int Seed, Start;
            async do
                emit Seed = _time(0);
                emit Start = 10;
                emit 1h35min;
                emit 10ms;
            end
        "#;
        let p = parse(src).unwrap();
        match &p.block.stmts[1].kind {
            StmtKind::Async { body } => {
                assert_eq!(body.stmts.len(), 4);
                match &body.stmts[2].kind {
                    StmtKind::EmitTime { time } => {
                        assert_eq!(*time, TimeSpec::parse("1h35min").unwrap())
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_par_as_value() {
        let src = r#"
            int win = 0;
            win =
               par do
                  return 0;
               with
                  return 1;
               end;
        "#;
        let p = parse(src).unwrap();
        match &p.block.stmts[1].kind {
            StmtKind::Assign { rhs: AssignRhs::Par(ParKind::Par, arms), .. } => {
                assert_eq!(arms.len(), 2)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_field_access_and_cast() {
        let src = r#"
            _SDL_Event event;
            if _SDL_PollEvent(&event) then
                if event.type == _SDL_KEYDOWN then
                    nothing;
                end
            end
            int x = <int> _ptr->field;
        "#;
        parse(src).unwrap();
    }

    #[test]
    fn parses_sizeof() {
        let src = "int x = sizeof<int> + sizeof<_message_t>;";
        let p = parse(src).unwrap();
        match &p.block.stmts[0].kind {
            StmtKind::VarDecl { vars, .. } => {
                let init = vars[0].init.as_ref().unwrap();
                match init {
                    AssignRhs::Expr(e) => {
                        assert!(matches!(e.kind, ExprKind::Binop(..)));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_single_arm_par() {
        assert!(parse("par do nothing; end").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("loop do").is_err());
        assert!(parse("1 + 2;").is_err());
        assert!(parse("v = ;").is_err());
        assert!(parse("").is_err());
        assert!(parse("await;").is_err());
    }

    #[test]
    fn error_positions_are_meaningful() {
        let err = parse("nothing;\n   loop od").unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn pretty_roundtrip_paper_programs() {
        for src in [
            INTRO,
            "int tc, tf;\ninternal void tc_evt, tf_evt;\npar do\nloop do\nawait tc_evt;\ntf = 9 * tc / 5 + 32;\nemit tf_evt;\nend\nwith\nloop do\nawait tf_evt;\ntc = 5 * (tf-32) / 9;\nemit tc_evt;\nend\nwith\nnothing;\nend",
            "int v;\nawait 10ms;\nv = 1;\nawait 1ms;\nv = 2;",
            "par/or do\nawait 50ms;\nawait 49ms;\nwith\nawait 100ms;\nend",
        ] {
            let p1 = parse(src).unwrap();
            let text = pretty(&p1);
            let p2 = parse(&text).unwrap_or_else(|e| panic!("re-parse failed: {e}\n---\n{text}"));
            // spans differ between the two parses; compare the printed form,
            // which is span-free and canonical
            assert_eq!(text, pretty(&p2), "round-trip mismatch for:\n{text}");
        }
    }

    #[test]
    fn operator_precedence_shape() {
        let p = parse("int x = 1 + 2 * 3;").unwrap();
        let text = pretty(&p);
        assert!(text.contains("(1 + (2 * 3))"), "{text}");
    }

    #[test]
    fn unary_binds_tighter_than_binop() {
        let p = parse("int x = -1 + 2;").unwrap();
        let text = pretty(&p);
        assert!(text.contains("(-(1) + 2)"), "{text}");
    }
}
