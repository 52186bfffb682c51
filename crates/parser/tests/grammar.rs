//! Grammar conformance: every production of the Appendix-A grammar, the
//! documented deviations, and the diagnostics' source positions.

use ceu_ast::{pretty, AssignRhs, BinOp, ExprKind, StmtKind, UnOp};
use ceu_parser::parse;

fn parse_ok(src: &str) -> ceu_ast::Program {
    parse(src).unwrap_or_else(|e| panic!("{e}\n---\n{src}"))
}

#[test]
fn every_statement_production_parses() {
    // one giant program touching each Stmt alternative of the grammar
    let src = r#"
        nothing;
        input int A, B;
        input void C;
        output int Out;
        internal void tick;
        int x = 0, y;
        int[4] arr;
        _message_t* ptr;
        C do int g; end
        pure _abs;
        deterministic _f, _g;
        await A;
        await 10ms;
        await (x + 1);
        emit tick;
        emit Out = x;
        if x then
           nothing;
        else
           nothing;
        end
        loop do
           break;
        end
        par/and do
           await A;
        with
           await B;
        end
        _f(x, y);
        call _g(x);
        x = 1;
        y = await A;
        x = do
           return 1;
        end;
        y = async do
           return 2;
        end;
        do
           nothing;
        end
        suspend A do
           await C;
        end
        async do
           nothing;
        end
        par/or do
           await A;
        with
           await B;
        end
        par do
           await forever;
        with
           await forever;
        end
        return x;
    "#;
    let p = parse_ok(src);
    assert!(p.block.stmts.len() > 25);
}

#[test]
fn every_operator_parses_with_c_precedence() {
    let src = "int a, b, c;\na = b || c && b | c ^ b & c == b != c < b > c <= b >= c << b >> c + b - c * b / c % b;";
    let p = parse_ok(src);
    // the top-most operator must be || (lowest precedence)
    match &p.block.stmts[1].kind {
        StmtKind::Assign { rhs: AssignRhs::Expr(e), .. } => {
            assert!(matches!(e.kind, ExprKind::Binop(BinOp::Or, _, _)), "{e}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn unary_operators_nest() {
    let src = "int a, b;\na = !-+~b;\nb = *&a;";
    let p = parse_ok(src);
    match &p.block.stmts[1].kind {
        StmtKind::Assign { rhs: AssignRhs::Expr(e), .. } => match &e.kind {
            ExprKind::Unop(UnOp::Not, inner) => {
                assert!(matches!(inner.kind, ExprKind::Unop(UnOp::Neg, _)));
            }
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn postfix_chains_parse() {
    parse_ok("int v;\nv = _a.b.c(1)[2]->d;");
    parse_ok("int v;\nv = _MAP[0][1];");
    parse_ok("int v;\nv = _f()(1);");
}

#[test]
fn casts_and_sizeof() {
    let p = parse_ok("int v;\nv = <int> sizeof<_message_t> + <_u8*> v;");
    let text = pretty(&p);
    assert!(text.contains("sizeof<_message_t>") || text.contains("sizeof<message_t>"), "{text}");
}

#[test]
fn char_and_string_escapes() {
    let p = parse_ok("int v;\n_f(\"tab\\t nl\\n quote\\\" back\\\\\", '\\n', '\\'', '\\0');");
    let text = pretty(&p);
    assert!(text.contains("\\t"), "{text}");
}

#[test]
fn hex_and_large_numbers() {
    parse_ok("int v;\nv = 0xFF + 0x0 + 2147483647;");
}

#[test]
fn all_time_units_parse() {
    for t in ["1h", "2min", "3s", "4ms", "5us", "1h2min3s4ms5us", "90min"] {
        parse_ok(&format!("await {t};"));
    }
}

#[test]
fn comments_everywhere() {
    parse_ok("// leading\nint v; // trailing\n/* block */ await /* inline */ 1s; /* end */");
}

#[test]
fn error_spans_point_at_the_problem() {
    let cases = [("await ;", 1, 7), ("int v;\nv = ;", 2, 5), ("loop do\nawait 1s;\nod", 3, 1)];
    for (src, line, col) in cases {
        let err = parse(src).unwrap_err();
        assert_eq!((err.span.line, err.span.col), (line, col), "{src:?}: {err}");
    }
}

#[test]
fn deeply_nested_structures_do_not_overflow() {
    let mut src = String::new();
    for _ in 0..64 {
        src.push_str("do\n");
    }
    src.push_str("await 1s;\n");
    for _ in 0..64 {
        src.push_str("end\n");
    }
    parse_ok(&src);
}

#[test]
fn error_columns_count_characters() {
    // `é` is two bytes but one column: both lines put the `;` at column 19
    for comment in ["ééé", "eee"] {
        let e = parse(&format!("int x;\n/* {comment} */ x = 1 + ;")).unwrap_err();
        assert_eq!(e.to_string(), "parse error at 2:19: expected expression, found `;`");
    }
}

#[test]
fn long_expression_chains_parse() {
    let mut e = String::from("1");
    for i in 0..200 {
        e.push_str(&format!(" + {i}"));
    }
    parse_ok(&format!("int v;\nv = {e};"));
}

#[test]
fn keywords_are_reserved_for_variables() {
    for kw in ["loop", "par", "await", "emit", "end", "return", "suspend", "output"] {
        assert!(parse(&format!("int {kw};")).is_err(), "`{kw}` must be reserved");
    }
}

#[test]
fn c_event_identifier_still_works_in_all_positions() {
    // `C` is almost-a-keyword: a C block when followed by `do`, an event
    // name otherwise
    parse_ok("input void C;\nawait C;\npar/and do\n await C;\nwith\n await C;\nend");
    parse_ok("C do int x; end\ninput void C;\nawait C;");
}

#[test]
fn separator_semicolons_are_optional_and_repeatable() {
    parse_ok("int v;;;\nv = 1\nv = 2;;\nawait 1s\n;");
}

#[test]
fn empty_and_whitespace_only_inputs_fail() {
    assert!(parse("").is_err());
    assert!(parse("   \n\t  ").is_err());
    assert!(parse("// just a comment").is_err());
}

#[test]
fn async_value_and_statement_forms() {
    let p = parse_ok("int r;\nr = async do return 1; end;\nasync do nothing; end\nawait 1s;");
    let kinds: Vec<_> = p.block.stmts.iter().map(|s| &s.kind).collect();
    assert!(matches!(kinds[1], StmtKind::Assign { rhs: AssignRhs::Async(_), .. }));
    assert!(matches!(kinds[2], StmtKind::Async { .. }));
}

#[test]
fn emit_time_forms() {
    let p = parse_ok("async do\n emit 10ms;\n emit 1h35min;\nend\nawait 1s;");
    match &p.block.stmts[0].kind {
        StmtKind::Async { body } => {
            assert!(matches!(body.stmts[0].kind, StmtKind::EmitTime { .. }));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn dotted_annotation_names() {
    let p = parse_ok("deterministic _lcd.setCursor, _lcd.write, _analogRead;\nawait 1s;");
    match &p.block.stmts[0].kind {
        StmtKind::Deterministic { names } => {
            assert_eq!(names[0], "lcd.setCursor");
            assert_eq!(names[1], "lcd.write");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn negative_numbers_via_unary_minus() {
    // the grammar has no negative literals; `-` is unary
    let p = parse_ok("int v;\nv = -5;");
    match &p.block.stmts[1].kind {
        StmtKind::Assign { rhs: AssignRhs::Expr(e), .. } => {
            assert!(matches!(e.kind, ExprKind::Unop(UnOp::Neg, _)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn pointer_types_multi_star() {
    parse_ok("_message_t** handle;\nint** pp;\nawait 1s;");
}

#[test]
fn declarations_vs_expressions_disambiguate() {
    // `int[10] keys` is a declaration; `keys[idx] = v` is an assignment
    let p = parse_ok("int[10] keys;\nint idx, v;\nkeys[idx] = v;\nawait 1s;");
    assert!(matches!(p.block.stmts[0].kind, StmtKind::VarDecl { .. }));
    assert!(matches!(p.block.stmts[2].kind, StmtKind::Assign { .. }));
}
