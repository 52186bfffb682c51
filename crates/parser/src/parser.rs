//! Recursive-descent parser for the Appendix-A grammar.
//!
//! Deviations from the grammar as printed, needed to parse the paper's own
//! listings verbatim:
//!
//! * Semicolons are *separators* and optional (several listings omit them
//!   after `end` and even after calls, e.g. ring demo line 35).
//! * `emit TIME` and `await (Exp)` accept any expression, matching the
//!   ship-game's `await(dt*1000)`.
//! * `%` (modulo) is accepted although missing from the printed BINOP list
//!   (the listings use it, e.g. `(_TOS_NODE_ID+1)%3`).

use crate::error::{ParseError, Result};
use crate::lexer::{unescape, Lexer, Tok, Token};
use ceu_ast::{
    AssignRhs, BinOp, Block, Expr, ExprKind, ParKind, Program, Span, Stmt, StmtKind, Type, UnOp,
    VarDef,
};
use std::collections::VecDeque;

/// Words that can never be identifiers (note: `C` is context-dependent and
/// handled separately, since the paper itself declares an *event* named `C`).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "nothing"
            | "input"
            | "internal"
            | "output"
            | "pure"
            | "deterministic"
            | "await"
            | "emit"
            | "if"
            | "then"
            | "else"
            | "loop"
            | "break"
            | "par"
            | "call"
            | "return"
            | "do"
            | "async"
            | "end"
            | "with"
            | "forever"
            | "null"
            | "sizeof"
            | "suspend"
    )
}

/// The deepest nesting the parser accepts, counted as AST depth: a block
/// and each statement in it are a level each (so a nested `do … end` or
/// `if … end` is two), and so are every prefix operator, parenthesis, cast
/// and postfix operator, and every operator of a binary chain (`1+1+…+1`
/// is as deep as it is long). Every later phase recurses over the tree, so
/// a deeper source is refused here with a spanned error instead of
/// overflowing the stack of whichever phase recurses deepest. At this
/// limit every shape still compiles, emits and runs on a default 2 MiB
/// thread in an unoptimized build (`tests/nesting.rs`).
pub const MAX_NESTING: u32 = 256;

/// Which declaration keyword introduced an event.
#[derive(Clone, Copy)]
enum EventDir {
    Input,
    Internal,
    Output,
}

pub struct Parser<'a> {
    lexer: Lexer<'a>,
    buf: VecDeque<Token<'a>>,
    /// Current nesting, against [`MAX_NESTING`].
    depth: u32,
}

impl<'a> Parser<'a> {
    pub fn new(src: &'a str) -> Self {
        Parser { lexer: Lexer::new(src), buf: VecDeque::new(), depth: 0 }
    }

    /// Parses a whole program. Statements are *not* numbered; callers use
    /// [`ceu_ast::number`] (the `ceu` facade does this for you).
    pub fn parse_program(&mut self) -> Result<Program> {
        let block = self.parse_block()?;
        let t = self.peek(0)?;
        if t.tok != Tok::Eof {
            return Err(ParseError::new(t.span, format!("expected end of input, found {}", t.tok)));
        }
        if block.stmts.is_empty() {
            return Err(ParseError::new(Span::new(1, 1), "empty program"));
        }
        Ok(Program { block })
    }

    // ---- token plumbing ----------------------------------------------------

    fn peek(&mut self, k: usize) -> Result<Token<'a>> {
        while self.buf.len() <= k {
            let t = self.lexer.next_token()?;
            self.buf.push_back(t);
        }
        Ok(self.buf[k])
    }

    fn next(&mut self) -> Result<Token<'a>> {
        self.peek(0)?;
        Ok(self.buf.pop_front().unwrap())
    }

    /// Enters one nesting level at `span`; over [`MAX_NESTING`] this is
    /// the parse error. Callers restore `self.depth` when they leave.
    fn descend(&mut self, span: Span) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(ParseError::new(
                span,
                format!(
                    "nesting deeper than {MAX_NESTING} levels (blocks, parentheses and operators)"
                ),
            ));
        }
        Ok(())
    }

    fn at_kw(&mut self, kw: &str) -> Result<bool> {
        Ok(matches!(self.peek(0)?.tok, Tok::Ident(s) if s == kw))
    }

    fn eat_kw(&mut self, kw: &str) -> Result<bool> {
        if self.at_kw(kw)? {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<Span> {
        let t = self.next()?;
        match t.tok {
            Tok::Ident(s) if s == kw => Ok(t.span),
            other => Err(ParseError::new(t.span, format!("expected `{kw}`, found {other}"))),
        }
    }

    fn expect(&mut self, tok: Tok<'_>) -> Result<Span> {
        let t = self.next()?;
        if t.tok == tok {
            Ok(t.span)
        } else {
            Err(ParseError::new(t.span, format!("expected {tok}, found {}", t.tok)))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, Span)> {
        let t = self.next()?;
        match t.tok {
            Tok::Ident(s) if !is_keyword(s) => Ok((s.to_string(), t.span)),
            other => Err(ParseError::new(t.span, format!("expected {what}, found {other}"))),
        }
    }

    // ---- blocks & statements ----------------------------------------------
    //
    // Functions on the recursion path (`parse_block`, `parse_stmt`, the
    // compound statements, and the expression chain `parse_binop` →
    // `parse_unary` → `parse_postfix` → `parse_primary`) keep their frames
    // small, with their leaf cases in separate functions: an unoptimized
    // build gives every temporary of a function its own stack slot, and
    // these frames stack up once per nesting level.

    /// Parses statements until `end` / `with` / `else` / EOF (not consumed).
    fn parse_block(&mut self) -> Result<Block> {
        let outer = self.depth;
        let span = self.peek(0)?.span;
        // the block and each statement in it are one level each
        self.depth += 1;
        self.descend(span)?;
        let mut stmts = Vec::new();
        while self.at_stmt()? {
            stmts.push(self.parse_stmt()?);
        }
        self.depth = outer;
        Ok(Block::new(stmts))
    }

    /// Eats separator semicolons; `false` at `end` / `with` / `else` / EOF.
    fn at_stmt(&mut self) -> Result<bool> {
        while self.peek(0)?.tok == Tok::Semi {
            self.next()?;
        }
        Ok(!matches!(self.peek(0)?.tok, Tok::Eof | Tok::Ident("end" | "with" | "else")))
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        match self.peek(0)?.tok {
            Tok::Ident("input") => self.parse_event_decl(EventDir::Input),
            Tok::Ident("internal") => self.parse_event_decl(EventDir::Internal),
            Tok::Ident("output") => self.parse_event_decl(EventDir::Output),
            Tok::Ident("emit") => self.parse_emit(),
            Tok::Ident("if") => self.parse_if(),
            Tok::Ident("par") => self.parse_par_stmt(),
            Tok::Ident(kw @ ("loop" | "do" | "suspend" | "async")) => self.parse_block_stmt(kw),
            Tok::Ident(
                kw @ ("nothing" | "pure" | "deterministic" | "await" | "break" | "call" | "return"
                | "C"),
            ) => self.parse_simple_stmt(kw),
            _ => self.parse_decl_or_expr_stmt(),
        }
    }

    /// The statements that hold no block.
    fn parse_simple_stmt(&mut self, kw: &str) -> Result<Stmt> {
        if kw == "C" && self.peek(1)?.tok != Tok::Ident("do") {
            // `C` is an event name unless it opens a C block
            return self.parse_decl_or_expr_stmt();
        }
        let span = self.next()?.span;
        let kind = match kw {
            "nothing" => StmtKind::Nothing,
            "pure" => StmtKind::Pure { names: self.parse_csym_list()? },
            "deterministic" => StmtKind::Deterministic { names: self.parse_csym_list()? },
            "await" => self.parse_await_tail()?,
            "break" => StmtKind::Break,
            "call" => StmtKind::Call { expr: self.parse_expr()? },
            "return" => {
                let value = if self.stmt_boundary()? { None } else { Some(self.parse_expr()?) };
                StmtKind::Return { value }
            }
            _ => {
                self.next()?; // do
                StmtKind::CBlock { code: self.lexer.capture_c_block()?.to_string() }
            }
        };
        Ok(Stmt::new(kind, span))
    }

    /// `loop do … end`, `do … end`, `suspend E do … end`, `async do … end`.
    fn parse_block_stmt(&mut self, kw: &str) -> Result<Stmt> {
        let span = self.peek(0)?.span;
        if kw != "do" {
            self.next()?;
        }
        let event = if kw == "suspend" { Some(self.expect_ident("guard event")?.0) } else { None };
        let body = self.parse_body()?;
        let kind = match (kw, event) {
            ("loop", _) => StmtKind::Loop { body },
            ("async", _) => StmtKind::Async { body },
            (_, Some(event)) => StmtKind::Suspend { event, body },
            _ => StmtKind::DoBlock { body },
        };
        Ok(Stmt::new(kind, span))
    }

    /// `do … end`.
    fn parse_body(&mut self) -> Result<Block> {
        self.expect_kw("do")?;
        let body = self.parse_block()?;
        self.expect_kw("end")?;
        Ok(body)
    }

    /// `true` when the next token cannot start an expression (used to decide
    /// whether `return` carries a value, given optional semicolons).
    fn stmt_boundary(&mut self) -> Result<bool> {
        Ok(match self.peek(0)?.tok {
            Tok::Semi | Tok::Eof => true,
            Tok::Ident(s) => is_keyword(s),
            _ => false,
        })
    }

    fn parse_event_decl(&mut self, dir: EventDir) -> Result<Stmt> {
        let span = self.next()?.span; // input | internal | output
        let ty = self.parse_type()?;
        let mut names = Vec::new();
        loop {
            let t = self.next()?;
            match t.tok {
                // `C` is a keyword-ish identifier but a legal event name
                // (`input int A, B, C;` in the paper).
                Tok::Ident(s) if !is_keyword(s) => names.push(s.to_string()),
                other => {
                    return Err(ParseError::new(
                        t.span,
                        format!("expected event name, found {other}"),
                    ))
                }
            }
            if self.peek(0)?.tok == Tok::Comma {
                self.next()?;
            } else {
                break;
            }
        }
        let kind = match dir {
            EventDir::Input => StmtKind::InputDecl { ty, names },
            EventDir::Internal => StmtKind::InternalDecl { ty, names },
            EventDir::Output => StmtKind::OutputDecl { ty, names },
        };
        Ok(Stmt::new(kind, span))
    }

    fn parse_csym_list(&mut self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        loop {
            let t = self.next()?;
            match t.tok {
                Tok::CSym(s) => {
                    let mut s = s.to_string();
                    // method-style names: `_lcd.setCursor` → "lcd.setCursor"
                    while self.peek(0)?.tok == Tok::Dot {
                        self.next()?;
                        let f = self.next()?;
                        match f.tok {
                            Tok::Ident(part) | Tok::CSym(part) => {
                                s.push('.');
                                s.push_str(part);
                            }
                            other => {
                                return Err(ParseError::new(
                                    f.span,
                                    format!("expected method name after `.`, found {other}"),
                                ))
                            }
                        }
                    }
                    names.push(s);
                }
                other => {
                    return Err(ParseError::new(
                        t.span,
                        format!("expected C symbol (`_name`), found {other}"),
                    ))
                }
            }
            if self.peek(0)?.tok == Tok::Comma {
                self.next()?;
            } else {
                break;
            }
        }
        Ok(names)
    }

    /// Everything after the `await` keyword; shared by statement- and
    /// value-position awaits.
    fn parse_await_tail(&mut self) -> Result<StmtKind> {
        let t = self.peek(0)?;
        match t.tok {
            Tok::Time(time) => {
                self.next()?;
                Ok(StmtKind::AwaitTime { time })
            }
            Tok::LParen => {
                self.next()?;
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(StmtKind::AwaitExpr { us: e })
            }
            Tok::Ident("forever") => {
                self.next()?;
                Ok(StmtKind::AwaitForever)
            }
            Tok::Ident(name) if !is_keyword(name) => {
                self.next()?;
                Ok(StmtKind::AwaitEvt { name: name.to_string() })
            }
            other => Err(ParseError::new(
                t.span,
                format!("expected event, time, or `forever` after `await`, found {other}"),
            )),
        }
    }

    fn parse_emit(&mut self) -> Result<Stmt> {
        let span = self.next()?.span; // emit
        let t = self.peek(0)?;
        match t.tok {
            Tok::Time(time) => {
                self.next()?;
                Ok(Stmt::new(StmtKind::EmitTime { time }, span))
            }
            Tok::Ident(name) if !is_keyword(name) => {
                let name = name.to_string();
                self.next()?;
                let value = if self.peek(0)?.tok == Tok::Assign {
                    self.next()?;
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                Ok(Stmt::new(StmtKind::EmitEvt { name, value }, span))
            }
            other => Err(ParseError::new(
                t.span,
                format!("expected event or time after `emit`, found {other}"),
            )),
        }
    }

    fn parse_if(&mut self) -> Result<Stmt> {
        let span = self.next()?.span; // if
        let cond = self.parse_expr()?;
        self.expect_kw("then")?;
        let then_blk = self.parse_block()?;
        let else_blk = if self.eat_kw("else")? { Some(self.parse_block()?) } else { None };
        self.expect_kw("end")?;
        Ok(Stmt::new(StmtKind::If { cond, then_blk, else_blk }, span))
    }

    fn parse_par_stmt(&mut self) -> Result<Stmt> {
        let span = self.peek(0)?.span;
        let (kind, arms) = self.parse_par()?;
        Ok(Stmt::new(StmtKind::Par { kind, arms }, span))
    }

    fn parse_par(&mut self) -> Result<(ParKind, Vec<Block>)> {
        let kind = self.parse_par_kind()?;
        self.expect_kw("do")?;
        let mut arms = vec![self.parse_block()?];
        while self.eat_kw("with")? {
            arms.push(self.parse_block()?);
        }
        let end = self.expect_kw("end")?;
        if arms.len() < 2 {
            return Err(ParseError::new(
                end,
                "parallel statement needs at least two arms (`with`)",
            ));
        }
        Ok((kind, arms))
    }

    /// `par`, `par/or` or `par/and`.
    fn parse_par_kind(&mut self) -> Result<ParKind> {
        self.expect_kw("par")?;
        if self.peek(0)?.tok != Tok::Slash {
            return Ok(ParKind::Par);
        }
        self.next()?;
        let t = self.next()?;
        match t.tok {
            Tok::Ident("or") => Ok(ParKind::Or),
            Tok::Ident("and") => Ok(ParKind::And),
            Tok::Ident(other) => Err(ParseError::new(
                t.span,
                format!("expected `or` or `and` after `par/`, found `{other}`"),
            )),
            _ => Err(ParseError::new(t.span, "expected `or` or `and` after `par/`")),
        }
    }

    /// Declaration (`int v = 0;`, `_message_t* msg;`, `int[10] keys;`) or an
    /// expression statement (call / assignment).
    fn parse_decl_or_expr_stmt(&mut self) -> Result<Stmt> {
        if self.looks_like_decl()? {
            return self.parse_var_decl();
        }
        let span = self.peek(0)?.span;
        let lhs = self.parse_expr()?;
        if self.peek(0)?.tok == Tok::Assign {
            self.next()?;
            let rhs = self.parse_set_exp()?;
            return Ok(Stmt::new(StmtKind::Assign { lhs, rhs }, span));
        }
        match lhs.kind {
            ExprKind::Call(..) => Ok(Stmt::new(StmtKind::Call { expr: lhs }, span)),
            _ => Err(ParseError::new(span, "expression statement must be a call or assignment")),
        }
    }

    /// Lookahead test for variable declarations.
    fn looks_like_decl(&mut self) -> Result<bool> {
        // first token must be a plain identifier or C symbol (a type name)
        match self.peek(0)?.tok {
            Tok::Ident(s) if !is_keyword(s) => {}
            Tok::CSym(_) => {}
            _ => return Ok(false),
        }
        // skip pointer stars
        let mut k = 1;
        while self.peek(k)?.tok == Tok::Star {
            k += 1;
        }
        match self.peek(k)?.tok {
            // `int v`, `_message_t* msg`
            Tok::Ident(s) if !is_keyword(s) => Ok(true),
            // `int[10] keys` — distinguish from `keys[idx] = …` by requiring
            // NUM ] IDENT right after the bracket.
            Tok::LBrack if k == 1 => Ok(matches!(self.peek(2)?.tok, Tok::Num(_))
                && self.peek(3)?.tok == Tok::RBrack
                && matches!(self.peek(4)?.tok, Tok::Ident(s) if !is_keyword(s))),
            _ => Ok(false),
        }
    }

    fn parse_type(&mut self) -> Result<Type> {
        let t = self.next()?;
        let name = match t.tok {
            Tok::Ident(s) if !is_keyword(s) => s.to_string(),
            Tok::CSym(s) => s.to_string(),
            other => {
                return Err(ParseError::new(t.span, format!("expected type name, found {other}")))
            }
        };
        let mut ptr = 0u8;
        while self.peek(0)?.tok == Tok::Star {
            self.next()?;
            ptr += 1;
        }
        Ok(Type::new(name, ptr))
    }

    fn parse_var_decl(&mut self) -> Result<Stmt> {
        let span = self.peek(0)?.span;
        let mut ty = self.parse_type()?;
        // optional array length, shared by all declarators on this line
        let array = if self.peek(0)?.tok == Tok::LBrack {
            self.next()?;
            let t = self.next()?;
            let n = match t.tok {
                Tok::Num(n) if n > 0 => n as u32,
                _ => return Err(ParseError::new(t.span, "expected positive array length")),
            };
            self.expect(Tok::RBrack)?;
            Some(n)
        } else {
            None
        };
        // `_message_t* msg`: pointer stars were consumed by parse_type
        let _ = &mut ty;
        let mut vars = Vec::new();
        loop {
            let (name, _) = self.expect_ident("variable name")?;
            let init = if self.peek(0)?.tok == Tok::Assign {
                self.next()?;
                Some(self.parse_set_exp()?)
            } else {
                None
            };
            vars.push(VarDef { name, array, init });
            if self.peek(0)?.tok == Tok::Comma {
                self.next()?;
            } else {
                break;
            }
        }
        Ok(Stmt::new(StmtKind::VarDecl { ty, vars }, span))
    }

    /// `SetExp ::= Exp | await… | par…/do/async block`
    fn parse_set_exp(&mut self) -> Result<AssignRhs> {
        let t = self.peek(0)?;
        if let Tok::Ident(kw) = t.tok {
            match kw {
                "await" => {
                    self.next()?;
                    return Ok(match self.parse_await_tail()? {
                        StmtKind::AwaitEvt { name } => AssignRhs::AwaitEvt(name),
                        StmtKind::AwaitTime { time } => AssignRhs::AwaitTime(time),
                        StmtKind::AwaitExpr { us } => AssignRhs::AwaitExpr(us),
                        StmtKind::AwaitForever => {
                            return Err(ParseError::new(
                                t.span,
                                "`await forever` yields no value and cannot be assigned",
                            ))
                        }
                        _ => unreachable!(),
                    });
                }
                "par" => {
                    let (kind, arms) = self.parse_par()?;
                    return Ok(AssignRhs::Par(kind, arms));
                }
                "do" => return Ok(AssignRhs::Do(self.parse_body()?)),
                "async" => {
                    self.next()?;
                    return Ok(AssignRhs::Async(self.parse_body()?));
                }
                _ => {}
            }
        }
        Ok(AssignRhs::Expr(self.parse_expr()?))
    }

    // ---- expressions --------------------------------------------------------

    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_binop(1)
    }

    fn parse_binop(&mut self, min_prec: u8) -> Result<Expr> {
        let outer = self.depth;
        let mut lhs = self.parse_unary()?;
        while let Some(op) = self.peek_binop(min_prec)? {
            // each operator of a chain deepens the left spine
            let at = self.next()?.span;
            self.descend(at)?;
            let rhs = self.parse_binop(op.precedence() + 1)?;
            let span = lhs.span;
            lhs = Expr::new(ExprKind::Binop(op, Box::new(lhs), Box::new(rhs)), span);
        }
        self.depth = outer;
        Ok(lhs)
    }

    /// The binary operator ahead, if it binds at least as tight as
    /// `min_prec`.
    fn peek_binop(&mut self, min_prec: u8) -> Result<Option<BinOp>> {
        let op = match self.peek(0)?.tok {
            Tok::OrOr => BinOp::Or,
            Tok::AndAnd => BinOp::And,
            Tok::Pipe => BinOp::BitOr,
            Tok::Caret => BinOp::BitXor,
            Tok::Amp => BinOp::BitAnd,
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Le => BinOp::Le,
            Tok::Ge => BinOp::Ge,
            Tok::Lt => BinOp::Lt,
            Tok::Gt => BinOp::Gt,
            Tok::Shl => BinOp::Shl,
            Tok::Shr => BinOp::Shr,
            Tok::Plus => BinOp::Add,
            Tok::Minus => BinOp::Sub,
            Tok::Star => BinOp::Mul,
            Tok::Slash => BinOp::Div,
            Tok::Percent => BinOp::Mod,
            _ => return Ok(None),
        };
        Ok((op.precedence() >= min_prec).then_some(op))
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        let t = self.peek(0)?;
        let op = match t.tok {
            Tok::Bang => UnOp::Not,
            Tok::Amp => UnOp::Addr,
            Tok::Minus => UnOp::Neg,
            Tok::Plus => UnOp::Plus,
            Tok::Tilde => UnOp::BitNot,
            Tok::Star => UnOp::Deref,
            _ => return self.parse_postfix(),
        };
        self.next()?;
        self.descend(t.span)?;
        let inner = self.parse_unary()?;
        self.depth -= 1;
        Ok(Expr::new(ExprKind::Unop(op, Box::new(inner)), t.span))
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let outer = self.depth;
        let mut e = self.parse_primary()?;
        loop {
            let t = self.peek(0)?;
            if !matches!(t.tok, Tok::LBrack | Tok::LParen | Tok::Dot | Tok::Arrow) {
                break;
            }
            // each postfix operator deepens the tree like a binary one
            self.descend(t.span)?;
            e = self.parse_postfix_op(e)?;
        }
        self.depth = outer;
        Ok(e)
    }

    /// One `[idx]`, `(args)`, `.f` or `->f` applied to `e`.
    fn parse_postfix_op(&mut self, e: Expr) -> Result<Expr> {
        let span = e.span;
        let kind = match self.next()?.tok {
            Tok::LBrack => {
                let idx = self.parse_expr()?;
                self.expect(Tok::RBrack)?;
                ExprKind::Index(Box::new(e), Box::new(idx))
            }
            Tok::LParen => ExprKind::Call(Box::new(e), self.parse_args()?),
            arrow => ExprKind::Field(Box::new(e), self.parse_field_name()?, arrow == Tok::Arrow),
        };
        Ok(Expr::new(kind, span))
    }

    /// Call arguments, after the `(`.
    fn parse_args(&mut self) -> Result<Vec<Expr>> {
        let mut args = Vec::new();
        if self.peek(0)?.tok != Tok::RParen {
            loop {
                args.push(self.parse_expr()?);
                if self.peek(0)?.tok == Tok::Comma {
                    self.next()?;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(args)
    }

    fn parse_field_name(&mut self) -> Result<String> {
        let t = self.next()?;
        match t.tok {
            Tok::Ident(s) | Tok::CSym(s) => Ok(s.to_string()),
            other => Err(ParseError::new(t.span, format!("expected field name, found {other}"))),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let t = self.next()?;
        match t.tok {
            Tok::LParen => {
                self.descend(t.span)?;
                let e = self.parse_expr()?;
                self.depth -= 1;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            // `<type> e` — cast
            Tok::Lt => {
                let ty = self.parse_type()?;
                self.expect(Tok::Gt)?;
                self.descend(t.span)?;
                let e = self.parse_unary()?;
                self.depth -= 1;
                Ok(Expr::new(ExprKind::Cast(ty, Box::new(e)), t.span))
            }
            _ => self.parse_atom(t),
        }
    }

    /// A primary expression that nests nothing.
    fn parse_atom(&mut self, t: Token<'a>) -> Result<Expr> {
        let span = t.span;
        Ok(match t.tok {
            Tok::Num(n) => Expr::num(n, span),
            Tok::Str(s) => Expr::new(ExprKind::Str(unescape(s)), span),
            Tok::Chr(c) => Expr::new(ExprKind::Chr(c), span),
            Tok::CSym(s) => Expr::csym(s, span),
            Tok::Ident("null") => Expr::new(ExprKind::Null, span),
            Tok::Ident("sizeof") => {
                self.expect(Tok::Lt)?;
                let ty = self.parse_type()?;
                self.expect(Tok::Gt)?;
                Expr::new(ExprKind::SizeOf(ty), span)
            }
            Tok::Ident(kw) if is_keyword(kw) => {
                return Err(ParseError::new(
                    span,
                    format!("keyword `{kw}` cannot start an expression"),
                ))
            }
            Tok::Ident(s) => Expr::var(s, span),
            other => {
                return Err(ParseError::new(span, format!("expected expression, found {other}")))
            }
        })
    }
}
