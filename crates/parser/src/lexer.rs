//! Hand-written lexer for Céu.
//!
//! Notable lexical features:
//!
//! * **Time literals** — a number immediately followed by a time unit forms
//!   a compound literal (`1h35min`, `500ms`), canonicalised to µs.
//! * **C symbols** — identifiers starting with `_` reference the C world;
//!   the leading underscore is stripped (the paper repasses the rest to the
//!   C compiler as-is).
//! * **Raw C capture** — the parser switches the lexer into raw mode for
//!   `C do … end` blocks; the capture balances nested `do`/`end` words and
//!   skips strings, chars and comments.
//!
//! Tokens borrow their text from the source, so lexing allocates nothing:
//! the parser copies a name out only where the AST keeps one, and applies
//! a string literal's escapes ([`unescape`]) when it builds the literal.
//! Columns count characters, not bytes.

use crate::error::{ParseError, Result};
use ceu_ast::{Span, TimeSpec};
use std::fmt;

/// Lexical token kinds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tok<'a> {
    /// Identifier (any of the grammar's ID classes, keywords included,
    /// except C symbols).
    Ident(&'a str),
    /// C symbol: `_name`, stored without the underscore.
    CSym(&'a str),
    /// Integer literal.
    Num(i64),
    /// Wall-clock time literal, canonicalised to µs.
    Time(TimeSpec),
    /// String literal: the source text between the quotes, its escapes
    /// checked but not applied (see [`unescape`]).
    Str(&'a str),
    /// Character literal.
    Chr(char),
    // punctuation & operators
    Semi,
    Comma,
    LParen,
    RParen,
    LBrack,
    RBrack,
    Assign,
    OrOr,
    AndAnd,
    Pipe,
    Caret,
    Amp,
    Eq,
    Ne,
    Le,
    Ge,
    Lt,
    Gt,
    Shl,
    Shr,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Bang,
    Tilde,
    Dot,
    Arrow,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::CSym(s) => write!(f, "`_{s}`"),
            Tok::Num(n) => write!(f, "number {n}"),
            Tok::Time(t) => write!(f, "time {t}"),
            Tok::Str(_) => write!(f, "string literal"),
            Tok::Chr(c) => write!(f, "char '{c}'"),
            Tok::Eof => write!(f, "end of input"),
            other => write!(f, "`{}`", symbol_of(other)),
        }
    }
}

fn symbol_of(t: &Tok<'_>) -> &'static str {
    match t {
        Tok::Semi => ";",
        Tok::Comma => ",",
        Tok::LParen => "(",
        Tok::RParen => ")",
        Tok::LBrack => "[",
        Tok::RBrack => "]",
        Tok::Assign => "=",
        Tok::OrOr => "||",
        Tok::AndAnd => "&&",
        Tok::Pipe => "|",
        Tok::Caret => "^",
        Tok::Amp => "&",
        Tok::Eq => "==",
        Tok::Ne => "!=",
        Tok::Le => "<=",
        Tok::Ge => ">=",
        Tok::Lt => "<",
        Tok::Gt => ">",
        Tok::Shl => "<<",
        Tok::Shr => ">>",
        Tok::Plus => "+",
        Tok::Minus => "-",
        Tok::Star => "*",
        Tok::Slash => "/",
        Tok::Percent => "%",
        Tok::Bang => "!",
        Tok::Tilde => "~",
        Tok::Dot => ".",
        Tok::Arrow => "->",
        _ => "?",
    }
}

/// A token plus its source position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Token<'a> {
    pub tok: Tok<'a>,
    pub span: Span,
}

/// The lexer: a cursor over the source bytes.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer { src: src.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            // a UTF-8 continuation byte belongs to the character before it
            self.col += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek_byte() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek_byte() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek_byte() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(ParseError::new(start, "unterminated block comment"))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lexes the next token.
    pub fn next_token(&mut self) -> Result<Token<'a>> {
        self.skip_trivia()?;
        let span = self.span();
        let Some(b) = self.peek_byte() else {
            return Ok(Token { tok: Tok::Eof, span });
        };
        let tok = match b {
            b'0'..=b'9' => return self.lex_number(span),
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => return self.lex_ident(span),
            b'"' => return self.lex_string(span),
            b'\'' => return self.lex_char(span),
            b';' => self.one(Tok::Semi),
            b',' => self.one(Tok::Comma),
            b'(' => self.one(Tok::LParen),
            b')' => self.one(Tok::RParen),
            b'[' => self.one(Tok::LBrack),
            b']' => self.one(Tok::RBrack),
            b'=' => self.one_or_two(b'=', Tok::Eq, Tok::Assign),
            b'|' => self.one_or_two(b'|', Tok::OrOr, Tok::Pipe),
            b'&' => self.one_or_two(b'&', Tok::AndAnd, Tok::Amp),
            b'^' => self.one(Tok::Caret),
            b'!' => self.one_or_two(b'=', Tok::Ne, Tok::Bang),
            b'<' => {
                self.bump();
                match self.peek_byte() {
                    Some(b'=') => {
                        self.bump();
                        Tok::Le
                    }
                    Some(b'<') => {
                        self.bump();
                        Tok::Shl
                    }
                    _ => Tok::Lt,
                }
            }
            b'>' => {
                self.bump();
                match self.peek_byte() {
                    Some(b'=') => {
                        self.bump();
                        Tok::Ge
                    }
                    Some(b'>') => {
                        self.bump();
                        Tok::Shr
                    }
                    _ => Tok::Gt,
                }
            }
            b'+' => self.one(Tok::Plus),
            b'-' => self.one_or_two(b'>', Tok::Arrow, Tok::Minus),
            b'*' => self.one(Tok::Star),
            b'/' => self.one(Tok::Slash),
            b'%' => self.one(Tok::Percent),
            b'~' => self.one(Tok::Tilde),
            b'.' => self.one(Tok::Dot),
            other => {
                return Err(ParseError::new(
                    span,
                    format!("unexpected character `{}`", other as char),
                ))
            }
        };
        Ok(Token { tok, span })
    }

    fn one(&mut self, tok: Tok<'a>) -> Tok<'a> {
        self.bump();
        tok
    }

    fn one_or_two(&mut self, second: u8, two: Tok<'a>, one: Tok<'a>) -> Tok<'a> {
        self.bump();
        if self.peek_byte() == Some(second) {
            self.bump();
            two
        } else {
            one
        }
    }

    fn lex_number(&mut self, span: Span) -> Result<Token<'a>> {
        let start = self.pos;
        if self.peek_byte() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let hex_start = self.pos;
            while matches!(self.peek_byte(), Some(b) if b.is_ascii_hexdigit()) {
                self.bump();
            }
            if self.pos == hex_start {
                return Err(ParseError::new(span, "expected hex digits after `0x`"));
            }
            let text = std::str::from_utf8(&self.src[hex_start..self.pos]).unwrap();
            let n = i64::from_str_radix(text, 16)
                .map_err(|_| ParseError::new(span, "hex literal out of range"))?;
            return Ok(Token { tok: Tok::Num(n), span });
        }
        while matches!(self.peek_byte(), Some(b) if b.is_ascii_digit()) {
            self.bump();
        }
        // A trailing letter turns the literal into a wall-clock time:
        // consume the full [0-9a-z]* tail and let TimeSpec validate it.
        if matches!(self.peek_byte(), Some(b) if b.is_ascii_alphabetic()) {
            while matches!(self.peek_byte(), Some(b) if b.is_ascii_alphanumeric()) {
                self.bump();
            }
            let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
            let time = TimeSpec::parse(text)
                .ok_or_else(|| ParseError::new(span, format!("malformed time literal `{text}`")))?;
            return Ok(Token { tok: Tok::Time(time), span });
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        let n: i64 =
            text.parse().map_err(|_| ParseError::new(span, "integer literal out of range"))?;
        Ok(Token { tok: Tok::Num(n), span })
    }

    fn lex_ident(&mut self, span: Span) -> Result<Token<'a>> {
        let is_csym = self.peek_byte() == Some(b'_');
        if is_csym {
            self.bump();
        }
        let start = self.pos;
        while matches!(self.peek_byte(), Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
            self.bump();
        }
        let text = self.text(start, self.pos);
        if text.is_empty() {
            return Err(ParseError::new(span, "lone `_` is not a valid identifier"));
        }
        Ok(Token { tok: if is_csym { Tok::CSym(text) } else { Tok::Ident(text) }, span })
    }

    fn lex_string(&mut self, span: Span) -> Result<Token<'a>> {
        self.bump(); // opening quote
        let start = self.pos;
        loop {
            match self.peek_byte() {
                Some(b'"') => break,
                Some(b'\\') => {
                    self.bump();
                    self.escape(span)?;
                }
                Some(_) => {
                    self.bump();
                }
                None => return Err(ParseError::new(span, "unterminated string literal")),
            }
        }
        let raw = self.text(start, self.pos);
        self.bump(); // closing quote
        Ok(Token { tok: Tok::Str(raw), span })
    }

    /// The source text between two byte offsets. Tokens start and end
    /// next to ASCII bytes, so both are character boundaries.
    fn text(&self, start: usize, end: usize) -> &'a str {
        let src: &'a [u8] = self.src;
        std::str::from_utf8(&src[start..end]).expect("token boundaries are character boundaries")
    }

    fn lex_char(&mut self, span: Span) -> Result<Token<'a>> {
        self.bump(); // opening quote
        let c = match self.bump() {
            Some(b'\\') => self.escape(span)?,
            Some(b) => b as char,
            None => return Err(ParseError::new(span, "unterminated char literal")),
        };
        if self.bump() != Some(b'\'') {
            return Err(ParseError::new(span, "char literal must contain one character"));
        }
        Ok(Token { tok: Tok::Chr(c), span })
    }

    /// Consumes the character after a backslash and returns what the
    /// escape stands for.
    fn escape(&mut self, span: Span) -> Result<char> {
        match self.bump() {
            Some(b) => escaped(b)
                .ok_or_else(|| ParseError::new(span, format!("unknown escape `\\{}`", b as char))),
            None => Err(ParseError::new(span, "unterminated escape")),
        }
    }

    /// Raw-captures the body of a `C do … end` block.
    ///
    /// Must be called with the cursor just past the `do` token. Consumes up
    /// to and including the first bare `end` word, skipping strings, chars,
    /// and comments inside the C code. (`do`-words are *not* counted, so C
    /// `do/while` loops are fine; the only restriction is that the C code
    /// must not contain a bare identifier `end` — same pragmatic rule as
    /// the reference implementation, which does not parse its C blocks.)
    pub fn capture_c_block(&mut self) -> Result<&'a str> {
        let start_span = self.span();
        let start = self.pos;
        loop {
            self.skip_c_noise(start_span)?;
            let Some(b) = self.peek_byte() else {
                return Err(ParseError::new(start_span, "unterminated `C do … end` block"));
            };
            if b.is_ascii_alphabetic() || b == b'_' {
                let word_start = self.pos;
                while matches!(self.peek_byte(), Some(b) if b.is_ascii_alphanumeric() || b == b'_')
                {
                    self.bump();
                }
                if &self.src[word_start..self.pos] == b"end" {
                    return Ok(self.text(start, word_start));
                }
            } else {
                self.bump();
            }
        }
    }

    /// Skips C strings/chars/comments so `do`/`end` inside them don't count.
    fn skip_c_noise(&mut self, err_span: Span) -> Result<()> {
        loop {
            match self.peek_byte() {
                Some(b'"') | Some(b'\'') => {
                    let quote = self.bump().unwrap();
                    loop {
                        match self.bump() {
                            Some(b'\\') => {
                                self.bump();
                            }
                            Some(b) if b == quote => break,
                            Some(_) => {}
                            None => {
                                return Err(ParseError::new(
                                    err_span,
                                    "unterminated literal inside C block",
                                ))
                            }
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek_byte() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek_byte() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(ParseError::new(
                                    err_span,
                                    "unterminated comment inside C block",
                                ))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }
}

/// What the escape `\b` stands for, if it is one.
fn escaped(b: u8) -> Option<char> {
    Some(match b {
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'0' => '\0',
        b'\\' => '\\',
        b'\'' => '\'',
        b'"' => '"',
        _ => return None,
    })
}

/// The content of a [`Tok::Str`] with its escapes applied.
pub fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            // the lexer checked every escape: one ASCII character
            out.extend(chars.next().and_then(|e| escaped(e as u8)));
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex_all(src: &str) -> Vec<Tok<'_>> {
        let mut lx = Lexer::new(src);
        let mut out = vec![];
        loop {
            let t = lx.next_token().unwrap();
            let done = t.tok == Tok::Eof;
            out.push(t.tok);
            if done {
                break;
            }
        }
        out
    }

    #[test]
    fn lexes_basic_tokens() {
        let toks = lex_all("input int A; v = v + 1;");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("input"),
                Tok::Ident("int"),
                Tok::Ident("A"),
                Tok::Semi,
                Tok::Ident("v"),
                Tok::Assign,
                Tok::Ident("v"),
                Tok::Plus,
                Tok::Num(1),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_time_literals() {
        assert_eq!(lex_all("1s")[0], Tok::Time(TimeSpec::from_secs(1)));
        assert_eq!(lex_all("500ms")[0], Tok::Time(TimeSpec::from_ms(500)));
        assert_eq!(
            lex_all("1h35min")[0],
            Tok::Time(TimeSpec::from_us(3_600_000_000 + 35 * 60_000_000))
        );
    }

    #[test]
    fn rejects_bad_time_literal() {
        let mut lx = Lexer::new("12qq");
        assert!(lx.next_token().is_err());
    }

    #[test]
    fn lexes_c_symbols_without_underscore() {
        assert_eq!(lex_all("_printf")[0], Tok::CSym("printf"));
        assert_eq!(lex_all("_TOS_NODE_ID")[0], Tok::CSym("TOS_NODE_ID"));
    }

    #[test]
    fn lexes_operators_maximal_munch() {
        let toks = lex_all("a <= b << c < d -> e - f");
        assert!(toks.contains(&Tok::Le));
        assert!(toks.contains(&Tok::Shl));
        assert!(toks.contains(&Tok::Lt));
        assert!(toks.contains(&Tok::Arrow));
        assert!(toks.contains(&Tok::Minus));
    }

    #[test]
    fn skips_comments() {
        let toks = lex_all("a // comment\n /* block \n comment */ b");
        assert_eq!(toks, vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Eof]);
    }

    #[test]
    fn lexes_string_and_char() {
        let toks = lex_all(r#""v = %d\n" '#'"#);
        assert_eq!(toks[0], Tok::Str(r"v = %d\n"));
        assert_eq!(unescape(r"v = %d\n"), "v = %d\n");
        assert_eq!(toks[1], Tok::Chr('#'));
    }

    #[test]
    fn hex_numbers() {
        assert_eq!(lex_all("0x1F")[0], Tok::Num(31));
    }

    #[test]
    fn captures_c_block_with_nested_words() {
        let src = r#"
            #include <assert.h>
            int I = 0; // do end in comment: do end
            char* s = "do end";
            int inc (int i) { do { i++; } while(0); return I+i; }
        end"#;
        let mut lx = Lexer::new(src);
        let code = lx.capture_c_block().unwrap();
        assert!(code.contains("#include <assert.h>"));
        assert!(code.contains("while(0)"));
        // lexer cursor is now after `end`
        assert_eq!(lx.next_token().unwrap().tok, Tok::Eof);
    }

    #[test]
    fn spans_track_lines() {
        let mut lx = Lexer::new("a\n  b");
        let a = lx.next_token().unwrap();
        let b = lx.next_token().unwrap();
        assert_eq!(a.span, Span::new(1, 1));
        assert_eq!(b.span, Span::new(2, 3));
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // `é` is two bytes; the `+` after it sits at the same column as
        // after its one-byte twin
        for comment in ["ééé", "eee"] {
            let src = format!("int x;\n/* {comment} */ x = 1 + ;");
            let mut lx = Lexer::new(&src);
            let plus =
                std::iter::from_fn(|| lx.next_token().ok()).find(|t| t.tok == Tok::Plus).unwrap();
            assert_eq!(plus.span, Span::new(2, 17), "{src:?}");
        }
        let mut lx = Lexer::new("\"日本\\n\" x");
        assert_eq!(lx.next_token().unwrap().tok, Tok::Str("日本\\n"));
        assert_eq!(lx.next_token().unwrap().span, Span::new(1, 8));
        // a literal keeps its characters, not their bytes
        assert_eq!(unescape("日本\\n"), "日本\n");
    }
}
