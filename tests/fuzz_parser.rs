//! No source makes the lexer, the parser or the compiler panic: arbitrary
//! bytes, and `corpus/**/*.ceu` programs with bytes or tokens deleted,
//! duplicated, swapped or replaced. `ceu::parser::parse` returns `Ok` or
//! `Err`, and so does `Compiler::compile`, which every fourth input also
//! goes through. Run it in a debug build, where an integer overflow panics.
//!
//! CI runs this file under `PROPTEST_SEED=1..16`.

use ceu::Compiler;
use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;

/// Every `corpus/**/*.ceu` source, in path order.
fn corpus() -> &'static [String] {
    static SOURCES: OnceLock<Vec<String>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
        let mut paths = Vec::new();
        for sub in ["accept", "reject", "run"] {
            for entry in std::fs::read_dir(root.join(sub)).expect("corpus directory") {
                let path = entry.expect("corpus entry").path();
                if path.extension().is_some_and(|x| x == "ceu") {
                    paths.push(path);
                }
            }
        }
        paths.sort();
        paths.iter().map(|p| std::fs::read_to_string(p).expect("corpus source")).collect()
    })
}

/// Tokens spliced into a source: keywords, punctuation, unbalanced
/// openers, and literals at and past the edge of `i64` and of time.
const SPLICED: &str = r#"par do end with await emit loop if then else C ( ) ; = [ " ' _f - /* 9223372036854775807 99999999999999999999 9223372036854775807h"#;

/// One edit: where (scaled to the length), what, and with which byte or
/// token.
type Edit = (u16, u8, u8);

/// `src` cut into tokens: identifier/number runs, whitespace runs and
/// single other characters.
fn tokens(src: &str) -> Vec<&str> {
    let class = |c: char| {
        if c.is_alphanumeric() || c == '_' {
            0
        } else if c.is_whitespace() {
            1
        } else {
            2
        }
    };
    let mut out = Vec::new();
    let mut start = 0;
    let mut chars = src.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        let joins = chars.peek().is_some_and(|&(_, d)| class(d) == class(c) && class(c) != 2);
        if !joins {
            out.push(&src[start..i + c.len_utf8()]);
            start = i + c.len_utf8();
        }
    }
    out
}

/// Applies `edits` to `items`: delete, duplicate, swap with another item,
/// or replace with `pick(byte)`.
fn mutate<T: Clone>(mut items: Vec<T>, edits: &[Edit], pick: impl Fn(u8) -> T) -> Vec<T> {
    for &(at, op, b) in edits {
        if items.is_empty() {
            items.push(pick(b));
            continue;
        }
        let i = at as usize % items.len();
        match op % 4 {
            0 => {
                items.remove(i);
            }
            1 => items.insert(i, items[i].clone()),
            2 => {
                let j = (i + b as usize) % items.len();
                items.swap(i, j)
            }
            _ => items[i] = pick(b),
        }
    }
    items
}

/// Parses `src`, and compiles it too when `lane` is 0 (one input in
/// four); a panic in either fails the test with the input that caused it.
fn never_panics(src: &str, lane: u8) {
    let compile = lane == 0;
    let run = std::panic::catch_unwind(|| {
        let _ = ceu::parser::parse(src);
        if compile {
            let _ = Compiler::new().compile(src);
        }
    });
    assert!(run.is_ok(), "panicked (compile: {compile}) on\n{src:?}");
}

fn arb_edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0u16..u16::MAX, 0u8..4, (0u16..256).prop_map(|b| b as u8)), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..256),
        lane in 0u8..4,
    ) {
        never_panics(&String::from_utf8_lossy(&bytes), lane);
    }

    #[test]
    fn byte_mutated_corpus_never_panics(i in 0..corpus().len(), edits in arb_edits(), lane in 0u8..4) {
        let bytes = corpus()[i].as_bytes().to_vec();
        never_panics(&String::from_utf8_lossy(&mutate(bytes, &edits, |b| b)), lane);
    }

    #[test]
    fn token_mutated_corpus_never_panics(i in 0..corpus().len(), edits in arb_edits(), lane in 0u8..4) {
        let spliced: Vec<&str> = SPLICED.split(' ').collect();
        let pick = |b: u8| spliced[b as usize % spliced.len()];
        never_panics(&mutate(tokens(&corpus()[i]), &edits, pick).concat(), lane);
    }
}

#[test]
fn tokens_cover_the_source() {
    for src in corpus() {
        assert_eq!(tokens(src).concat(), *src);
    }
    assert_eq!(tokens("await 10ms;"), ["await", " ", "10ms", ";"]);
}
