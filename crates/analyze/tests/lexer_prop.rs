//! Property tests for the lint lexer — the two guarantees the rule
//! engine stands on:
//!
//! 1. **Spans are exact.** Every token's recorded line equals one plus
//!    the number of newlines before its byte offset, and `code_mask`
//!    preserves both the byte length and the newline count of its input.
//! 2. **Hiding is total, surfacing is total.** An identifier planted
//!    inside a comment (line, block, nested block) or any string form
//!    (escaped, byte, raw with `#` guards) never comes back as a code
//!    token; an identifier planted as code always does, exactly once
//!    per plant, in order.
//!
//! Documents are generated as segment lists so the shrinker can bisect
//! a failing document down to the one construct that broke the lexer.

use ibp_analyze::lexer::{code_mask, lex, TokenKind};
use ibp_testkit::{prop_assert, prop_assert_eq, Prop, Shrink, TestRng};

/// The identifier planted where the lexer must NOT see code.
const HIDDEN: &str = "hidden_sentinel_zq";

/// One building block of a generated source document.
#[derive(Debug, Clone)]
enum Seg {
    /// A code identifier (always surfaces).
    Code(String),
    /// `// ...` line comment with the sentinel inside.
    Line(String),
    /// Block comment; `true` nests another block inside.
    Block(String, bool),
    /// Escaped string literal with the sentinel and a `\"` inside.
    Str(String),
    /// Raw string with `n` hash guards and embedded quotes.
    RawStr(String, usize),
    /// A char literal.
    CharLit(&'static str),
    /// A lifetime.
    Lifetime(&'static str),
    /// One punctuation char (alphabet excludes `/ * ' " #` so segments
    /// cannot merge into comment or literal openers).
    Punct(char),
    /// A newline.
    Newline,
}

impl Shrink for Seg {}

fn word(rng: &mut TestRng) -> String {
    let len = rng.gen_range(1..8usize);
    (0..len)
        .map(|_| *rng.choose(&['a', 'b', 'c', 'd', 'x', 'y', 'z', '_']))
        .collect()
}

#[allow(clippy::explicit_auto_deref)] // without the `*`, `choose` infers `T = str` and fails to compile
fn seg(rng: &mut TestRng) -> Seg {
    match rng.gen_range(0..9u32) {
        0 => Seg::Code(format!("code_{}", word(rng))),
        1 => Seg::Line(word(rng)),
        2 => Seg::Block(word(rng), rng.gen_bool(0.5)),
        3 => Seg::Str(word(rng)),
        4 => Seg::RawStr(word(rng), rng.gen_range(0..3usize)),
        5 => Seg::CharLit(*rng.choose(&["'x'", "'\\n'", "'\\''", "b'q'"])),
        6 => Seg::Lifetime(*rng.choose(&["'a", "'static", "'_"])),
        7 => Seg::Punct(*rng.choose(&['.', ',', ';', '(', ')', '{', '}', '=', '!', '&'])),
        _ => Seg::Newline,
    }
}

fn gen_doc(rng: &mut TestRng) -> Vec<Seg> {
    rng.vec_with(0..40, seg)
}

/// Renders the document; every segment is space-separated so adjacent
/// segments can never merge into a different token.
fn render(doc: &[Seg]) -> String {
    let mut out = String::new();
    for s in doc {
        match s {
            Seg::Code(id) => out.push_str(id),
            Seg::Line(w) => out.push_str(&format!("// {HIDDEN} {w}\n")),
            Seg::Block(w, false) => out.push_str(&format!("/* {HIDDEN} {w} */")),
            Seg::Block(w, true) => {
                out.push_str(&format!("/* {w} /* {HIDDEN} inner */ {HIDDEN} */"));
            }
            Seg::Str(w) => out.push_str(&format!("\"{HIDDEN} \\\" {w}\"")),
            Seg::RawStr(w, 0) => out.push_str(&format!("r\"{HIDDEN} {w}\"")),
            Seg::RawStr(w, hashes) => {
                // Embed a bare quote — legal because the guard needs
                // `"` plus `hashes` hashes to close.
                let guard = "#".repeat(*hashes);
                out.push_str(&format!("r{guard}\"{HIDDEN} \" {w}\"{guard}"));
            }
            Seg::CharLit(c) => out.push_str(c),
            Seg::Lifetime(l) => out.push_str(l),
            Seg::Punct(c) => out.push(*c),
            Seg::Newline => {}
        }
        out.push(if matches!(s, Seg::Newline) { '\n' } else { ' ' });
    }
    out
}

#[test]
fn token_lines_match_newline_counts() {
    Prop::new("lexer_span_exactness").cases(200).run(gen_doc, |doc| {
        let src = render(doc);
        for t in lex(&src) {
            let expected = 1 + src[..t.start].matches('\n').count() as u32;
            prop_assert_eq!(t.line, expected);
            let last_nl = src[..t.start].rfind('\n').map_or(0, |i| i + 1);
            let expected_col = src[last_nl..t.start].chars().count() as u32 + 1;
            prop_assert_eq!(t.col, expected_col);
        }
        Ok(())
    });
}

#[test]
fn code_mask_preserves_geometry_and_hides_literals() {
    Prop::new("code_mask_geometry").cases(200).run(gen_doc, |doc| {
        let src = render(doc);
        let mask = code_mask(&src);
        prop_assert_eq!(mask.len(), src.len());
        prop_assert_eq!(
            mask.matches('\n').count(),
            src.matches('\n').count()
        );
        prop_assert!(!mask.contains(HIDDEN));
        Ok(())
    });
}

#[test]
fn hidden_idents_never_surface_planted_idents_always_do() {
    Prop::new("hide_and_surface").cases(300).run(gen_doc, |doc| {
        let src = render(doc);
        let idents: Vec<String> = lex(&src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();
        prop_assert!(idents.iter().all(|i| i != HIDDEN));
        let planted: Vec<&String> = doc
            .iter()
            .filter_map(|s| match s {
                Seg::Code(id) => Some(id),
                _ => None,
            })
            .collect();
        prop_assert_eq!(idents.len(), planted.len());
        for (got, want) in idents.iter().zip(planted) {
            prop_assert_eq!(got, want);
        }
        Ok(())
    });
}

#[test]
fn lexed_tokens_tile_the_source() {
    // Tokens never overlap and every non-whitespace byte is covered.
    Prop::new("token_tiling").cases(200).run(gen_doc, |doc| {
        let src = render(doc);
        let mut pos = 0usize;
        for t in lex(&src) {
            prop_assert!(t.start >= pos);
            prop_assert!(src[pos..t.start].chars().all(char::is_whitespace));
            prop_assert_eq!(&src[t.start..t.end()], t.text.as_str());
            pos = t.end();
        }
        prop_assert!(src[pos..].chars().all(char::is_whitespace));
        Ok(())
    });
}
