//! Item-level Rust parser on top of [`crate::lexer`].
//!
//! The semantic rules (L007–L010) need to know *which function* a token
//! belongs to and *who calls whom* — strictly more structure than the
//! flat token stream the L001–L006 rules consume, and strictly less
//! than a full Rust grammar. This parser walks the code tokens of one
//! file and recovers exactly that middle layer:
//!
//! * `fn` items with their name, signature line, end line, and the
//!   token range of their body (`{ ... }`, brace-matched);
//! * the enclosing `impl` block's self type and (for trait impls) the
//!   trait name, so `Table::insert` and `SessionStepper::step_counted`
//!   resolve as distinct methods;
//! * `trait` bodies, so default methods carry their trait's name;
//! * inline `mod` nesting, so a fn's module path is known.
//!
//! Function bodies are treated as opaque token ranges: closures and the
//! rare nested `fn` contribute their calls to the enclosing function,
//! which is the conservative direction for reachability (the enclosing
//! fn is the one a root can reach). Everything else at item level
//! (structs, enums, consts, macros, `use` trees) is skipped with
//! depth-aware scanning, so a `;` inside `[u8; 2]` or a brace inside a
//! const initializer never desynchronizes the walk.
//!
//! `crates/analyze/tests/parser_prop.rs` fuzzes the invariants with
//! ibp-testkit's seeded PRNG: every planted fn is recovered exactly
//! once with an exact signature line, body ranges nest inside the
//! file, and parsing is deterministic.

use crate::lexer::{Token, TokenKind};

/// One parsed function (free fn, inherent method, trait-impl method, or
/// trait default method).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// `Some("Server")` for methods in `impl Server` / `impl T for
    /// Server`; `None` for free fns and trait default methods.
    pub self_ty: Option<String>,
    /// `Some("SessionStepper")` inside `impl SessionStepper for S` and
    /// inside `trait SessionStepper { ... }` default methods.
    pub trait_name: Option<String>,
    /// Inline-module nesting, outermost first.
    pub mod_path: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub decl_line: u32,
    /// 1-based line of the body's closing brace (or of the `;` for
    /// bodiless declarations).
    pub end_line: u32,
    /// Token-index range `(open, close)` of the body braces in the
    /// *original* token vector, inclusive of both brace tokens; `None`
    /// for bodiless declarations (`fn f();` in traits/extern blocks).
    pub body: Option<(usize, usize)>,
}

/// The parse result for one file: every fn, in source order.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All parsed functions, in source order.
    pub fns: Vec<FnItem>,
}

/// Context while walking: enclosing impl/trait, if any.
#[derive(Clone, Default)]
struct Ctx {
    self_ty: Option<String>,
    trait_name: Option<String>,
    mod_path: Vec<String>,
}

/// Parses the item structure of one lexed file.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    // The walk runs over *code* token indices; comments never affect
    // structure. `code[k]` is an index into `tokens`.
    let code: Vec<usize> = (0..tokens.len()).filter(|&i| tokens[i].is_code()).collect();
    let mut out = ParsedFile::default();
    let mut k = 0usize;
    parse_items(tokens, &code, &mut k, &Ctx::default(), &mut out, usize::MAX);
    out
}

/// Parses items until `k` reaches `code.len()` or a closing brace at
/// this nesting level (`stop_at` is the code-index of that brace's
/// opener's matching close, or `usize::MAX` at top level — callers that
/// recurse pass the index one past their opening brace and this fn
/// returns after consuming the matching `}`).
fn parse_items(
    tokens: &[Token],
    code: &[usize],
    k: &mut usize,
    ctx: &Ctx,
    out: &mut ParsedFile,
    _stop_at: usize,
) {
    while *k < code.len() {
        let t = &tokens[code[*k]];
        if t.is_punct('}') {
            *k += 1;
            return;
        }
        if t.is_punct('#') {
            // Attribute: `#[...]` or `#![...]`, bracket-balanced.
            *k += 1;
            if *k < code.len() && tokens[code[*k]].is_punct('!') {
                *k += 1;
            }
            skip_balanced(tokens, code, k, '[', ']');
            continue;
        }
        if t.kind != TokenKind::Ident {
            // Stray punctuation at item level (e.g. after a macro) —
            // skip forward. Braces still need balancing so we never
            // misparse an expression block as items.
            if t.is_punct('{') {
                skip_balanced(tokens, code, k, '{', '}');
            } else {
                *k += 1;
            }
            continue;
        }
        match t.text.as_str() {
            "mod" => {
                let name = ident_after(tokens, code, *k).unwrap_or_default();
                advance_to_any(tokens, code, k, &['{', ';']);
                if *k < code.len() && tokens[code[*k]].is_punct('{') {
                    *k += 1;
                    let mut inner = ctx.clone();
                    inner.mod_path.push(name);
                    parse_items(tokens, code, k, &inner, out, 0);
                } else {
                    *k += 1; // the `;` of `mod name;`
                }
            }
            "impl" => {
                let header_start = *k + 1;
                advance_to_any(tokens, code, k, &['{']);
                let (self_ty, trait_name) =
                    parse_impl_header(tokens, code, header_start, *k);
                if *k < code.len() {
                    *k += 1; // past `{`
                    let inner = Ctx {
                        self_ty,
                        trait_name,
                        mod_path: ctx.mod_path.clone(),
                    };
                    parse_items(tokens, code, k, &inner, out, 0);
                }
            }
            "trait" => {
                let name = ident_after(tokens, code, *k);
                advance_to_any(tokens, code, k, &['{', ';']);
                if *k < code.len() && tokens[code[*k]].is_punct('{') {
                    *k += 1;
                    let inner = Ctx {
                        self_ty: None,
                        trait_name: name,
                        mod_path: ctx.mod_path.clone(),
                    };
                    parse_items(tokens, code, k, &inner, out, 0);
                } else {
                    *k += 1;
                }
            }
            "fn" => {
                let decl_line = t.line;
                let name = ident_after(tokens, code, *k).unwrap_or_default();
                advance_to_any(tokens, code, k, &['{', ';']);
                let (body, end_line) = if *k < code.len() && tokens[code[*k]].is_punct('{')
                {
                    let open = code[*k];
                    skip_balanced(tokens, code, k, '{', '}');
                    let close = code[k.saturating_sub(1).min(code.len() - 1)];
                    (Some((open, close)), tokens[close].end_line())
                } else {
                    let end = if *k < code.len() { tokens[code[*k]].line } else { decl_line };
                    *k += 1;
                    (None, end)
                };
                out.fns.push(FnItem {
                    name,
                    self_ty: ctx.self_ty.clone(),
                    trait_name: ctx.trait_name.clone(),
                    mod_path: ctx.mod_path.clone(),
                    decl_line,
                    end_line,
                    body,
                });
            }
            "macro_rules" => {
                // `macro_rules! name { ... }` — ends at the braces.
                advance_to_any(tokens, code, k, &['{', '(', '[']);
                if *k < code.len() {
                    let open = first_char(&tokens[code[*k]]);
                    let close = matching_close(open);
                    skip_balanced(tokens, code, k, open, close);
                }
            }
            "struct" | "enum" | "union" | "static" | "const" | "type" | "use"
            | "extern" | "pub" | "unsafe" | "async" | "default" | "where" | "crate" => {
                // `pub`/`unsafe`/`async`/`default` are qualifiers: step
                // over them so the item keyword itself dispatches next
                // round. `extern "C" { ... }` blocks recurse so their
                // fns are found. The value items skip to their
                // depth-zero terminator.
                match t.text.as_str() {
                    "pub" | "unsafe" | "async" | "default" | "crate" => {
                        *k += 1;
                        // `pub(crate)` / `pub(in path)`.
                        if *k < code.len() && tokens[code[*k]].is_punct('(') {
                            skip_balanced(tokens, code, k, '(', ')');
                        }
                    }
                    "extern" => {
                        *k += 1;
                        // Skip the optional ABI string.
                        if *k < code.len() && tokens[code[*k]].kind == TokenKind::Str {
                            *k += 1;
                        }
                        if *k < code.len() && tokens[code[*k]].is_punct('{') {
                            *k += 1;
                            parse_items(tokens, code, k, ctx, out, 0);
                        }
                    }
                    "const" => {
                        // `const fn` / `const unsafe fn`: leave for the
                        // fn arm. `const NAME: T = ...;` skips.
                        if matches!(
                            ident_text_after(tokens, code, *k),
                            Some("fn") | Some("unsafe") | Some("extern")
                        ) {
                            *k += 1;
                        } else {
                            skip_value_item(tokens, code, k);
                        }
                    }
                    "struct" | "enum" | "union" => {
                        // Ends at `;` (unit/tuple struct) or at the
                        // brace-matched body.
                        advance_to_any(tokens, code, k, &['{', ';']);
                        if *k < code.len() {
                            if tokens[code[*k]].is_punct(';') {
                                *k += 1;
                            } else {
                                skip_balanced(tokens, code, k, '{', '}');
                            }
                        }
                    }
                    _ => skip_value_item(tokens, code, k),
                }
            }
            _ => {
                // Macro invocation at item level (`thread_local! { .. }`)
                // or an unknown construct: if `ident !` follows, balance
                // its delimiter; otherwise just advance.
                if ident_followed_by_bang(tokens, code, *k) {
                    *k += 2;
                    if *k < code.len() {
                        let open = first_char(&tokens[code[*k]]);
                        if matches!(open, '{' | '(' | '[') {
                            skip_balanced(tokens, code, k, open, matching_close(open));
                            if *k < code.len() && tokens[code[*k]].is_punct(';') {
                                *k += 1;
                            }
                        }
                    }
                } else {
                    *k += 1;
                }
            }
        }
    }
}

/// The first character of a token's text (tokens are never empty).
fn first_char(t: &Token) -> char {
    t.text.chars().next().unwrap_or(' ')
}

fn matching_close(open: char) -> char {
    match open {
        '{' => '}',
        '(' => ')',
        '[' => ']',
        _ => open,
    }
}

/// The next code ident's text after position `k`, skipping nothing else.
fn ident_after(tokens: &[Token], code: &[usize], k: usize) -> Option<String> {
    code.get(k + 1)
        .map(|&i| &tokens[i])
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
}

fn ident_text_after<'a>(tokens: &'a [Token], code: &[usize], k: usize) -> Option<&'a str> {
    code.get(k + 1)
        .map(|&i| &tokens[i])
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

fn ident_followed_by_bang(tokens: &[Token], code: &[usize], k: usize) -> bool {
    code.get(k + 1).is_some_and(|&i| tokens[i].is_punct('!'))
}

/// Advances `k` to the next code token whose first char is in `stops`,
/// at zero paren/bracket depth (so `(` in an fn signature or `[` in an
/// array type never hides the stop). `k` lands ON the stop token.
fn advance_to_any(tokens: &[Token], code: &[usize], k: &mut usize, stops: &[char]) {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while *k < code.len() {
        let t = &tokens[code[*k]];
        let c = first_char(t);
        if t.kind == TokenKind::Punct {
            match c {
                '(' => paren += 1,
                ')' => paren -= 1,
                '[' => bracket += 1,
                ']' => bracket -= 1,
                _ => {}
            }
            if paren <= 0 && bracket <= 0 && stops.contains(&c) {
                return;
            }
        }
        *k += 1;
    }
}

/// Skips a balanced `open ... close` region; `k` must sit on or before
/// the opener and lands one past the closer.
fn skip_balanced(tokens: &[Token], code: &[usize], k: &mut usize, open: char, close: char) {
    // Find the opener first.
    while *k < code.len() && !tokens[code[*k]].is_punct(open) {
        *k += 1;
    }
    let mut depth = 0i32;
    while *k < code.len() {
        let t = &tokens[code[*k]];
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                *k += 1;
                return;
            }
        }
        *k += 1;
    }
}

/// Skips a value item (`const X: [u8; 2] = [1, 2];`, `use a::{b, c};`,
/// `static S: T = { ... };`, `type A = B;`): to the first `;` at zero
/// brace/bracket/paren depth.
fn skip_value_item(tokens: &[Token], code: &[usize], k: &mut usize) {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    while *k < code.len() {
        let t = &tokens[code[*k]];
        if t.kind == TokenKind::Punct {
            match first_char(t) {
                '(' => paren += 1,
                ')' => paren -= 1,
                '[' => bracket += 1,
                ']' => bracket -= 1,
                '{' => brace += 1,
                '}' => brace -= 1,
                ';' if paren <= 0 && bracket <= 0 && brace <= 0 => {
                    *k += 1;
                    return;
                }
                _ => {}
            }
        }
        *k += 1;
    }
}

/// Extracts `(self_ty, trait_name)` from an impl header: the code-token
/// range `[start, brace)` holding everything between `impl` and `{`.
///
/// Shapes handled: `impl Type`, `impl<T> Type<T>`, `impl Trait for
/// Type`, `impl<T> path::Trait<X> for &mut path::Type<T> where ...`.
/// The self type is the last path segment before the generics of the
/// part after `for` (or of the whole header when no `for` at angle
/// depth zero exists).
fn parse_impl_header(
    tokens: &[Token],
    code: &[usize],
    start: usize,
    brace: usize,
) -> (Option<String>, Option<String>) {
    let toks: Vec<&Token> = code[start..brace.min(code.len())]
        .iter()
        .map(|&i| &tokens[i])
        .collect();
    // Strip leading generics `<...>` of the impl itself.
    let mut i = 0usize;
    if toks.first().is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while i < toks.len() {
            if toks[i].is_punct('<') {
                depth += 1;
            } else if toks[i].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // Split at a `for` ident at angle depth zero.
    let mut split = None;
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("for") {
            split = Some(j);
            break;
        }
    }
    match split {
        Some(j) => {
            let trait_name = last_path_segment(&toks[i..j]);
            let self_ty = last_path_segment(&toks[j + 1..]);
            (self_ty, trait_name)
        }
        None => (last_path_segment(&toks[i..]), None),
    }
}

/// The defining segment of a type path: the last ident at angle depth
/// zero before generics/`where` — `persist::SparseDelta<K>` →
/// `SparseDelta`; `&mut Session<P>` → `Session`; `dyn Trait` → `Trait`.
fn last_path_segment(toks: &[&Token]) -> Option<String> {
    let mut depth = 0i32;
    let mut last: Option<&str> = None;
    for t in toks {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
        } else if depth == 0 && t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "where" => break,
                "dyn" | "mut" | "ref" | "const" => {}
                s => last = Some(s),
            }
        }
    }
    last.map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    fn names(p: &ParsedFile) -> Vec<&str> {
        p.fns.iter().map(|f| f.name.as_str()).collect()
    }

    #[test]
    fn free_fns_and_spans() {
        let src = "fn a() {\n    body();\n}\n\npub fn b(x: u8) -> u8 {\n    x\n}\n";
        let p = parse_src(src);
        assert_eq!(names(&p), vec!["a", "b"]);
        assert_eq!(p.fns[0].decl_line, 1);
        assert_eq!(p.fns[0].end_line, 3);
        assert_eq!(p.fns[1].decl_line, 5);
        assert_eq!(p.fns[1].end_line, 7);
        assert!(p.fns[0].body.is_some());
    }

    #[test]
    fn inherent_and_trait_impl_methods() {
        let src = "struct Server;\n\
                   impl Server {\n    fn run(&self) {}\n}\n\
                   impl Drop for Server {\n    fn drop(&mut self) {}\n}\n";
        let p = parse_src(src);
        assert_eq!(names(&p), vec!["run", "drop"]);
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Server"));
        assert_eq!(p.fns[0].trait_name, None);
        assert_eq!(p.fns[1].self_ty.as_deref(), Some("Server"));
        assert_eq!(p.fns[1].trait_name.as_deref(), Some("Drop"));
    }

    #[test]
    fn generic_impl_headers_resolve_self_ty() {
        let src = "impl<P: IndirectPredictor> SessionStepper for Session<P> {\n\
                   \x20   fn step_counted(&mut self) {}\n}\n\
                   impl<K: Eq, V> persist::SparseDelta<K, V> {\n\
                   \x20   fn get(&self) {}\n}\n";
        let p = parse_src(src);
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Session"));
        assert_eq!(p.fns[0].trait_name.as_deref(), Some("SessionStepper"));
        assert_eq!(p.fns[1].self_ty.as_deref(), Some("SparseDelta"));
        assert_eq!(p.fns[1].trait_name, None);
    }

    #[test]
    fn trait_default_methods_carry_trait_name() {
        let src = "trait Probe {\n\
                   \x20   fn on_event(&mut self);\n\
                   \x20   fn on_pair(&mut self) {\n        self.on_event();\n    }\n}\n";
        let p = parse_src(src);
        assert_eq!(names(&p), vec!["on_event", "on_pair"]);
        assert_eq!(p.fns[0].trait_name.as_deref(), Some("Probe"));
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn mod_nesting_is_tracked() {
        let src = "mod outer {\n    mod inner {\n        fn deep() {}\n    }\n    fn mid() {}\n}\nfn top() {}\n";
        let p = parse_src(src);
        assert_eq!(names(&p), vec!["deep", "mid", "top"]);
        assert_eq!(p.fns[0].mod_path, vec!["outer", "inner"]);
        assert_eq!(p.fns[1].mod_path, vec!["outer"]);
        assert!(p.fns[2].mod_path.is_empty());
    }

    #[test]
    fn value_items_with_tricky_semicolons_do_not_desync() {
        let src = "const A: [u8; 2] = [1, 2];\n\
                   static B: u32 = { 40 + 2 };\n\
                   use std::collections::{BTreeMap, BTreeSet};\n\
                   type C = [u8; 4];\n\
                   fn after() {}\n";
        let p = parse_src(src);
        assert_eq!(names(&p), vec!["after"]);
        assert_eq!(p.fns[0].decl_line, 5);
    }

    #[test]
    fn const_fn_and_qualifiers_are_fns() {
        let src = "pub const fn a() -> u8 { 1 }\n\
                   pub(crate) unsafe fn b() {}\n\
                   pub async fn c() {}\n";
        let p = parse_src(src);
        assert_eq!(names(&p), vec!["a", "b", "c"]);
    }

    #[test]
    fn nested_fn_in_body_belongs_to_enclosing_range() {
        // The body is opaque: inner fns are not separate items.
        let src = "fn outer() {\n    fn inner() {}\n    inner();\n}\nfn next() {}\n";
        let p = parse_src(src);
        assert_eq!(names(&p), vec!["outer", "next"]);
        assert_eq!(p.fns[0].end_line, 4);
    }

    #[test]
    fn macros_at_item_level_are_skipped() {
        let src = "macro_rules! m {\n    () => { fn ghost() {} };\n}\n\
                   thread_local! {\n    static X: u8 = 0;\n}\n\
                   fn real() {}\n";
        let p = parse_src(src);
        assert_eq!(names(&p), vec!["real"]);
    }

    #[test]
    fn struct_with_brace_body_then_fn() {
        let src = "struct S {\n    a: u8,\n}\n\
                   enum E {\n    A,\n    B(u8),\n}\n\
                   struct Unit;\n\
                   struct Tuple(u8, u8);\n\
                   fn f() {}\n";
        let p = parse_src(src);
        assert_eq!(names(&p), vec!["f"]);
    }

    #[test]
    fn where_clause_before_body() {
        let src = "fn f<T>(x: T) -> T\nwhere\n    T: Clone,\n{\n    x\n}\n";
        let p = parse_src(src);
        assert_eq!(names(&p), vec!["f"]);
        assert_eq!(p.fns[0].decl_line, 1);
        assert_eq!(p.fns[0].end_line, 6);
    }

    #[test]
    fn return_position_impl_trait_does_not_confuse_body_start() {
        let src = "fn f() -> impl Iterator<Item = u8> {\n    [1u8].into_iter()\n}\n";
        let p = parse_src(src);
        assert_eq!(names(&p), vec!["f"]);
        assert!(p.fns[0].body.is_some());
    }

    #[test]
    fn impl_block_with_ref_self_type() {
        let src = "impl fmt::Display for ErrorCode {\n    fn fmt(&self) {}\n}\n";
        let p = parse_src(src);
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("ErrorCode"));
        assert_eq!(p.fns[0].trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn body_token_range_brackets_the_braces() {
        let src = "fn f() { inner_call(); }";
        let toks = lex(src);
        let p = parse(&toks);
        let (open, close) = p.fns[0].body.unwrap();
        assert!(toks[open].is_punct('{'));
        assert!(toks[close].is_punct('}'));
        assert!(open < close);
        let body_text: Vec<&str> = toks[open..=close]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(body_text, vec!["inner_call"]);
    }
}
