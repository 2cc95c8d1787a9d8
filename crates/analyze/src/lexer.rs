//! A small hand-rolled Rust lexer for the lint engine.
//!
//! This is not a full parser: the rules only need to tell *code* apart
//! from comments and literals, with accurate `line:col` spans. The lexer
//! therefore understands exactly the constructs that can hide text from
//! naive substring matching — line comments, nested block comments,
//! string/char/byte literals, raw strings with any number of `#` guards,
//! and lifetimes (so `'a` is not mistaken for an unterminated char) —
//! and degrades everything else to identifier/number/punctuation tokens.
//!
//! `crates/analyze/tests/lexer_prop.rs` pins the two properties the rule
//! engine depends on: spans are exact (every token's recorded line equals
//! the newline count before its byte offset), and identifiers planted
//! inside comments or any string form never surface as code tokens.

/// What a token is; rules mostly care about `is_code` vs `is_comment`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unsafe`, `HashMap`, `foo`).
    Ident,
    /// A single punctuation character (`.`, `!`, `{`, ...).
    Punct,
    /// `"..."` or `b"..."` with escapes.
    Str,
    /// `r"..."`, `r#"..."#`, `br##"..."##` — no escapes.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// `'a`, `'static`, `'_`.
    Lifetime,
    /// A numeric literal (split permissively; never inspected by rules).
    Number,
    /// `// ...` including doc comments, without the trailing newline.
    LineComment,
    /// `/* ... */` including nested block comments.
    BlockComment,
}

/// One lexed token with its exact source slice and position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// The exact source text of the token (delimiters included).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
    /// Byte offset of the token's first character in the source.
    pub start: usize,
}

impl Token {
    /// True for tokens the rule engine treats as executable source.
    pub fn is_code(&self) -> bool {
        !matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// True for either comment form.
    pub fn is_comment(&self) -> bool {
        !self.is_code()
    }

    /// True when the token is exactly the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.starts_with(c)
    }

    /// True when the token is exactly the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// Byte offset one past the token's last character.
    pub fn end(&self) -> usize {
        self.start + self.text.len()
    }

    /// 1-based line of the token's last character (multi-line tokens —
    /// block comments, strings — end lower than they start).
    pub fn end_line(&self) -> u32 {
        self.line + self.text.matches('\n').count() as u32
    }
}

/// Character cursor with line/column tracking.
struct Cursor<'a> {
    src: &'a str,
    chars: Vec<(usize, char)>,
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src,
            chars: src.char_indices().collect(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).map(|&(_, c)| c)
    }

    fn byte_pos(&self) -> usize {
        self.chars
            .get(self.i)
            .map_or(self.src.len(), |&(off, _)| off)
    }

    fn bump(&mut self) -> Option<char> {
        let &(_, c) = self.chars.get(self.i)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `source` into tokens. Never fails: unterminated literals and
/// comments extend to the end of input.
pub fn lex(source: &str) -> Vec<Token> {
    let mut cur = Cursor::new(source);
    let mut out = Vec::new();
    while let Some(c) = cur.peek(0) {
        let (start, line, col) = (cur.byte_pos(), cur.line, cur.col);
        let kind = match c {
            _ if c.is_whitespace() => {
                cur.bump();
                continue;
            }
            '/' if cur.peek(1) == Some('/') => {
                while cur.peek(0).is_some_and(|c| c != '\n') {
                    cur.bump();
                }
                TokenKind::LineComment
            }
            '/' if cur.peek(1) == Some('*') => {
                cur.bump_n(2);
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some('/'), Some('*')) => {
                            depth += 1;
                            cur.bump_n(2);
                        }
                        (Some('*'), Some('/')) => {
                            depth -= 1;
                            cur.bump_n(2);
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                TokenKind::BlockComment
            }
            '"' => {
                eat_string(&mut cur);
                TokenKind::Str
            }
            'r' if matches!(cur.peek(1), Some('"' | '#')) && raw_string_ahead(&cur, 1) => {
                cur.bump();
                eat_raw_string(&mut cur);
                TokenKind::RawStr
            }
            'b' => match cur.peek(1) {
                Some('"') => {
                    cur.bump();
                    eat_string(&mut cur);
                    TokenKind::Str
                }
                Some('\'') => {
                    cur.bump();
                    eat_char(&mut cur);
                    TokenKind::Char
                }
                Some('r') if raw_string_ahead(&cur, 2) => {
                    cur.bump_n(2);
                    eat_raw_string(&mut cur);
                    TokenKind::RawStr
                }
                _ => {
                    eat_ident(&mut cur);
                    TokenKind::Ident
                }
            },
            '\'' => {
                // Lifetime (`'a`, `'_`) vs char literal (`'a'`): a
                // lifetime is a quote followed by an identifier with no
                // closing quote right after its first character.
                let looks_like_lifetime = cur.peek(1).is_some_and(is_ident_start)
                    && cur.peek(2) != Some('\'');
                if looks_like_lifetime {
                    cur.bump();
                    while cur.peek(0).is_some_and(is_ident_continue) {
                        cur.bump();
                    }
                    TokenKind::Lifetime
                } else {
                    eat_char(&mut cur);
                    TokenKind::Char
                }
            }
            _ if is_ident_start(c) => {
                eat_ident(&mut cur);
                TokenKind::Ident
            }
            _ if c.is_ascii_digit() => {
                while cur.peek(0).is_some_and(is_ident_continue) {
                    cur.bump();
                }
                TokenKind::Number
            }
            _ => {
                cur.bump();
                TokenKind::Punct
            }
        };
        let end = cur.byte_pos();
        out.push(Token {
            kind,
            text: source[start..end].to_string(),
            line,
            col,
            start,
        });
    }
    out
}

/// True when the characters starting `ahead` of the cursor spell the
/// opening of a raw string: zero or more `#`s then `"`.
fn raw_string_ahead(cur: &Cursor, ahead: usize) -> bool {
    let mut k = ahead;
    while cur.peek(k) == Some('#') {
        k += 1;
    }
    cur.peek(k) == Some('"')
}

/// Consumes a `"..."` literal with backslash escapes; cursor sits on `"`.
fn eat_string(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consumes a raw string; cursor sits on the first `#` or the `"`.
fn eat_raw_string(cur: &mut Cursor) {
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        cur.bump();
    }
    if cur.peek(0) != Some('"') {
        return; // not actually a raw string; treat what we ate as done
    }
    cur.bump(); // opening quote
    'body: while let Some(c) = cur.bump() {
        if c == '"' {
            for k in 0..hashes {
                if cur.peek(k) != Some('#') {
                    continue 'body;
                }
            }
            cur.bump_n(hashes);
            break;
        }
    }
}

/// Consumes a `'x'` char literal with escapes; cursor sits on `'`.
fn eat_char(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '\'' => break,
            _ => {}
        }
    }
}

/// Consumes an identifier; cursor sits on its first character.
fn eat_ident(cur: &mut Cursor) {
    cur.bump();
    while cur.peek(0).is_some_and(is_ident_continue) {
        cur.bump();
    }
}

/// Returns `source` with every comment and every string/char literal
/// blanked to spaces (newlines preserved), leaving only code. Used by the
/// property tests to check that stripping is line-exact, and handy for
/// debugging rule behaviour.
pub fn code_mask(source: &str) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for t in lex(source) {
        let blank = matches!(
            t.kind,
            TokenKind::LineComment
                | TokenKind::BlockComment
                | TokenKind::Str
                | TokenKind::RawStr
                | TokenKind::Char
        );
        if blank {
            for b in &mut bytes[t.start..t.start + t.text.len()] {
                if *b != b'\n' {
                    *b = b' ';
                }
            }
        }
    }
    // Blanked regions are ASCII spaces; untouched regions are unmodified
    // whole tokens, so the result is valid UTF-8.
    String::from_utf8_lossy(&bytes).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn basic_tokens_and_spans() {
        let toks = lex("fn main() {\n    let x = 1;\n}\n");
        assert!(toks[0].is_ident("fn"));
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        let let_tok = toks.iter().find(|t| t.is_ident("let")).unwrap();
        assert_eq!((let_tok.line, let_tok.col), (2, 5));
    }

    #[test]
    fn line_comment_hides_idents() {
        assert_eq!(idents("// HashMap here\nlet a;"), vec!["let", "a"]);
    }

    #[test]
    fn nested_block_comment_hides_idents() {
        let src = "/* outer /* inner HashMap */ still comment */ let a;";
        assert_eq!(idents(src), vec!["let", "a"]);
    }

    #[test]
    fn strings_hide_idents() {
        assert_eq!(idents(r#"let s = "HashMap unsafe";"#), vec!["let", "s"]);
        assert_eq!(idents("let s = b\"unsafe\";"), vec!["let", "s"]);
    }

    #[test]
    fn raw_strings_with_hashes_hide_idents() {
        let src = "let s = r##\"quote \" and \"# inside HashMap\"##; let t;";
        assert_eq!(idents(src), vec!["let", "s", "let", "t"]);
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        assert_eq!(idents(r#"let s = "a\"unsafe\"b"; let t;"#), vec![
            "let", "s", "let", "t"
        ]);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = lex("fn f<'a>(x: &'a str) -> &'static str { x }");
        assert!(toks.iter().any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'static"));
        assert!(toks.iter().all(|t| t.kind != TokenKind::Char));
    }

    #[test]
    fn char_literals_lex_as_chars() {
        let toks = lex(r"let c = 'x'; let q = '\''; let n = '\n'; let b = b'z';");
        let chars: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, vec!["'x'", r"'\''", r"'\n'", "b'z'"]);
    }

    #[test]
    fn multiline_tokens_track_lines() {
        let src = "/* a\nb\nc */ let x = \"1\n2\";";
        let toks = lex(src);
        assert_eq!(toks[0].end_line(), 3);
        let let_tok = toks.iter().find(|t| t.is_ident("let")).unwrap();
        assert_eq!(let_tok.line, 3);
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!((s.line, s.end_line()), (3, 4));
    }

    #[test]
    fn code_mask_preserves_lines_and_blanks_literals() {
        let src = "let a = \"x\ny\"; // tail\n/* b */ let c = 'q';\n";
        let mask = code_mask(src);
        assert_eq!(mask.matches('\n').count(), src.matches('\n').count());
        assert!(!mask.contains("tail"));
        assert!(!mask.contains('x'));
        assert!(mask.contains("let a ="));
        assert!(mask.contains("let c ="));
    }

    #[test]
    fn ident_prefixed_with_r_or_b_is_still_ident() {
        assert_eq!(idents("let result = breaker(raw);"), vec![
            "let", "result", "breaker", "raw"
        ]);
    }
}
