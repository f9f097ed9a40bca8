//! A hand-rolled Rust lexer — just enough tokenization to attribute
//! findings to functions and keep rule patterns out of comments and
//! string literals.
//!
//! There is no `syn` under `vendor/`, and pulling a real parser in for
//! eight rules would make the linter heavier than the subsystems it
//! checks. Tokenization is the part that must be *right* (a `panic!`
//! inside a string literal must never fire the panic-freedom rule, a
//! `// SAFETY:` comment must be seen as a comment); item structure on
//! top of the token stream can stay heuristic because the rules only
//! need function boundaries and test/production classification.
//!
//! The lexer is total: any input produces a token stream, malformed
//! source (unterminated strings, stray bytes) degrades into best-effort
//! tokens, and nothing here panics — property-tested against arbitrary
//! input in `tests/lexer_props.rs`.

/// What a token is, at the granularity the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `HashMap`, ...).
    Ident,
    /// Lifetime (`'a`) — distinguished so `'a` is never a char literal.
    Lifetime,
    /// Integer literal (`0`, `42usize`, `0xFF`).
    Int,
    /// Float literal (`1.5`, `2e9`).
    Float,
    /// String literal of any flavor: `"..."`, `r"..."`, `r#"..."#`,
    /// `b"..."`, `br#"..."#`. The span covers the quotes/hashes.
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Line comment, `//` through end of line (text includes the `//`).
    LineComment,
    /// Block comment, `/* ... */`, nesting respected.
    BlockComment,
    /// Any single punctuation byte (`{`, `.`, `!`, `#`, ...).
    Punct,
}

/// One token: kind + byte span + 1-based line of its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based source line of `start`.
    pub line: u32,
}

impl Token {
    /// The token's text. Total: an out-of-range or non-boundary span
    /// (impossible for spans this lexer produced over the same source)
    /// yields `""` instead of panicking.
    #[must_use]
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// Whether this token is an identifier with exactly this text.
    #[must_use]
    pub(crate) fn is_ident(&self, src: &str, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text(src) == name
    }

    /// Whether this token is this punctuation byte.
    #[must_use]
    pub(crate) fn is_punct(&self, src: &str, p: char) -> bool {
        self.kind == TokenKind::Punct && self.text(src).starts_with(p)
    }
}

/// Tokenizes `src`. Whitespace is dropped; comments are kept as tokens
/// (the SAFETY rule reads them). Never panics, for any input.
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Advances one byte, counting lines.
    fn bump(&mut self) {
        if self.peek(0) == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32) {
        self.tokens.push(Token {
            kind,
            start,
            end: self.pos,
            line,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(b) = self.peek(0) {
            let start = self.pos;
            let line = self.line;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == Some(b'/') => {
                    while self.peek(0).is_some_and(|c| c != b'\n') {
                        self.bump();
                    }
                    self.push(TokenKind::LineComment, start, line);
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.block_comment(start, line);
                }
                b'"' => {
                    self.bump();
                    self.string_body();
                    self.push(TokenKind::Str, start, line);
                }
                b'r' | b'b' if self.raw_or_byte_literal(start, line) => {}
                b'\'' => self.char_or_lifetime(start, line),
                b'0'..=b'9' => self.number(start, line),
                _ if is_ident_start(b) => {
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.bump();
                    }
                    self.push(TokenKind::Ident, start, line);
                }
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct, start, line);
                }
            }
        }
        self.tokens
    }

    /// `/* ... */` with nesting; an unterminated comment swallows the
    /// rest of the file (matching rustc, which rejects it — for lint
    /// purposes the content must stay out of rule matching either way).
    fn block_comment(&mut self, start: usize, line: u32) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => self.bump(),
                (None, _) => break,
            }
        }
        self.push(TokenKind::BlockComment, start, line);
    }

    /// Consumes a `"..."` body (opening quote already consumed),
    /// honoring `\"` and `\\` escapes. Unterminated: runs to EOF.
    fn string_body(&mut self) {
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => {
                    self.bump();
                    if self.peek(0).is_some() {
                        self.bump();
                    }
                }
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Handles `r"`, `r#"`, `b"`, `br#"`, `b'` prefixes. Returns false
    /// if the `r`/`b` turns out to start a plain identifier, leaving
    /// the position untouched.
    fn raw_or_byte_literal(&mut self, start: usize, line: u32) -> bool {
        let mut ahead = 1;
        let mut raw = self.peek(0) == Some(b'r');
        if self.peek(0) == Some(b'b') {
            match self.peek(1) {
                Some(b'\'') => {
                    // Byte char: b'x'. Consume `b` then the char literal.
                    self.bump();
                    self.char_literal_body();
                    self.push(TokenKind::Char, start, line);
                    return true;
                }
                Some(b'r') => {
                    raw = true;
                    ahead = 2;
                }
                _ => {}
            }
        }
        if raw {
            // r or br, then zero or more '#', then '"'.
            let mut hashes = 0usize;
            while self.peek(ahead + hashes) == Some(b'#') {
                hashes += 1;
            }
            if self.peek(ahead + hashes) == Some(b'"') {
                for _ in 0..(ahead + hashes + 1) {
                    self.bump();
                }
                self.raw_string_body(hashes);
                self.push(TokenKind::Str, start, line);
                return true;
            }
            return false; // `r` / `br` identifier-ish (e.g. `r#foo` raw ident is rare; lex as ident)
        }
        // Plain `b"..."` byte string.
        if self.peek(0) == Some(b'b') && self.peek(1) == Some(b'"') {
            self.bump();
            self.bump();
            self.string_body();
            self.push(TokenKind::Str, start, line);
            return true;
        }
        false
    }

    /// Consumes a raw string body up to `"###...` with `hashes` hashes
    /// (no escapes in raw strings). Unterminated: runs to EOF.
    fn raw_string_body(&mut self, hashes: usize) {
        while let Some(b) = self.peek(0) {
            if b == b'"' {
                let mut matched = 0;
                while matched < hashes && self.peek(1 + matched) == Some(b'#') {
                    matched += 1;
                }
                if matched == hashes {
                    for _ in 0..=hashes {
                        self.bump();
                    }
                    return;
                }
            }
            self.bump();
        }
    }

    /// After a `'`: lifetime (`'a`, `'static`) or char literal
    /// (`'x'`, `'\n'`, `'\u{7F}'`).
    fn char_or_lifetime(&mut self, start: usize, line: u32) {
        // Lifetime: 'ident NOT followed by a closing quote.
        if self.peek(1).is_some_and(is_ident_start) {
            let mut end = 2;
            while self.peek(end).is_some_and(is_ident_continue) {
                end += 1;
            }
            if self.peek(end) != Some(b'\'') {
                for _ in 0..end {
                    self.bump();
                }
                self.push(TokenKind::Lifetime, start, line);
                return;
            }
        }
        self.char_literal_body();
        self.push(TokenKind::Char, start, line);
    }

    /// Consumes `'...'` (leading quote still pending), with escapes.
    /// A malformed literal consumes at most a handful of bytes.
    fn char_literal_body(&mut self) {
        self.bump(); // opening '
        match self.peek(0) {
            Some(b'\\') => {
                self.bump();
                if self.peek(0).is_some() {
                    self.bump();
                }
                // \u{...}
                while self.peek(0).is_some_and(|c| c != b'\'' && c != b'\n') {
                    self.bump();
                }
            }
            Some(b'\'') | None => {}
            Some(_) => self.bump(),
        }
        if self.peek(0) == Some(b'\'') {
            self.bump();
        }
    }

    fn number(&mut self, start: usize, line: u32) {
        let mut float = false;
        // Prefix forms: 0x / 0o / 0b take alnum+underscore wholesale.
        if self.peek(0) == Some(b'0')
            && matches!(self.peek(1), Some(b'x' | b'o' | b'b' | b'X' | b'O' | b'B'))
        {
            self.bump();
            self.bump();
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            {
                self.bump();
            }
            self.push(TokenKind::Int, start, line);
            return;
        }
        while let Some(b) = self.peek(0) {
            match b {
                b'0'..=b'9' | b'_' => self.bump(),
                // A dot is part of the number only when followed by a
                // digit (so `batch[0].enqueued` keeps its `.` punct and
                // ranges like `0..n` stay two tokens).
                b'.' if self.peek(1).is_some_and(|c| c.is_ascii_digit()) && !float => {
                    float = true;
                    self.bump();
                }
                b'e' | b'E'
                    if self
                        .peek(1)
                        .is_some_and(|c| c.is_ascii_digit() || c == b'+' || c == b'-')
                        && !float =>
                {
                    float = true;
                    self.bump();
                    self.bump();
                }
                // Type suffixes (u64, f32, usize).
                _ if b.is_ascii_alphabetic() => self.bump(),
                _ => break,
            }
        }
        self.push(
            if float {
                TokenKind::Float
            } else {
                TokenKind::Int
            },
            start,
            line,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, t.text(src).to_owned()))
            .collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r#"let s = "panic!(\"no\")"; // unwrap() here is comment
        /* expect( */ call();"#;
        let toks = kinds(src);
        let idents: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, ["let", "s", "call"]);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("panic!")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::LineComment && t.contains("unwrap()")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::BlockComment && t.contains("expect(")));
    }

    #[test]
    fn raw_strings_respect_hashes() {
        let src = r##"let a = r#"contains "quotes" and panic!"#; next()"##;
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("panic!")));
        assert!(toks.iter().any(|(_, t)| t == "next"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'b' }";
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "'a"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && t == "'b'"));
    }

    #[test]
    fn numbers_and_field_access() {
        let src = "batch[0].enqueued + 1.5e3 + 0xFF";
        let toks = kinds(src);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Int && t == "0"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Float && t == "1.5e3"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Int && t == "0xFF"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "enqueued"));
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nlines\"\nb";
        let toks = lex(src);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2, "string starts on line 2");
        assert_eq!(toks[2].line, 4, "b is on line 4 (string spans 2-3)");
    }

    #[test]
    fn byte_literals() {
        let src = r#"let a = b"bytes"; let c = b'\n';"#;
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t == "b\"bytes\""));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && t == "b'\\n'"));
    }
}
