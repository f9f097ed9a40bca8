//! Item structure on top of the token stream: function boundaries,
//! `#[cfg(test)]` / `#[test]` classification, and the queries rules
//! ask ("is this token production code?", "which function is it in?").

use crate::lexer::{lex, Token, TokenKind};

/// One `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, **inclusive of both braces**.
    /// `(0, 0)` for bodyless declarations (trait methods, extern).
    pub body: (usize, usize),
    /// Whether the function is test code: `#[test]`, `#[cfg(test)]`,
    /// or lexically inside a `#[cfg(test)] mod`.
    pub is_test: bool,
}

/// One analyzed source file.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (`crates/serve/src/server.rs`).
    pub path: String,
    /// The raw source.
    pub src: String,
    /// Token stream (comments included, whitespace dropped).
    pub tokens: Vec<Token>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Token-index ranges (inclusive) that are test code.
    test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes and structures one file.
    #[must_use]
    pub fn analyze(path: &str, src: String) -> SourceFile {
        let tokens = lex(&src);
        let (fns, test_spans) = structure(&src, &tokens);
        SourceFile {
            path: path.to_owned(),
            src,
            tokens,
            fns,
            test_spans,
        }
    }

    /// Whether the token at `idx` lies in test code.
    #[must_use]
    pub fn is_test_code(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    /// The innermost function whose body contains token `idx`.
    #[must_use]
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body != (0, 0) && idx >= f.body.0 && idx <= f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }

    /// The symbol a finding at token `idx` should be keyed on: the
    /// enclosing function's name, or `"(file)"` at item level.
    #[must_use]
    pub fn symbol_at(&self, idx: usize) -> String {
        self.enclosing_fn(idx)
            .map_or_else(|| "(file)".to_owned(), |f| f.name.clone())
    }

    /// Non-comment token strictly before `idx`.
    #[must_use]
    pub(crate) fn skip_comments_back(&self, idx: usize) -> Option<usize> {
        (0..idx).rev().find(|&i| {
            !matches!(
                self.tokens[i].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            )
        })
    }

    /// Non-comment token at or after `idx`.
    #[must_use]
    pub(crate) fn skip_comments(&self, mut idx: usize) -> Option<usize> {
        while let Some(t) = self.tokens.get(idx) {
            match t.kind {
                TokenKind::LineComment | TokenKind::BlockComment => idx += 1,
                _ => return Some(idx),
            }
        }
        None
    }
}

/// Walks the token stream once, tracking brace depth, attributes and
/// `#[cfg(test)]` regions, and collecting `fn` items.
fn structure(src: &str, tokens: &[Token]) -> (Vec<FnItem>, Vec<(usize, usize)>) {
    let mut fns: Vec<FnItem> = Vec::new();
    let mut test_spans: Vec<(usize, usize)> = Vec::new();
    // Attribute state since the last item boundary.
    let mut pending_test_attr = false;
    let mut i = 0;
    while i < tokens.len() {
        let t = tokens[i];
        match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => {}
            TokenKind::Punct if t.is_punct(src, '#') => {
                // `#[...]` or `#![...]`: scan to the matching bracket,
                // noting test-marking attributes.
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|t| t.is_punct(src, '!')) {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.is_punct(src, '[')) {
                    let close = match_bracket(src, tokens, j, '[', ']');
                    if attr_marks_test(src, &tokens[j..=close.min(tokens.len() - 1)]) {
                        pending_test_attr = true;
                    }
                    i = close;
                }
            }
            TokenKind::Ident => match t.text(src) {
                "fn" => {
                    let name = tokens
                        .get(i + 1)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map_or_else(String::new, |t| t.text(src).to_owned());
                    let (body, after) = fn_body(src, tokens, i);
                    let is_test =
                        pending_test_attr || test_spans.iter().any(|&(a, b)| i >= a && i <= b);
                    fns.push(FnItem {
                        name,
                        line: t.line,
                        body,
                        is_test,
                    });
                    pending_test_attr = false;
                    // Do NOT skip past the body: nested fns and the
                    // items inside still get visited. Only step over
                    // the name so `fn fn` pathologies cannot loop.
                    let _ = after;
                }
                "mod" => {
                    // `mod name { ... }` — a #[cfg(test)] module marks
                    // its whole body as a test span.
                    if let Some(open) = find_body_open(src, tokens, i + 1) {
                        let close = match_bracket(src, tokens, open, '{', '}');
                        if pending_test_attr {
                            test_spans.push((i, close));
                        }
                    }
                    pending_test_attr = false;
                }
                // Attributes apply to the next item; any other item
                // keyword consumes them.
                "struct" | "enum" | "impl" | "trait" | "use" | "static" | "const" | "type"
                | "macro_rules" => {
                    pending_test_attr = false;
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    (fns, test_spans)
}

/// Whether `#[...]` tokens (starting at `[`) mark the next item as
/// test code: `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]`,
/// `#[tokio::test]`-style suffixed test attributes.
fn attr_marks_test(src: &str, attr: &[Token]) -> bool {
    let idents: Vec<&str> = attr
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text(src))
        .collect();
    match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test"),
        _ => idents.last() == Some(&"test"),
    }
}

/// From a `fn` keyword at `i`, finds the body `{ ... }` (token-index
/// range inclusive of braces) or `(0, 0)` if the declaration ends in
/// `;`. Returns `(body, index_after_signature)`.
fn fn_body(src: &str, tokens: &[Token], i: usize) -> ((usize, usize), usize) {
    // Scan forward for the first `{` at angle/paren/bracket depth 0,
    // or a `;` ending a bodyless declaration.
    let mut j = i + 1;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while let Some(t) = tokens.get(j) {
        if t.kind == TokenKind::Punct {
            match t.text(src).as_bytes().first() {
                Some(b'(') => paren += 1,
                Some(b')') => paren -= 1,
                Some(b'[') => bracket += 1,
                Some(b']') => bracket -= 1,
                Some(b'{') if paren <= 0 && bracket <= 0 => {
                    let close = match_bracket(src, tokens, j, '{', '}');
                    return ((j, close), close);
                }
                Some(b';') if paren <= 0 && bracket <= 0 => return ((0, 0), j),
                _ => {}
            }
        }
        j += 1;
    }
    ((0, 0), tokens.len())
}

/// First `{` at or after `from` before any `;` (for `mod name {`).
fn find_body_open(src: &str, tokens: &[Token], from: usize) -> Option<usize> {
    let mut j = from;
    while let Some(t) = tokens.get(j) {
        if t.is_punct(src, '{') {
            return Some(j);
        }
        if t.is_punct(src, ';') {
            return None;
        }
        j += 1;
    }
    None
}

/// Index of the bracket matching `open_idx` (which holds `open`).
/// Unbalanced input returns the last token index — total, no panic.
pub(crate) fn match_bracket(
    src: &str,
    tokens: &[Token],
    open_idx: usize,
    open: char,
    close: char,
) -> usize {
    let mut depth = 0i64;
    let mut j = open_idx;
    while let Some(t) = tokens.get(j) {
        if t.kind == TokenKind::Punct {
            if t.is_punct(src, open) {
                depth += 1;
            } else if t.is_punct(src, close) {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::analyze("crates/x/src/lib.rs", src.to_owned())
    }

    #[test]
    fn finds_fns_and_bodies() {
        let f = file("fn alpha() { beta(); }\nfn beta() -> u8 { 7 }\n");
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "alpha");
        assert_eq!(f.fns[1].name, "beta");
        assert_eq!(f.fns[1].line, 2);
        // The call to beta() inside alpha's body attributes to alpha.
        let beta_call = f
            .tokens
            .iter()
            .position(|t| t.is_ident(&f.src, "beta"))
            .unwrap();
        assert_eq!(f.enclosing_fn(beta_call).unwrap().name, "alpha");
    }

    #[test]
    fn cfg_test_mod_marks_everything_inside() {
        let f = file(
            "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { y.unwrap(); }\n}\n",
        );
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test, "fn inside #[cfg(test)] mod");
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident(&f.src, "unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.is_test_code(unwraps[0]));
        assert!(f.is_test_code(unwraps[1]));
    }

    #[test]
    fn test_attr_marks_only_next_fn() {
        let f = file("#[test]\nfn t() {}\nfn prod() {}\n");
        assert!(f.fns[0].is_test);
        assert!(!f.fns[1].is_test);
    }

    #[test]
    fn where_clauses_and_nested_braces_do_not_confuse_bodies() {
        let f = file(
            "fn generic<T: Into<Vec<u8>>>(x: [u8; 2]) -> u8 where T: Clone { if x[0] > 0 { 1 } else { 0 } }\nfn after() {}\n",
        );
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[1].name, "after");
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let f = file("trait T { fn decl(&self) -> u8; fn with_default(&self) { } }");
        assert_eq!(f.fns[0].body, (0, 0));
        assert_ne!(f.fns[1].body, (0, 0));
    }
}
