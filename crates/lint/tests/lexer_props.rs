//! Property tests for the linter's front end: the lexer and the item
//! model must be total over arbitrary input (the linter runs on
//! whatever is on disk, including half-saved files mid-edit), and the
//! lexer's string/comment handling must keep panic-looking *data* from
//! producing findings.

use ncl_lint::config::Baseline;
use ncl_lint::lexer::{lex, TokenKind};
use ncl_lint::source::SourceFile;
use ncl_lint::workspace::Workspace;
use proptest::collection::vec;
use proptest::prelude::*;

/// Rust-ish fragments composed into plausible-but-mangled sources —
/// raw bytes rarely exercise the string/comment/raw-string state
/// machine, so this strategy stresses the delimiter handling.
const FRAGMENTS: &[&str] = &[
    "fn ",
    "pub ",
    "unsafe ",
    "mod tests ",
    "#[test]\n",
    "#[cfg(test)]\n",
    "{",
    "}",
    "(",
    ")",
    "[0]",
    ".unwrap()",
    ".expect(\"x\")",
    "panic!(",
    "\"",
    "\\\"",
    "r#\"",
    "\"#",
    "'",
    "'a",
    "'a'",
    "\\",
    "//",
    "/*",
    "*/",
    "\n",
    "0x1f",
    "1.5e3",
    "b\"bytes\"",
    "ident",
    "=>",
    "::",
    "HashMap",
    "need(",
    "with_capacity(",
    "counter(\"serve_x_total\"",
    "\u{1F980}",
];

/// A source string assembled from indexed fragments.
fn mangled_source() -> impl Strategy<Value = String> {
    vec(0..FRAGMENTS.len(), 0..64)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect::<String>())
}

/// Runs the full pipeline — lex, item model, every rule, baseline
/// partition — over one source mounted at an all-rules-in-scope path.
fn lint_arbitrary(src: String) {
    let ws = Workspace::from_sources(
        vec![("crates/online/src/delta.rs", src)],
        vec![("README.md", "| `x` |".to_owned())],
    );
    let baseline = Baseline::parse("").unwrap();
    let _ = ncl_lint::run(&ws, &baseline);
    let _ = ncl_lint::dump_metrics(&ws);
}

proptest! {
    #[test]
    fn lexer_is_total_over_arbitrary_bytes(bytes in vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let tokens = lex(&src);
        for t in &tokens {
            // Every token is a well-formed slice of the source.
            prop_assert!(t.start <= t.end && t.end <= src.len());
            prop_assert!(src.is_char_boundary(t.start) && src.is_char_boundary(t.end));
        }
        // Lines never decrease: findings sort by (file, line).
        for w in tokens.windows(2) {
            prop_assert!(w[0].line <= w[1].line);
        }
    }

    #[test]
    fn pipeline_is_total_over_arbitrary_bytes(bytes in vec(any::<u8>(), 0..256)) {
        lint_arbitrary(String::from_utf8_lossy(&bytes).into_owned());
    }

    #[test]
    fn pipeline_is_total_over_mangled_rust(src in mangled_source()) {
        lint_arbitrary(src);
    }

    #[test]
    fn item_model_is_total_over_mangled_rust(src in mangled_source()) {
        let file = SourceFile::analyze("crates/serve/src/server.rs", src);
        for (i, _) in file.tokens.iter().enumerate() {
            // Per-token queries never panic and fn bodies index in range.
            let _ = file.is_test_code(i);
            let _ = file.symbol_at(i);
            if let Some(f) = file.enclosing_fn(i) {
                prop_assert!(f.body == (0, 0) || f.body.1 < file.tokens.len());
            }
        }
    }
}

#[test]
fn panic_in_string_literal_is_data_not_code() {
    let src = r#"
pub fn log_line() -> &'static str {
    "never panic!(), .unwrap() or queue[0] here"
}
"#;
    let tokens = lex(src);
    // The whole sentence lexes as one string token...
    assert!(tokens
        .iter()
        .any(|t| t.kind == TokenKind::Str && t.text(src).contains("panic!")));
    // ...so no rule fires on it at a fully-enforced path (an integration
    // test names `log_line`, so it is no unused-pub either).
    let ws = Workspace::from_sources(
        vec![
            ("crates/serve/src/server.rs", src.to_owned()),
            ("tests/server.rs", "fn t() { log_line(); }".to_owned()),
        ],
        vec![],
    );
    let report = ncl_lint::run(&ws, &Baseline::parse("").unwrap());
    let source_findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file.ends_with(".rs"))
        .collect();
    assert!(source_findings.is_empty(), "{source_findings:?}");
}
