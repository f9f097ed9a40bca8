//! Findings: what a rule reports, how it is keyed against the
//! baseline, and how it renders (human one-liners and machine JSON).

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The reporting rule's name (`panic-freedom`, ...).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable symbol the finding anchors to (function name, metric
    /// name, op name) — used for baseline matching so allowlist
    /// entries survive unrelated line drift.
    pub symbol: String,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// The baseline key: `rule:file:symbol`. Deliberately excludes the
    /// line number — a baseline entry tolerates the file shifting
    /// around the allowlisted function.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}:{}:{}", self.rule, self.file, self.symbol)
    }

    /// `file:line: [rule] message` — the human rendering.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Escapes a string for JSON output (the linter is zero-dependency, so
/// no serde here).
#[must_use]
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a JSON document:
/// `{"findings":[...],"total":N,"baselined":M}`.
#[must_use]
pub fn render_json(findings: &[Finding], baselined: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"symbol\": \"{}\", \"message\": \"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            json_escape(&f.symbol),
            json_escape(&f.message),
        ));
    }
    out.push_str(&format!(
        "\n  ],\n  \"total\": {},\n  \"baselined\": {}\n}}\n",
        findings.len(),
        baselined.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_line_stable() {
        let a = Finding {
            rule: "panic-freedom",
            file: "crates/serve/src/batcher.rs".into(),
            line: 10,
            symbol: "worker_loop".into(),
            message: "x".into(),
        };
        let mut b = a.clone();
        b.line = 99;
        assert_eq!(a.key(), b.key());
        assert_eq!(
            a.key(),
            "panic-freedom:crates/serve/src/batcher.rs:worker_loop"
        );
    }

    #[test]
    fn json_escapes_and_counts() {
        let f = Finding {
            rule: "strict-decode",
            file: "a.rs".into(),
            line: 1,
            symbol: "f".into(),
            message: "say \"no\"\nplease".into(),
        };
        let json = render_json(std::slice::from_ref(&f), std::slice::from_ref(&f));
        assert!(json.contains(r#"say \"no\"\nplease"#));
        assert!(json.contains("\"total\": 1"));
        assert!(json.contains("\"baselined\": 1"));
    }
}
