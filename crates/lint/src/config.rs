//! The committed `lint.toml` baseline: per-rule allowlist entries,
//! each with a written justification.
//!
//! The format is a tiny TOML subset parsed by hand (the linter is
//! zero-dependency): `[[allow]]` tables with `rule`, `key` and
//! `reason` string values. Anything else is a parse error — the
//! baseline is a reviewed artifact, not a config language.
//!
//! ```toml
//! [[allow]]
//! rule = "panic-freedom"
//! key = "panic-freedom:crates/serve/src/batcher.rs:worker_loop"
//! reason = "why this one is genuinely fine"
//! ```

use crate::findings::Finding;

/// One allowlisted finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The rule this entry silences (redundant with the key prefix,
    /// kept explicit so the baseline reads well in review).
    pub rule: String,
    /// The finding key (`rule:file:symbol`) being allowed.
    pub key: String,
    /// The written justification. Required and non-empty.
    pub reason: String,
}

/// The parsed baseline.
#[derive(Debug, Default)]
pub struct Baseline {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
}

impl Baseline {
    /// Parses `lint.toml` content.
    ///
    /// # Errors
    ///
    /// Returns a pointed message (with a line number) for anything that
    /// is not the supported subset, for entries missing `rule`/`key`/
    /// `reason`, or for an empty `reason`.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut current: Option<(Option<String>, Option<String>, Option<String>)> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let where_ = format!("lint.toml:{}", lineno + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                Baseline::finish(&mut entries, current.take(), &where_)?;
                current = Some((None, None, None));
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(format!(
                    "{where_}: expected `key = \"value\"`, got {line:?}"
                ));
            };
            let key = k.trim();
            let value = v.trim();
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("{where_}: value for {key} must be a quoted string"))?
                .to_owned();
            let Some(entry) = current.as_mut() else {
                return Err(format!("{where_}: {key} outside an [[allow]] table"));
            };
            match key {
                "rule" => entry.0 = Some(value),
                "key" => entry.1 = Some(value),
                "reason" => entry.2 = Some(value),
                other => return Err(format!("{where_}: unknown field {other:?}")),
            }
        }
        Baseline::finish(&mut entries, current.take(), "lint.toml:EOF")?;
        Ok(Baseline { entries })
    }

    fn finish(
        entries: &mut Vec<AllowEntry>,
        current: Option<(Option<String>, Option<String>, Option<String>)>,
        where_: &str,
    ) -> Result<(), String> {
        let Some((rule, key, reason)) = current else {
            return Ok(());
        };
        let rule = rule.ok_or_else(|| format!("{where_}: [[allow]] entry lacks `rule`"))?;
        let key = key.ok_or_else(|| format!("{where_}: [[allow]] entry lacks `key`"))?;
        let reason = reason.ok_or_else(|| format!("{where_}: [[allow]] entry lacks `reason`"))?;
        if reason.trim().is_empty() {
            return Err(format!(
                "{where_}: entry {key} has an empty reason — every allowlisted finding needs a written justification"
            ));
        }
        if !key.starts_with(&format!("{rule}:")) {
            return Err(format!(
                "{where_}: key {key:?} does not belong to rule {rule:?}"
            ));
        }
        entries.push(AllowEntry { rule, key, reason });
        Ok(())
    }

    /// Whether `finding` is allowlisted.
    #[must_use]
    pub(crate) fn allows(&self, finding: &Finding) -> bool {
        let key = finding.key();
        self.entries.iter().any(|e| e.key == key)
    }

    /// Entries that matched none of `findings` — a stale baseline is
    /// reported so fixed findings get their entries removed.
    #[must_use]
    pub(crate) fn unused<'a>(&'a self, findings: &[Finding]) -> Vec<&'a AllowEntry> {
        self.entries
            .iter()
            .filter(|e| !findings.iter().any(|f| f.key() == e.key))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_matches_keys() {
        let toml = r#"
# baseline
[[allow]]
rule = "panic-freedom"
key = "panic-freedom:crates/x/src/a.rs:f"
reason = "provably unreachable: guarded by the constructor"
"#;
        let baseline = Baseline::parse(toml).unwrap();
        assert_eq!(baseline.entries.len(), 1);
        let finding = Finding {
            rule: "panic-freedom",
            file: "crates/x/src/a.rs".into(),
            line: 3,
            symbol: "f".into(),
            message: String::new(),
        };
        assert!(baseline.allows(&finding));
        assert!(baseline.unused(&[finding]).is_empty());
        assert_eq!(baseline.unused(&[]).len(), 1);
    }

    #[test]
    fn rejects_missing_reason_and_mismatched_rule() {
        let missing = "[[allow]]\nrule = \"a\"\nkey = \"a:x:y\"\n";
        assert!(Baseline::parse(missing)
            .unwrap_err()
            .contains("lacks `reason`"));
        let empty = "[[allow]]\nrule = \"a\"\nkey = \"a:x:y\"\nreason = \"  \"\n";
        assert!(Baseline::parse(empty).unwrap_err().contains("empty reason"));
        let mismatch = "[[allow]]\nrule = \"a\"\nkey = \"b:x:y\"\nreason = \"r\"\n";
        assert!(Baseline::parse(mismatch)
            .unwrap_err()
            .contains("does not belong"));
    }

    #[test]
    fn empty_baseline_is_fine() {
        assert!(Baseline::parse("# nothing allowlisted\n")
            .unwrap()
            .entries
            .is_empty());
    }
}
