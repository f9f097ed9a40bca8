//! Rule `metric-drift`: the three places a metric name lives — the
//! registration call, the README metrics table, and the dashboards'
//! expected-metric list (`scripts/expected_metrics.json`, consumed by
//! `scripts/check_metrics.py`) — must agree.
//!
//! Metric names are stringly-typed by nature, so nothing else catches
//! a renamed family: the exposition silently grows a new name, the
//! README documents a metric that no longer exists, and the smoke
//! checks keep passing because they only see what *is* exported. This
//! rule closes the loop in both directions.
//!
//! Registration sites are method calls `.counter("name", ...)` (and
//! the `_with`/`adopt_`/`gauge`/`histogram`/`stage` variants) whose
//! first argument is a string literal with a fleet prefix. The README
//! table uses a compressed notation this rule expands:
//! `` `a` / `b` `` lists, `{x,y}` alternation
//! (`router_sync_{ticks,failures}_total`), and `{label=...}` suffixes
//! (stripped — labels are not part of the family name).

use std::collections::BTreeMap;

use crate::findings::Finding;
use crate::lexer::TokenKind;
use crate::rules::{str_literal_value, Rule};
use crate::workspace::Workspace;

/// Metric family prefixes owned by the fleet.
const PREFIXES: &[&str] = &["serve_", "router_", "replica_", "online_", "snn_", "obs_"];

/// Registry methods whose first argument is a metric family name.
const REG_METHODS: &[&str] = &[
    "counter",
    "counter_with",
    "adopt_counter",
    "gauge",
    "gauge_with",
    "adopt_gauge",
    "histogram",
    "histogram_with",
    "adopt_histogram",
    "adopt",
    "stage",
];

pub struct MetricNames;

impl Rule for MetricNames {
    fn name(&self) -> &'static str {
        "metric-drift"
    }

    fn describe(&self) -> &'static str {
        "registered metric names, the README table and expected_metrics.json agree"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        let registered = registered_metrics(ws);

        if let Some(readme) = ws.artifacts.get("README.md") {
            let documented = readme_metrics(readme);
            for (name, (file, line)) in &registered {
                if !documented.contains_key(name) {
                    findings.push(Finding {
                        rule: "metric-drift",
                        file: file.clone(),
                        line: *line,
                        symbol: name.clone(),
                        message: format!(
                            "metric {name} is registered here but missing from the README metrics table"
                        ),
                    });
                }
            }
            for (name, line) in &documented {
                if !registered.contains_key(name) {
                    findings.push(Finding {
                        rule: "metric-drift",
                        file: "README.md".to_owned(),
                        line: *line,
                        symbol: name.clone(),
                        message: format!(
                            "README documents metric {name}, but nothing registers it"
                        ),
                    });
                }
            }
        }

        match ws.artifacts.get("scripts/expected_metrics.json") {
            None => findings.push(Finding {
                rule: "metric-drift",
                file: "scripts/expected_metrics.json".to_owned(),
                line: 1,
                symbol: "(file)".to_owned(),
                message:
                    "expected-metrics list is missing — generate it with `ncl-lint --dump-metrics`"
                        .to_owned(),
            }),
            Some(json) => {
                let expected = json_metrics(json);
                for (name, (file, line)) in &registered {
                    if !expected.contains(name) {
                        findings.push(Finding {
                            rule: "metric-drift",
                            file: file.clone(),
                            line: *line,
                            symbol: name.clone(),
                            message: format!(
                                "metric {name} is not in scripts/expected_metrics.json — regenerate with `ncl-lint --dump-metrics`"
                            ),
                        });
                    }
                }
                for name in &expected {
                    if !registered.contains_key(name) {
                        findings.push(Finding {
                            rule: "metric-drift",
                            file: "scripts/expected_metrics.json".to_owned(),
                            line: 1,
                            symbol: name.clone(),
                            message: format!(
                                "expected metric {name} is no longer registered anywhere — regenerate with `ncl-lint --dump-metrics`"
                            ),
                        });
                    }
                }
            }
        }
        findings
    }
}

/// Every fleet-prefixed metric name registered in non-test code, with
/// the first registration site. Sorted by name (BTreeMap) so dump
/// output and findings are deterministic.
#[must_use]
pub(crate) fn registered_metrics(ws: &Workspace) -> BTreeMap<String, (String, u32)> {
    let mut out: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for file in &ws.files {
        let src = &file.src;
        let tokens = &file.tokens;
        for (i, t) in tokens.iter().enumerate() {
            // `.method("name", ...)` — the leading dot excludes the
            // method *definitions* in ncl_obs itself.
            if t.kind != TokenKind::Ident
                || !REG_METHODS.contains(&t.text(src))
                || i == 0
                || !tokens[i - 1].is_punct(src, '.')
            {
                continue;
            }
            if file.is_test_code(i) || file.enclosing_fn(i).is_some_and(|f| f.is_test) {
                continue;
            }
            let Some(open) = file.skip_comments(i + 1) else {
                continue;
            };
            if !tokens[open].is_punct(src, '(') {
                continue;
            }
            let Some(arg) = file.skip_comments(open + 1) else {
                continue;
            };
            if tokens[arg].kind != TokenKind::Str {
                continue;
            }
            let name = str_literal_value(tokens[arg].text(src));
            if PREFIXES.iter().any(|p| name.starts_with(p)) {
                out.entry(name.to_owned())
                    .or_insert_with(|| (file.path.clone(), tokens[arg].line));
            }
        }
    }
    out
}

/// Metric names documented in the README metrics table (first cell of
/// each row, backticked, compressed notation expanded), mapped to
/// their 1-based line.
fn readme_metrics(readme: &str) -> BTreeMap<String, u32> {
    let mut out = BTreeMap::new();
    for (lineno, line) in readme.lines().enumerate() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with('|') {
            continue;
        }
        let Some(first_cell) = trimmed.split('|').nth(1) else {
            continue;
        };
        // Backtick spans are the odd-index pieces of a backtick split.
        for (i, span) in first_cell.split('`').enumerate() {
            if i % 2 == 0 {
                continue;
            }
            for name in expand(span) {
                if PREFIXES.iter().any(|p| name.starts_with(p)) {
                    out.entry(name).or_insert(lineno as u32 + 1);
                }
            }
        }
    }
    out
}

/// Expands the table's compressed notation: `{a,b}` alternation
/// multiplies, `{label=...}` is stripped.
fn expand(name: &str) -> Vec<String> {
    let Some(open) = name.find('{') else {
        return vec![name.trim().to_owned()];
    };
    let Some(close) = name[open..].find('}').map(|c| open + c) else {
        return vec![name.trim().to_owned()];
    };
    let (prefix, inner, suffix) = (&name[..open], &name[open + 1..close], &name[close + 1..]);
    if inner.contains('=') {
        return expand(&format!("{prefix}{suffix}"));
    }
    inner
        .split(',')
        .flat_map(|alt| expand(&format!("{prefix}{}{suffix}", alt.trim())))
        .collect()
}

/// Fleet-prefixed names quoted anywhere in the expected-metrics JSON.
fn json_metrics(json: &str) -> Vec<String> {
    json.split('"')
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, s)| s.to_owned())
        .filter(|s| {
            PREFIXES
                .iter()
                .any(|p| s.starts_with(p) && s.len() > p.len())
                && s.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_handles_alternation_and_labels() {
        assert_eq!(
            expand("router_sync_{ticks,failures}_total"),
            vec!["router_sync_ticks_total", "router_sync_failures_total"]
        );
        assert_eq!(
            expand("router_backend_{a,b}_total{replica=N}"),
            vec!["router_backend_a_total", "router_backend_b_total"]
        );
        assert_eq!(
            expand("online_stage_us{stage=...}"),
            vec!["online_stage_us"]
        );
        assert_eq!(expand("serve_latency_us"), vec!["serve_latency_us"]);
    }

    #[test]
    fn readme_rows_split_on_slashes_and_commas() {
        let table = "| Metric | Type |\n|---|---|\n| `a_x` / `serve_a_total` | counter |\n| `online_v`, `online_w` | gauge |\n";
        let m = readme_metrics(table);
        assert_eq!(
            m.keys().cloned().collect::<Vec<_>>(),
            vec!["online_v", "online_w", "serve_a_total"]
        );
        assert_eq!(m["serve_a_total"], 3);
    }
}
