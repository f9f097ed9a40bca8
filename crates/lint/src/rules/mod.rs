//! The rule engine: eight repo-specific rules over the analyzed
//! workspace. Each rule documents the invariant it guards, the paths
//! it scopes to, and the heuristic it uses — heuristics are fine here
//! because the fixture suite pins exactly what fires and what stays
//! silent, and the baseline absorbs the (reviewed) leftovers.

pub mod determinism;
pub mod metric_names;
pub mod panic_freedom;
pub mod safety_comment;
pub mod strict_decode;
pub mod trace_propagation;
pub mod unused_pub;
pub mod wire_coverage;

use crate::findings::Finding;
use crate::workspace::Workspace;

/// One static-analysis rule.
pub trait Rule {
    /// Stable rule name (finding keys embed it).
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules` and the README table.
    fn describe(&self) -> &'static str;
    /// Runs the rule over the whole workspace.
    fn check(&self, ws: &Workspace) -> Vec<Finding>;
}

/// Every rule, in reporting order.
#[must_use]
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(panic_freedom::PanicFreedom),
        Box::new(determinism::DeterminismHazards),
        Box::new(strict_decode::StrictDecode),
        Box::new(safety_comment::SafetyComment),
        Box::new(metric_names::MetricNames),
        Box::new(wire_coverage::WireCoverage),
        Box::new(trace_propagation::TracePropagation),
        Box::new(unused_pub::UnusedPub),
    ]
}

/// The contents of a string-literal token: strips `b`/`r` prefixes,
/// raw-string hashes and the quotes. Total — malformed input just
/// loses fewer characters.
#[must_use]
pub(crate) fn str_literal_value(text: &str) -> &str {
    let s = text.strip_prefix('b').unwrap_or(text);
    let s = s.strip_prefix('r').unwrap_or(s);
    let s = s.trim_start_matches('#');
    let s = s.strip_prefix('"').unwrap_or(s);
    let s = s.trim_end_matches('#');
    s.strip_suffix('"').unwrap_or(s)
}

/// Whether `path` matches any of `prefixes_or_files` — entries ending
/// in `/` are directory prefixes, others are exact file paths.
#[must_use]
pub(crate) fn path_in(path: &str, prefixes_or_files: &[&str]) -> bool {
    prefixes_or_files.iter().any(|p| {
        if let Some(dir) = p.strip_suffix('/') {
            path.starts_with(dir) && path.len() > dir.len()
        } else {
            path == *p
        }
    })
}
