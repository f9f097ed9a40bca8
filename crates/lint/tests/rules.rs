//! The fixture suite: every rule's heuristics are pinned here against a
//! seeded-violation fixture and its clean twin. Fixtures live under
//! `tests/fixtures/` (which `Workspace::load` skips, so the corpus
//! never lints itself) and are mounted at fabricated in-scope paths —
//! the rules key their scope off `SourceFile::path`, not the disk
//! location.

use ncl_lint::config::Baseline;
use ncl_lint::findings::Finding;
use ncl_lint::rules::determinism::DeterminismHazards;
use ncl_lint::rules::metric_names::MetricNames;
use ncl_lint::rules::panic_freedom::PanicFreedom;
use ncl_lint::rules::safety_comment::SafetyComment;
use ncl_lint::rules::strict_decode::StrictDecode;
use ncl_lint::rules::trace_propagation::TracePropagation;
use ncl_lint::rules::unused_pub::UnusedPub;
use ncl_lint::rules::wire_coverage::WireCoverage;
use ncl_lint::rules::Rule;
use ncl_lint::workspace::Workspace;

const PANIC_BAD: &str = include_str!("fixtures/panic_bad.rs");
const PANIC_CLEAN: &str = include_str!("fixtures/panic_clean.rs");
const DETERMINISM_BAD: &str = include_str!("fixtures/determinism_bad.rs");
const DETERMINISM_CLEAN: &str = include_str!("fixtures/determinism_clean.rs");
const DECODE_BAD: &str = include_str!("fixtures/decode_bad.rs");
const DECODE_CLEAN: &str = include_str!("fixtures/decode_clean.rs");
const SAFETY_BAD: &str = include_str!("fixtures/safety_bad.rs");
const SAFETY_CLEAN: &str = include_str!("fixtures/safety_clean.rs");
const METRIC_BAD: &str = include_str!("fixtures/metric_bad.rs");
const METRIC_CLEAN: &str = include_str!("fixtures/metric_clean.rs");
const WIRE_PROTOCOL: &str = include_str!("fixtures/wire_protocol.rs");
const WIRE_SERVER_BAD: &str = include_str!("fixtures/wire_server_bad.rs");
const WIRE_SERVER_CLEAN: &str = include_str!("fixtures/wire_server_clean.rs");
const WIRE_CLIENT_BAD: &str = include_str!("fixtures/wire_client_bad.rs");
const WIRE_CLIENT_CLEAN: &str = include_str!("fixtures/wire_client_clean.rs");
const TRACE_BAD: &str = include_str!("fixtures/trace_bad.rs");
const TRACE_CLEAN: &str = include_str!("fixtures/trace_clean.rs");
const UNUSED_PUB_BAD: &str = include_str!("fixtures/unused_pub_bad.rs");
const UNUSED_PUB_CLEAN: &str = include_str!("fixtures/unused_pub_clean.rs");

/// Lints a single fixture mounted at `path` with one rule.
fn lint_one(rule: &dyn Rule, path: &str, src: &str) -> Vec<Finding> {
    let ws = Workspace::from_sources(vec![(path, src.to_owned())], vec![]);
    rule.check(&ws)
}

#[test]
fn panic_freedom_fires_on_every_seeded_construct() {
    let findings = lint_one(&PanicFreedom, "crates/serve/src/server.rs", PANIC_BAD);
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(findings.len(), 4, "{messages:?}");
    assert!(messages.iter().any(|m| m.contains(".unwrap()")));
    assert!(messages.iter().any(|m| m.contains("panic!")));
    assert!(messages.iter().any(|m| m.contains("[0]")));
    assert!(messages.iter().any(|m| m.contains("unreachable!")));
    // Findings anchor to the enclosing function, the baseline key unit.
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.symbol == "handle_request")
            .count(),
        3
    );
    assert_eq!(findings.iter().filter(|f| f.symbol == "route").count(), 1);
}

#[test]
fn panic_freedom_silent_on_clean_twin() {
    // The twin mentions panic!/unwrap() inside a string literal and a
    // comment — the lexer must see those as data, not code.
    let findings = lint_one(&PanicFreedom, "crates/serve/src/server.rs", PANIC_CLEAN);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_freedom_ignores_out_of_scope_and_bin_paths() {
    assert!(lint_one(&PanicFreedom, "crates/spike/src/rle.rs", PANIC_BAD).is_empty());
    assert!(lint_one(
        &PanicFreedom,
        "crates/serve/src/bin/ncl-serve.rs",
        PANIC_BAD
    )
    .is_empty());
}

#[test]
fn determinism_fires_on_hash_iteration_and_clock_reads() {
    let findings = lint_one(
        &DeterminismHazards,
        "crates/spike/src/encode.rs",
        DETERMINISM_BAD,
    );
    assert!(!findings.is_empty());
    assert!(findings.iter().any(|f| f.message.contains("HashMap")));
    assert!(findings.iter().any(|f| f.message.contains("Instant")));
    assert!(findings.iter().any(|f| f.symbol == "encode_report"));
}

#[test]
fn determinism_silent_on_clean_twin() {
    // The twin's #[cfg(test)] module uses HashMap and Instant freely.
    let findings = lint_one(
        &DeterminismHazards,
        "crates/spike/src/encode.rs",
        DETERMINISM_CLEAN,
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn strict_decode_fires_on_unvalidated_allocation() {
    let findings = lint_one(&StrictDecode, "crates/spike/src/rle.rs", DECODE_BAD);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].symbol, "decode_frame");
    assert!(findings[0].message.contains("allocates before validating"));
}

#[test]
fn strict_decode_silent_when_need_precedes_allocation() {
    let findings = lint_one(&StrictDecode, "crates/spike/src/rle.rs", DECODE_CLEAN);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn safety_comment_fires_on_bare_unsafe() {
    let findings = lint_one(&SafetyComment, "crates/runtime/src/mmio.rs", SAFETY_BAD);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].symbol, "read_register");
    assert!(findings[0].message.contains("SAFETY:"));
}

#[test]
fn safety_comment_silent_with_adjacent_justification() {
    // Also covers `"unsafe"` as a string literal, which is data.
    let findings = lint_one(&SafetyComment, "crates/runtime/src/mmio.rs", SAFETY_CLEAN);
    assert!(findings.is_empty(), "{findings:?}");
}

const README_BAD: &str = "\
# Metrics

| Metric | Type | Meaning |
|---|---|---|
| `serve_requests_ok_total` | counter | requests served |
| `serve_stale_total` | counter | documented but never registered |
";

const JSON_BAD: &str = "\
{
  \"generated_by\": \"ncl-lint --dump-metrics\",
  \"metrics\": [
    \"serve_old_total\",
    \"serve_requests_ok_total\"
  ]
}
";

const README_CLEAN: &str = "\
# Metrics

| Metric | Type | Meaning |
|---|---|---|
| `serve_{requests_ok_total,latency_us}` | mixed | request accounting |
";

const JSON_CLEAN: &str = "\
{
  \"generated_by\": \"ncl-lint --dump-metrics\",
  \"metrics\": [
    \"serve_latency_us\",
    \"serve_requests_ok_total\"
  ]
}
";

#[test]
fn metric_drift_flags_all_four_drift_directions() {
    let ws = Workspace::from_sources(
        vec![("crates/serve/src/metrics.rs", METRIC_BAD.to_owned())],
        vec![
            ("README.md", README_BAD.to_owned()),
            ("scripts/expected_metrics.json", JSON_BAD.to_owned()),
        ],
    );
    let findings = MetricNames.check(&ws);
    let has = |symbol: &str, message_part: &str| {
        findings
            .iter()
            .any(|f| f.symbol == symbol && f.message.contains(message_part))
    };
    assert_eq!(findings.len(), 4, "{findings:?}");
    assert!(has("serve_ghost_total", "missing from the README"));
    assert!(has("serve_stale_total", "nothing registers it"));
    assert!(has(
        "serve_ghost_total",
        "not in scripts/expected_metrics.json"
    ));
    assert!(has("serve_old_total", "no longer registered"));
}

#[test]
fn metric_drift_silent_when_three_surfaces_agree() {
    // The README uses the compressed {a,b} notation; the fixture's
    // #[cfg(test)] registration must stay invisible to the rule.
    let ws = Workspace::from_sources(
        vec![("crates/serve/src/metrics.rs", METRIC_CLEAN.to_owned())],
        vec![
            ("README.md", README_CLEAN.to_owned()),
            ("scripts/expected_metrics.json", JSON_CLEAN.to_owned()),
        ],
    );
    let findings = MetricNames.check(&ws);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn metric_drift_requires_the_expected_metrics_file() {
    let ws = Workspace::from_sources(
        vec![("crates/serve/src/metrics.rs", METRIC_CLEAN.to_owned())],
        vec![("README.md", README_CLEAN.to_owned())],
    );
    let findings = MetricNames.check(&ws);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].symbol, "(file)");
    assert!(findings[0].message.contains("--dump-metrics"));
}

#[test]
fn wire_coverage_flags_missing_dispatch_and_missing_method() {
    let ws = Workspace::from_sources(
        vec![
            ("crates/serve/src/protocol.rs", WIRE_PROTOCOL.to_owned()),
            ("crates/serve/src/server.rs", WIRE_SERVER_BAD.to_owned()),
            ("crates/serve/src/client.rs", WIRE_CLIENT_BAD.to_owned()),
        ],
        vec![],
    );
    let findings = WireCoverage.check(&ws);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.symbol == "drain"));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("never dispatches")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("no client method")));
}

#[test]
fn wire_coverage_silent_when_every_op_is_covered() {
    let ws = Workspace::from_sources(
        vec![
            ("crates/serve/src/protocol.rs", WIRE_PROTOCOL.to_owned()),
            ("crates/serve/src/server.rs", WIRE_SERVER_CLEAN.to_owned()),
            ("crates/serve/src/client.rs", WIRE_CLIENT_CLEAN.to_owned()),
        ],
        vec![],
    );
    let findings = WireCoverage.check(&ws);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn trace_propagation_flags_unstamped_relays_after_start_span() {
    let findings = lint_one(&TracePropagation, "crates/router/src/router.rs", TRACE_BAD);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().any(|f| f.symbol == "relay_predict"));
    assert!(findings.iter().any(|f| f.symbol == "relay_persistent"));
    assert!(findings
        .iter()
        .all(|f| f.message.contains("without traced_line")));
}

#[test]
fn trace_propagation_silent_on_clean_twin_and_opaque_relays() {
    // The twin re-stamps every relay; "start_span"/".request(" inside
    // a string literal are data; the #[cfg(test)] shortcut is exempt.
    let findings = lint_one(
        &TracePropagation,
        "crates/router/src/router.rs",
        TRACE_CLEAN,
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn trace_propagation_ignores_trace_opaque_files_and_bins() {
    // A file that never names TraceContext opted out of tracing — its
    // relays (the sync loop's shape) pass bytes through unflagged.
    let opaque = TRACE_BAD.replace("TraceContext", "TraceOpaque");
    assert!(lint_one(&TracePropagation, "crates/router/src/sync.rs", &opaque).is_empty());
    // Binaries originate traces, never relay.
    assert!(lint_one(
        &TracePropagation,
        "crates/serve/src/bin/ncl-trace.rs",
        TRACE_BAD
    )
    .is_empty());
    // Out-of-scope crates are untouched.
    assert!(lint_one(&TracePropagation, "crates/online/src/daemon.rs", TRACE_BAD).is_empty());
}

/// Where the unused-pub fixtures are mounted: a library module.
const UNUSED_PUB_PATH: &str = "crates/spike/src/codec.rs";

/// The clean twin's users, one per kind of user-only tree.
const UNUSED_PUB_USERS: [(&str, &str, &str); 3] = [
    (
        "tests/codec_roundtrip.rs",
        "use ncl_spike::codec::encode;\n#[test]\nfn t() { let _ = encode(1); }\n",
        "encode",
    ),
    (
        "crates/spike/src/bin/codec-tool.rs",
        "fn main() { let _ = ncl_spike::codec::decode_cli; }\n",
        "decode_cli",
    ),
    (
        "perfbench/src/main.rs",
        "fn main() { ncl_spike::codec::bench_hook(); }\n",
        "bench_hook",
    ),
];

fn unused_pub_symbols(sources: Vec<(&str, String)>) -> Vec<String> {
    let ws = Workspace::from_sources(sources, vec![]);
    UnusedPub.check(&ws).into_iter().map(|f| f.symbol).collect()
}

#[test]
fn unused_pub_fires_on_items_only_their_own_crate_names() {
    // Users that do not count: a comment, a string literal and a
    // `pub use` re-export naming `only_mentioned`, and binders (a
    // field, a parameter) named like `Ring::log`.
    let symbols = unused_pub_symbols(vec![
        (UNUSED_PUB_PATH, UNUSED_PUB_BAD.to_owned()),
        (
            "tests/mentions.rs",
            "// only_mentioned is handy\nconst NAME: &str = \"only_mentioned\";\n".to_owned(),
        ),
        (
            "src/lib.rs",
            "pub use ncl_spike::codec::only_mentioned;\n".to_owned(),
        ),
        (
            "tests/ring.rs",
            "fn drain(log: &ncl_spike::codec::Ring) {}\n".to_owned(),
        ),
    ]);
    assert_eq!(
        symbols,
        [
            "only_unit_tested",
            "only_mentioned",
            "Orphan",
            "Orphan::poke",
            "Ring::log"
        ],
    );
}

#[test]
fn unused_pub_silent_when_a_user_or_pub_signature_names_the_item() {
    let mut sources = vec![(UNUSED_PUB_PATH, UNUSED_PUB_CLEAN.to_owned())];
    sources.extend(UNUSED_PUB_USERS.map(|(path, src, _)| (path, src.to_owned())));
    assert!(unused_pub_symbols(sources).is_empty());
    // Each kind of user is what keeps its item silent.
    for (dropped, _, item) in UNUSED_PUB_USERS {
        let mut sources = vec![(UNUSED_PUB_PATH, UNUSED_PUB_CLEAN.to_owned())];
        sources.extend(
            UNUSED_PUB_USERS
                .iter()
                .filter(|(path, _, _)| *path != dropped)
                .map(|(path, src, _)| (*path, (*src).to_owned())),
        );
        assert_eq!(unused_pub_symbols(sources), [item], "without {dropped}");
    }
}

#[test]
fn user_trees_are_loaded_but_never_linted() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).unwrap();
    for tree in [
        "tests/",
        "examples/",
        "perfbench/src/",
        "crates/lint/tests/",
    ] {
        assert!(
            ws.users.iter().any(|f| f.path.starts_with(tree)),
            "{tree} not loaded"
        );
    }
    assert!(ws.users.iter().any(|f| f.path.contains("/benches/")));
    assert!(ws.users.iter().all(|f| !f.path.contains("/fixtures/")));
    assert!(ws.files.iter().all(|f| f.path.contains("src/")));
    // The other rules report exactly what they report without the users.
    let targets_only = Workspace::from_sources(
        ws.files
            .iter()
            .map(|f| (f.path.as_str(), f.src.clone()))
            .collect(),
        ws.artifacts
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect(),
    );
    for rule in ncl_lint::rules::all_rules() {
        if rule.name() != "unused-pub" {
            assert_eq!(
                rule.check(&ws),
                rule.check(&targets_only),
                "{}",
                rule.name()
            );
        }
    }
}

/// Names every `pub` item of the other rules' clean twins.
const CORPUS_USER: &str = "fn uses(c: Client) {
    handle_request(); route(); relay_predict(); relay_persistent(); relay_opaque();
    read_register(); tagged(); parse_request(); handle_line();
    encode_report(); decode_frame(); c.ping(); c.stats(); c.drain();
}";

#[test]
fn full_run_over_the_clean_corpus_is_clean() {
    // Every clean twin mounted at its in-scope path, all rules, empty
    // baseline: the whole pipeline agrees there is nothing to report.
    let ws = Workspace::from_sources(
        vec![
            ("crates/obs/src/ring.rs", PANIC_CLEAN.to_owned()),
            ("crates/spike/src/encode.rs", DETERMINISM_CLEAN.to_owned()),
            ("crates/spike/src/rle.rs", DECODE_CLEAN.to_owned()),
            ("crates/runtime/src/mmio.rs", SAFETY_CLEAN.to_owned()),
            ("crates/serve/src/metrics.rs", METRIC_CLEAN.to_owned()),
            ("crates/serve/src/protocol.rs", WIRE_PROTOCOL.to_owned()),
            ("crates/serve/src/server.rs", WIRE_SERVER_CLEAN.to_owned()),
            ("crates/serve/src/client.rs", WIRE_CLIENT_CLEAN.to_owned()),
            ("crates/router/src/router.rs", TRACE_CLEAN.to_owned()),
            (UNUSED_PUB_PATH, UNUSED_PUB_CLEAN.to_owned()),
            // The other twins' public fns, as an integration test would
            // call them.
            ("tests/corpus.rs", CORPUS_USER.to_owned()),
        ]
        .into_iter()
        .chain(UNUSED_PUB_USERS.map(|(path, src, _)| (path, src.to_owned())))
        .collect(),
        vec![
            ("README.md", README_CLEAN.to_owned()),
            ("scripts/expected_metrics.json", JSON_CLEAN.to_owned()),
        ],
    );
    let baseline = Baseline::parse("").unwrap();
    let report = ncl_lint::run(&ws, &baseline);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.baselined.is_empty());
    assert!(report.stale.is_empty());
    assert!(!report.deny());
}
