//! Workspace loading: which files the linter analyzes and the extra
//! non-Rust artifacts some rules cross-check (README, metric dumps).
//!
//! The lint targets are the production surface, `crates/*/src/**/*.rs`
//! plus the root package's `src/`. Integration tests (`tests/`,
//! `crates/*/tests/`), `examples/`, `crates/*/benches/` and the frozen
//! benchmark's `perfbench/src/` are loaded too, but only as *users* of
//! the library API: `unused-pub` reads the names they use, and no rule
//! lints them. `vendor/` (offline dependency stand-ins) and `target/`
//! are out of scope. Fixture trees (`tests/fixtures/`) are skipped so
//! the linter's seeded-violation corpus never lints itself, nor counts
//! as a user.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// The analyzed workspace.
pub struct Workspace {
    /// Lint targets (the production surface), sorted by path
    /// (deterministic output).
    pub files: Vec<SourceFile>,
    /// Code that only uses the library API — integration tests,
    /// examples, benches, `perfbench/src` — sorted by path. Never a
    /// lint target.
    pub users: Vec<SourceFile>,
    /// Non-Rust artifacts rules cross-check, keyed by workspace-relative
    /// path (`README.md`, `scripts/expected_metrics.json`). Missing
    /// files are simply absent.
    pub artifacts: BTreeMap<String, String>,
}

/// Artifacts the rules may cross-check.
const ARTIFACT_PATHS: &[&str] = &["README.md", "scripts/expected_metrics.json"];

impl Workspace {
    /// Builds a workspace from in-memory sources (the fixture tests).
    /// Each source lands in `files` or `users` by its path, exactly as
    /// [`Workspace::load`] sorts the files on disk.
    #[must_use]
    pub fn from_sources(sources: Vec<(&str, String)>, artifacts: Vec<(&str, String)>) -> Workspace {
        let (mut files, mut users): (Vec<SourceFile>, Vec<SourceFile>) = sources
            .into_iter()
            .map(|(path, src)| SourceFile::analyze(path, src))
            .partition(|f| is_target(&f.path));
        files.sort_by(|a, b| a.path.cmp(&b.path));
        users.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace {
            files,
            users,
            artifacts: artifacts
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        }
    }

    /// Loads the real workspace rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns a message for an unreadable root; individual unreadable
    /// files are skipped (the linter reports on what it can see).
    pub fn load(root: &Path) -> Result<Workspace, String> {
        if !root.join("Cargo.toml").is_file() {
            return Err(format!(
                "{} does not look like the workspace root (no Cargo.toml)",
                root.display()
            ));
        }
        let mut paths: Vec<PathBuf> = Vec::new();
        if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
            for entry in entries.flatten() {
                for tree in ["src", "tests", "benches"] {
                    collect_rs(&entry.path().join(tree), &mut paths);
                }
            }
        }
        for tree in ["src", "tests", "examples", "perfbench/src"] {
            collect_rs(&root.join(tree), &mut paths);
        }
        paths.sort();

        let mut files = Vec::new();
        let mut users = Vec::new();
        for path in paths {
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            let src = String::from_utf8_lossy(&bytes).into_owned();
            let file = SourceFile::analyze(&relative(root, &path), src);
            if is_target(&file.path) {
                files.push(file);
            } else {
                users.push(file);
            }
        }

        let mut artifacts = BTreeMap::new();
        for rel in ARTIFACT_PATHS {
            if let Ok(bytes) = std::fs::read(root.join(rel)) {
                artifacts.insert(
                    (*rel).to_owned(),
                    String::from_utf8_lossy(&bytes).into_owned(),
                );
            }
        }
        Ok(Workspace {
            files,
            users,
            artifacts,
        })
    }

    /// The analyzed file at `path`, if present.
    #[must_use]
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

/// Whether a workspace-relative path is a lint target: under a
/// crate's `src/` or the root package's `src/`.
fn is_target(path: &str) -> bool {
    path.starts_with("src/")
        || path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').nth(1))
            == Some("src")
}

/// Recursively collects `.rs` files under `dir`, skipping fixture
/// trees. Missing directories contribute nothing.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative `/`-separated path.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
