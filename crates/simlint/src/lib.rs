//! simlint — workspace determinism & invariant lints.
//!
//! The entire value of this reproduction rests on bit-exact,
//! seed-stable simulation: the decision cache and the golden tests are
//! only trustworthy because no code path reads wall-clock time, ambient
//! randomness, or iteration-order-dependent state. This crate enforces
//! those conventions as named, individually allowlistable lexical
//! rules (see [`rules::RULES`]), reporting
//! `file:line: rule-id: message` diagnostics and a non-zero exit on
//! violation.
//!
//! Rules run over two views of each file: the raw token stream
//! ([`lexer`]) and a structural scope tree layered on it ([`scope`]) —
//! which function/closure/test region a token sits in, whether a
//! closure is an argument to a `fan_out*` call, and item-level
//! `// simlint: allow(rule)` annotations.
//!
//! Usage:
//!
//! ```text
//! cargo run -p simlint                # lint the whole workspace
//! cargo run -p simlint -- a.rs b.rs  # lint specific files, all rules on
//! cargo run -p simlint -- --format=json   # machine-readable diagnostics
//! cargo run -p simlint -- --list-rules
//! cargo run -p simlint -- --explain no-adhoc-threading
//! ```
//!
//! The allowlist lives in `simlint.toml` at the workspace root (path
//! prefixes per rule — module boundaries, never line numbers); single
//! sites are excused inline with `// simlint: allow(rule-id) — reason`.
//! DESIGN.md § "Determinism invariants" documents each rule.
//!
//! std-only by design: the linter sits in the determinism trust chain
//! and must not pull dependencies into the vendored-stubs build.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod rules;
pub mod scope;

use config::Config;
use rules::Diagnostic;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".cargo"];

/// Path fragments excluded from workspace lints: rule fixtures violate
/// on purpose.
const SKIP_FRAGMENTS: &[&str] = &["crates/simlint/tests/fixtures/"];

/// Result of a workspace lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations, sorted by path then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Collects every lintable `.rs` file under `root`, as workspace-relative
/// `/`-separated paths, sorted for deterministic output.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
                continue;
            }
            if !name.ends_with(".rs") {
                continue;
            }
            let rel = relative_slash(root, &path);
            if SKIP_FRAGMENTS.iter().any(|f| rel.starts_with(f)) {
                continue;
            }
            out.push(rel);
        }
    }
    out.sort();
    Ok(out)
}

fn relative_slash(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Loads `simlint.toml` from `root` (empty config when absent).
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("simlint.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => Config::parse(&text).map_err(|e| e.to_string()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Lints every `.rs` file under `root` with path-scoped rules and the
/// root's `simlint.toml` allowlist.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let config = load_config(root)?;
    let files = collect_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut report = Report::default();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("{rel}: {e}"))?;
        report.files_scanned += 1;
        report
            .diagnostics
            .extend(rules::lint_source(&rel, &source, &config, true));
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

/// The workspace root: `$CARGO_MANIFEST_DIR/../..` when invoked via
/// cargo (this crate lives at `crates/simlint`), else the current
/// directory.
pub fn workspace_root() -> PathBuf {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = Path::new(&manifest);
        if let Some(root) = p.parent().and_then(Path::parent) {
            if root.join("Cargo.toml").is_file() {
                return root.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}
