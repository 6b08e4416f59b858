//! The live workspace must be lint-clean: this is the same check CI
//! runs via `cargo run -p simlint --release`, wired into `cargo test`
//! so a violation fails the ordinary test suite too. The structural
//! pass rides along: the full rule catalog (including the scope-aware
//! concurrency/determinism rules) runs over every file, and the
//! `[hot]` registry in simlint.toml is validated against the tree so
//! renamed or deleted hot functions cannot leave stale entries behind.

use simlint::rules::RULES;
use simlint::{lint_workspace, load_config, workspace_root};

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    assert!(
        root.join("simlint.toml").is_file(),
        "workspace root {} is missing simlint.toml",
        root.display()
    );
    let report = lint_workspace(&root).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — walker broken?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace has {} lint violation(s):\n{}",
        rendered.len(),
        rendered.join("\n")
    );
}

/// The scope-aware rules must stay in the catalog — the workspace-clean
/// assertion above is only meaningful if they actually ran.
#[test]
fn structural_rules_are_in_the_catalog() {
    for id in [
        "prng-stream-discipline",
        "no-adhoc-threading",
        "no-shared-sync-outside-pool",
        "hot-path-alloc",
        "no-nondet-float-reduction",
    ] {
        assert!(
            RULES.iter().any(|r| r.id == id),
            "rule `{id}` missing from the catalog"
        );
    }
    for rule in RULES {
        assert!(
            !rule.explanation.trim().is_empty(),
            "rule `{}` has no --explain text",
            rule.id
        );
    }
}

/// Every `[hot]` entry in simlint.toml must name a real file and a
/// function that still exists in it — a rename must not quietly disarm
/// the zero-alloc guard.
#[test]
fn hot_registry_matches_the_tree() {
    let root = workspace_root();
    let config = load_config(&root).expect("simlint.toml parses");
    let mut entries = 0;
    for (path, fns) in config.hot_entries() {
        let source = std::fs::read_to_string(root.join(path))
            .unwrap_or_else(|e| panic!("[hot] lists missing file {path}: {e}"));
        for f in fns {
            // `fn f(` or, for a generic function, `fn f<`.
            assert!(
                source.contains(&format!("fn {f}(")) || source.contains(&format!("fn {f}<")),
                "[hot] {path} lists `{f}`, but no `fn {f}(` or `fn {f}<` exists there"
            );
            entries += 1;
        }
    }
    assert!(
        entries > 0,
        "the [hot] registry is empty — the zero-alloc guard is unarmed"
    );
}
