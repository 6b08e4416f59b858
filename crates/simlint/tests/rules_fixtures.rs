//! Drives every rule through its fixture trio: a violating file (must
//! produce at least one diagnostic of exactly that rule), a clean file
//! and an inline-allowlisted file (both must produce none).
//!
//! Fixtures live under `tests/fixtures/<rule-id>/` and are excluded
//! from workspace lint runs by the file walker.

use simlint::config::Config;
use simlint::rules::lint_source;
use std::path::PathBuf;

/// `(rule id, fixture file, pretend workspace path)` — the pretend path
/// places each fixture inside the rule's scope.
const CASES: &[(&str, &str, &str)] = &[
    (
        "no-wall-clock",
        "violating.rs",
        "crates/harness/src/fixture.rs",
    ),
    ("no-wall-clock", "clean.rs", "crates/harness/src/fixture.rs"),
    (
        "no-wall-clock",
        "allowlisted.rs",
        "crates/harness/src/fixture.rs",
    ),
    (
        "no-ambient-rng",
        "violating.rs",
        "crates/driftgen/src/fixture.rs",
    ),
    (
        "no-ambient-rng",
        "clean.rs",
        "crates/driftgen/src/fixture.rs",
    ),
    (
        "no-ambient-rng",
        "allowlisted.rs",
        "crates/driftgen/src/fixture.rs",
    ),
    (
        "no-unordered-iteration",
        "violating.rs",
        "crates/gpusim/src/fixture.rs",
    ),
    (
        "no-unordered-iteration",
        "clean.rs",
        "crates/gpusim/src/fixture.rs",
    ),
    (
        "no-unordered-iteration",
        "allowlisted.rs",
        "crates/gpusim/src/fixture.rs",
    ),
    (
        "forbid-unsafe-everywhere",
        "violating_lib.rs",
        "crates/gpusim/src/lib.rs",
    ),
    (
        "forbid-unsafe-everywhere",
        "clean_lib.rs",
        "crates/gpusim/src/lib.rs",
    ),
    (
        "forbid-unsafe-everywhere",
        "allowlisted_lib.rs",
        "crates/gpusim/src/lib.rs",
    ),
    (
        "no-unwrap-in-lib",
        "violating.rs",
        "crates/core/src/fixture.rs",
    ),
    ("no-unwrap-in-lib", "clean.rs", "crates/core/src/fixture.rs"),
    (
        "no-unwrap-in-lib",
        "allowlisted.rs",
        "crates/core/src/fixture.rs",
    ),
    (
        "float-env-guard",
        "violating.rs",
        "crates/nn/src/fixture.rs",
    ),
    ("float-env-guard", "clean.rs", "crates/nn/src/fixture.rs"),
    (
        "float-env-guard",
        "allowlisted.rs",
        "crates/nn/src/fixture.rs",
    ),
    (
        "prng-stream-discipline",
        "violating.rs",
        "crates/core/src/fixture.rs",
    ),
    (
        "prng-stream-discipline",
        "clean.rs",
        "crates/core/src/fixture.rs",
    ),
    (
        "prng-stream-discipline",
        "allowlisted.rs",
        "crates/core/src/fixture.rs",
    ),
    (
        "no-adhoc-threading",
        "violating.rs",
        "crates/harness/src/fixture.rs",
    ),
    (
        "no-adhoc-threading",
        "clean.rs",
        "crates/harness/src/fixture.rs",
    ),
    (
        "no-adhoc-threading",
        "allowlisted.rs",
        "crates/harness/src/fixture.rs",
    ),
    (
        "no-shared-sync-outside-pool",
        "violating.rs",
        "crates/core/src/fixture.rs",
    ),
    (
        "no-shared-sync-outside-pool",
        "clean.rs",
        "crates/core/src/fixture.rs",
    ),
    (
        "no-shared-sync-outside-pool",
        "allowlisted.rs",
        "crates/core/src/fixture.rs",
    ),
    (
        "no-nondet-float-reduction",
        "violating.rs",
        "crates/core/src/fixture.rs",
    ),
    (
        "no-nondet-float-reduction",
        "clean.rs",
        "crates/core/src/fixture.rs",
    ),
    (
        "no-nondet-float-reduction",
        "allowlisted.rs",
        "crates/core/src/fixture.rs",
    ),
];

fn fixture(rule: &str, file: &str) -> String {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", rule, file]
        .iter()
        .collect();
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

#[test]
fn every_rule_has_violating_clean_and_allowlisted_fixtures() {
    let config = Config::default();
    for (rule, file, pretend) in CASES {
        let source = fixture(rule, file);
        let diags = lint_source(pretend, &source, &config, true);
        let of_rule: Vec<_> = diags.iter().filter(|d| d.rule == *rule).collect();
        if file.starts_with("violating") {
            assert!(
                !of_rule.is_empty(),
                "{rule}/{file} at {pretend}: expected a {rule} diagnostic, got {diags:?}"
            );
        } else {
            assert!(
                of_rule.is_empty(),
                "{rule}/{file} at {pretend}: expected no {rule} diagnostics, got {of_rule:?}"
            );
        }
        // Fixtures must be surgical: no fixture may trip a *different*
        // rule, or the per-rule verdicts above would be ambiguous.
        assert!(
            diags.iter().all(|d| d.rule == *rule),
            "{rule}/{file}: tripped unrelated rules: {diags:?}"
        );
    }
}

#[test]
fn violating_fixtures_fail_in_unscoped_mode_too() {
    // `simlint <file>` (fixture mode) applies every rule by file name —
    // the mode CI uses to prove the binary exits non-zero per rule.
    let config = Config::default();
    for (rule, file, _) in CASES {
        if !file.starts_with("violating") {
            continue;
        }
        let name = if *rule == "forbid-unsafe-everywhere" {
            "lib.rs"
        } else {
            "fixture.rs"
        };
        let diags = lint_source(name, &fixture(rule, file), &config, false);
        assert!(
            diags.iter().any(|d| d.rule == *rule),
            "{rule}/{file} unscoped: expected a {rule} diagnostic, got {diags:?}"
        );
    }
}

#[test]
fn hot_path_alloc_fixture_trio_under_a_hot_table() {
    // hot-path-alloc only arms for functions registered under [hot], so
    // its trio runs with a config naming the fixture's pretend path.
    let pretend = "crates/nn/src/fixture.rs";
    let config = Config::parse(&format!("[hot]\n\"{pretend}\" = [\"matmul_into\"]\n"))
        .expect("valid hot table");
    for file in ["violating.rs", "clean.rs", "allowlisted.rs"] {
        let source = fixture("hot-path-alloc", file);
        let diags = lint_source(pretend, &source, &config, true);
        let of_rule: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "hot-path-alloc")
            .collect();
        if file == "violating.rs" {
            assert!(
                !of_rule.is_empty(),
                "{file}: expected a finding, got {diags:?}"
            );
        } else {
            assert!(of_rule.is_empty(), "{file}: expected none, got {of_rule:?}");
        }
        assert!(
            diags.iter().all(|d| d.rule == "hot-path-alloc"),
            "{file}: tripped unrelated rules: {diags:?}"
        );
    }
    // Without a [hot] entry the rule stays silent even on the violating
    // fixture — allocation is only policed where the registry says so.
    let diags = lint_source(
        pretend,
        &fixture("hot-path-alloc", "violating.rs"),
        &Config::default(),
        true,
    );
    assert!(
        diags.is_empty(),
        "unarmed hot rule must stay silent: {diags:?}"
    );
}

#[test]
fn toml_allowlist_silences_a_module_boundary() {
    let config = Config::parse(
        "[allow]\nno-wall-clock = [\"crates/bench/\"]\nno-unordered-iteration = [\"crates/gpusim/src/fixture.rs\"]\n",
    )
    .expect("valid allowlist");
    let wall = fixture("no-wall-clock", "violating.rs");
    assert!(
        lint_source("crates/bench/src/fixture.rs", &wall, &config, true).is_empty(),
        "directory prefix should cover the whole bench crate"
    );
    let unordered = fixture("no-unordered-iteration", "violating.rs");
    assert!(
        lint_source("crates/gpusim/src/fixture.rs", &unordered, &config, true).is_empty(),
        "exact-file entry should cover the file"
    );
    assert!(
        !lint_source("crates/gpusim/src/other.rs", &unordered, &config, true).is_empty(),
        "a different file stays in scope"
    );
}
