//! The `adainf-sim` CLI rejects run inputs a simulation cannot serve,
//! and runs the AdaInf variant its `--method` names.

use std::process::Command;

#[test]
fn zero_gpus_exit_2_without_a_summary() {
    let out = Command::new(env!("CARGO_BIN_EXE_adainf-sim"))
        .args(["--gpus", "0", "--duration", "20"])
        .output()
        .expect("adainf-sim starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "printed a summary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid `num_gpus`"), "{stderr}");
}

#[test]
fn no_retrain_runs_the_no_retraining_variant() {
    let out = Command::new(env!("CARGO_BIN_EXE_adainf-sim"))
        .args(["--method", "no-retrain", "--apps", "1", "--duration", "5"])
        .output()
        .expect("adainf-sim starts");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let method = stdout.lines().find(|l| l.starts_with("method"));
    assert_eq!(
        method.and_then(|l| l.split(": ").nth(1)),
        Some("No-retrain"),
        "{stdout}"
    );
}
