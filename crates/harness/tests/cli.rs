//! The `adainf-sim` CLI rejects run inputs a simulation cannot serve.

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
