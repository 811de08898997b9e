//! The generated inputs are a pure function of the workload seed: the same
//! seed prints the same input digest, another seed a different one — so a
//! claim can be re-checked on a held-out seed.

use std::process::Command;

/// The digest `perfbench digest` prints for `workload` at `seed`.
fn digest(workload: &str, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "digest",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = String::from_utf8(out.stdout).expect("utf-8 output");
    line.split_whitespace()
        .last()
        .expect("a digest on the line")
        .to_string()
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for workload in ["libchar", "ssta_graph", "serve_mix"] {
        let a = digest(workload, 7);
        assert_eq!(a.len(), 16, "{workload}: 64-bit hex digest, got {a}");
        assert_eq!(a, digest(workload, 7), "{workload}: seed 7 twice");
        assert_ne!(a, digest(workload, 8), "{workload}: seeds 7 and 8");
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["digest", "--workload", "nope", "--seed", "1"])
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
}
