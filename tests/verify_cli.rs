//! The `verify` binary end to end: every pass certifies a small RDT
//! session, an unfillable grid is the typed `P005` (not a panic), and a
//! bad pass or a flag of another pass is a usage error.

use std::process::{Command, Output};

fn verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_verify"))
        .args(args)
        .output()
        .expect("verify runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn every_pass_certifies_a_small_session() {
    for pass in ["plan", "trace", "schedule", "dataflow"] {
        let out = verify(&[pass, "--dataset", "rdt", "--gpus", "2", "--layers", "2"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "verify {pass}:\n{}{}",
            stdout(&out),
            stderr(&out)
        );
        assert!(stdout(&out).contains("certified clean"), "verify {pass}");
    }
}

#[test]
fn unfillable_grid_is_a_typed_p005() {
    let out = verify(&["plan", "--chunks", "1000"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("P005"), "{}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
}

#[test]
fn bad_pass_and_foreign_flags_are_usage_errors() {
    for args in [
        &["lint"][..],
        &[],
        &["plan", "--measure"],
        &["dataflow", "--epochs", "2"],
        &["schedule", "--determinism"],
    ] {
        let out = verify(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            stderr(&out).contains("usage: verify <plan|trace|schedule|dataflow>"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}
