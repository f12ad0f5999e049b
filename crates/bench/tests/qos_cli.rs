//! Input handling of the `qos` binary: bad command-line input fails
//! with a message and a non-zero exit, never a panic.

use std::process::{Command, Output};

fn qos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qos"))
        .args(args)
        .output()
        .expect("the qos binary starts")
}

#[test]
fn unknown_policy_lists_the_registered_names_and_fails() {
    let out = qos(&["--quick", "--policies", "drowsy-dc,nosuch"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown policy 'nosuch'"), "{stderr}");
    assert!(stderr.contains("sla-aware"), "registered names: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn removed_flags_are_rejected() {
    for flag in ["--streaming", "--throughput"] {
        let out = qos(&["--quick", flag]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
    }
}
