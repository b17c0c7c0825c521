//! A reader that closes `repro`'s stdout early (`| head`, `| grep -q`)
//! must end the run quietly: no panic, no panic exit status.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig3", "--quick", "--city", "xian"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the repro binary starts");
    // Close the read end before the experiment prints its first line.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("the run ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panic exit status:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}\n{stderr}", out.status);
}
