//! A reader that closes the CLI's stdout early (`| head`, `| grep -q`)
//! must end the run quietly: no panic, no panic exit status.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gridtuner"))
        .args([
            "tune",
            "--city",
            "xian",
            "--scale",
            "0.005",
            "--budget",
            "16",
            "--range",
            "2:8",
            "--strategy",
            "brute",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the gridtuner binary starts");
    // Close the read end before the tune prints its first line.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("the run ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panic exit status:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}\n{stderr}", out.status);
}
