//! A reader that closes a bench binary's stdout early (`| head`,
//! `| grep -q`) must end the run quietly: no panic, no panic exit status.

use std::path::Path;
use std::process::{Command, Stdio};

/// Runs `bin` in `dir` with its stdout closed before the first line.
fn assert_quiet_on_closed_stdout(bin: &str, args: &[&str], dir: &Path) {
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    // Close the read end before the binary prints its first line.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("the run ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{bin} panicked:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{bin}:\n{stderr}");
    assert!(out.status.success(), "{bin}: {:?}\n{stderr}", out.status);
}

#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    // robust_bench writes BENCH_robust.json into its working directory.
    let dir = std::env::temp_dir().join(format!("gridtuner-broken-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let runs: [(&str, &[&str]); 2] = [
        (
            env!("CARGO_BIN_EXE_repro"),
            &["fig3", "--quick", "--city", "xian"],
        ),
        (
            env!("CARGO_BIN_EXE_robust_bench"),
            &["--scale", "0.0005", "--replicates", "2"],
        ),
    ];
    for (bin, args) in runs {
        assert_quiet_on_closed_stdout(bin, args, &dir);
    }
    std::fs::remove_dir_all(&dir).expect("the scratch directory is removed");
}
