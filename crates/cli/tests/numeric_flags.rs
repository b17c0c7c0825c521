//! Out-of-range numeric flags are usage errors: each run below must exit
//! 2 with a message, before any library call can panic on the value or
//! try to allocate a lattice it cannot hold.

use std::process::Command;

fn exit_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gridtuner"))
        .args(args)
        .output()
        .expect("the gridtuner binary starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn out_of_range_numeric_flags_exit_2() {
    let mut cases: Vec<Vec<&str>> = Vec::new();
    for bad in ["0", "-1", "nan", "inf"] {
        cases.push(vec!["tune", "--scale", bad]);
        cases.push(vec!["generate", "--scale", bad]);
        cases.push(vec!["simulate", "--scale", bad]);
    }
    for bad in ["-1", "nan", "inf"] {
        cases.push(vec!["expression", "--alpha", bad]);
        cases.push(vec!["expression", "--rest", bad]);
    }
    let tune = ["tune", "--city", "xian", "--scale", "0.005"];
    let too_large_budget = [&tune[..], &["--budget", "100000"]].concat();
    let too_large_range = [&tune[..], &["--range", "2:100000"]].concat();
    let rect = [&tune[..], &["--partition", "rect"]].concat();
    cases.extend([
        vec!["expression", "--m", "0"],
        vec!["expression", "--alpha", "1e300"],
        vec!["expression", "--rest", "1e300"],
        vec!["expression", "--alpha", "1e19"],
        vec!["expression", "--m", "100000000", "--k", "100000000"],
        vec!["simulate", "--side", "0"],
        vec!["simulate", "--budget", "0"],
        vec!["heatmap", "--side", "0"],
        vec!["heatmap", "--side", "100000"],
        vec!["simulate", "--algorithm", "daif", "--budget", "100000"],
        too_large_budget,
        too_large_range,
        rect,
    ]);
    for args in &cases {
        let (code, stderr) = exit_code(args);
        assert_eq!(code, Some(2), "{args:?} exited {code:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
    }
}

#[test]
fn huge_m_reads_the_window_totals() {
    let value = |m: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_gridtuner"))
            .args(["expression", "--alpha", "30", "--m", m])
            .output()
            .expect("the gridtuner binary starts");
        assert_eq!(out.status.code(), Some(0), "--m {m}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let v = stdout.trim().strip_prefix("expression_error\t");
        v.and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("--m {m} printed {stdout:?}"))
    };
    assert_eq!(value("1000000"), 29.99994);
    // `(m − 1)·k` passes `u64::MAX`: it must read the window totals, not
    // wrap into a negative error.
    let huge = value("1000000000000000000");
    assert!((0.0..=30.0).contains(&huge), "{huge}");
}
