//! `gridtuner profile --input` is the trace gate: a stream the strict
//! reader rejects, or one that lacks a `--require`d name, exits 3 (data)
//! and writes no Chrome file; a misspelt flag exits 2 (usage).

use std::path::Path;
use std::process::Command;

const META: &str = "{\"t\":\"meta\",\"ts\":0,\"schema\":\"gridtuner.trace/1\"}\n";
const TUNE: &str = concat!(
    "{\"t\":\"span_start\",\"ts\":1,\"id\":1,\"tid\":1,\"name\":\"tune\"}\n",
    "{\"t\":\"span_end\",\"ts\":9,\"id\":1,\"tid\":1,\"name\":\"tune\",\"dur_ns\":8}\n",
);

/// Runs `gridtuner profile` in `dir`; returns the exit code and stderr.
fn profile(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gridtuner"))
        .arg("profile")
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the gridtuner binary starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn profile_input_gates_the_trace() {
    let dir = std::env::temp_dir().join(format!("gridtuner-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    std::fs::write(dir.join("good.jsonl"), format!("{META}{TUNE}")).unwrap();
    // An end with no start: the unbalanced case.
    let unbalanced = TUNE.lines().nth(1).unwrap();
    std::fs::write(dir.join("bad.jsonl"), format!("{META}{unbalanced}\n")).unwrap();

    let chrome = ["--chrome", "out.json"];
    let (code, err) = profile(&dir, &["--input", "good.jsonl", "--requir", "tune"]);
    assert_eq!(code, Some(2), "misspelt gate flag:\n{err}");
    let (code, err) = profile(&dir, &[&["--input", "bad.jsonl"][..], &chrome].concat());
    assert_eq!(code, Some(3), "unbalanced span:\n{err}");
    assert!(
        err.contains("line 2:") && err.contains("never started"),
        "{err}"
    );
    assert!(
        !dir.join("out.json").exists(),
        "an invalid trace is not converted"
    );
    let (code, err) = profile(&dir, &["--input", "good.jsonl", "--require", "tune,probe"]);
    assert_eq!(code, Some(3), "missing name:\n{err}");
    assert!(err.contains("[\"probe\"]"), "{err}");
    let (code, err) = profile(
        &dir,
        &[&["--input", "good.jsonl", "--require", "tune"][..], &chrome].concat(),
    );
    assert_eq!(code, Some(0), "{err}");
    assert!(dir.join("out.json").exists(), "a valid trace is converted");
    std::fs::remove_dir_all(&dir).expect("the scratch directory is removed");
}
