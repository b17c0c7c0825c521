//! Perf-regression sentinel: re-runs the tune/kernel measurement behind
//! `BENCH_tune.json` and compares the fresh numbers against the committed
//! baseline with noise-tolerant, per-metric verdicts.
//!
//! ```text
//! cargo run --release -p gridtuner-bench --bin bench_check -- \
//!     [--baseline BENCH_tune.json] [--kernel-tol 0.18] \
//!     [--inject-kernel-slowdown 1.25]
//! ```
//!
//! The measurement is `tune_bench`'s own ([`TuneBench::measure`]) at the
//! baseline's full scale. Three classes of metric, three kinds of verdict:
//!
//! * **deterministic counters** (`events`, `probes`, `selected_side`,
//!   `alpha_rescans`, `expr_cell_evals`, ...) must match the baseline
//!   **exactly** — they are functions of the input, not the machine. An
//!   `events` mismatch means the history generator changed.
//! * **`kernel.speedup`** — the batched-vs-per-cell expression-kernel
//!   ratio — must stay within `--kernel-tol` (relative, default 18%) of
//!   the baseline. Being a ratio of two timings taken back-to-back on the
//!   same machine, it is far less noisy than either wall time alone.
//! * **wall times** are reported INFO-only: absolute milliseconds move
//!   with the machine and CI load, so they never gate.
//!
//! `--inject-kernel-slowdown F` multiplies the fresh batched kernel time
//! by `F` before the comparison — a self-test hook proving the sentinel
//! actually trips (CI runs it with 1.25 and expects exit 1).
//!
//! Exit status: 0 when nothing FAILs, 1 otherwise, 2 on a missing or
//! malformed flag value or an unknown flag.

use gridtuner_bench::flags::{exit_usage, Flags};
use gridtuner_bench::measure::{Measurement, TuneBench};
use gridtuner_bench::TUNE_BENCH_SCHEMA;
use gridtuner_obs::json::{parse_jsonl, Val};

/// One metric's comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Pass,
    Fail,
    /// Reported for context only — never gates.
    Info,
}

impl Verdict {
    fn tag(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Info => "INFO",
        }
    }
}

/// A named verdict with its one-line evidence.
#[derive(Debug)]
struct Check {
    name: &'static str,
    verdict: Verdict,
    detail: String,
}

/// Exact-match verdict for a deterministic counter.
fn check_exact(name: &'static str, fresh: u64, baseline: &Val) -> Check {
    let (verdict, detail) = match int(baseline, name) {
        None => (Verdict::Fail, "missing from baseline".to_string()),
        Some(b) if b == fresh => (Verdict::Pass, format!("{fresh} == baseline")),
        Some(b) => (Verdict::Fail, format!("fresh {fresh} != baseline {b}")),
    };
    Check {
        name,
        verdict,
        detail,
    }
}

/// Relative-tolerance verdict for a speedup ratio: the fresh value may
/// regress at most `tol` (fraction) below the baseline; improvements
/// always pass.
fn check_ratio(name: &'static str, fresh: f64, baseline: Option<f64>, tol: f64) -> Check {
    let (verdict, detail) = match baseline {
        None => (Verdict::Fail, "missing from baseline".to_string()),
        Some(b) if !(b.is_finite() && b > 0.0) => (
            Verdict::Fail,
            format!("baseline {b} is not a positive ratio"),
        ),
        Some(b) => {
            let floor = b * (1.0 - tol);
            if fresh >= floor {
                (
                    Verdict::Pass,
                    format!("fresh {fresh:.2}x vs baseline {b:.2}x (floor {floor:.2}x)"),
                )
            } else {
                (
                    Verdict::Fail,
                    format!(
                        "fresh {fresh:.2}x below floor {floor:.2}x \
                         (baseline {b:.2}x - {:.0}% tolerance)",
                        tol * 100.0
                    ),
                )
            }
        }
    };
    Check {
        name,
        verdict,
        detail,
    }
}

/// Context-only wall-time comparison.
fn check_wall(name: &'static str, fresh_ms: f64, baseline_ms: Option<f64>) -> Check {
    let detail = match baseline_ms {
        Some(b) if b > 0.0 => format!(
            "fresh {fresh_ms:.1} ms vs baseline {b:.1} ms ({:.2}x)",
            fresh_ms / b
        ),
        _ => format!("fresh {fresh_ms:.1} ms (no baseline)"),
    };
    Check {
        name,
        verdict: Verdict::Info,
        detail,
    }
}

fn num(v: &Val, key: &str) -> Option<f64> {
    v.get(key).and_then(Val::as_f64)
}

fn int(v: &Val, key: &str) -> Option<u64> {
    num(v, key).map(|f| f as u64)
}

/// Parsed command line (all flags optional).
#[derive(Debug, Clone, PartialEq)]
struct CheckArgs {
    baseline: String,
    kernel_tol: f64,
    inject_kernel_slowdown: f64,
}

fn parse_args(args: &[String]) -> Result<CheckArgs, String> {
    let mut out = CheckArgs {
        baseline: "BENCH_tune.json".into(),
        kernel_tol: 0.18,
        inject_kernel_slowdown: 1.0,
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--baseline" => out.baseline = flags.value(flag)?,
            "--kernel-tol" => out.kernel_tol = flags.value(flag)?,
            "--inject-kernel-slowdown" => out.inject_kernel_slowdown = flags.value(flag)?,
            other => return Err(Flags::unknown(other)),
        }
    }
    Ok(out)
}

/// Builds the full verdict list from a fresh measurement and a parsed
/// baseline. Pure — this is what the unit tests exercise.
fn compare(fresh: &Measurement, baseline: &Val, kernel_tol: f64) -> Vec<Check> {
    let kernel = baseline.get("kernel");
    vec![
        check_exact("events", fresh.events, baseline),
        check_exact("probes", fresh.probes, baseline),
        check_exact("alpha_rescans", fresh.alpha_rescans, baseline),
        check_exact("selected_side", u64::from(fresh.selected_side), baseline),
        check_exact("expr_cell_evals", fresh.expr_cell_evals, baseline),
        check_exact("expr_dedup_hits", fresh.expr_dedup_hits, baseline),
        check_exact("expr_pmf_memo_hits", fresh.expr_pmf_memo_hits, baseline),
        check_exact("expr_workspace_bytes", fresh.expr_workspace_bytes, baseline),
        check_ratio(
            "kernel.speedup",
            fresh.kernel.speedup(),
            kernel.and_then(|k| k.get("speedup")).and_then(Val::as_f64),
            kernel_tol,
        ),
        check_wall("wall_ms", fresh.wall_ms, num(baseline, "wall_ms")),
        check_wall(
            "kernel.batched_ms",
            fresh.kernel.batched_ms,
            kernel
                .and_then(|k| k.get("batched_ms"))
                .and_then(Val::as_f64),
        ),
    ]
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| exit_usage("bench_check", &e));

    let text = match std::fs::read_to_string(&args.baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_check: cannot read baseline {}: {e}", args.baseline);
            std::process::exit(1);
        }
    };
    let baseline = match parse_jsonl(&text) {
        Ok(recs) if !recs.is_empty() => recs.into_iter().next().unwrap(),
        Ok(_) => {
            eprintln!("bench_check: baseline {} is empty", args.baseline);
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("bench_check: baseline {}: {e}", args.baseline);
            std::process::exit(1);
        }
    };
    match baseline.get("schema").and_then(|v| v.as_str()) {
        Some(TUNE_BENCH_SCHEMA) => {}
        other => {
            eprintln!(
                "bench_check: baseline schema {other:?}, expected {TUNE_BENCH_SCHEMA:?} — \
                 regenerate with tune_bench"
            );
            std::process::exit(1);
        }
    }

    if args.inject_kernel_slowdown != 1.0 {
        eprintln!(
            "[bench_check] SELF-TEST: injecting a {:.2}x kernel slowdown",
            args.inject_kernel_slowdown
        );
    }
    eprintln!(
        "[bench_check] measuring against {} (kernel tolerance {:.0}%)",
        args.baseline,
        args.kernel_tol * 100.0
    );
    // The committed baseline is tune_bench's full-scale run.
    let mut fresh = TuneBench::new(1.0).measure();
    fresh.kernel.batched_ms *= args.inject_kernel_slowdown;
    eprintln!(
        "[bench_check] fresh: {} events, tune {:.1} ms, kernel {:.1}/{:.1} ms ({:.2}x)",
        fresh.events,
        fresh.wall_ms,
        fresh.kernel.percell_ms,
        fresh.kernel.batched_ms,
        fresh.kernel.speedup()
    );

    let checks = compare(&fresh, &baseline, args.kernel_tol);
    let mut failed = 0usize;
    for c in &checks {
        println!("{:<4} {:<22} {}", c.verdict.tag(), c.name, c.detail);
        if c.verdict == Verdict::Fail {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!(
            "[bench_check] FAIL: {failed} metric(s) regressed vs {}",
            args.baseline
        );
        std::process::exit(1);
    }
    eprintln!("[bench_check] OK: no regressions vs {}", args.baseline);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_bench::kernel_timing::KernelTiming;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// A fresh measurement whose kernel ran at `speedup`× (100 ms batched).
    fn fake_fresh(speedup: f64) -> Measurement {
        Measurement {
            events: 1000,
            probes: 73,
            selected_side: 64,
            error: 1.0,
            alpha_rescans: 1,
            expr_cell_evals: 500,
            expr_dedup_hits: 200,
            expr_pmf_memo_hits: 50,
            expr_workspace_bytes: 4096,
            wall_ms: 120.0,
            phases: Vec::new(),
            kernel: KernelTiming {
                percell_ms: 100.0 * speedup,
                batched_ms: 100.0,
                ..KernelTiming::default()
            },
        }
    }

    fn fake_baseline(events: u64, kernel_speedup: f64) -> Val {
        Val::obj(vec![
            ("schema", Val::from(TUNE_BENCH_SCHEMA)),
            ("events", Val::from(events)),
            ("probes", Val::from(73u64)),
            ("alpha_rescans", Val::from(1u64)),
            ("selected_side", Val::from(64u64)),
            ("expr_cell_evals", Val::from(500u64)),
            ("expr_dedup_hits", Val::from(200u64)),
            ("expr_pmf_memo_hits", Val::from(50u64)),
            ("expr_workspace_bytes", Val::from(4096u64)),
            ("wall_ms", Val::from(100.0)),
            (
                "kernel",
                Val::obj(vec![
                    ("speedup", Val::from(kernel_speedup)),
                    ("batched_ms", Val::from(110.0)),
                ]),
            ),
        ])
    }

    fn verdict_of<'a>(checks: &'a [Check], name: &str) -> &'a Check {
        checks.iter().find(|c| c.name == name).unwrap()
    }

    #[test]
    fn arg_parsing_defaults_and_overrides() {
        let d = parse_args(&argv("")).unwrap();
        assert_eq!(d.baseline, "BENCH_tune.json");
        assert_eq!(d.kernel_tol, 0.18);
        assert_eq!(d.inject_kernel_slowdown, 1.0);
        let o = parse_args(&argv(
            "--baseline other.json --kernel-tol 0.2 --inject-kernel-slowdown 1.25",
        ))
        .unwrap();
        assert_eq!(o.baseline, "other.json");
        assert_eq!(o.kernel_tol, 0.2);
        assert_eq!(o.inject_kernel_slowdown, 1.25);
        // A bad value or an unknown flag is an error, never a default.
        let err = parse_args(&argv("--kernel-tol nope")).unwrap_err();
        assert!(err.contains("--kernel-tol"), "{err}");
        assert!(parse_args(&argv("--baseline")).is_err());
        assert!(parse_args(&argv("--kernel-toll 0.2")).is_err());
        // The measurement is fixed at the baseline's scale.
        assert!(parse_args(&argv("--scale 0.1")).is_err());
    }

    #[test]
    fn matching_counters_and_kernel_pass() {
        let checks = compare(&fake_fresh(3.0), &fake_baseline(1000, 3.1), 0.15);
        for name in [
            "events",
            "probes",
            "alpha_rescans",
            "selected_side",
            "expr_cell_evals",
            "expr_dedup_hits",
            "expr_pmf_memo_hits",
            "expr_workspace_bytes",
        ] {
            assert_eq!(verdict_of(&checks, name).verdict, Verdict::Pass, "{name}");
        }
        // 3.0 vs 3.1 baseline: within 15%.
        assert_eq!(verdict_of(&checks, "kernel.speedup").verdict, Verdict::Pass);
        assert_eq!(verdict_of(&checks, "wall_ms").verdict, Verdict::Info);
        assert!(checks.iter().all(|c| c.verdict != Verdict::Fail));
    }

    #[test]
    fn counter_drift_fails() {
        let mut fresh = fake_fresh(3.0);
        fresh.expr_cell_evals += 1;
        // A second full scan (a rebuilt α cache) trips the one-scan rule.
        fresh.alpha_rescans = 2;
        let checks = compare(&fresh, &fake_baseline(1000, 3.0), 0.15);
        assert_eq!(
            verdict_of(&checks, "expr_cell_evals").verdict,
            Verdict::Fail
        );
        assert_eq!(verdict_of(&checks, "alpha_rescans").verdict, Verdict::Fail);
    }

    #[test]
    fn kernel_regression_beyond_tolerance_fails() {
        // Baseline 3.0x, tolerance 15% → floor 2.55x. A 25% injected
        // slowdown drops a matching fresh kernel to 2.4x → FAIL.
        let mut fresh = fake_fresh(3.0);
        fresh.kernel.batched_ms *= 1.25;
        let checks = compare(&fresh, &fake_baseline(1000, 3.0), 0.15);
        assert_eq!(verdict_of(&checks, "kernel.speedup").verdict, Verdict::Fail);
        // A small wobble stays PASS.
        let checks = compare(&fake_fresh(2.8), &fake_baseline(1000, 3.0), 0.15);
        assert_eq!(verdict_of(&checks, "kernel.speedup").verdict, Verdict::Pass);
        // Improvements always pass.
        let checks = compare(&fake_fresh(4.2), &fake_baseline(1000, 3.0), 0.15);
        assert_eq!(verdict_of(&checks, "kernel.speedup").verdict, Verdict::Pass);
    }

    #[test]
    fn event_count_mismatch_fails_and_the_kernel_is_still_judged() {
        // A different history means the generator changed: FAIL, while
        // the machine-relative kernel ratio is judged on its own.
        let checks = compare(&fake_fresh(3.0), &fake_baseline(999_999, 3.0), 0.15);
        assert_eq!(verdict_of(&checks, "events").verdict, Verdict::Fail);
        assert_eq!(verdict_of(&checks, "probes").verdict, Verdict::Pass);
        assert_eq!(verdict_of(&checks, "kernel.speedup").verdict, Verdict::Pass);
        let checks = compare(&fake_fresh(3.0), &fake_baseline(999_999, 10.0), 0.15);
        assert_eq!(verdict_of(&checks, "kernel.speedup").verdict, Verdict::Fail);
    }

    #[test]
    fn missing_baseline_fields_fail() {
        let empty = Val::obj(vec![
            ("schema", Val::from(TUNE_BENCH_SCHEMA)),
            ("events", Val::from(1000u64)),
        ]);
        let checks = compare(&fake_fresh(3.0), &empty, 0.15);
        assert_eq!(verdict_of(&checks, "probes").verdict, Verdict::Fail);
        assert_eq!(verdict_of(&checks, "kernel.speedup").verdict, Verdict::Fail);
    }
}
