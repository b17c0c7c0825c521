//! Perf-regression sentinel: re-runs the tune/kernel measurement behind
//! `BENCH_tune.json` and compares the fresh numbers against the committed
//! baseline with noise-tolerant, per-metric verdicts.
//!
//! ```text
//! cargo run --release -p gridtuner-bench --bin bench_check -- \
//!     [--baseline BENCH_tune.json] [--scale 1.0] [--kernel-tol 0.18] \
//!     [--inject-kernel-slowdown 1.25]
//! ```
//!
//! Three classes of metric, three kinds of verdict:
//!
//! * **deterministic counters** (`probes`, `selected_side`,
//!   `expr_cell_evals`, ...) must match the baseline **exactly** — they are
//!   functions of the input, not the machine. They are only comparable when
//!   the fresh run saw the same event count as the baseline (same
//!   `--scale`); otherwise they SKIP with a note.
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
use gridtuner_bench::kernel_timing::time_kernels;
use gridtuner_bench::TUNE_BENCH_SCHEMA;
use gridtuner_core::alpha::AlphaWindow;
use gridtuner_datagen::City;
use gridtuner_engine::{EngineConfig, SearchStrategy, TuningSession};
use gridtuner_obs as obs;
use gridtuner_obs::json::{parse_jsonl, Val};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

/// One metric's comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Pass,
    Fail,
    /// Not comparable on this run (e.g. scale mismatch) — never gates.
    Skip,
    /// Reported for context only — never gates.
    Info,
}

impl Verdict {
    fn tag(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Skip => "SKIP",
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
fn check_exact(name: &'static str, fresh: u64, baseline: Option<u64>, comparable: bool) -> Check {
    let (verdict, detail) = match (comparable, baseline) {
        (false, _) => (
            Verdict::Skip,
            format!("fresh {fresh} (scale differs from baseline; not comparable)"),
        ),
        (true, None) => (Verdict::Fail, "missing from baseline".to_string()),
        (true, Some(b)) if b == fresh => (Verdict::Pass, format!("{fresh} == baseline")),
        (true, Some(b)) => (Verdict::Fail, format!("fresh {fresh} != baseline {b}")),
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

/// The fresh measurement: one cached tune plus the kernel isolation, both
/// single-threaded so every deterministic counter is reproducible.
struct Fresh {
    events: u64,
    probes: u64,
    alpha_rescans: u64,
    selected_side: u64,
    expr_cell_evals: u64,
    expr_dedup_hits: u64,
    expr_pmf_memo_hits: u64,
    expr_workspace_bytes: u64,
    wall_ms: f64,
    kernel_speedup: f64,
    percell_ms: f64,
    batched_ms: f64,
}

fn measure(scale: f64, inject_kernel_slowdown: f64) -> Fresh {
    // Mirror tune_bench exactly: same city, seed, window and config, so the
    // deterministic counters land on the committed values.
    let city = City::nyc().scaled(scale);
    let clock = *city.clock();
    let window = AlphaWindow::default();
    let mut rng = StdRng::seed_from_u64(7);
    let events = city.sample_history_events(
        window.slot_of_day,
        window.day_start..window.day_end,
        &mut rng,
    );
    let model = |s: u32| (s * s) as f64 * 0.05;
    let engine_cfg = EngineConfig {
        strategy: SearchStrategy::BruteForce,
        alpha_window: window,
        clock,
        ..EngineConfig::default()
    };

    obs::enable();
    obs::reset();
    let prev_threads = gridtuner_par::max_threads();
    gridtuner_par::set_max_threads(1);
    let t = Instant::now();
    let mut session = TuningSession::new(engine_cfg, model).expect("valid bench config");
    session.ingest(&events).expect("finite synthetic events");
    let result = session.tune().expect("infallible model leg");
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;

    // Kernel isolation, identical to tune_bench's (same shared helper, so
    // the fresh measurement and the committed baseline carry the same
    // noise profile): per-side interleaved, best-of-3.
    let cache = session.alpha_cache().expect("tune built the α cache");
    let probed: Vec<u32> = result.outcome.probes.iter().map(|&(s, _)| s).collect();
    let budget = session.config().hgrid_budget_side;
    let kt = time_kernels(cache, &probed, budget, 3);
    let percell_ms = kt.percell_ms;
    let batched_ms = kt.batched_ms * inject_kernel_slowdown;
    gridtuner_par::set_max_threads(prev_threads);
    assert!(
        (kt.percell_total - kt.batched_total).abs() <= 1e-9 * (1.0 + kt.percell_total.abs()),
        "kernels disagree on total expression error: {} vs {}",
        kt.percell_total,
        kt.batched_total
    );

    Fresh {
        events: events.len() as u64,
        probes: result.outcome.evals as u64,
        alpha_rescans: result.alpha_full_scans,
        selected_side: u64::from(result.outcome.side),
        expr_cell_evals: result.expr_cell_evals,
        expr_dedup_hits: result.expr_dedup_hits,
        expr_pmf_memo_hits: result.expr_pmf_memo_hits,
        expr_workspace_bytes: result.expr_workspace_bytes,
        wall_ms,
        kernel_speedup: percell_ms / batched_ms.max(1e-9),
        percell_ms,
        batched_ms,
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
    scale: f64,
    kernel_tol: f64,
    inject_kernel_slowdown: f64,
}

fn parse_args(args: &[String]) -> Result<CheckArgs, String> {
    let mut out = CheckArgs {
        baseline: "BENCH_tune.json".into(),
        scale: 1.0,
        kernel_tol: 0.18,
        inject_kernel_slowdown: 1.0,
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--baseline" => out.baseline = flags.value(flag)?,
            "--scale" => out.scale = flags.value(flag)?,
            "--kernel-tol" => out.kernel_tol = flags.value(flag)?,
            "--inject-kernel-slowdown" => out.inject_kernel_slowdown = flags.value(flag)?,
            other => return Err(Flags::unknown(other)),
        }
    }
    Ok(out)
}

/// Builds the full verdict list from a fresh measurement and a parsed
/// baseline. Pure — this is what the unit tests exercise.
fn compare(fresh: &Fresh, baseline: &Val, kernel_tol: f64) -> Vec<Check> {
    // Deterministic counters only compare when the event history is the
    // same size — a different `--scale` changes every one of them.
    let comparable = int(baseline, "events") == Some(fresh.events);
    let kernel = baseline.get("kernel");
    let mut checks = vec![
        check_exact("probes", fresh.probes, int(baseline, "probes"), comparable),
        check_exact(
            "alpha_rescans",
            fresh.alpha_rescans,
            int(baseline, "alpha_rescans"),
            comparable,
        ),
        check_exact(
            "selected_side",
            fresh.selected_side,
            int(baseline, "selected_side"),
            comparable,
        ),
        check_exact(
            "expr_cell_evals",
            fresh.expr_cell_evals,
            int(baseline, "expr_cell_evals"),
            comparable,
        ),
        check_exact(
            "expr_dedup_hits",
            fresh.expr_dedup_hits,
            int(baseline, "expr_dedup_hits"),
            comparable,
        ),
        check_exact(
            "expr_pmf_memo_hits",
            fresh.expr_pmf_memo_hits,
            int(baseline, "expr_pmf_memo_hits"),
            comparable,
        ),
        check_exact(
            "expr_workspace_bytes",
            fresh.expr_workspace_bytes,
            int(baseline, "expr_workspace_bytes"),
            comparable,
        ),
        check_ratio(
            "kernel.speedup",
            fresh.kernel_speedup,
            kernel.and_then(|k| k.get("speedup")).and_then(Val::as_f64),
            kernel_tol,
        ),
        check_wall("wall_ms", fresh.wall_ms, num(baseline, "wall_ms")),
        check_wall(
            "kernel.batched_ms",
            fresh.batched_ms,
            kernel
                .and_then(|k| k.get("batched_ms"))
                .and_then(Val::as_f64),
        ),
    ];
    if !comparable {
        checks.push(Check {
            name: "events",
            verdict: Verdict::Info,
            detail: format!(
                "fresh {} vs baseline {:?} — counter checks skipped; rerun with the \
                 baseline's --scale to compare them",
                fresh.events,
                int(baseline, "events")
            ),
        });
    }
    checks
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
        "[bench_check] measuring at scale {} against {} (kernel tolerance {:.0}%)",
        args.scale,
        args.baseline,
        args.kernel_tol * 100.0
    );
    let fresh = measure(args.scale, args.inject_kernel_slowdown);
    eprintln!(
        "[bench_check] fresh: {} events, tune {:.1} ms, kernel {:.1}/{:.1} ms ({:.2}x)",
        fresh.events, fresh.wall_ms, fresh.percell_ms, fresh.batched_ms, fresh.kernel_speedup
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

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn fake_fresh() -> Fresh {
        Fresh {
            events: 1000,
            probes: 73,
            alpha_rescans: 1,
            selected_side: 64,
            expr_cell_evals: 500,
            expr_dedup_hits: 200,
            expr_pmf_memo_hits: 50,
            expr_workspace_bytes: 4096,
            wall_ms: 120.0,
            kernel_speedup: 3.0,
            percell_ms: 300.0,
            batched_ms: 100.0,
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
        assert_eq!(d.scale, 1.0);
        assert_eq!(d.kernel_tol, 0.18);
        assert_eq!(d.inject_kernel_slowdown, 1.0);
        let o = parse_args(&argv(
            "--baseline other.json --scale 0.1 --kernel-tol 0.2 --inject-kernel-slowdown 1.25",
        ))
        .unwrap();
        assert_eq!(o.baseline, "other.json");
        assert_eq!(o.scale, 0.1);
        assert_eq!(o.kernel_tol, 0.2);
        assert_eq!(o.inject_kernel_slowdown, 1.25);
        // A bad value or an unknown flag is an error, never a default.
        let err = parse_args(&argv("--kernel-tol nope")).unwrap_err();
        assert!(err.contains("--kernel-tol"), "{err}");
        assert!(parse_args(&argv("--baseline")).is_err());
        assert!(parse_args(&argv("--kernel-toll 0.2")).is_err());
    }

    #[test]
    fn matching_counters_and_kernel_pass() {
        let checks = compare(&fake_fresh(), &fake_baseline(1000, 3.1), 0.15);
        for name in [
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
        let mut fresh = fake_fresh();
        fresh.expr_cell_evals += 1;
        let checks = compare(&fresh, &fake_baseline(1000, 3.0), 0.15);
        assert_eq!(
            verdict_of(&checks, "expr_cell_evals").verdict,
            Verdict::Fail
        );
    }

    #[test]
    fn kernel_regression_beyond_tolerance_fails() {
        // Baseline 3.0x, tolerance 15% → floor 2.55x. A 25% injected
        // slowdown drops a matching fresh kernel to 2.4x → FAIL.
        let mut fresh = fake_fresh();
        fresh.kernel_speedup = 3.0 / 1.25;
        let checks = compare(&fresh, &fake_baseline(1000, 3.0), 0.15);
        assert_eq!(verdict_of(&checks, "kernel.speedup").verdict, Verdict::Fail);
        // A small wobble stays PASS.
        fresh.kernel_speedup = 2.8;
        let checks = compare(&fresh, &fake_baseline(1000, 3.0), 0.15);
        assert_eq!(verdict_of(&checks, "kernel.speedup").verdict, Verdict::Pass);
        // Improvements always pass.
        fresh.kernel_speedup = 4.2;
        let checks = compare(&fresh, &fake_baseline(1000, 3.0), 0.15);
        assert_eq!(verdict_of(&checks, "kernel.speedup").verdict, Verdict::Pass);
    }

    #[test]
    fn scale_mismatch_skips_counters_but_still_gates_the_kernel() {
        let checks = compare(&fake_fresh(), &fake_baseline(999_999, 10.0), 0.15);
        assert_eq!(verdict_of(&checks, "probes").verdict, Verdict::Skip);
        assert_eq!(
            verdict_of(&checks, "expr_cell_evals").verdict,
            Verdict::Skip
        );
        // Kernel ratio is machine-relative, not input-relative: still FAILs
        // against an absurd baseline even at a different scale.
        assert_eq!(verdict_of(&checks, "kernel.speedup").verdict, Verdict::Fail);
        assert!(checks.iter().any(|c| c.name == "events"));
    }

    #[test]
    fn missing_baseline_fields_fail() {
        let empty = Val::obj(vec![
            ("schema", Val::from(TUNE_BENCH_SCHEMA)),
            ("events", Val::from(1000u64)),
        ]);
        let checks = compare(&fake_fresh(), &empty, 0.15);
        assert_eq!(verdict_of(&checks, "probes").verdict, Verdict::Fail);
        assert_eq!(verdict_of(&checks, "kernel.speedup").verdict, Verdict::Fail);
    }
}
