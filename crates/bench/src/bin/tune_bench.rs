//! The Alg. 3 expression-leg benchmark and its perf-regression gate: one
//! run at the paper's defaults (`√N = 128`, sides 4..=76, the full NYC
//! history) that measures once and judges the fresh numbers against the
//! committed `BENCH_tune.json`.
//!
//! ```text
//! cargo run --release -p gridtuner-bench --bin tune_bench -- \
//!     [--min-thread-speedup S] [--inject-kernel-slowdown F] [--update] [--profile]
//! ```
//!
//! The run:
//!
//! * **measures** the shared tune ([`TuneBench::measure`]): a brute-force
//!   `TuningSession::tune` on one worker with counters read from the `obs`
//!   registry, then the expression-kernel isolation (`kernel`: the
//!   pre-batching per-cell sweep vs the batched workspace + pmf-memo path
//!   over the probed sides, same warm α cache, one worker);
//! * **re-tunes** under `GRIDTUNER_THREADS` ∈ {1, 2, 8} (`thread_rows`),
//!   asserting the selected side, error and full probe decomposition are
//!   bit-identical across counts. Each row runs a warmup tune first (so
//!   the persistent pool is spawned) and then asserts the registry's
//!   `par.pool_spawns` stays flat across the measured 73-probe tune; the
//!   row records the pool/lock counter changes over that tune alongside
//!   the wall time and the speedup vs the 1-thread row;
//! * **judges** the fresh numbers, one PASS/FAIL/INFO line each on stderr:
//!   - the deterministic counters (`events`, `probes`, `selected_side`,
//!     `alpha_rescans`, `expr_*`) must match the baseline **exactly** —
//!     they are functions of the input, not the machine. An `events`
//!     mismatch means the history generator changed;
//!   - `kernel.speedup` must reach `max(1.5, 0.82 × baseline)`: the
//!     batched kernel stays 1.5× faster than the per-cell sweep and at
//!     most 18% below the committed ratio. Being a ratio of two timings
//!     taken back-to-back on the same machine, it is far less noisy than
//!     either wall time alone;
//!   - with `--min-thread-speedup S`, the tune at the largest thread count
//!     must be at least `S`× faster than the 1-thread tune (INFO on a
//!     single-CPU machine, where no thread count can help);
//!   - wall times are INFO only: they move with the machine and its load.
//!
//! The fresh JSON goes to stdout. Only `--update` rewrites
//! `BENCH_tune.json`, and only from a run that passes its gates; it skips
//! the comparison with the old baseline, so the kernel is held to the
//! absolute floor alone.
//!
//! `--inject-kernel-slowdown F` multiplies the fresh batched kernel time by
//! `F` and judges the slowed ratio against the same run's unslowed one
//! instead of the baseline — a self-test proving the gate trips on a
//! slowdown of that size (CI runs it with 1.25 and expects exit 1).
//! Against the baseline, run-to-run noise could lift the fresh ratio
//! enough to hide the injected 20% drop inside the 18% tolerance; against
//! itself the drop is exact. `--profile` prints the profile of the
//! measured ingest + tune (the trace `phases` is read from) to stderr.
//!
//! Exit status: 0 when nothing FAILs, 1 when something does or the
//! baseline cannot be read, 2 on a missing or malformed flag value or an
//! unknown flag — a typo must not switch a gate off. A reader that closes
//! stdout early does not change it.

use gridtuner_bench::flags::{exit_usage, Flags};
use gridtuner_bench::measure::{model, Measurement, TuneBench, WORKERS};
use gridtuner_bench::{outln, write_stdout};
use gridtuner_engine::TuningSession;
use gridtuner_obs as obs;
use gridtuner_obs::json::{parse_jsonl, Val};
use gridtuner_obs::profile::Profile;
use std::time::Instant;

/// Schema tag of `BENCH_tune.json` — bump when fields change meaning. v3
/// adds `kernel`, `thread_rows` and the `expr_*` counters. v4 extends
/// `thread_rows` with `speedup_vs_1t` and the pool/lock counters, and adds
/// the top-level `pool` object. v5 added a `simd` backend-isolation object
/// and `expr_simd_*` counters; v6 drops them with the one-path kernel. v7
/// drops the naive sweep's `naive_wall_ms`, `naive_alpha_rescans` and
/// `speedup`.
const TUNE_BENCH_SCHEMA: &str = "gridtuner.bench_tune/7";

/// The committed baseline, relative to the working directory.
const BASELINE: &str = "BENCH_tune.json";

/// The batched expression kernel must stay this many times faster than
/// the per-cell sweep. The bar dropped from 2× when the per-cell
/// reference itself picked up the stride-4 pmf kernel, narrowing the
/// batching margin to a measured ~2.0×.
const MIN_KERNEL_SPEEDUP: f64 = 1.5;

/// How far (as a fraction) `kernel.speedup` may fall below its reference.
const KERNEL_TOL: f64 = 0.18;

/// Thread counts the determinism sweep re-tunes under.
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// Registry counters a thread row records the change of across its
/// measured tune.
const ROW_COUNTERS: [&str; 4] = [
    "par.pool_spawns",
    "par.dispatches",
    "par.worker_idle_ms",
    "pmf_memo.lock_waits",
];

/// The deterministic counters of a [`Measurement`], in [`counters`] order.
const COUNTERS: [&str; 8] = [
    "events",
    "probes",
    "alpha_rescans",
    "selected_side",
    "expr_cell_evals",
    "expr_dedup_hits",
    "expr_pmf_memo_hits",
    "expr_workspace_bytes",
];

fn counters(m: &Measurement) -> [u64; 8] {
    [
        m.events,
        m.probes,
        m.alpha_rescans,
        u64::from(m.selected_side),
        m.expr_cell_evals,
        m.expr_dedup_hits,
        m.expr_pmf_memo_hits,
        m.expr_workspace_bytes,
    ]
}

fn row_counters() -> [u64; 4] {
    ROW_COUNTERS.map(|name| obs::metrics::counter(name).get())
}

/// Per-phase wall timings of the measured tune, keyed by span name
/// (name-sorted), from the measurement's profile.
fn phase_timings(profile: &Profile) -> Val {
    let mut phases = profile.self_times();
    phases.sort_by(|a, b| a.name.cmp(&b.name));
    Val::Obj(
        phases
            .into_iter()
            .map(|st| {
                (
                    st.name,
                    Val::obj(vec![
                        ("count", Val::from(st.count)),
                        ("total_ms", Val::from(st.total_ns as f64 / 1e6)),
                        ("max_ms", Val::from(st.max_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Re-tunes under each of [`THREAD_SWEEP`]: the same tune must select the
/// same side with a bit-identical error and probe decomposition. Each
/// count tunes twice — an unmeasured warmup that spawns any missing pool
/// workers, then the measured tune, across which `par.pool_spawns` must
/// stay flat. Returns the rows and the largest count's speedup over one
/// thread.
fn thread_sweep(bench: &TuneBench) -> (Vec<Val>, f64) {
    let (events, engine_cfg) = (&bench.events, bench.config);
    let prev_threads = gridtuner_par::max_threads();
    // Selected side, error bits and the per-probe (side, error-bits)
    // decomposition — the full bit-compared signature of one tune.
    type SweepKey = (u32, u64, Vec<(u32, u64)>);
    let mut rows = Vec::new();
    let mut sweep_ref: Option<SweepKey> = None;
    let (mut wall_1t, mut wall_last) = (f64::NAN, f64::NAN);
    for threads in THREAD_SWEEP {
        gridtuner_par::set_max_threads(threads);
        let mut warm = TuningSession::new(engine_cfg, model).expect("valid bench config");
        warm.ingest(events).expect("finite synthetic events");
        warm.tune().expect("infallible model leg");
        let before = row_counters();
        let ts = Instant::now();
        let mut sweep = TuningSession::new(engine_cfg, model).expect("valid bench config");
        sweep.ingest(events).expect("finite synthetic events");
        let r = sweep.tune().expect("infallible model leg");
        let ms = ts.elapsed().as_secs_f64() * 1e3;
        let after = row_counters();
        let [spawns, dispatches, idle_ms, lock_waits] =
            std::array::from_fn(|i| after[i] - before[i]);
        assert_eq!(
            spawns, 0,
            "pool spawned workers mid-tune at {threads} threads — not flat"
        );
        let probes: Vec<(u32, u64)> = r
            .outcome
            .probes
            .iter()
            .map(|&(s, e)| (s, e.to_bits()))
            .collect();
        match &sweep_ref {
            None => {
                wall_1t = ms;
                sweep_ref = Some((r.outcome.side, r.outcome.error.to_bits(), probes));
            }
            Some((side, bits, ref_probes)) => {
                assert_eq!(r.outcome.side, *side, "side drifted at {threads} threads");
                assert_eq!(
                    r.outcome.error.to_bits(),
                    *bits,
                    "error bits drifted at {threads} threads"
                );
                assert_eq!(
                    &probes, ref_probes,
                    "probe decomposition drifted at {threads} threads"
                );
            }
        }
        wall_last = ms;
        let speedup_vs_1t = wall_1t / ms.max(1e-9);
        rows.push(Val::obj(vec![
            ("threads", Val::from(threads as u64)),
            ("wall_ms", Val::from(ms)),
            ("speedup_vs_1t", Val::from(speedup_vs_1t)),
            ("selected_side", Val::from(r.outcome.side)),
            (
                "pool_workers",
                Val::from(gridtuner_par::pool_workers() as u64),
            ),
            ("par_dispatches", Val::from(dispatches)),
            ("par_worker_idle_ms", Val::from(idle_ms)),
            ("pmf_lock_waits", Val::from(lock_waits)),
        ]));
        eprintln!(
            "[tune_bench] threads {threads}: {ms:.1} ms ({speedup_vs_1t:.2}x vs 1t), side {}, \
             {dispatches} dispatches, {lock_waits} lock waits",
            r.outcome.side
        );
    }
    gridtuner_par::set_max_threads(prev_threads);
    (rows, wall_1t / wall_last.max(1e-9))
}

/// The `BENCH_tune.json` record of one run.
fn bench_json(m: &Measurement, thread_rows: Vec<Val>) -> Val {
    Val::obj(vec![
        ("schema", Val::from(TUNE_BENCH_SCHEMA)),
        ("wall_ms", Val::from(m.wall_ms)),
        ("probes", Val::from(m.probes)),
        ("alpha_rescans", Val::from(m.alpha_rescans)),
        ("events", Val::from(m.events)),
        ("selected_side", Val::from(m.selected_side)),
        ("threads", Val::from(WORKERS as u64)),
        ("expr_cell_evals", Val::from(m.expr_cell_evals)),
        ("expr_dedup_hits", Val::from(m.expr_dedup_hits)),
        ("expr_pmf_memo_hits", Val::from(m.expr_pmf_memo_hits)),
        ("expr_workspace_bytes", Val::from(m.expr_workspace_bytes)),
        (
            "kernel",
            Val::obj(vec![
                ("percell_ms", Val::from(m.kernel.percell_ms)),
                ("batched_ms", Val::from(m.kernel.batched_ms)),
                ("speedup", Val::from(m.kernel.speedup())),
            ]),
        ),
        ("thread_rows", Val::Arr(thread_rows)),
        (
            "pool",
            Val::obj(vec![
                (
                    "workers_live",
                    Val::from(gridtuner_par::pool_workers() as u64),
                ),
                (
                    "spawns_total",
                    Val::from(obs::counter!("par.pool_spawns").get()),
                ),
                (
                    "dispatches_total",
                    Val::from(obs::counter!("par.dispatches").get()),
                ),
                (
                    "pmf_lock_waits_total",
                    Val::from(obs::counter!("pmf_memo.lock_waits").get()),
                ),
            ]),
        ),
        ("phases", phase_timings(&m.profile)),
    ])
}

/// One check's outcome.
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
    let (verdict, detail) = match num(baseline, name).map(|f| f as u64) {
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

/// The kernel gate: the fresh ratio must reach
/// `max(MIN_KERNEL_SPEEDUP, (1 − KERNEL_TOL) × reference)`, where the
/// reference is labelled by its `&str`; with no reference (`--update`) the
/// absolute floor alone applies. Improvements always pass.
fn check_kernel(fresh: f64, reference: Option<(&str, Option<f64>)>) -> Check {
    let floor = match reference {
        None => Ok((MIN_KERNEL_SPEEDUP, String::new())),
        Some((label, None)) => Err(format!("missing from {label}")),
        Some((label, Some(b))) if !(b.is_finite() && b > 0.0) => {
            Err(format!("{label} {b} is not a positive ratio"))
        }
        Some((label, Some(b))) => Ok((
            (b * (1.0 - KERNEL_TOL)).max(MIN_KERNEL_SPEEDUP),
            format!(" vs {label} {b:.2}x"),
        )),
    };
    let (verdict, detail) = match floor {
        Err(e) => (Verdict::Fail, e),
        Ok((floor, vs)) if fresh >= floor => (
            Verdict::Pass,
            format!("fresh {fresh:.2}x{vs} (floor {floor:.2}x)"),
        ),
        Ok((floor, vs)) => (
            Verdict::Fail,
            format!(
                "fresh {fresh:.2}x{vs} below floor {floor:.2}x \
                 (max of {MIN_KERNEL_SPEEDUP}x and {:.0}% of the reference)",
                (1.0 - KERNEL_TOL) * 100.0
            ),
        ),
    };
    Check {
        name: "kernel.speedup",
        verdict,
        detail,
    }
}

/// The thread-scaling gate: the largest thread count's tune must be at
/// least `min`× faster than the 1-thread tune. On fewer than 2 CPUs no
/// thread count can help, so the gate reports INFO instead.
fn check_thread_speedup(speedup: f64, min: f64, cpus: usize) -> Check {
    let threads = THREAD_SWEEP[THREAD_SWEEP.len() - 1];
    let (verdict, detail) = if cpus < 2 {
        (
            Verdict::Info,
            format!("skipped on {cpus} CPU; measured {speedup:.2}x at {threads} threads"),
        )
    } else if speedup >= min {
        (
            Verdict::Pass,
            format!("{speedup:.2}x at {threads} threads >= {min}x"),
        )
    } else {
        (
            Verdict::Fail,
            format!("{speedup:.2}x at {threads} threads below the required {min}x"),
        )
    };
    Check {
        name: "thread_speedup",
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

/// Judges a fresh measurement against the `baseline` (`None` under
/// `--update`). With `inject_kernel_slowdown` ≠ 1 the fresh batched kernel
/// time is multiplied by it and `kernel.speedup` is judged against the
/// measurement's own unslowed ratio. Pure — this is what the unit tests
/// exercise.
fn compare(fresh: &Measurement, baseline: Option<&Val>, inject_kernel_slowdown: f64) -> Vec<Check> {
    let base_kernel = |key| {
        baseline
            .and_then(|b| b.get("kernel"))
            .and_then(|k| num(k, key))
    };
    let measured = fresh.kernel.speedup();
    let reference = if inject_kernel_slowdown == 1.0 {
        baseline.map(|_| ("baseline", base_kernel("speedup")))
    } else {
        Some(("unslowed run", Some(measured)))
    };
    let mut checks: Vec<Check> = match baseline {
        Some(b) => COUNTERS
            .into_iter()
            .zip(counters(fresh))
            .map(|(name, value)| check_exact(name, value, b))
            .collect(),
        None => Vec::new(),
    };
    checks.push(check_kernel(measured / inject_kernel_slowdown, reference));
    checks.push(check_wall(
        "wall_ms",
        fresh.wall_ms,
        baseline.and_then(|b| num(b, "wall_ms")),
    ));
    checks.push(check_wall(
        "kernel.batched_ms",
        fresh.kernel.batched_ms * inject_kernel_slowdown,
        base_kernel("batched_ms"),
    ));
    checks
}

/// Parses the committed baseline, which must carry this binary's schema.
fn parse_baseline(text: &str) -> Result<Val, String> {
    let baseline = parse_jsonl(text)?
        .into_iter()
        .next()
        .ok_or("the baseline is empty")?;
    match baseline.get("schema").and_then(Val::as_str) {
        Some(TUNE_BENCH_SCHEMA) => Ok(baseline),
        other => Err(format!(
            "baseline schema {other:?}, expected {TUNE_BENCH_SCHEMA:?} — \
             regenerate with `tune_bench --update`"
        )),
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BenchArgs {
    /// When set, FAIL if the largest thread count's tune is less than
    /// this factor faster than the 1-thread tune.
    min_thread_speedup: Option<f64>,
    /// Factor the fresh batched kernel time is slowed by (1 = none).
    inject_kernel_slowdown: f64,
    /// Rewrite the baseline instead of judging against it.
    update: bool,
    /// Print the profile of the measured ingest + tune.
    profile: bool,
}

fn parse_args(args: &[String]) -> Result<BenchArgs, String> {
    let mut out = BenchArgs {
        min_thread_speedup: None,
        inject_kernel_slowdown: 1.0,
        update: false,
        profile: false,
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--min-thread-speedup" => out.min_thread_speedup = Some(flags.value(flag)?),
            "--inject-kernel-slowdown" => {
                let factor: f64 = flags.value(flag)?;
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(format!("{flag} must be a positive factor, got {factor}"));
                }
                out.inject_kernel_slowdown = factor;
            }
            "--update" => out.update = true,
            "--profile" => out.profile = true,
            other => return Err(Flags::unknown(other)),
        }
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| exit_usage("tune_bench", &e));
    let baseline = (!args.update).then(|| {
        std::fs::read_to_string(BASELINE)
            .map_err(|e| format!("cannot read {BASELINE}: {e}"))
            .and_then(|text| parse_baseline(&text))
            .unwrap_or_else(|e| {
                eprintln!("tune_bench: {BASELINE}: {e}");
                std::process::exit(1);
            })
    });
    if args.inject_kernel_slowdown != 1.0 {
        eprintln!(
            "[tune_bench] SELF-TEST: injecting a {:.2}x kernel slowdown, judged against \
             this run's own kernel ratio",
            args.inject_kernel_slowdown
        );
    }

    let bench = TuneBench::new(1.0);
    eprintln!(
        "[tune_bench] {} events, budget side {}, sides {}..={}",
        bench.events.len(),
        bench.config.hgrid_budget_side,
        bench.config.side_range.0,
        bench.config.side_range.1
    );
    let m = bench.measure();
    eprintln!(
        "[tune_bench] tune: side {} err {:.3} in {:.1} ms ({} log scans); kernel: per-cell \
         {:.1} ms vs batched {:.1} ms ({:.2}x) over {} probes",
        m.selected_side,
        m.error,
        m.wall_ms,
        m.alpha_rescans,
        m.kernel.percell_ms,
        m.kernel.batched_ms,
        m.kernel.speedup(),
        m.probes
    );
    if args.profile {
        eprintln!("{}", m.profile.render(10));
    }
    let (thread_rows, thread_speedup) = thread_sweep(&bench);
    let json = bench_json(&m, thread_rows).render();
    write_stdout("tune_bench", || {
        outln!("{json}");
        Ok(())
    });

    let mut checks = compare(&m, baseline.as_ref(), args.inject_kernel_slowdown);
    if let Some(min) = args.min_thread_speedup {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        checks.push(check_thread_speedup(thread_speedup, min, cpus));
    }
    for c in &checks {
        eprintln!("{:<4} {:<22} {}", c.verdict.tag(), c.name, c.detail);
    }
    let failed = checks.iter().filter(|c| c.verdict == Verdict::Fail).count();
    if failed > 0 {
        eprintln!("[tune_bench] FAIL: {failed} check(s) failed");
        std::process::exit(1);
    }
    if args.update {
        std::fs::write(BASELINE, &json).expect("cannot write BENCH_tune.json");
        eprintln!("[tune_bench] OK: wrote {BASELINE}");
    } else {
        eprintln!("[tune_bench] OK: no regressions vs {BASELINE}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_bench::measure::KernelTiming;

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
            profile: Default::default(),
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

    fn verdict_of(checks: &[Check], name: &str) -> Verdict {
        checks.iter().find(|c| c.name == name).unwrap().verdict
    }

    /// The kernel verdict of a `fresh`× run against a `baseline`× one.
    fn kernel_verdict(fresh: f64, baseline: f64) -> Verdict {
        let checks = compare(
            &fake_fresh(fresh),
            Some(&fake_baseline(1000, baseline)),
            1.0,
        );
        verdict_of(&checks, "kernel.speedup")
    }

    #[test]
    fn arg_parsing_defaults_and_overrides() {
        assert_eq!(
            parse_args(&argv("")),
            Ok(BenchArgs {
                min_thread_speedup: None,
                inject_kernel_slowdown: 1.0,
                update: false,
                profile: false
            })
        );
        assert_eq!(
            parse_args(&argv(
                "--update --min-thread-speedup 2 --inject-kernel-slowdown 1.25 --profile"
            )),
            Ok(BenchArgs {
                min_thread_speedup: Some(2.0),
                inject_kernel_slowdown: 1.25,
                update: true,
                profile: true
            })
        );
    }

    #[test]
    fn scale_parsing() {
        // The run is always at paper scale: the committed baseline's.
        let err = parse_args(&argv("--scale 0.1")).unwrap_err();
        assert!(err.contains("--scale"), "{err}");
        assert!(parse_args(&argv("--scale")).is_err());
    }

    #[test]
    fn kernel_speedup_gate_parsing() {
        assert_eq!(
            parse_args(&argv("--inject-kernel-slowdown 1.25"))
                .unwrap()
                .inject_kernel_slowdown,
            1.25
        );
        // A bad value is an error, never a default.
        let err = parse_args(&argv("--inject-kernel-slowdown nope")).unwrap_err();
        assert!(err.contains("--inject-kernel-slowdown"), "{err}");
        assert!(parse_args(&argv("--inject-kernel-slowdown 0")).is_err());
        assert!(parse_args(&argv("--inject-kernel-slowdown")).is_err());
        // The floor, the tolerance and the baseline are fixed.
        for removed in [
            "--min-kernel-speedup 1.5",
            "--kernel-tol 0.2",
            "--baseline other.json",
        ] {
            assert!(parse_args(&argv(removed)).is_err(), "{removed}");
        }
    }

    #[test]
    fn thread_speedup_gate_parsing() {
        assert_eq!(
            parse_args(&argv("--min-thread-speedup 2.5"))
                .unwrap()
                .min_thread_speedup,
            Some(2.5)
        );
        let err = parse_args(&argv("--min-thread-speedup nope")).unwrap_err();
        assert!(err.contains("--min-thread-speedup"), "{err}");
        assert!(parse_args(&argv("--min-thread-speedup")).is_err());
    }

    #[test]
    fn profile_flag_parsing() {
        assert!(!parse_args(&argv("")).unwrap().profile);
        assert!(parse_args(&argv("--profile")).unwrap().profile);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // A misspelt gate must not silently switch the gate off.
        let err = parse_args(&argv("--min-thread-speedp 2.5")).unwrap_err();
        assert!(err.contains("--min-thread-speedp"), "{err}");
    }

    #[test]
    fn matching_counters_and_kernel_pass() {
        let checks = compare(&fake_fresh(3.0), Some(&fake_baseline(1000, 3.1)), 1.0);
        for name in COUNTERS {
            assert_eq!(verdict_of(&checks, name), Verdict::Pass, "{name}");
        }
        // 3.0 vs 3.1 baseline: within 18%.
        assert_eq!(verdict_of(&checks, "kernel.speedup"), Verdict::Pass);
        assert_eq!(verdict_of(&checks, "wall_ms"), Verdict::Info);
        assert!(checks.iter().all(|c| c.verdict != Verdict::Fail));
    }

    #[test]
    fn counter_drift_fails() {
        let mut fresh = fake_fresh(3.0);
        fresh.expr_cell_evals += 1;
        // A second full scan (a rebuilt α cache) trips the one-scan rule.
        fresh.alpha_rescans = 2;
        let checks = compare(&fresh, Some(&fake_baseline(1000, 3.0)), 1.0);
        assert_eq!(verdict_of(&checks, "expr_cell_evals"), Verdict::Fail);
        assert_eq!(verdict_of(&checks, "alpha_rescans"), Verdict::Fail);
        assert_eq!(verdict_of(&checks, "probes"), Verdict::Pass);
    }

    #[test]
    fn kernel_regression_beyond_tolerance_fails() {
        // Baseline 3.0x → floor 0.82 × 3.0 = 2.46x. A 25% slower batched
        // kernel drops a matching fresh run to 2.4x → FAIL.
        assert_eq!(kernel_verdict(3.0 / 1.25, 3.0), Verdict::Fail);
        // A small wobble stays PASS; improvements always pass.
        assert_eq!(kernel_verdict(2.8, 3.0), Verdict::Pass);
        assert_eq!(kernel_verdict(4.2, 3.0), Verdict::Pass);
    }

    #[test]
    fn kernel_below_the_absolute_floor_fails() {
        // Below a 1.83x baseline, 82% of it is under 1.5x: the absolute
        // floor decides.
        assert_eq!(kernel_verdict(1.45, 1.7), Verdict::Fail);
        assert_eq!(kernel_verdict(1.5, 1.7), Verdict::Pass);
        // `--update` has no baseline: the absolute floor alone applies.
        let at = |speedup| verdict_of(&compare(&fake_fresh(speedup), None, 1.0), "kernel.speedup");
        assert_eq!(at(1.45), Verdict::Fail);
        assert_eq!(at(1.6), Verdict::Pass);
    }

    #[test]
    fn injected_slowdown_fails_at_the_default_tolerance() {
        // A 1.25x slower batched kernel lowers the ratio by exactly 20%,
        // past the 18% tolerance, because the self-test judges it against
        // the same measurement's unslowed ratio.
        let at = |speedup: f64, inject: f64| {
            let checks = compare(
                &fake_fresh(speedup),
                Some(&fake_baseline(1000, 3.0)),
                inject,
            );
            verdict_of(&checks, "kernel.speedup")
        };
        assert_eq!(at(3.0, 1.25), Verdict::Fail);
        // A run whose kernel happened to measure faster than the baseline
        // (3.6 / 1.25 = 2.88x, above the baseline's 2.46x floor) still
        // FAILs.
        assert_eq!(at(3.6, 1.25), Verdict::Fail);
        // Without the injection the same run PASSes.
        assert_eq!(at(3.6, 1.0), Verdict::Pass);
    }

    #[test]
    fn event_count_mismatch_fails_and_the_kernel_is_still_judged() {
        // A different history means the generator changed: FAIL, while
        // the machine-relative kernel ratio is judged on its own.
        let checks = compare(&fake_fresh(3.0), Some(&fake_baseline(999_999, 3.0)), 1.0);
        assert_eq!(verdict_of(&checks, "events"), Verdict::Fail);
        assert_eq!(verdict_of(&checks, "probes"), Verdict::Pass);
        assert_eq!(verdict_of(&checks, "kernel.speedup"), Verdict::Pass);
        let checks = compare(&fake_fresh(3.0), Some(&fake_baseline(999_999, 10.0)), 1.0);
        assert_eq!(verdict_of(&checks, "kernel.speedup"), Verdict::Fail);
    }

    #[test]
    fn missing_baseline_fields_fail() {
        let empty = Val::obj(vec![
            ("schema", Val::from(TUNE_BENCH_SCHEMA)),
            ("events", Val::from(1000u64)),
        ]);
        let checks = compare(&fake_fresh(3.0), Some(&empty), 1.0);
        assert_eq!(verdict_of(&checks, "probes"), Verdict::Fail);
        assert_eq!(verdict_of(&checks, "kernel.speedup"), Verdict::Fail);
    }

    #[test]
    fn stale_or_empty_baselines_are_rejected() {
        let current = fake_baseline(1000, 3.0).render();
        assert!(parse_baseline(&current).is_ok());
        let stale = current.replace(TUNE_BENCH_SCHEMA, "gridtuner.bench_tune/6");
        let err = parse_baseline(&stale).unwrap_err();
        assert!(err.contains("--update"), "{err}");
        assert!(parse_baseline("").is_err());
        assert!(parse_baseline("{not json").is_err());
    }

    #[test]
    fn thread_speedup_below_its_floor_fails() {
        assert_eq!(check_thread_speedup(2.4, 2.5, 4).verdict, Verdict::Fail);
        assert_eq!(check_thread_speedup(2.6, 2.5, 4).verdict, Verdict::Pass);
        // No thread count can help on one CPU.
        assert_eq!(check_thread_speedup(0.9, 2.5, 1).verdict, Verdict::Info);
    }
}
