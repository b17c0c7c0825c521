//! End-to-end tuning benchmark: times a full brute-force tune at the
//! paper's defaults (`√N = 128`, sides 4..=76) and writes `BENCH_tune.json`
//! with `{wall_ms, probes, alpha_rescans, ...}`.
//!
//! Two sweeps are timed over the same event history and the same analytic
//! model leg:
//!
//! * **naive** — the pre-optimisation hot path: every probe rescans the
//!   full event log (`estimate_alpha`) and evaluates `E_e` per cell with
//!   no memoisation;
//! * **cached** — the production path, `TuningSession::tune`: one log
//!   pass into the
//!   [`AlphaFieldCache`](gridtuner_core::alpha_cache::AlphaFieldCache),
//!   `O(digest)` α derivation per probe, memoised per-MGrid expression
//!   errors.
//!
//! The cached sweep is the shared measurement `bench_check` gates against
//! ([`TuneBench::measure`]): one worker, counters read from the `obs`
//! registry, followed by the expression-kernel isolation (`kernel`: the
//! pre-batching per-cell sweep vs the batched workspace + pmf-memo path
//! over the probed sides). The benchmark then re-runs `tune()` under
//! `GRIDTUNER_THREADS` ∈ {1, 2, 8} (`thread_rows`), asserting the selected
//! side, error and full probe decomposition are bit-identical across
//! counts. Each thread row runs a warmup tune first (so the persistent
//! pool is spawned) and then asserts the registry's `par.pool_spawns`
//! stays flat across the measured 73-probe tune; the row records the
//! pool/lock counter changes over that tune alongside the wall time and
//! the speedup vs the 1-thread row.
//!
//! ```text
//! cargo run --release -p gridtuner-bench --bin tune_bench \
//!     [-- --scale X] [--min-kernel-speedup S] [--min-thread-speedup S]
//! ```
//!
//! Every value flag needs a number: a missing or malformed one, or an
//! unknown flag, is a usage error (exit 2), never a silent default — a
//! typo must not switch a CI gate off.
//!
//! `--min-kernel-speedup S` makes the run exit non-zero when the batched
//! kernel is less than `S`× faster than the per-cell sweep — the CI
//! perf-smoke gate (skipped with a warning when the timings are too small
//! for the ratio to mean anything, i.e. a tiny `--scale` pushed them down
//! to timer resolution). `--min-thread-speedup S` does the same when the
//! tune at the largest thread count is less than `S`× faster than the
//! 1-thread tune — the CI thread-scaling gate (skipped with a warning when
//! the machine itself has fewer than 2 CPUs, where no thread count can
//! help). `--profile` prints the shared measurement's profile (the
//! ingest + tune it captured, the same trace `phases` is read from) to
//! stderr after it.

use gridtuner_bench::flags::{exit_usage, Flags};
use gridtuner_bench::measure::{model, TuneBench, WORKERS};
use gridtuner_bench::TUNE_BENCH_SCHEMA;
use gridtuner_core::alpha::AlphaWindow;
use gridtuner_core::estimate_alpha;
use gridtuner_core::expression::expression_error_windowed;
use gridtuner_engine::TuningSession;
use gridtuner_obs as obs;
use gridtuner_obs::json::Val;
use gridtuner_obs::profile::Profile;
use gridtuner_spatial::{Event, Partition, SlotClock};
use std::time::Instant;

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

fn row_counters() -> [u64; 4] {
    ROW_COUNTERS.map(|name| obs::metrics::counter(name).get())
}

/// Per-phase wall timings of the cached sweep, keyed by span name
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

/// The seed code path: full log scan per probe, unmemoised per-cell sums.
fn naive_sweep(
    events: &[Event],
    clock: &SlotClock,
    window: &AlphaWindow,
    budget: u32,
    (lo, hi): (u32, u32),
    model: impl Fn(u32) -> f64,
) -> (u32, f64, u64) {
    let mut rescans = 0u64;
    let mut best = (lo, f64::INFINITY);
    for s in lo..=hi {
        let part = Partition::for_budget(s, budget);
        let alpha = estimate_alpha(events, part.hgrid_spec(), clock, window);
        rescans += 1;
        let expr: f64 = part
            .mgrid_spec()
            .cells()
            .map(|mcell| {
                let alphas: Vec<f64> = part
                    .hgrids_of(mcell)
                    .into_iter()
                    .map(|h| alpha.get(h))
                    .collect();
                let m = alphas.len();
                if m <= 1 {
                    return 0.0;
                }
                let total: f64 = alphas.iter().sum();
                alphas
                    .iter()
                    .map(|&a| expression_error_windowed(a, (total - a).max(0.0), m))
                    .sum()
            })
            .sum();
        let e = expr + model(s);
        if e < best.1 {
            best = (s, e);
        }
    }
    (best.0, best.1, rescans)
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BenchArgs {
    /// City volume scale (default 1.0, the paper's full volume).
    scale: f64,
    /// When set, exit non-zero if the batched kernel's speedup over the
    /// per-cell sweep falls below this factor.
    min_kernel_speedup: Option<f64>,
    /// When set, exit non-zero if the largest thread count's tune is less
    /// than this factor faster than the 1-thread tune (skipped on
    /// single-CPU machines).
    min_thread_speedup: Option<f64>,
    /// Print the profile of the measured ingest + tune.
    profile: bool,
}

fn parse_args(args: &[String]) -> Result<BenchArgs, String> {
    let mut out = BenchArgs {
        scale: 1.0,
        min_kernel_speedup: None,
        min_thread_speedup: None,
        profile: false,
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--scale" => out.scale = flags.value(flag)?,
            "--min-kernel-speedup" => out.min_kernel_speedup = Some(flags.value(flag)?),
            "--min-thread-speedup" => out.min_thread_speedup = Some(flags.value(flag)?),
            "--profile" => out.profile = true,
            other => return Err(Flags::unknown(other)),
        }
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| exit_usage("tune_bench", &e));
    let scale = args.scale;

    let bench = TuneBench::new(scale);
    let (events, engine_cfg) = (&bench.events, bench.config);
    eprintln!(
        "[tune_bench] {} events, budget side {}, sides {}..={}",
        events.len(),
        engine_cfg.hgrid_budget_side,
        engine_cfg.side_range.0,
        engine_cfg.side_range.1
    );

    // Naive (seed) sweep.
    let t0 = Instant::now();
    let (naive_side, naive_err, naive_rescans) = naive_sweep(
        events,
        &engine_cfg.clock,
        &engine_cfg.alpha_window,
        engine_cfg.hgrid_budget_side,
        engine_cfg.side_range,
        model,
    );
    let naive_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "[tune_bench] naive: side {naive_side} err {naive_err:.3} in {naive_ms:.1} ms ({naive_rescans} log scans)"
    );

    // Cached sweep: the shared measurement, which captures its ingest +
    // tune so the JSON can break its wall time down by phase (ingest,
    // alpha scan, probes, ...).
    let m = bench.measure();
    eprintln!(
        "[tune_bench] cached: side {} err {:.3} in {:.1} ms ({} log scans)",
        m.selected_side, m.error, m.wall_ms, m.alpha_rescans
    );
    if args.profile {
        eprintln!("{}", m.profile.render(10));
    }

    assert_eq!(
        m.selected_side, naive_side,
        "sweeps disagree on the optimum"
    );
    assert!(
        (m.error - naive_err).abs() <= 1e-9 * (1.0 + naive_err.abs()),
        "sweeps disagree on the optimal error: {} vs {naive_err}",
        m.error
    );

    // The measurement's kernel isolation: the same probed sides, same
    // warm α cache, one worker — only the expression sweep differs. The per-cell sweep is
    // the pre-batching hot loop (per-MGrid memo, fresh window Vecs per
    // cell); the batched path is what the session just ran (workspace
    // reuse, dedup, cross-probe pmf memo). Timing is per-side interleaved,
    // best-of-3 (see `kernel_timing`) so the committed speedup is stable
    // enough for bench_check to gate against.
    let (percell_ms, batched_ms) = (m.kernel.percell_ms, m.kernel.batched_ms);
    let kernel_speedup = m.kernel.speedup();
    eprintln!(
        "[tune_bench] kernel: per-cell {percell_ms:.1} ms vs batched {batched_ms:.1} ms \
         ({kernel_speedup:.2}x) over {} probes",
        m.probes
    );

    // Determinism + scaling sweep: the same tune under 1/2/8 workers must
    // select the same side with a bit-identical error and probe
    // decomposition. Each count tunes twice — an unmeasured warmup that
    // spawns any missing pool workers, then the measured tune, across
    // which `par.pool_spawns` must stay flat.
    let prev_threads = gridtuner_par::max_threads();
    // Selected side, error bits and the per-probe (side, error-bits)
    // decomposition — the full bit-compared signature of one tune.
    type SweepKey = (u32, u64, Vec<(u32, u64)>);
    let mut thread_rows = Vec::new();
    let mut sweep_ref: Option<SweepKey> = None;
    let mut wall_1t = f64::NAN;
    let mut sweep_last = f64::NAN;
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
        sweep_last = ms;
        let speedup_vs_1t = wall_1t / ms.max(1e-9);
        thread_rows.push(Val::obj(vec![
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
    let thread_speedup = wall_1t / sweep_last.max(1e-9);
    gridtuner_par::set_max_threads(prev_threads);

    let speedup = naive_ms / m.wall_ms.max(1e-9);
    let json = Val::obj(vec![
        ("schema", Val::from(TUNE_BENCH_SCHEMA)),
        ("wall_ms", Val::from(m.wall_ms)),
        ("probes", Val::from(m.probes)),
        ("alpha_rescans", Val::from(m.alpha_rescans)),
        ("events", Val::from(m.events)),
        ("selected_side", Val::from(m.selected_side)),
        ("naive_wall_ms", Val::from(naive_ms)),
        ("naive_alpha_rescans", Val::from(naive_rescans)),
        ("speedup", Val::from(speedup)),
        ("threads", Val::from(WORKERS as u64)),
        ("expr_cell_evals", Val::from(m.expr_cell_evals)),
        ("expr_dedup_hits", Val::from(m.expr_dedup_hits)),
        ("expr_pmf_memo_hits", Val::from(m.expr_pmf_memo_hits)),
        ("expr_workspace_bytes", Val::from(m.expr_workspace_bytes)),
        (
            "kernel",
            Val::obj(vec![
                ("percell_ms", Val::from(percell_ms)),
                ("batched_ms", Val::from(batched_ms)),
                ("speedup", Val::from(kernel_speedup)),
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
    .render();
    std::fs::write("BENCH_tune.json", &json).expect("cannot write BENCH_tune.json");
    println!("{json}");
    eprintln!("[tune_bench] speedup {speedup:.2}x, wrote BENCH_tune.json");

    if let Some(min) = args.min_kernel_speedup {
        // Below ~10 µs per sweep the ratio is timer noise, not a kernel
        // property — a tiny --scale gets a skip, not a spurious verdict.
        if percell_ms.min(batched_ms) < 0.01 {
            eprintln!(
                "[tune_bench] WARN: kernel speedup gate skipped — timings below timer \
                 resolution at scale {scale}; measured {kernel_speedup:.2}x"
            );
        } else if kernel_speedup < min {
            eprintln!(
                "[tune_bench] FAIL: batched kernel speedup {kernel_speedup:.2}x \
                 below the required {min}x"
            );
            std::process::exit(1);
        } else {
            eprintln!("[tune_bench] kernel speedup gate passed ({kernel_speedup:.2}x >= {min}x)");
        }
    }

    if let Some(min) = args.min_thread_speedup {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        if cpus < 2 {
            eprintln!(
                "[tune_bench] WARN: thread speedup gate skipped — machine has {cpus} CPU; \
                 measured {thread_speedup:.2}x at {} threads",
                THREAD_SWEEP[THREAD_SWEEP.len() - 1]
            );
        } else if thread_speedup < min {
            eprintln!(
                "[tune_bench] FAIL: {}-thread tune speedup {thread_speedup:.2}x \
                 below the required {min}x",
                THREAD_SWEEP[THREAD_SWEEP.len() - 1]
            );
            std::process::exit(1);
        } else {
            eprintln!("[tune_bench] thread speedup gate passed ({thread_speedup:.2}x >= {min}x)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_datagen::City;
    use gridtuner_engine::{EngineConfig, SearchStrategy};
    use rand::{rngs::StdRng, SeedableRng};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_args(&argv("")).unwrap().scale, 1.0);
        assert_eq!(parse_args(&argv("--scale 0.1")).unwrap().scale, 0.1);
        let err = parse_args(&argv("--scale nope")).unwrap_err();
        assert!(err.contains("--scale") && err.contains("nope"), "{err}");
        let err = parse_args(&argv("--scale")).unwrap_err();
        assert!(err.contains("--scale needs a value"), "{err}");
    }

    #[test]
    fn kernel_speedup_gate_parsing() {
        assert_eq!(parse_args(&argv("")).unwrap().min_kernel_speedup, None);
        assert_eq!(
            parse_args(&argv("--min-kernel-speedup 2"))
                .unwrap()
                .min_kernel_speedup,
            Some(2.0)
        );
        assert_eq!(
            parse_args(&argv("--scale 0.5 --min-kernel-speedup 1.5")),
            Ok(BenchArgs {
                scale: 0.5,
                min_kernel_speedup: Some(1.5),
                min_thread_speedup: None,
                profile: false
            })
        );
        // A malformed or missing value must not switch the gate off.
        let err = parse_args(&argv("--min-kernel-speedup nope")).unwrap_err();
        assert!(err.contains("--min-kernel-speedup"), "{err}");
        assert!(parse_args(&argv("--min-kernel-speedup")).is_err());
    }

    #[test]
    fn thread_speedup_gate_parsing() {
        assert_eq!(parse_args(&argv("")).unwrap().min_thread_speedup, None);
        assert_eq!(
            parse_args(&argv("--min-thread-speedup 2.5"))
                .unwrap()
                .min_thread_speedup,
            Some(2.5)
        );
        assert_eq!(
            parse_args(&argv("--min-kernel-speedup 2 --min-thread-speedup 2.5")),
            Ok(BenchArgs {
                scale: 1.0,
                min_kernel_speedup: Some(2.0),
                min_thread_speedup: Some(2.5),
                profile: false
            })
        );
        let err = parse_args(&argv("--min-thread-speedup nope")).unwrap_err();
        assert!(err.contains("--min-thread-speedup"), "{err}");
        assert!(parse_args(&argv("--min-thread-speedup")).is_err());
    }

    #[test]
    fn profile_flag_parsing() {
        assert!(!parse_args(&argv("")).unwrap().profile);
        assert!(parse_args(&argv("--profile")).unwrap().profile);
        assert!(parse_args(&argv("--scale 0.5 --profile")).unwrap().profile);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // A misspelt gate must not silently switch the gate off.
        let err = parse_args(&argv("--min-kernel-speedp 1.5")).unwrap_err();
        assert!(err.contains("--min-kernel-speedp"), "{err}");
    }

    /// The benchmark's correctness gate, in miniature: the naive
    /// rescan-per-probe sweep and the cached session tune must agree on
    /// the optimum for the same inputs.
    #[test]
    fn naive_sweep_matches_cached_tuner() {
        let city = City::nyc().scaled(0.001);
        let clock = *city.clock();
        let window = AlphaWindow {
            slot_of_day: 16,
            day_start: 0,
            day_end: 7,
            weekdays_only: true,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let events = city.sample_history_events(16, 0..7, &mut rng);
        let model = |s: u32| (s * s) as f64 * 0.2;
        let (budget, range) = (16u32, (2u32, 10u32));
        let (side, err, rescans) = naive_sweep(&events, &clock, &window, budget, range, model);
        assert_eq!(
            rescans,
            (range.1 - range.0 + 1) as u64,
            "one scan per probe"
        );
        let engine_cfg = EngineConfig {
            hgrid_budget_side: budget,
            side_range: range,
            strategy: SearchStrategy::BruteForce,
            alpha_window: window,
            clock,
            ..EngineConfig::default()
        };
        let mut session = TuningSession::new(engine_cfg, model).unwrap();
        session.ingest(&events).unwrap();
        let result = session.tune().unwrap();
        assert_eq!(result.outcome.side, side, "optimum side");
        assert!(
            (result.outcome.error - err).abs() <= 1e-9 * (1.0 + err.abs()),
            "optimal error: {} vs {err}",
            result.outcome.error
        );
    }
}
