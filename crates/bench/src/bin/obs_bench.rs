//! Observability overhead benchmark: times the same tuning hot path with
//! span/event recording off and on (no trace sink: every span reads the
//! clock twice and every event builds its fields, but no record is
//! written) and asserts the overhead stays under budget.
//!
//! ```text
//! cargo run --release -p gridtuner-bench --bin obs_bench [-- --scale X --reps N --inner K]
//! ```
//!
//! Each rep interleaves the two modes at single-tune granularity (one
//! off tune, one on tune, order alternating every iteration) and yields
//! one on/off ratio; the reported overhead is the median ratio, which is
//! robust to the wall-clock drift shared runners exhibit. The median raw
//! ratio can still land a hair under 1.0 — recording a *negative* cost is
//! always measurement noise, so `overhead_pct` is clamped at 0 and the
//! unclamped value is kept as `raw_overhead_pct`. Writes `BENCH_obs.json`
//! with `{schema, off_ms, on_ms, overhead_pct, raw_overhead_pct,
//! max_overhead_pct, reps}` where off/on are the per-mode minima. The
//! budget defaults to 3% and can be widened for noisy CI runners via
//! `GRIDTUNER_OBS_MAX_OVERHEAD_PCT`.
//!
//! A missing or malformed flag value, or an unknown flag, exits 2; a
//! malformed `GRIDTUNER_OBS_MAX_OVERHEAD_PCT` exits 5 (the env code of the
//! engine's exit-code taxonomy). Both are checked before any measurement.

use gridtuner_bench::flags::{exit_usage, Flags};
use gridtuner_core::alpha::AlphaWindow;
use gridtuner_datagen::City;
use gridtuner_engine::{EngineConfig, EngineError, SearchStrategy, TuneReport, TuningSession};
use gridtuner_obs as obs;
use gridtuner_obs::json::Val;
use gridtuner_par::EnvParseError;
use gridtuner_spatial::Event;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

/// v2 interleaves modes per tune (not per block), raises the default rep
/// count and clamps `overhead_pct` at 0 (`raw_overhead_pct` keeps the
/// sign).
const BENCH_SCHEMA: &str = "gridtuner.bench_obs/2";
const DEFAULT_MAX_OVERHEAD_PCT: f64 = 3.0;

/// One fresh session's ingest + tune with the given model leg.
fn tune(events: &[Event], cfg: &EngineConfig, model: fn(u32) -> f64) -> TuneReport {
    let mut session = TuningSession::new(*cfg, model).expect("valid bench config");
    session.ingest(events).expect("finite synthetic events");
    session.tune().expect("infallible model leg")
}

/// One full brute-force tune — the instrumented hot path (alpha scan,
/// per-probe spans/events, expression-error spans). Returns wall seconds.
fn run_once(events: &[Event], cfg: &EngineConfig) -> f64 {
    let t0 = Instant::now();
    let result = tune(events, cfg, |s| (s * s) as f64 * 0.05);
    let dt = t0.elapsed().as_secs_f64();
    assert!(result.outcome.side >= cfg.side_range.0, "sanity");
    dt
}

/// One paired rep: `inner` iterations, each timing one recording-off tune
/// and one recording-on tune with the order flipping every iteration, so
/// any linear wall-clock drift lands evenly on both modes. Returns the
/// summed (off, on) seconds. The counters are zeroed up front.
fn paired_rep(events: &[Event], cfg: &EngineConfig, inner: u32, rep: u32) -> (f64, f64) {
    obs::disable();
    obs::metrics::reset();
    let mut off = 0.0;
    let mut on = 0.0;
    let timed = |enabled: bool| {
        if enabled {
            obs::enable();
        } else {
            obs::disable();
        }
        run_once(events, cfg)
    };
    for k in 0..inner {
        if (rep + k).is_multiple_of(2) {
            off += timed(false);
            on += timed(true);
        } else {
            on += timed(true);
            off += timed(false);
        }
    }
    obs::disable();
    (off, on)
}

/// Negative measured overhead is noise, never signal — the clamp keeps
/// the committed baseline from advertising recording as a speedup.
fn clamp_overhead(raw_pct: f64) -> f64 {
    raw_pct.max(0.0)
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BenchArgs {
    /// City volume scale.
    scale: f64,
    /// Paired reps (at least 1).
    reps: u32,
    /// Tunes per mode inside one rep (at least 1).
    inner: u32,
}

fn parse_args(args: &[String]) -> Result<BenchArgs, String> {
    let mut out = BenchArgs {
        scale: 0.05,
        reps: 9,
        inner: 25,
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--scale" => out.scale = flags.value(flag)?,
            "--reps" => out.reps = flags.value::<u32>(flag)?.max(1),
            "--inner" => out.inner = flags.value::<u32>(flag)?.max(1),
            other => return Err(Flags::unknown(other)),
        }
    }
    Ok(out)
}

/// The overhead budget: `raw` is `GRIDTUNER_OBS_MAX_OVERHEAD_PCT` (unset
/// means the default); a value that is not a number is an env error.
fn max_overhead_pct(raw: Option<String>) -> Result<f64, EngineError> {
    let Some(value) = raw else {
        return Ok(DEFAULT_MAX_OVERHEAD_PCT);
    };
    value.trim().parse().map_err(|_| {
        EngineError::Env(EnvParseError {
            var: "GRIDTUNER_OBS_MAX_OVERHEAD_PCT",
            value,
            expected: "a percentage, e.g. 5",
        })
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let BenchArgs { scale, reps, inner } =
        parse_args(&argv).unwrap_or_else(|e| exit_usage("obs_bench", &e));
    let budget = max_overhead_pct(std::env::var("GRIDTUNER_OBS_MAX_OVERHEAD_PCT").ok())
        .unwrap_or_else(|e| {
            eprintln!("obs_bench: {e}");
            std::process::exit(e.exit_code());
        });

    let city = City::nyc().scaled(scale);
    let clock = *city.clock();
    let window = AlphaWindow::default();
    let mut rng = StdRng::seed_from_u64(7);
    let events = city.sample_history_events(
        window.slot_of_day,
        window.day_start..window.day_end,
        &mut rng,
    );
    let cfg = EngineConfig {
        strategy: SearchStrategy::BruteForce,
        alpha_window: window,
        side_range: (2, 32),
        clock,
        ..EngineConfig::default()
    };
    eprintln!(
        "[obs_bench] {} events, sides {}..={}, {reps} reps per mode",
        events.len(),
        cfg.side_range.0,
        cfg.side_range.1
    );

    // Warm-up rep (page-in, allocator), then paired reps: each rep
    // interleaves the modes tune-by-tune and contributes one on/off
    // ratio. The reported overhead is the median ratio, which shrugs off
    // the multi-percent wall-clock swings shared runners show between any
    // two absolute measurements.
    run_once(&events, &cfg);
    let mut ratios = Vec::with_capacity(reps as usize);
    let mut off_s = f64::INFINITY;
    let mut on_s = f64::INFINITY;
    for rep in 0..reps {
        let (off, on) = paired_rep(&events, &cfg, inner, rep);
        ratios.push(on / off);
        off_s = off_s.min(off);
        on_s = on_s.min(on);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median_ratio = if ratios.len() % 2 == 1 {
        ratios[ratios.len() / 2]
    } else {
        (ratios[ratios.len() / 2 - 1] + ratios[ratios.len() / 2]) / 2.0
    };

    let raw_overhead_pct = (median_ratio - 1.0) * 100.0;
    let overhead_pct = clamp_overhead(raw_overhead_pct);
    let json = Val::obj(vec![
        ("schema", Val::from(BENCH_SCHEMA)),
        ("off_ms", Val::from(off_s * 1e3)),
        ("on_ms", Val::from(on_s * 1e3)),
        ("overhead_pct", Val::from(overhead_pct)),
        ("raw_overhead_pct", Val::from(raw_overhead_pct)),
        ("max_overhead_pct", Val::from(budget)),
        ("reps", Val::from(u64::from(reps))),
        ("events", Val::from(events.len() as u64)),
    ])
    .render();
    std::fs::write("BENCH_obs.json", &json).expect("cannot write BENCH_obs.json");
    println!("{json}");
    eprintln!(
        "[obs_bench] off {:.1} ms, on {:.1} ms, overhead {overhead_pct:.2}% \
         (raw {raw_overhead_pct:.2}%, budget {budget}%)",
        off_s * 1e3,
        on_s * 1e3
    );
    assert!(
        overhead_pct < budget,
        "observability overhead {overhead_pct:.2}% exceeds the {budget}% budget"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flag_parsing() {
        assert_eq!(
            parse_args(&argv("--scale 0.2 --reps 3")),
            Ok(BenchArgs {
                scale: 0.2,
                reps: 3,
                inner: 25
            })
        );
        assert_eq!(parse_args(&argv("--inner 0")).unwrap().inner, 1);
        // Missing or malformed values and unknown flags are errors.
        assert!(parse_args(&argv("--scale")).is_err());
        assert!(parse_args(&argv("--reps nope")).is_err());
        assert!(parse_args(&argv("--rep 3")).is_err());
    }

    #[test]
    fn negative_overhead_is_clamped_to_zero() {
        assert_eq!(clamp_overhead(-4.2), 0.0);
        assert_eq!(clamp_overhead(0.0), 0.0);
        assert_eq!(clamp_overhead(1.7), 1.7);
    }

    #[test]
    fn overhead_budget_defaults_to_three_percent() {
        // The default is the observability layer's acceptance criterion;
        // the env override widens it, and a malformed one is an env error.
        assert_eq!(DEFAULT_MAX_OVERHEAD_PCT, 3.0);
        assert_eq!(max_overhead_pct(None).unwrap(), 3.0);
        assert_eq!(max_overhead_pct(Some("7.5".into())).unwrap(), 7.5);
        let err = max_overhead_pct(Some("nope".into())).unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
    }

    #[test]
    fn both_modes_compute_the_same_optimum() {
        let city = City::nyc().scaled(0.002);
        let clock = *city.clock();
        let window = AlphaWindow {
            slot_of_day: 16,
            day_start: 0,
            day_end: 7,
            weekdays_only: true,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let events = city.sample_history_events(16, 0..7, &mut rng);
        let cfg = EngineConfig {
            strategy: SearchStrategy::BruteForce,
            alpha_window: window,
            side_range: (2, 8),
            hgrid_budget_side: 16,
            clock,
            ..EngineConfig::default()
        };
        let model = |s| (s * s) as f64 * 0.1;
        obs::disable();
        let off = tune(&events, &cfg, model);
        obs::enable();
        let on = tune(&events, &cfg, model);
        obs::disable();
        assert_eq!(off.outcome.side, on.outcome.side);
        assert_eq!(off.outcome.error.to_bits(), on.outcome.error.to_bits());
    }
}
