//! Misspecification robustness sweep: how the bootstrap confidence set
//! and stability verdict react when the tuner's modelling assumptions are
//! broken on purpose. Prints one JSON record to stdout.
//!
//! The tuner's expression-error analysis assumes Poisson counts from a
//! stationary intensity. The sweep crosses the two datagen
//! misspecification knobs —
//!
//! * **overdispersion** `φ` ([`City::with_overdispersion`]): counts become
//!   negative binomial with `Var = μ + φ·μ²`;
//! * **hotspot drift** ([`City::with_drift`]): the intensity translates a
//!   fixed vector per day while the model keeps assuming day 0 —
//!
//! and runs a small-B bootstrap tune per regime, recording the point
//! estimate, the confidence set, the replicate-argmin spread and the
//! verdict. The `(φ = 0, drift = 0)` cell is the well-specified baseline:
//! its event stream is bit-identical to the plain Poisson path, so every
//! other row is directly comparable.
//!
//! ```text
//! cargo run --release -p gridtuner-bench --bin robust_bench \
//!     [-- --scale X] [--replicates B]
//! ```
//!
//! A missing or malformed flag value, or an unknown flag, exits 2.

use gridtuner_bench::flags::{exit_usage, Flags};
use gridtuner_bench::{outln, write_stdout};
use gridtuner_core::alpha::AlphaWindow;
use gridtuner_datagen::City;
use gridtuner_engine::{BootstrapConfig, EngineConfig, SearchStrategy, TuningSession};
use gridtuner_obs as obs;
use gridtuner_obs::json::Val;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

/// Schema tag of the printed record — bump when fields change meaning.
const BENCH_SCHEMA: &str = "gridtuner.bench_robust/1";

/// Overdispersion regimes (φ in `Var = μ + φ·μ²`).
const PHI_SWEEP: [f64; 3] = [0.0, 0.5, 2.0];
/// Per-day hotspot drift regimes.
const DRIFT_SWEEP: [(f64, f64); 2] = [(0.0, 0.0), (0.01, 0.005)];
/// Event-stream seed shared by every regime (same seed, different knobs).
const SEED: u64 = 0x6e7963;

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BenchArgs {
    /// City volume scale (default 0.002, the golden scale — full volume
    /// would make 24 bootstrap tunes per run).
    scale: f64,
    /// Bootstrap replicates per regime.
    replicates: u32,
}

fn parse_args(args: &[String]) -> Result<BenchArgs, String> {
    let mut out = BenchArgs {
        scale: 0.002,
        replicates: 8,
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--scale" => out.scale = flags.value(flag)?,
            "--replicates" => out.replicates = flags.value(flag)?,
            other => return Err(Flags::unknown(other)),
        }
    }
    Ok(out)
}

/// One regime's bootstrap tune, reduced to a JSON row.
fn run_regime(scale: f64, replicates: u32, phi: f64, drift: (f64, f64)) -> Val {
    let city = City::nyc()
        .scaled(scale)
        .with_overdispersion(phi)
        .with_drift(drift.0, drift.1);
    let window = AlphaWindow {
        slot_of_day: 16,
        day_start: 0,
        day_end: 14,
        weekdays_only: true,
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let events = city.sample_history_events(window.slot_of_day, 0..window.day_end, &mut rng);
    let cfg = EngineConfig {
        hgrid_budget_side: 32,
        side_range: (2, 24),
        strategy: SearchStrategy::BruteForce,
        alpha_window: window,
        clock: *city.clock(),
        bootstrap: Some(BootstrapConfig::new(replicates, SEED)),
        ..EngineConfig::default()
    };
    let model = |s: u32| 0.05 * (s * s) as f64;
    let t0 = Instant::now();
    let mut session = TuningSession::new(cfg, model).expect("valid bench config");
    session.ingest(&events).expect("finite synthetic events");
    let hits_before = obs::counter!("boot.cache_hits").get();
    let result = session.tune().expect("infallible model leg");
    let boot_cache_hits = obs::counter!("boot.cache_hits")
        .get()
        .saturating_sub(hits_before);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let unc = result.uncertainty.expect("bootstrap was configured");
    eprintln!(
        "[robust_bench] phi={phi} drift=({},{}) -> side {}, set {:?}, verdict {}, {wall_ms:.0} ms",
        drift.0, drift.1, result.outcome.side, unc.confidence_set, unc.verdict
    );
    Val::obj(vec![
        ("phi", Val::from(phi)),
        ("drift_dx", Val::from(drift.0)),
        ("drift_dy", Val::from(drift.1)),
        ("events", Val::from(events.len() as u64)),
        ("selected_side", Val::from(result.outcome.side)),
        ("upper_bound", Val::from(result.outcome.error)),
        (
            "confidence_set",
            Val::Arr(
                unc.confidence_set
                    .iter()
                    .map(|&s| Val::from(u64::from(s)))
                    .collect(),
            ),
        ),
        (
            "confidence_set_size",
            Val::from(unc.confidence_set.len() as u64),
        ),
        (
            "distinct_argmins",
            Val::from(u64::from(unc.distinct_argmins)),
        ),
        ("verdict", Val::from(unc.verdict.name())),
        ("boot_cache_hits", Val::from(boot_cache_hits)),
        ("wall_ms", Val::from(wall_ms)),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| exit_usage("robust_bench", &e));
    eprintln!(
        "[robust_bench] nyc scale {}, B = {} per regime, {} regimes",
        args.scale,
        args.replicates,
        PHI_SWEEP.len() * DRIFT_SWEEP.len()
    );

    let mut rows = Vec::new();
    let mut baseline_size = None;
    let mut max_size = 0usize;
    for &drift in &DRIFT_SWEEP {
        for &phi in &PHI_SWEEP {
            let row = run_regime(args.scale, args.replicates, phi, drift);
            let size = row
                .get("confidence_set_size")
                .and_then(Val::as_f64)
                .unwrap_or(0.0) as usize;
            if phi == 0.0 && drift == (0.0, 0.0) {
                baseline_size = Some(size);
            }
            max_size = max_size.max(size);
            rows.push(row);
        }
    }

    let json = Val::obj(vec![
        ("schema", Val::from(BENCH_SCHEMA)),
        ("city", Val::from("nyc")),
        ("scale", Val::from(args.scale)),
        ("replicates", Val::from(u64::from(args.replicates))),
        ("seed", Val::from(SEED)),
        ("regimes", Val::Arr(rows)),
        (
            "baseline_confidence_set_size",
            Val::from(baseline_size.unwrap_or(0) as u64),
        ),
        ("max_confidence_set_size", Val::from(max_size as u64)),
    ])
    .render();
    write_stdout("robust_bench", || {
        outln!("{json}");
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arg_parsing() {
        assert_eq!(
            parse_args(&argv("")),
            Ok(BenchArgs {
                scale: 0.002,
                replicates: 8
            })
        );
        assert_eq!(parse_args(&argv("--scale 0.01")).unwrap().scale, 0.01);
        assert_eq!(parse_args(&argv("--replicates 4")).unwrap().replicates, 4);
        // A malformed value or an unknown flag is an error, not a default.
        let err = parse_args(&argv("--replicates nope")).unwrap_err();
        assert!(
            err.contains("--replicates") && err.contains("nope"),
            "{err}"
        );
        assert!(parse_args(&argv("--replicate 4")).is_err());
    }

    /// One tiny regime end to end: the row carries the documented fields
    /// and the baseline regime's confidence set contains the point side.
    #[test]
    fn regime_row_is_well_formed() {
        let row = run_regime(0.0005, 2, 0.5, (0.01, 0.0));
        for key in [
            "phi",
            "selected_side",
            "confidence_set",
            "verdict",
            "wall_ms",
        ] {
            assert!(row.get(key).is_some(), "row is missing {key}");
        }
        let side = row
            .get("selected_side")
            .and_then(Val::as_f64)
            .expect("selected_side is numeric") as u32;
        let Some(Val::Arr(items)) = row.get("confidence_set") else {
            panic!("confidence_set must be an array")
        };
        let set: Vec<u32> = items
            .iter()
            .filter_map(|v| v.as_f64().map(|n| n as u32))
            .collect();
        assert!(
            set.contains(&side),
            "confidence set {set:?} missing point side {side}"
        );
    }
}
