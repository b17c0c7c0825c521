//! Bootstrap thread-matrix determinism: a B=32 bootstrap tune on the NYC
//! golden setup must be **bit-identical** across `GRIDTUNER_THREADS` = 1,
//! 2 and 8 — for the point outcome and partition, the *full* confidence
//! set, the per-replicate argmins and error bits, the probe dispersion and
//! the verdict, not just the point argmin.
//!
//! The model leg runs twice per worker count: as a plain closure, and as a
//! `!Sync` counting source (an `Rc` of per-side call counters, the shape of
//! a real per-probe trainer). The counting source must produce the same
//! bits and must be called exactly once per side: the point search and all
//! replicates share the session's model memo.
//!
//! This file holds exactly one `#[test]` on purpose:
//! [`gridtuner_par::set_max_threads`] is a global override, and a second
//! concurrently-running test in the same binary would observe it
//! mid-sweep (same discipline as `pool.rs`).

use gridtuner_core::alpha::AlphaWindow;
use gridtuner_core::error::CoreError;
use gridtuner_datagen::City;
use gridtuner_engine::{
    EngineConfig, ModelErrorSource, SearchStrategy, StabilityVerdict, TuningSession,
    UncertaintyReport,
};
use gridtuner_spatial::Partition;
use rand::{rngs::StdRng, SeedableRng};
use std::cell::Cell;
use std::rc::Rc;

/// NYC golden constants (see `goldens.rs`), bootstrap at the acceptance
/// bar of B = 32.
const SCALE: f64 = 0.002;
const BUDGET_SIDE: u32 = 32;
const SIDE_RANGE: (u32, u32) = (2, 24);
const HISTORY_DAYS: u32 = 14;
const MODEL_COEF: f64 = 0.05;
const REPLICATES: u32 = 32;
const BOOT_SEED: u64 = 0x6e7963;

fn model(side: u32) -> f64 {
    MODEL_COEF * (side * side) as f64
}

/// A `!Sync` model leg that counts its calls per side.
struct CountingModel {
    calls: Rc<Vec<Cell<u32>>>,
}

impl ModelErrorSource for CountingModel {
    fn model_error(&mut self, side: u32) -> Result<f64, CoreError> {
        let count = &self.calls[side as usize];
        count.set(count.get() + 1);
        Ok(model(side))
    }
}

/// A tune report reduced to comparable bits: point side, error and probe
/// trail, the partition, and the uncertainty block.
#[derive(Debug, PartialEq)]
struct Tune {
    side: u32,
    error: u64,
    probes: Vec<(u32, u64)>,
    partition: Partition,
    uncertainty: Bits,
}

/// The uncertainty report reduced to comparable bits.
#[derive(Debug, PartialEq)]
struct Bits {
    confidence_set: Vec<u32>,
    argmins: Vec<u32>,
    errors: Vec<u64>,
    dispersion: Vec<(u32, u32, u64, u64, u64, u64)>,
    verdict: StabilityVerdict,
    distinct: u32,
}

fn bits(u: &UncertaintyReport) -> Bits {
    Bits {
        confidence_set: u.confidence_set.clone(),
        argmins: u.replicate_argmins.clone(),
        errors: u.replicate_errors.iter().map(|e| e.to_bits()).collect(),
        dispersion: u
            .dispersion
            .iter()
            .map(|d| {
                (
                    d.side,
                    d.samples,
                    d.mean.to_bits(),
                    d.std_dev.to_bits(),
                    d.min.to_bits(),
                    d.max.to_bits(),
                )
            })
            .collect(),
        verdict: u.verdict,
        distinct: u.distinct_argmins,
    }
}

fn run(model: impl ModelErrorSource) -> Tune {
    let city = City::nyc().scaled(SCALE);
    let window = AlphaWindow {
        slot_of_day: 16,
        day_start: 0,
        day_end: HISTORY_DAYS,
        weekdays_only: true,
    };
    let mut rng = StdRng::seed_from_u64(BOOT_SEED);
    let events = city.sample_history_events(window.slot_of_day, 0..HISTORY_DAYS, &mut rng);
    let cfg = EngineConfig::builder()
        .hgrid_budget_side(BUDGET_SIDE)
        .side_range(SIDE_RANGE.0, SIDE_RANGE.1)
        .strategy(SearchStrategy::BruteForce)
        .alpha_window(window)
        .clock(*city.clock())
        .bootstrap(REPLICATES, BOOT_SEED)
        .build()
        .expect("golden config is valid");
    let mut session = TuningSession::new(cfg, model).expect("validated above");
    session
        .ingest(&events)
        .expect("synthetic events are finite");
    let report = session.tune().expect("analytic model leg");
    Tune {
        side: report.outcome.side,
        error: report.outcome.error.to_bits(),
        probes: report
            .outcome
            .probes
            .iter()
            .map(|&(s, e)| (s, e.to_bits()))
            .collect(),
        partition: report.partition,
        uncertainty: bits(&report.uncertainty.expect("bootstrap was configured")),
    }
}

#[test]
fn bootstrap_is_bit_identical_across_the_thread_matrix() {
    // Baseline: single worker, closure model leg.
    gridtuner_par::set_max_threads(1);
    let reference = run(model);
    assert_eq!(reference.uncertainty.argmins.len(), REPLICATES as usize);
    assert_eq!(reference.uncertainty.errors.len(), REPLICATES as usize);
    for threads in [1usize, 2, 8] {
        gridtuner_par::set_max_threads(threads);
        assert_eq!(
            run(model),
            reference,
            "bootstrap diverged at {threads} threads"
        );
        let calls: Rc<Vec<Cell<u32>>> = Rc::new((0..=SIDE_RANGE.1).map(|_| Cell::new(0)).collect());
        let counted = run(CountingModel {
            calls: Rc::clone(&calls),
        });
        assert_eq!(
            counted, reference,
            "!Sync model leg diverged at {threads} threads"
        );
        for (side, count) in calls.iter().enumerate() {
            let want = u32::from((SIDE_RANGE.0..=SIDE_RANGE.1).contains(&(side as u32)));
            assert_eq!(
                count.get(),
                want,
                "side {side}: model leg ran {} times at {threads} threads",
                count.get()
            );
        }
    }
}
