//! End-to-end pipeline: synthetic city → α estimation → upper-bound oracle
//! with a real (retrained-per-n) predictor → search → sane partition.

use gridtuner::core::alpha::AlphaWindow;
use gridtuner::core::upper_bound::{ModelErrorFn, UpperBoundOracle};
use gridtuner::datagen::{City, DataSplit};
use gridtuner::engine::{
    EngineConfig, ModelErrorSource, SearchStrategy, TuneReport, TuningSession,
};
use gridtuner::predict::{CityModelError, HistoricalAverage, Predictor};
use gridtuner::spatial::Event;
use rand::{rngs::StdRng, SeedableRng};

fn small_city() -> City {
    City::xian().scaled(0.02)
}

fn split() -> DataSplit {
    DataSplit {
        train_days: (0, 14),
        val_days: (14, 16),
        test_day: 16,
    }
}

fn model_oracle() -> impl ModelErrorFn + ModelErrorSource {
    CityModelError::new(small_city(), split(), 5, || {
        Box::new(HistoricalAverage::new()) as Box<dyn Predictor>
    })
    .with_max_eval_slots(12)
}

/// Tunes `events` over sides 1..=20 at `√N = 32` with a freshly trained
/// model leg.
fn tune(events: &[Event], strategy: SearchStrategy) -> TuneReport {
    let config = EngineConfig::builder()
        .hgrid_budget_side(32)
        .side_range(1, 20)
        .strategy(strategy)
        .alpha_window(AlphaWindow {
            slot_of_day: 16,
            day_start: 0,
            day_end: 14,
            weekdays_only: true,
        })
        .clock(*small_city().clock())
        .build()
        .unwrap();
    let mut session = TuningSession::new(config, model_oracle()).unwrap();
    session.ingest(events).unwrap();
    session.tune().unwrap()
}

#[test]
fn tuner_produces_interior_optimum_on_uneven_city() {
    let city = small_city();
    let mut rng = StdRng::seed_from_u64(1);
    let events = city.sample_history_events(16, 0..14, &mut rng);
    let result = tune(&events, SearchStrategy::BruteForce);
    // The optimum must be strictly inside the range: the error curve is
    // U-shaped (Sec. III-C).
    assert!(
        result.outcome.side > 1 && result.outcome.side < 20,
        "boundary optimum at side {}",
        result.outcome.side
    );
    assert_eq!(result.partition.mgrid_side(), result.outcome.side);
    assert!(result.partition.total_hgrids() >= 32 * 32);
}

#[test]
fn upper_bound_oracle_decomposition_is_consistent() {
    let city = small_city();
    let mut rng = StdRng::seed_from_u64(2);
    let events = city.sample_history_events(16, 0..14, &mut rng);
    let window = AlphaWindow {
        slot_of_day: 16,
        day_start: 0,
        day_end: 14,
        weekdays_only: true,
    };
    let mut oracle = UpperBoundOracle::new(events, *city.clock(), window, 32, model_oracle());
    for side in [2u32, 8, 16] {
        let e = gridtuner::core::search::ErrorOracle::eval(&mut oracle, side);
        let expr = oracle.expression_error(side);
        let model = oracle.model_error(side);
        assert!(
            (e - (expr + model)).abs() < 1e-6,
            "decomposition broken at side {side}"
        );
        assert!(expr >= 0.0 && model >= 0.0);
    }
    // Monotone legs (the paper's core tension).
    assert!(oracle.expression_error(2) > oracle.expression_error(16));
    assert!(oracle.model_error(16) > oracle.model_error(2));
}

#[test]
fn heuristic_searches_close_to_brute_force_end_to_end() {
    let city = small_city();
    let mut rng = StdRng::seed_from_u64(3);
    let events = city.sample_history_events(16, 0..14, &mut rng);
    let bf = tune(&events, SearchStrategy::BruteForce);
    let it = tune(&events, SearchStrategy::Iterative { init: 16, bound: 4 });
    assert!(
        it.outcome.error <= bf.outcome.error * 1.10,
        "iterative {} vs brute {}",
        it.outcome.error,
        bf.outcome.error
    );
    assert!(it.outcome.evals < bf.outcome.evals);
}
