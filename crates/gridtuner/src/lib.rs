//! # GridTuner
//!
//! A from-scratch Rust reproduction of *"GridTuner: Reinvestigate Grid Size
//! Selection for Spatiotemporal Prediction Models"* (ICDE 2022).
//!
//! Spatiotemporal prediction models divide a city into `n` **model grids**
//! (MGrids) and forecast the event count of each. Downstream consumers —
//! dispatchers, planners — need demand at much finer granularity, so the
//! MGrid forecast is spread uniformly over **homogeneous grids** (HGrids).
//! The paper shows the resulting **real error** decomposes into a *model
//! error* (grows with `n`) and an *expression error* (shrinks with `n`),
//! whose sum bounds it from above — and provides algorithms that pick the
//! `n` minimizing that bound.
//!
//! ## Quick start
//!
//! ```
//! use gridtuner::engine::{EngineConfig, SearchStrategy, TuningSession};
//! use gridtuner::datagen::City;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A small synthetic city (1% of Xi'an's volume keeps the doctest fast).
//! let city = City::xian().scaled(0.01);
//! let mut rng = StdRng::seed_from_u64(7);
//! // History events at 8:00–8:30 for four weeks — the α-estimation window.
//! let events = city.sample_history_events(16, 0..28, &mut rng);
//!
//! // One validated config, one session. The model leg here is a toy
//! // closure (real users plug in `gridtuner::predict::CityModelError`).
//! let config = EngineConfig::builder()
//!     .hgrid_budget_side(32)
//!     .side_range(2, 16)
//!     .strategy(SearchStrategy::Ternary)
//!     .build()
//!     .unwrap();
//! let mut session =
//!     TuningSession::new(config, |s: u32| (s * s) as f64 * 0.05).unwrap();
//! session.ingest(&events).unwrap();
//! let report = session.tune().unwrap();
//! assert!(report.partition.mgrid_side() >= 2);
//!
//! // Appending new data re-tunes incrementally: one delta scan, no
//! // pipeline rebuild — bit-identical to starting from scratch.
//! let delta = city.sample_history_events(16, 28..29, &mut rng);
//! session.ingest(&delta).unwrap();
//! let again = session.tune().unwrap();
//! assert_eq!(again.alpha_delta_scans, 1);
//! ```
//!
//! ## Crate map
//!
//! * [`spatial`] — grids, partitions, time slots, count fields;
//! * [`datagen`] — synthetic cities (the documented substitute for the
//!   paper's proprietary taxi data);
//! * [`nn`] — the from-scratch neural-network substrate;
//! * [`predict`] — the predictor ladder (HA / MLP / DeepST-like /
//!   DMVST-like);
//! * [`core`] — the paper's contribution: error decomposition, expression
//!   error algorithms, `D_α` analysis, OGSS search;
//! * [`engine`] — the stage-based session API above it all: unified
//!   config, typed errors, incremental re-tune;
//! * [`dispatch`] — the case-study dispatchers (POLAR / LS / DAIF);
//! * [`obs`] — spans, metrics and trace/report exporters (see
//!   `OBSERVABILITY.md` at the repo root).

pub use gridtuner_core as core;
pub use gridtuner_datagen as datagen;
pub use gridtuner_dispatch as dispatch;
pub use gridtuner_engine as engine;
pub use gridtuner_nn as nn;
pub use gridtuner_obs as obs;
pub use gridtuner_predict as predict;
pub use gridtuner_spatial as spatial;

#[cfg(test)]
mod tests {
    //! Facade-level smoke tests: the re-exported crates must compose into
    //! the paper's workflow without reaching for the `gridtuner_*` names.

    use crate::core::alpha::AlphaWindow;
    use crate::core::alpha_cache::AlphaFieldCache;
    use crate::core::search::try_brute_force;
    use crate::datagen::City;
    use crate::engine::{EngineConfig, SearchStrategy, TuneReport, TuningSession};
    use crate::spatial::{Event, Partition};
    use rand::{rngs::StdRng, SeedableRng};

    fn model(s: u32) -> f64 {
        (s * s) as f64 * 0.1
    }

    fn chengdu_week() -> (Vec<Event>, EngineConfig) {
        let city = City::chengdu().scaled(0.005);
        let mut rng = StdRng::seed_from_u64(3);
        let events = city.sample_history_events(16, 0..7, &mut rng);
        let config = EngineConfig::builder()
            .hgrid_budget_side(16)
            .side_range(2, 12)
            .strategy(SearchStrategy::BruteForce)
            .alpha_window(AlphaWindow {
                slot_of_day: 16,
                day_start: 0,
                day_end: 7,
                weekdays_only: true,
            })
            .build()
            .unwrap();
        (events, config)
    }

    fn tune(events: &[Event], config: EngineConfig) -> TuneReport {
        let mut session = TuningSession::new(config, model).unwrap();
        session.ingest(events).unwrap();
        session.tune().unwrap()
    }

    #[test]
    fn end_to_end_tune_through_the_facade() {
        let (events, config) = chengdu_week();
        let result = tune(&events, config);
        assert!((2..=12).contains(&result.outcome.side));
        assert_eq!(result.partition.mgrid_side(), result.outcome.side);
    }

    #[test]
    fn session_matches_the_direct_search_bitwise() {
        let (events, config) = chengdu_week();
        // The independent reference: Algorithm 3 as a plain closure over a
        // fresh α cache, no session, no memo.
        let cache = AlphaFieldCache::new(&events, &config.clock, &config.alpha_window);
        let budget = config.hgrid_budget_side;
        let probe = |s| Ok(cache.expression_error(&Partition::for_budget(s, budget))? + model(s));
        let direct = try_brute_force(probe, 2, 12).unwrap();
        let report = tune(&events, config);
        assert_eq!(report.outcome.side, direct.side);
        assert_eq!(report.outcome.error.to_bits(), direct.error.to_bits());
        assert_eq!(report.outcome.probes, direct.probes);
    }

    #[test]
    fn facade_paths_cover_every_subsystem() {
        // One value from each re-exported crate, constructed via the
        // facade path — a compile-time check that the crate map in the
        // docs stays truthful.
        let _partition: Partition = Partition::for_budget(4, 16);
        let _relu = crate::nn::ReLU::new();
        let _polar = crate::dispatch::Polar::new();
        let _outcome = crate::dispatch::DispatchOutcome::default();
        let _average = crate::predict::HistoricalAverage::new();
        assert_eq!(City::all_presets().len(), 3);
    }
}
