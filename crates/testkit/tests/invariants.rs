//! Invariant-layer smoke: drives the hot paths that carry the
//! `check-invariants` runtime assertions (Lemma III.1 per cell, α-field
//! mass conservation, Theorem II.1), so that
//! `cargo test -p gridtuner-testkit --features check-invariants` actually
//! executes every gated assertion. Without the feature this is a plain
//! (and still useful) end-to-end smoke test.

use gridtuner_core::alpha_cache::AlphaFieldCache;
use gridtuner_core::errors::{evaluate_errors, ErrorSample};
use gridtuner_core::search::try_brute_force;
use gridtuner_engine::{EngineConfig, SearchStrategy, TuningSession};
use gridtuner_spatial::{CountMatrix, Partition};
use gridtuner_testkit::Scenario;
use rand::Rng;

#[test]
fn tuning_hot_path_upholds_gated_invariants() {
    for seed in 0..8u64 {
        let sc = Scenario::generate(seed);
        let (lo, hi) = sc.params.side_range();
        let mut brute = None;
        for strategy in [
            SearchStrategy::BruteForce,
            SearchStrategy::Ternary,
            SearchStrategy::Iterative { init: 3, bound: 2 },
        ] {
            let config = EngineConfig {
                hgrid_budget_side: sc.params.budget_side,
                side_range: (lo, hi),
                strategy,
                alpha_window: sc.window,
                clock: sc.clock,
                ..EngineConfig::default()
            };
            // Under `check-invariants` every probe asserts Lemma III.1 on
            // each MGrid and the α derivation asserts mass conservation.
            let mut session = TuningSession::new(config, sc.model_fn()).unwrap();
            session.ingest(&sc.events).unwrap();
            let result = session.tune().unwrap();
            assert_eq!(result.alpha_full_scans, 1);
            assert!((lo..=hi).contains(&result.outcome.side));
            if strategy == SearchStrategy::BruteForce {
                brute = Some(result.outcome);
            }
        }
        // Algorithm 3 as a plain closure over a fresh α cache runs the same
        // gated kernel assertions and lands on the session's bits.
        let cache = AlphaFieldCache::new(&sc.events, &sc.clock, &sc.window);
        let model = sc.model_fn();
        let budget = sc.params.budget_side;
        let probe = |s| Ok(cache.expression_error(&Partition::for_budget(s, budget))? + model(s));
        let direct = try_brute_force(probe, lo, hi).unwrap();
        assert_eq!(Some(direct), brute);
    }
}

#[test]
fn empirical_error_estimator_upholds_theorem_ii1() {
    for seed in 0..8u64 {
        let sc = Scenario::generate(seed);
        let mut rng = sc.rng(0x1271);
        let part = Partition::for_budget(sc.params.max_side.max(2), sc.params.budget_side);
        let samples: Vec<ErrorSample> = (0..2)
            .map(|_| ErrorSample {
                predicted_mgrid: CountMatrix::from_vec(
                    part.mgrid_side(),
                    (0..part.n()).map(|_| rng.gen_range(0.0..10.0)).collect(),
                )
                .unwrap(),
                actual_hgrid: CountMatrix::from_vec(
                    part.hgrid_spec().side(),
                    (0..part.total_hgrids())
                        .map(|_| rng.gen_range(0..4u32) as f64)
                        .collect(),
                )
                .unwrap(),
            })
            .collect();
        // Under `check-invariants` the estimator itself asserts the bound.
        let report = evaluate_errors(&samples, &part).unwrap();
        assert!(report.real <= report.upper_bound() + 1e-9 * (1.0 + report.upper_bound()));
    }
}
