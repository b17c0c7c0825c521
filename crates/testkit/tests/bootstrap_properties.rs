//! Property tests for the bootstrap uncertainty stage.
//!
//! Three promises, fuzzed rather than pinned to one example:
//!
//! 1. the confidence set *always* contains the point-estimate side — it is
//!    the sorted, deduplicated union of the point estimate and the
//!    replicate argmins, by construction;
//! 2. on strictly unimodal curves whose valley dwarfs the resampling
//!    noise, the confidence set collapses to a singleton and the verdict
//!    is `stable`, however many replicates run;
//! 3. `classify` fires the `plateau` verdict on the shoulder-plateau
//!    family (several probed sides tied with the winner within
//!    `PLATEAU_REL_TOL`) — the failure mode documented for ternary search
//!    in `ternary_can_be_misled_by_shoulder_plateaus`.

use gridtuner_engine::{
    classify, BootstrapConfig, EngineConfig, SearchStrategy, StabilityVerdict, TuningSession,
    PLATEAU_REL_TOL,
};
use gridtuner_testkit::Scenario;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn engine_config(s: &Scenario, strategy: SearchStrategy) -> EngineConfig {
    EngineConfig {
        hgrid_budget_side: s.params.budget_side,
        side_range: s.params.side_range(),
        strategy,
        alpha_window: s.window,
        clock: s.clock,
        ..EngineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn confidence_set_always_contains_the_point_estimate(
        seed in 0u64..1_000, b in 1u32..5) {
        let s = Scenario::generate(seed);
        let config = EngineConfig {
            bootstrap: Some(BootstrapConfig::new(b, seed.rotate_left(7) ^ 0xc0ffee)),
            ..engine_config(&s, SearchStrategy::BruteForce)
        };
        let mut session = TuningSession::new(config, s.model_fn()).unwrap();
        session.ingest(&s.events).unwrap();
        let report = session.tune().unwrap();
        let u = report.uncertainty.expect("bootstrap was configured");
        prop_assert!(
            u.confidence_set.contains(&report.outcome.side),
            "confidence set {:?} is missing the point estimate {}",
            u.confidence_set, report.outcome.side
        );
        prop_assert_eq!(u.point_side, report.outcome.side);
        prop_assert_eq!(u.replicate_argmins.len(), b as usize);
        // Sorted and deduplicated.
        let mut sorted = u.confidence_set.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&sorted, &u.confidence_set);
        // Every member is the point estimate or some replicate's argmin.
        for &side in &u.confidence_set {
            prop_assert!(
                side == u.point_side || u.replicate_argmins.contains(&side),
                "side {} in the confidence set came from nowhere", side
            );
        }
    }

    #[test]
    fn deep_unimodal_curves_collapse_to_a_singleton(
        seed in 0u64..1_000, b in 8u32..=16) {
        // A strictly unimodal model curve with a valley ~1e9 deep: the
        // expression-error perturbation a bootstrap resample can cause is
        // orders of magnitude smaller, so every replicate must re-select
        // the same side and the set must be the singleton {argmin}.
        let s = Scenario::generate(seed);
        let (lo, hi) = s.params.side_range();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x513);
        let t = rng.gen_range(lo..=hi);
        let mut curve = vec![0.0f64; hi as usize + 1];
        for side in (lo..t).rev() {
            curve[side as usize] = curve[side as usize + 1] + rng.gen_range(1.0..2.0) * 1e9;
        }
        for side in t + 1..=hi {
            curve[side as usize] = curve[side as usize - 1] + rng.gen_range(1.0..2.0) * 1e9;
        }
        let model = move |side: u32| curve[side as usize];
        let config = EngineConfig {
            bootstrap: Some(BootstrapConfig::new(b, seed ^ 0xb14)),
            ..engine_config(&s, SearchStrategy::BruteForce)
        };
        let mut session = TuningSession::new(config, model).unwrap();
        session.ingest(&s.events).unwrap();
        let report = session.tune().unwrap();
        let u = report.uncertainty.expect("bootstrap was configured");
        prop_assert_eq!(report.outcome.side, t);
        prop_assert_eq!(&u.confidence_set, &vec![t]);
        prop_assert_eq!(u.distinct_argmins, 1);
        prop_assert_eq!(u.verdict, StabilityVerdict::Stable);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn classify_flags_shoulder_plateaus(
        seed in 0u64..100_000, n_probes in 3usize..10, ties in 1usize..4) {
        // The shoulder-plateau family: the winner plus `ties` other sides
        // whose errors match it within PLATEAU_REL_TOL, the rest strictly
        // above. The verdict must be Plateau no matter what the
        // replicates said — the point selection was arbitrary.
        let mut rng = StdRng::seed_from_u64(seed);
        let base = rng.gen_range(1.0..100.0f64);
        let ties = ties.min(n_probes - 1);
        let mut probes: Vec<(u32, f64)> = Vec::new();
        for i in 0..n_probes {
            let side = (i as u32 + 1) * 2;
            let err = if i <= ties {
                // Jitter well inside the tie tolerance.
                base + rng.gen_range(0.0..0.4) * PLATEAU_REL_TOL * (1.0 + base)
            } else {
                base * rng.gen_range(1.5..4.0)
            };
            probes.push((side, err));
        }
        let winner = probes[0].0;
        let agreeing = vec![winner; 4];
        let disagreeing = vec![probes[1].0; 4];
        prop_assert_eq!(classify(winner, &probes, &agreeing), StabilityVerdict::Plateau);
        prop_assert_eq!(classify(winner, &probes, &disagreeing), StabilityVerdict::Plateau);
        // Removing the tied shoulder restores the ordinary verdicts.
        let strict: Vec<(u32, f64)> = probes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i == 0 || *i > ties)
            .map(|(_, p)| *p)
            .collect();
        prop_assert_eq!(classify(winner, &strict, &agreeing), StabilityVerdict::Stable);
        prop_assert_eq!(classify(winner, &strict, &disagreeing), StabilityVerdict::Unstable);
    }
}
