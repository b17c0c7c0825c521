//! Search algorithms against realistic upper-bound curves: Table IV's
//! qualitative claims, cross-crate.

use gridtuner::core::alpha::AlphaWindow;
use gridtuner::core::alpha_cache::AlphaFieldCache;
use gridtuner::core::error::CoreError;
use gridtuner::core::search::{try_brute_force, try_iterative_method, try_ternary_search};
use gridtuner::datagen::City;
use gridtuner::spatial::Partition;
use rand::{rngs::StdRng, SeedableRng};

/// The α cache of a preset city's morning-peak slot over two weeks.
fn city_cache(city: &City, slot_of_day: u32) -> AlphaFieldCache {
    let mut rng = StdRng::seed_from_u64(4);
    let events = city.sample_history_events(slot_of_day, 0..14, &mut rng);
    let window = AlphaWindow {
        slot_of_day,
        day_start: 0,
        day_end: 14,
        weekdays_only: true,
    };
    AlphaFieldCache::new(&events, city.clock(), &window)
}

/// A realistic (jagged, roughly U-shaped) probe: analytic expression error
/// from `cache` at `√N = 64` plus a quadratic model-error surrogate.
fn city_probe(
    cache: &AlphaFieldCache,
    coef: f64,
) -> impl FnMut(u32) -> Result<f64, CoreError> + '_ {
    move |s| Ok(cache.expression_error(&Partition::for_budget(s, 64))? + (s * s) as f64 * coef)
}

#[test]
fn heuristics_beat_brute_force_on_evaluations() {
    let city = City::chengdu().scaled(0.05);
    let cache = city_cache(&city, 16);
    let bf = try_brute_force(city_probe(&cache, 1.0), 2, 32).unwrap();
    let ts = try_ternary_search(city_probe(&cache, 1.0), 2, 32).unwrap();
    let it = try_iterative_method(city_probe(&cache, 1.0), 2, 32, 16, 4).unwrap();
    assert_eq!(bf.evals, 31);
    assert!(ts.evals < bf.evals / 2, "ternary evals {}", ts.evals);
    assert!(it.evals < bf.evals, "iterative evals {}", it.evals);
    // Optimal-ratio style check on the error values (Table IV: ≥ 97%).
    assert!(ts.error <= bf.error * 1.10, "{} vs {}", ts.error, bf.error);
    assert!(it.error <= bf.error * 1.10, "{} vs {}", it.error, bf.error);
}

#[test]
fn per_slot_optima_vary_across_the_day() {
    // Fig. 18: different time slots have different optimal n because the
    // α field (and total volume) changes. Compare the morning-peak slot to
    // a night slot: the optimum differs or at least both are interior.
    let city = City::nyc().scaled(0.05);
    let mut optima = Vec::new();
    for sod in [4u32, 16] {
        let mut rng = StdRng::seed_from_u64(8);
        let events = city.sample_history_events(sod, 0..14, &mut rng);
        let window = AlphaWindow {
            slot_of_day: sod,
            day_start: 0,
            day_end: 14,
            weekdays_only: true,
        };
        let cache = AlphaFieldCache::new(&events, city.clock(), &window);
        let out = try_brute_force(city_probe(&cache, 0.6), 1, 28).unwrap();
        assert!(out.side >= 1 && out.side <= 28);
        optima.push((sod, out.side));
    }
    // The busy morning slot supports at least as fine a grid as the quiet
    // night slot (more data ⇒ larger optimal n).
    assert!(
        optima[1].1 >= optima[0].1,
        "morning optimum should not be coarser: {optima:?}"
    );
}

#[test]
fn memoization_shares_work_across_strategies() {
    // Each searcher calls its probe once per unique side, and searches
    // sharing one α cache see the same bits at every side they share.
    let city = City::xian().scaled(0.05);
    let cache = city_cache(&city, 16);
    let bf = try_brute_force(city_probe(&cache, 1.0), 2, 24).unwrap();
    let mut calls = 0usize;
    let mut probe = city_probe(&cache, 1.0);
    let it = try_iterative_method(
        |s| {
            calls += 1;
            probe(s)
        },
        2,
        24,
        16,
        4,
    )
    .unwrap();
    assert_eq!(calls, it.evals);
    for &(s, e) in &it.probes {
        let (_, want) = bf.probes[(s - 2) as usize];
        assert_eq!(e.to_bits(), want.to_bits(), "side {s}");
    }
}

// ---------------------------------------------------------------------------
// Property tests on fuzzed curves, and the documented plateau/tie semantics.
// ---------------------------------------------------------------------------

use rand::Rng;

/// A strictly unimodal curve over sides `1..=hi` with its argmin; values
/// are drawn from a continuous range so exact ties have measure zero.
fn random_unimodal(rng: &mut StdRng) -> (Vec<f64>, u32) {
    let hi = rng.gen_range(3..=70u32);
    let t = rng.gen_range(1..=hi);
    let mut v = vec![0.0f64; hi as usize + 1];
    v[t as usize] = rng.gen_range(0.0..5.0);
    for s in (1..t).rev() {
        v[s as usize] = v[s as usize + 1] + rng.gen_range(1e-6..1.0);
    }
    for s in t + 1..=hi {
        v[s as usize] = v[s as usize - 1] + rng.gen_range(1e-6..1.0);
    }
    (v, t)
}

#[test]
fn ternary_finds_the_optimum_on_fuzzed_unimodal_curves() {
    let mut rng = StdRng::seed_from_u64(0x7e24);
    for _ in 0..200 {
        let (curve, t) = random_unimodal(&mut rng);
        let hi = curve.len() as u32 - 1;
        let out = try_ternary_search(|s: u32| Ok(curve[s as usize]), 1, hi).unwrap();
        assert_eq!(
            out.side, t,
            "curve with argmin {t}: ternary found {}",
            out.side
        );
        assert_eq!(out.error.to_bits(), curve[t as usize].to_bits());
    }
}

#[test]
fn iterative_finds_the_optimum_on_fuzzed_unimodal_curves() {
    let mut rng = StdRng::seed_from_u64(0x17e2);
    for _ in 0..200 {
        let (curve, t) = random_unimodal(&mut rng);
        let hi = curve.len() as u32 - 1;
        let init = rng.gen_range(1..=hi);
        let bound = rng.gen_range(1..=5u32);
        let out = try_iterative_method(|s: u32| Ok(curve[s as usize]), 1, hi, init, bound).unwrap();
        assert_eq!(
            out.side, t,
            "init {init} bound {bound}: stopped at {} not {t}",
            out.side
        );
    }
}

#[test]
fn brute_force_ties_break_toward_the_smaller_side() {
    // Minimum plateau over sides 3..=5: the canonical rule is left-most.
    let curve = [f64::NAN, 4.0, 2.0, 1.0, 1.0, 1.0, 3.0];
    let out = try_brute_force(|s: u32| Ok(curve[s as usize]), 1, 6).unwrap();
    assert_eq!(out.side, 3);
    assert_eq!(out.error, 1.0);
}

#[test]
fn ternary_returns_a_true_minimiser_on_minimum_plateaus() {
    // Ties discard the right interval, so ternary drifts left; on a curve
    // whose only flat region IS the minimum it still lands on the plateau
    // (though not necessarily its left edge).
    let curve = [f64::NAN, 6.0, 4.0, 1.0, 1.0, 1.0, 1.0, 2.0, 5.0];
    let out = try_ternary_search(|s: u32| Ok(curve[s as usize]), 1, 8).unwrap();
    assert!((3..=6).contains(&out.side), "side {} off-plateau", out.side);
    assert_eq!(out.error, 1.0);
}

/// The failure mode the `try_ternary_search` docs warn about: a flat shoulder
/// *away* from the minimum makes the tie rule discard the interval that
/// holds the real optimum. Pinned so the behaviour (and its docs) cannot
/// drift silently.
#[test]
fn ternary_can_be_misled_by_shoulder_plateaus() {
    //            side:   1    2    3    4    5    6    7    8    9
    let curve = [f64::NAN, 9.0, 8.0, 5.0, 5.0, 5.0, 5.0, 5.0, 0.0, 1.0];
    let brute = try_brute_force(|s: u32| Ok(curve[s as usize]), 1, 9).unwrap();
    assert_eq!(brute.side, 8, "the true optimum sits past the shoulder");
    let out = try_ternary_search(|s: u32| Ok(curve[s as usize]), 1, 9).unwrap();
    // First round probes sides 3 and 7; the 5.0 == 5.0 tie discards
    // (7, 9] — and side 8 with it. The search then settles on the shoulder.
    assert_eq!(out.side, 3, "documented shoulder-plateau behaviour changed");
    assert_eq!(out.error, 5.0);
    assert!(out.error > brute.error);
}

#[test]
fn iterative_stays_put_on_flat_curves() {
    // Strict-improvement descent: a constant curve never moves the point.
    for init in [1u32, 5, 9] {
        let out = try_iterative_method(|_s: u32| Ok(2.5), 1, 9, init, 3).unwrap();
        assert_eq!(out.side, init);
        assert_eq!(out.error, 2.5);
    }
}
