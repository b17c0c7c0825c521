//! Property tests for the tuning hot path's two correctness contracts:
//!
//! 1. the α field derived from an [`AlphaFieldCache`] digest is
//!    **bit-identical** to [`estimate_alpha`] over the raw event log, for
//!    arbitrary logs, windows and probed lattice sides;
//! 2. the expression-error sweep at 2 and 8 workers equals the one-worker
//!    (sequential) sweep, bit for bit.

use gridtuner_core::alpha::AlphaWindow;
use gridtuner_core::expression::try_partition_expression_error;
use gridtuner_core::{estimate_alpha, AlphaFieldCache};
use gridtuner_spatial::{Event, GridSpec, Partition, Point, SlotClock};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A random event log over `days` days. Roughly 1 in 6 points falls
/// outside the unit square, exercising the digest's spatial filter.
fn random_events(seed: u64, n: usize, days: u32) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = rng.gen_range(-0.1f64..1.1);
            let y = rng.gen_range(-0.1f64..1.1);
            let minute = rng.gen_range(0u32..days * 24 * 60);
            Event::new(Point::new(x, y), minute)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_alpha_is_bit_identical_to_direct_estimate(
        seed in 0u64..10_000,
        n in 0usize..500,
        days in 1u32..12,
        slot_of_day in 0u32..48,
        weekdays in 0u32..2,
        side in 1u32..48,
    ) {
        let events = random_events(seed, n, days);
        let clock = SlotClock::default();
        let window = AlphaWindow {
            slot_of_day,
            day_start: 0,
            day_end: days,
            weekdays_only: weekdays == 1,
        };
        let direct = estimate_alpha(&events, GridSpec::new(side), &clock, &window);
        let cache = AlphaFieldCache::new(&events, &clock, &window);
        let derived = cache.alpha(GridSpec::new(side));
        assert_eq!(
            direct.as_slice(),
            derived.as_slice(),
            "side {side}: cache-derived α diverged from direct estimate"
        );
    }

    #[test]
    fn parallel_expression_error_matches_sequential(
        seed in 0u64..10_000,
        n in 0usize..600,
        side in 1u32..24,
        budget in 8u32..96,
    ) {
        let events = random_events(seed, n, 5);
        let clock = SlotClock::default();
        let window = AlphaWindow {
            slot_of_day: 0,
            day_start: 0,
            day_end: 5,
            weekdays_only: false,
        };
        let part = Partition::for_budget(side, budget);
        let alpha = estimate_alpha(&events, part.hgrid_spec(), &clock, &window);
        let prev = gridtuner_par::max_threads();
        let bits = [1, 2, 8].map(|threads| {
            gridtuner_par::set_max_threads(threads);
            try_partition_expression_error(&alpha, &part, None).unwrap().to_bits()
        });
        gridtuner_par::set_max_threads(prev);
        assert!(
            bits.iter().all(|&b| b == bits[0]),
            "1/2/8 workers: {bits:x?} (side {side}, budget {budget})"
        );
    }
}
