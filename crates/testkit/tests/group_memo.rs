//! Group-value memo bit-identity: the pmf memo also keeps each expression
//! group's `E_e`, keyed by the bits of `(a, b, m)`, and shares it across a
//! session's point tune and every bootstrap replicate. A memo hit, a miss
//! and a refused admission must give the same bits, at every worker count.
//!
//! * Square sweeps: `try_partition_expression_error` over every side of
//!   the range, with one memo shared across the sides, cold and then warm,
//!   and with a memo that admits nothing, equals the per-call (`None`)
//!   sweep at one worker, at 1, 2 and 8 workers.
//! * Bootstrap: a B = 8 tune's `UncertaintyReport` is bit-identical at 1,
//!   2 and 8 workers and on a re-tune, whose replicates read the group
//!   values the first tune left in the session's memo. Each replicate's
//!   argmin and error also equal a direct tune of the materialised
//!   resampled log in a fresh session (its own cold memo).
//! * Both are pinned against the bits the kernel produced before it kept
//!   group values.
//!
//! This file holds exactly one `#[test]` on purpose:
//! [`gridtuner_par::set_max_threads`] is a global override, and a second
//! concurrently-running test in the same binary would observe it
//! mid-sweep (same discipline as `uncertainty.rs`).

use gridtuner_core::alpha::AlphaWindow;
use gridtuner_core::alpha_cache::AlphaFieldCache;
use gridtuner_core::expr_kernel::PmfMemo;
use gridtuner_core::expression::try_partition_expression_error;
use gridtuner_core::resample_events;
use gridtuner_datagen::City;
use gridtuner_engine::{EngineConfig, SearchStrategy, TuningSession, UncertaintyReport};
use gridtuner_spatial::{Event, Partition};
use rand::{rngs::StdRng, SeedableRng};

/// The NYC golden setup of `uncertainty.rs`, at B = 8.
const SCALE: f64 = 0.002;
const BUDGET_SIDE: u32 = 32;
const SIDE_RANGE: (u32, u32) = (2, 24);
const HISTORY_DAYS: u32 = 14;
const REPLICATES: u32 = 8;
const BOOT_SEED: u64 = 0x6e7963;

/// Bits of the sum of the per-side sweep errors, in side order, as the
/// kernel gave them before it kept group values.
const PINNED_SWEEP_SUM: u64 = 0x4088_fe0c_0cbe_77d8;
/// Bits of each replicate's error at its argmin, likewise.
const PINNED_REPLICATE_ERRORS: [u64; REPLICATES as usize] = [
    0x4044_1a13_418d_e4a3,
    0x4043_e76b_7b59_fb42,
    0x4043_a011_cf65_eef2,
    0x4044_6a25_e28c_f710,
    0x4045_2c87_7986_e9a7,
    0x4044_b464_8b0b_a26c,
    0x4044_148b_ca73_ca0a,
    0x4045_0f5a_b26c_9dbc,
];

fn model(side: u32) -> f64 {
    0.05 * (side * side) as f64
}

fn window() -> AlphaWindow {
    AlphaWindow {
        slot_of_day: 16,
        day_start: 0,
        day_end: HISTORY_DAYS,
        weekdays_only: true,
    }
}

fn config(bootstrap: bool) -> EngineConfig {
    let city = City::nyc().scaled(SCALE);
    let builder = EngineConfig::builder()
        .hgrid_budget_side(BUDGET_SIDE)
        .side_range(SIDE_RANGE.0, SIDE_RANGE.1)
        .strategy(SearchStrategy::BruteForce)
        .alpha_window(window())
        .clock(*city.clock());
    let builder = if bootstrap {
        builder.bootstrap(REPLICATES, BOOT_SEED)
    } else {
        builder
    };
    builder.build().expect("golden config is valid")
}

fn events() -> Vec<Event> {
    let city = City::nyc().scaled(SCALE);
    let mut rng = StdRng::seed_from_u64(BOOT_SEED);
    city.sample_history_events(window().slot_of_day, 0..HISTORY_DAYS, &mut rng)
}

/// Every side's sweep error bits, with `memo` shared across the sides.
fn sweep(cache: &AlphaFieldCache, memo: Option<&PmfMemo>) -> Vec<u64> {
    (SIDE_RANGE.0..=SIDE_RANGE.1)
        .map(|side| {
            let part = Partition::for_budget(side, BUDGET_SIDE);
            try_partition_expression_error(&cache.alpha(part.hgrid_spec()), &part, memo)
                .expect("α from finite synthetic events")
                .to_bits()
        })
        .collect()
}

/// The uncertainty report reduced to comparable bits.
type Bits = (
    Vec<u32>,
    Vec<u32>,
    Vec<u64>,
    Vec<(u32, u32, [u64; 4])>,
    String,
);

fn bits(u: &UncertaintyReport) -> Bits {
    (
        u.confidence_set.clone(),
        u.replicate_argmins.clone(),
        u.replicate_errors.iter().map(|e| e.to_bits()).collect(),
        u.dispersion
            .iter()
            .map(|d| {
                let spread = [d.mean, d.std_dev, d.min, d.max].map(f64::to_bits);
                (d.side, d.samples, spread)
            })
            .collect(),
        u.verdict.name().to_owned(),
    )
}

/// A B = 8 bootstrap tune, then a re-tune of the same session on its warm
/// memo; both reports must agree.
fn bootstrap(events: &[Event]) -> Bits {
    let mut session = TuningSession::new(config(true), model).expect("validated config");
    session.ingest(events).expect("synthetic events are finite");
    let hits = |s: &TuningSession<_>| s.alpha_cache().expect("tuned").pmf_memo().hits();
    let first = session.tune().expect("analytic model leg");
    let cold_hits = hits(&session);
    let again = session.tune().expect("analytic model leg");
    assert!(
        hits(&session) > cold_hits,
        "the re-tune must read the warm memo"
    );
    let first = bits(first.uncertainty.as_ref().expect("bootstrap configured"));
    assert_eq!(
        bits(again.uncertainty.as_ref().expect("bootstrap configured")),
        first,
        "a warm re-tune moved the uncertainty report"
    );
    first
}

#[test]
fn group_memo_is_bit_invisible_across_workers_and_replicates() {
    let events = events();
    let cache = AlphaFieldCache::new(&events, &config(false).clock, &window());
    gridtuner_par::set_max_threads(1);
    let reference = sweep(&cache, None);
    let boot_reference = bootstrap(&events);
    let sum = reference
        .iter()
        .fold(0.0, |acc, &b| acc + f64::from_bits(b));
    assert_eq!(sum.to_bits(), PINNED_SWEEP_SUM, "sweep moved");
    assert_eq!(
        boot_reference.2, PINNED_REPLICATE_ERRORS,
        "replicates moved"
    );

    // Each replicate against a direct tune of its resampled log.
    for (r, (&side, &error)) in boot_reference.1.iter().zip(&boot_reference.2).enumerate() {
        let mut direct = TuningSession::new(config(false), model).expect("validated config");
        direct
            .ingest(&resample_events(&events, BOOT_SEED, r as u64))
            .expect("resampled events are finite");
        let outcome = direct.tune().expect("analytic model leg").outcome;
        assert_eq!(
            (outcome.side, outcome.error.to_bits()),
            (side, error),
            "replicate {r} differs from its direct tune"
        );
    }

    for threads in [1usize, 2, 8] {
        gridtuner_par::set_max_threads(threads);
        let shared = PmfMemo::default();
        for pass in ["cold", "warm"] {
            assert_eq!(
                sweep(&cache, Some(&shared)),
                reference,
                "{pass} shared memo at {threads} threads"
            );
        }
        assert_eq!(
            sweep(&cache, Some(&PmfMemo::with_limits(0, 0))),
            reference,
            "memo that admits nothing at {threads} threads"
        );
        assert_eq!(
            bootstrap(&events),
            boot_reference,
            "bootstrap diverged at {threads} threads"
        );
    }
}
