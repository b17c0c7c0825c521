//! Cross-crate validation of the error decomposition: empirical errors
//! measured on sampled data vs the analytic Poisson expression error.

use gridtuner::core::errors::{evaluate_errors, ErrorSample};
use gridtuner::core::expression::try_partition_expression_error;
use gridtuner::datagen::City;
use gridtuner::predict::{HistoricalAverage, Predictor};
use gridtuner::spatial::{CountMatrix, Partition, SlotId};
use rand::{rngs::StdRng, SeedableRng};

/// Sample HGrid-lattice counts for several evaluation slots, predict with
/// HA at the MGrid lattice, and return the error samples.
fn build_samples(city: &City, partition: &Partition, n_days: u32, seed: u64) -> Vec<ErrorSample> {
    let clock = *city.clock();
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = (n_days * clock.slots_per_day()) as usize;
    let hseries = city.sample_count_series(partition.hgrid_spec(), horizon, &mut rng);
    let mseries = hseries
        .coarsen(partition.sub_side())
        .expect("hgrid lattice is divisible by the sub side");
    let mut ha = HistoricalAverage::new();
    let train_days = n_days - 1;
    ha.fit(&mseries, &clock, clock.slot_at(train_days, 0));
    // Evaluate on the last day's morning slots.
    (14..20u32)
        .map(|sod| {
            let slot = clock.slot_at(train_days, sod);
            ErrorSample {
                predicted_mgrid: ha
                    .try_predict(&mseries, &clock, slot)
                    .expect("fitted on this lattice"),
                actual_hgrid: hseries.slot_matrix(slot),
            }
        })
        .collect()
}

/// Total expression error of the square partition over the α field.
fn uniform_expression_error(alpha: &CountMatrix, partition: Partition) -> f64 {
    try_partition_expression_error(alpha, &partition, None).unwrap()
}

#[test]
fn theorem_ii1_holds_on_sampled_city_data() {
    let city = City::chengdu().scaled(0.02);
    for (s, q) in [(4u32, 8u32), (8, 4), (16, 2)] {
        let partition = Partition::new(s, q);
        let samples = build_samples(&city, &partition, 10, 17);
        let report = evaluate_errors(&samples, &partition).unwrap();
        assert!(
            report.real <= report.upper_bound() + 1e-9,
            "Theorem II.1 violated at {s}x{s}: {report:?}"
        );
        assert!(
            report.upper_bound() - report.real <= 2.0 * report.model.min(report.expression) + 1e-9,
            "slack bound violated at {s}x{s}: {report:?}"
        );
        assert!(report.real > 0.0, "sampled data cannot be error-free");
    }
}

#[test]
fn analytic_expression_error_tracks_empirical() {
    // The analytic E_e from the α field must approximate the empirical
    // expression error measured on freshly sampled slots (same Poisson
    // process), within Monte-Carlo slack.
    let city = City::nyc().scaled(0.02);
    let partition = Partition::new(8, 4);
    let clock = *city.clock();
    // Analytic: α = the true mean field at slot-of-day 16 on a weekday.
    let alpha = city.mean_field(partition.hgrid_spec(), clock.slot_at(9, 16));
    let analytic = uniform_expression_error(&alpha, partition);
    // Empirical: average over sampled weekday slots at the same
    // slot-of-day (perfect-model setup ⇒ real error = expression error).
    let mut rng = StdRng::seed_from_u64(23);
    let horizon = 48 * 12;
    let hseries = city.sample_count_series(partition.hgrid_spec(), horizon, &mut rng);
    let mut acc = 0.0;
    let mut n = 0;
    for day in 0..12u32 {
        let slot = clock.slot_at(day, 16);
        if !clock.is_weekday(slot) {
            continue;
        }
        let actual = hseries.slot_matrix(slot);
        let spread = actual
            .to_mgrid(&partition)
            .unwrap()
            .to_hgrid(&partition)
            .unwrap();
        acc += spread.l1_distance(&actual).unwrap();
        n += 1;
    }
    let empirical = acc / n as f64;
    let rel = (analytic - empirical).abs() / empirical;
    assert!(
        rel < 0.15,
        "analytic {analytic:.1} vs empirical {empirical:.1} (rel {rel:.3})"
    );
}

#[test]
fn expression_error_ordering_across_cities() {
    // Fig. 3's city ordering at the paper's full volumes: NYC > Chengdu >
    // Xi'an. (The ordering needs the dense-count regime; at tiny volumes
    // Poisson sparsity compresses the differences — see EXPERIMENTS.md.)
    let partition = Partition::new(8, 4);
    let mut errs = Vec::new();
    for city in City::all_presets() {
        let clock = *city.clock();
        let alpha = city.mean_field(partition.hgrid_spec(), clock.slot_at(9, 16));
        errs.push((
            city.name().to_string(),
            uniform_expression_error(&alpha, partition),
        ));
    }
    assert!(
        errs[0].1 > errs[1].1 && errs[1].1 > errs[2].1,
        "city ordering broken: {errs:?}"
    );
}

#[test]
fn expression_error_decreases_with_n_on_all_presets() {
    for city in City::all_presets() {
        let city = city.scaled(0.02);
        let clock = *city.clock();
        let mut prev = f64::INFINITY;
        for s in [1u32, 2, 4, 8, 16] {
            let partition = Partition::for_budget(s, 32);
            let alpha = city.mean_field(partition.hgrid_spec(), clock.slot_at(9, 16));
            let e = uniform_expression_error(&alpha, partition);
            assert!(
                e <= prev * 1.05 + 1e-9,
                "{}: expression error rose sharply at s={s}: {e} > {prev}",
                city.name()
            );
            prev = e;
        }
    }
}

#[test]
fn slot_id_sanity_for_test_harness() {
    // Guard against off-by-one drift between harness slot arithmetic and
    // the spatial clock (a regression here silently shifts every window).
    let clock = gridtuner::spatial::SlotClock::default();
    assert_eq!(clock.slot_at(9, 16), SlotId(9 * 48 + 16));
}
