//! Fig. 19 — effect of the training-set size on model quality and the
//! downstream crowdsourcing algorithm.
//!
//! Paper shape: both too little (1 week) and too much (3 months, under
//! distribution drift) training data hurt; ≈ 4 weeks is best. The harness
//! reproduces the drift with a 5%-per-week volume trend: old weeks are
//! systematically below the evaluation weeks' level.

use crate::ctx::test_day_orders;
use crate::{fmt, header, RunCfg};
use gridtuner_datagen::{City, TemporalProfile};
use gridtuner_dispatch::{DemandView, FleetConfig, Polar, SimConfig, Simulator};
use gridtuner_predict::{HistoricalAverage, Predictor};
use gridtuner_spatial::{CountSeries, Partition, SlotClock, SlotId};
use rand::{rngs::StdRng, SeedableRng};

/// Copies `series` from `start_day` onward into a fresh series whose slot 0
/// is the start day's first slot. `start_day` must be a multiple of 7 so
/// the weekday mask stays aligned.
fn tail_series(series: &CountSeries, clock: &SlotClock, start_day: u32) -> CountSeries {
    assert_eq!(start_day % 7, 0, "start day must keep weekday alignment");
    let offset = (start_day * clock.slots_per_day()) as usize;
    let n = series.n_slots() - offset;
    let mut out = CountSeries::zeros(series.side(), n);
    for t in 0..n {
        out.slot_mut(SlotId(t as u32))
            .copy_from_slice(series.slot(SlotId((t + offset) as u32)));
    }
    out
}

/// Runs the Fig. 19 sweep.
pub fn run(cfg: &RunCfg) -> std::io::Result<()> {
    let side = 16u32;
    let budget = 64;
    let weeks = cfg.sweep(&[1u32, 2, 4, 8, 12], &[1u32, 4, 12]);
    let max_weeks = *weeks.iter().max().unwrap();
    // NYC with a 5%-per-week demand drift.
    let city = City::custom(
        "nyc-drift",
        *City::nyc().geo(),
        City::nyc().intensity().clone(),
        TemporalProfile::taxi_default(48)
            .with_weekend_factor(0.85)
            .with_weekly_trend(1.05),
        City::nyc().daily_volume(),
    )
    .scaled(cfg.volume_scale);
    let clock = *city.clock();
    header(
        "fig19",
        &format!(
            "training-set size vs model error and POLAR outcome (nyc + 5%/week drift, n={side}x{side})"
        ),
        &["train_weeks", "model_err", "polar_served", "polar_revenue"],
    )?;
    // One coherent series covering the maximal horizon (+4 eval days).
    let partition = Partition::for_budget(side, budget);
    let horizon_days = max_weeks * 7 + 4;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf19);
    let full = city.sample_count_series(
        partition.mgrid_spec(),
        (horizon_days * clock.slots_per_day()) as usize,
        &mut rng,
    );
    // Shared test-day orders (the day after the maximal horizon's
    // validation window) — regenerated at matching absolute minutes.
    let test_day = max_weeks * 7 + 3;
    let orders: Vec<_> = {
        let mut o = test_day_orders(&city, cfg.seed ^ 0xf19e);
        // test_day_orders uses the harness split's test day; shift the
        // minutes to this experiment's test day.
        let delta = (test_day as i64 - crate::ctx::harness_split().test_day as i64) * 24 * 60;
        for ord in o.iter_mut() {
            ord.minute = (ord.minute as i64 + delta) as u32;
        }
        o
    };
    let sim = Simulator::new(SimConfig {
        fleet: FleetConfig {
            n_drivers: ((city.daily_volume() / 22.0).round() as usize).max(20),
            seed: cfg.seed ^ 0xf19f,
            ..FleetConfig::default()
        },
        geo: *city.geo(),
        unserved_penalty_km: 10.0,
    });
    for &w in weeks {
        // Train on the last w weeks before the eval window.
        let start_day = (max_weeks - w) * 7;
        let series = tail_series(&full, &clock, start_day);
        let mut ha = HistoricalAverage::new();
        let local_train_end = clock.slot_at(w * 7, 0);
        ha.fit(&series, &clock, local_train_end);
        // Model error on the three validation days after training.
        let mut acc = 0.0;
        let mut n = 0;
        for d in 0..3u32 {
            for sod in [10u32, 16, 24, 34, 38] {
                let slot = clock.slot_at(w * 7 + d, sod);
                let pred = ha
                    .try_predict(&series, &clock, slot)
                    .expect("fitted on this lattice");
                acc += pred
                    .l1_distance(&series.slot_matrix(slot))
                    .expect("same lattice");
                n += 1;
            }
        }
        let model_err = acc / n as f64;
        // POLAR on the shared test day with this model's demand view.
        let local_test_day = w * 7 + 3;
        let global_shift = start_day;
        let mut demand = |slot: SlotId| {
            // Map the global slot to the tail series' local coordinates.
            let local = SlotId(slot.0 - global_shift * clock.slots_per_day());
            let lookup = clock.slot_at(
                local_test_day.min(clock.day_of(local)),
                clock.slot_of_day(local),
            );
            let pred = ha
                .try_predict(&series, &clock, lookup)
                .expect("fitted on this lattice");
            DemandView::from_mgrid(&pred, &partition)
        };
        let out = sim.run(&orders, &mut Polar::new(), &mut demand);
        outln!(
            "{w}\t{}\t{}\t{}",
            fmt(model_err),
            out.served,
            fmt(out.revenue)
        );
    }
    Ok(())
}
