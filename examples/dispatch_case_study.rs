//! Dispatch case study: what grid size selection buys a real consumer of
//! the predictions (the miniature of the paper's Sec. V-D / Table III).
//!
//! ```text
//! cargo run --release --example dispatch_case_study
//! ```
//!
//! Trains a historical-average predictor at three grid sizes on an
//! NYC-like city, runs POLAR task assignment on the test day with each
//! prediction resolution, and reports served orders and revenue.

use gridtuner::datagen::{City, DataSplit, TripGenerator};
use gridtuner::dispatch::{
    DemandView, Dispatcher, FleetConfig, Order, Polar, SimConfig, Simulator,
};
use gridtuner::predict::{HistoricalAverage, Predictor};
use gridtuner::spatial::{GridSpec, Partition, SlotId};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let scale = 0.01; // ~2.8k orders on the test day
    let city = City::nyc().scaled(scale);
    let clock = *city.clock();
    let split = DataSplit {
        train_days: (0, 21),
        val_days: (21, 24),
        test_day: 24,
    };

    // The test day's trips (shared across all grid sizes).
    let mut rng = StdRng::seed_from_u64(99);
    let trips = TripGenerator::default().trips_for_day(&city, split.test_day, &mut rng);
    let orders = Order::from_trips(&trips);
    println!(
        "test day: {} orders, fleet of {} drivers\n",
        orders.len(),
        FleetConfig::default().n_drivers / 5
    );

    let sim = Simulator::new(SimConfig {
        fleet: FleetConfig {
            n_drivers: 100,
            ..FleetConfig::default()
        },
        geo: *city.geo(),
        unserved_penalty_km: 10.0,
    });

    println!(
        "{:>8} {:>14} {:>12} {:>12}",
        "n", "served orders", "revenue", "service rate"
    );
    let budget = 64;
    for side in [2u32, 8, 16, 32] {
        let partition = Partition::for_budget(side, budget);
        // Train a predictor at this MGrid resolution.
        let horizon = (split.val_days.1 * clock.slots_per_day()) as usize;
        let mut rng = StdRng::seed_from_u64(7);
        let series = city.sample_count_series(GridSpec::new(side), horizon, &mut rng);
        let mut model = HistoricalAverage::new();
        model.fit(&series, &clock, clock.slot_at(split.train_days.1, 0));

        // Per-slot demand views come from the model's MGrid prediction for
        // the test day's slot-of-day (HA generalizes across days).
        let mut demand_for = |slot: SlotId| {
            let sod = clock.slot_of_day(slot);
            let lookup = clock.slot_at(split.val_days.0, sod);
            let pred = model
                .try_predict(&series, &clock, lookup)
                .expect("fitted on this lattice");
            DemandView::from_mgrid(&pred, &partition)
        };
        let mut polar = Polar::new();
        let out = sim.run(&orders, &mut polar, &mut demand_for);
        println!(
            "{:>8} {:>14} {:>12.0} {:>11.1}%",
            format!("{side}x{side}"),
            out.served,
            out.revenue,
            100.0 * out.service_rate()
        );
        let _ = polar.name();
    }
    println!("\n(too-coarse and too-fine grids both hurt the dispatcher — Fig. 6's shape)");
}
