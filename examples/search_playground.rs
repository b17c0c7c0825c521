//! Search playground: watch the three OGSS search algorithms probe the
//! same upper-bound curve.
//!
//! ```text
//! cargo run --release --example search_playground
//! ```
//!
//! Builds the morning-peak upper-bound curve for a Chengdu-like city
//! (analytic expression error + a historical-average model-error leg) and
//! prints each algorithm's probe trail, so you can see *why* ternary
//! search sometimes misses a jagged minimum while the iterative method
//! walks into it.

use gridtuner::core::expression::try_partition_expression_error;
use gridtuner::core::search::{
    try_brute_force, try_iterative_method, try_ternary_search, SearchOutcome,
};
use gridtuner::datagen::City;
use gridtuner::predict::{HistoricalAverage, Predictor};
use gridtuner::spatial::{GridSpec, Partition};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let city = City::chengdu();
    let clock = *city.clock();
    let (lo, hi) = (4u32, 40u32);
    let budget = 128u32;

    // Precompute the curve so each algorithm sees identical values.
    println!("building e(√n) for sides {lo}..{hi} (this trains one HA model per side)...");
    let mut curve = Vec::new();
    for side in lo..=hi {
        let partition = Partition::for_budget(side, budget);
        // Model-error leg: HA trained on 4 weeks, evaluated on 2 days.
        let mut rng = StdRng::seed_from_u64(7 ^ ((side as u64) << 16));
        let series = city.sample_count_series(GridSpec::new(side), 48 * 30, &mut rng);
        let mut ha = HistoricalAverage::new();
        ha.fit(&series, &clock, clock.slot_at(28, 0));
        let mut model_err = 0.0;
        for day in 28..30 {
            let slot = clock.slot_at(day, 16);
            let pred = ha.try_predict(&series, &clock, slot).unwrap();
            model_err += pred.l1_distance(&series.slot_matrix(slot)).unwrap() / 2.0;
        }
        // Expression-error leg from the true mean field.
        let alpha = city.mean_field(partition.hgrid_spec(), clock.slot_at(28, 16));
        let expr = try_partition_expression_error(&alpha, &partition, None)
            .expect("finite mean field on the partition's HGrid lattice");
        curve.push(model_err + expr);
    }
    let oracle = |s: u32| Ok(curve[(s - lo) as usize]);

    let show = |name: &str, out: &SearchOutcome| {
        let trail: Vec<String> = out
            .probes
            .iter()
            .map(|&(s, e)| format!("{s}:{e:.0}"))
            .collect();
        println!(
            "\n{name}: chose side {} (e = {:.0}) with {} evaluations",
            out.side, out.error, out.evals
        );
        println!("  probes: {}", trail.join("  "));
    };

    let bf = try_brute_force(oracle, lo, hi).expect("valid side range");
    show("brute-force", &bf);
    let ts = try_ternary_search(oracle, lo, hi).expect("valid side range");
    show("ternary search", &ts);
    let it = try_iterative_method(oracle, lo, hi, 16, 4).expect("valid side range and bound");
    show("iterative method", &it);

    println!(
        "\noptimal ratios: ternary {:.2}%, iterative {:.2}%",
        100.0 * bf.error / ts.error,
        100.0 * bf.error / it.error
    );
}
