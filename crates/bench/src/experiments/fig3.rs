//! Fig. 3 — total expression error vs the number of MGrids `n`, for the
//! three cities.
//!
//! Paper shape: monotonically decreasing in `n` for every city; NYC sits
//! highest (most uneven distribution), Xi'an lowest.

use crate::ctx::uniform_expression_error;
use crate::{fmt, header, RunCfg};
use gridtuner_core::alpha::estimate_alpha;
use gridtuner_spatial::Partition;
use rand::{rngs::StdRng, SeedableRng};

/// Runs the Fig. 3 sweep. Uses the paper's full volumes (no model training
/// is involved) and the paper-faithful α estimate: the average of the
/// 8:00–8:30 slot over four weeks of sampled history.
pub fn run(cfg: &RunCfg) -> std::io::Result<()> {
    let budget = if cfg.quick { 64 } else { 128 };
    let sides = cfg.sweep(
        &[4u32, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64, 76],
        &[4u32, 8, 16, 32],
    );
    let cities = cfg.city_sweep();
    let mut columns = vec!["side", "n"];
    columns.extend(cities.iter().map(|c| c.name()));
    header(
        "fig3",
        &format!("expression error vs n (budget side {budget}, full city volumes)"),
        &columns,
    )?;
    // Estimate α once per (city, lattice) from sampled history events.
    let histories: Vec<_> = cities
        .iter()
        .map(|city| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf13);
            city.sample_history_events(16, 0..28, &mut rng)
        })
        .collect();
    for &side in sides {
        let mut row = vec![side.to_string(), (side as u64 * side as u64).to_string()];
        for (city, events) in cities.iter().zip(&histories) {
            let partition = Partition::for_budget(side, budget);
            let alpha = estimate_alpha(
                events,
                partition.hgrid_spec(),
                city.clock(),
                &crate::ctx::alpha_window(16),
            );
            row.push(fmt(uniform_expression_error(&alpha, &partition)));
        }
        outln!("{}", row.join("\t"));
    }
    Ok(())
}
