//! Fig. 10 — order distributions of the three datasets (coarse spatial
//! summary), and Fig. 11 — trip-length distributions.
//!
//! Paper shape: NYC's mass hugs the Manhattan strip (trips < 15 km),
//! Chengdu spreads over a ring (even lengths, a heavy > 45 km tail in the
//! raw data), Xi'an is small (trips < 10 km).

use crate::{fmt, header, RunCfg};
use gridtuner_datagen::{trips::length_histogram, TripGenerator};
use gridtuner_spatial::{CountMatrix, GridSpec};
use rand::{rngs::StdRng, SeedableRng};

/// Fig. 10: 4×4 spatial shares of the test day's orders per city.
pub fn run_fig10(cfg: &RunCfg) -> std::io::Result<()> {
    header(
        "fig10",
        "order distribution over a 4x4 summary grid (share of the day's orders)",
        &["city", "row", "col", "share"],
    )?;
    let spec = GridSpec::new(4);
    for city in cfg.city_sweep() {
        let city = city.scaled(cfg.volume_scale.max(0.002));
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf10);
        let events = city.sample_day_events(0, &mut rng);
        let mut counts = CountMatrix::zeros(4);
        for e in &events {
            if let Some(c) = spec.cell_of(&e.loc) {
                *counts.get_mut(c) += 1.0;
            }
        }
        let total = counts.total().max(1.0);
        for cell in spec.cells() {
            let (r, c) = spec.row_col(cell);
            outln!(
                "{}\t{r}\t{c}\t{}",
                city.name(),
                fmt(counts.get(cell) / total)
            );
        }
    }
    Ok(())
}

/// Fig. 11: trip-length histograms per city.
pub fn run_fig11(cfg: &RunCfg) -> std::io::Result<()> {
    header(
        "fig11",
        "trip length distribution (5 km bins; the last bin is the overflow)",
        &["city", "bin_km", "count", "share"],
    )?;
    for city in cfg.city_sweep() {
        let city = city.scaled(cfg.volume_scale.max(0.002));
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf11);
        let trips = TripGenerator::default().trips_for_day(&city, 0, &mut rng);
        let hist = length_histogram(&trips, city.geo(), 5.0, 45.0);
        let total: usize = hist.iter().map(|&(_, c)| c).sum();
        for (lo, count) in hist {
            outln!(
                "{}\t{}\t{count}\t{}",
                city.name(),
                lo,
                fmt(count as f64 / total.max(1) as f64)
            );
        }
    }
    Ok(())
}
