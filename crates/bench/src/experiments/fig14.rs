//! Fig. 14 — `D_α(N)` as a function of the HGrid resolution, under two
//! α-estimation windows.
//!
//! Paper shape: `D_α` grows with `N` and flattens at the "uniform HGrid"
//! point (≈ 76² on NYC); with a *short* estimation window the curve keeps
//! rising past the knee (estimation noise masquerading as unevenness).

use crate::ctx::alpha_window;
use crate::{fmt, header, RunCfg};
use gridtuner_core::alpha::estimate_alpha;
use gridtuner_core::dalpha::{d_alpha, select_hgrid_side};
use gridtuner_datagen::City;
use gridtuner_spatial::GridSpec;
use rand::{rngs::StdRng, SeedableRng};

/// Runs the Fig. 14 sweep on full-volume NYC.
pub fn run(cfg: &RunCfg) -> std::io::Result<()> {
    let city = City::nyc();
    let clock = *city.clock();
    let sides = cfg.sweep(
        &[2u32, 4, 8, 16, 24, 32, 48, 64, 76, 96, 128, 160, 192, 256],
        &[2u32, 8, 32, 128, 256],
    );
    header(
        "fig14",
        "D_alpha(N) vs HGrid side under 1-week and 4-week alpha windows (nyc)",
        &[
            "side",
            "N",
            "d_alpha_1week",
            "d_alpha_4weeks",
            "d_alpha_true",
        ],
    )?;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf14);
    let events = city.sample_history_events(16, 0..28, &mut rng);
    let mut short = alpha_window(16);
    short.day_start = 21; // last week only
    short.day_end = 28;
    let mut long = alpha_window(16);
    long.day_end = 28;
    let mut curve_long = Vec::new();
    for &side in sides {
        let spec = GridSpec::new(side);
        let a_short = estimate_alpha(&events, spec, &clock, &short);
        let a_long = estimate_alpha(&events, spec, &clock, &long);
        let a_true = city.mean_field(spec, clock.slot_at(9, 16));
        let dl = d_alpha(&a_long);
        curve_long.push((side, dl));
        outln!(
            "{side}\t{}\t{}\t{}\t{}",
            side as u64 * side as u64,
            fmt(d_alpha(&a_short)),
            fmt(dl),
            fmt(d_alpha(&a_true)),
        );
    }
    match select_hgrid_side(&curve_long, 0.05) {
        Ok(knee) => outln!("# selected HGrid side (5% flatness rule): {knee}"),
        Err(e) => outln!("# no HGrid side selected: {e}"),
    }
    Ok(())
}
