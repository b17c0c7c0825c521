//! Figs. 6–8 — task assignment (POLAR, LS) vs `n` per city, and Fig. 9 —
//! route planning (DAIF) vs `n` on NYC.
//!
//! Paper shape: with *predicted* demand, served orders/revenue rise then
//! fall in `n` (real error is the mechanism); with *real* order data the
//! curves keep improving (only expression error remains).

use crate::ctx::{cities, harness_split, test_day_orders, true_demand, ModelKind, PredictedDemand};
use crate::{fmt, header, RunCfg};
use gridtuner_datagen::City;
use gridtuner_dispatch::daif::DaifConfig;
use gridtuner_dispatch::{Daif, FleetConfig, Ls, Polar, SimConfig, Simulator};
use gridtuner_spatial::Partition;

fn fleet_for(city: &City, cfg: &RunCfg) -> FleetConfig {
    // Scale the fleet with the day's volume: roughly one driver per ~22
    // daily orders keeps the system loaded but not starved.
    let n_drivers = ((city.daily_volume() / 22.0).round() as usize).max(20);
    FleetConfig {
        n_drivers,
        seed: cfg.seed ^ 0xf1ee7,
        ..FleetConfig::default()
    }
}

fn sides(cfg: &RunCfg) -> &'static [u32] {
    if cfg.quick {
        &[1, 8, 32]
    } else {
        &[1, 2, 4, 8, 16, 24, 32, 48]
    }
}

/// Figs. 6–8: POLAR and LS on one city, predicted vs true demand.
pub fn run_city(cfg: &RunCfg, city_idx: usize, fig: &str) -> std::io::Result<()> {
    let budget = 64;
    let city = cities(cfg).remove(city_idx);
    let orders = test_day_orders(&city, cfg.seed ^ (city_idx as u64 + 1));
    let sim = Simulator::new(SimConfig {
        fleet: fleet_for(&city, cfg),
        geo: *city.geo(),
        unserved_penalty_km: 10.0,
    });
    header(
        fig,
        &format!(
            "task assignment vs n ({}, {} orders, {} drivers)",
            city.name(),
            orders.len(),
            sim.config().fleet.n_drivers
        ),
        &[
            "side",
            "n",
            "polar_served",
            "polar_revenue",
            "ls_served",
            "ls_revenue",
            "polar_served_real",
            "ls_revenue_real",
        ],
    )?;
    for &side in sides(cfg) {
        // Predicted demand from a historical-average model at this side.
        let mut pd = PredictedDemand::new(&city, side, budget, ModelKind::DeepSt, cfg);
        let polar = sim.run(&orders, &mut Polar::new(), &mut |s| pd.view(s));
        let ls = sim.run(&orders, &mut Ls::new(), &mut |s| pd.view(s));
        // Ground-truth demand at the same resolution ("real order data").
        let partition = Partition::for_budget(side, budget);
        let mut td = true_demand(&city, partition);
        let polar_real = sim.run(&orders, &mut Polar::new(), &mut td);
        let ls_real = sim.run(&orders, &mut Ls::new(), &mut td);
        outln!(
            "{side}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            side as u64 * side as u64,
            polar.served,
            fmt(polar.revenue),
            ls.served,
            fmt(ls.revenue),
            polar_real.served,
            fmt(ls_real.revenue),
        );
    }
    let _ = harness_split();
    Ok(())
}

/// Fig. 9: DAIF route planning on NYC.
pub fn run_daif(cfg: &RunCfg) -> std::io::Result<()> {
    let budget = 64;
    let city = cities(cfg).remove(0); // NYC
    let orders = test_day_orders(&city, cfg.seed ^ 0xda1f);
    let daif = Daif::new(DaifConfig {
        n_workers: ((city.daily_volume() / 30.0).round() as usize).max(15),
        seed: cfg.seed ^ 0xda1f2,
        ..DaifConfig::default()
    });
    header(
        "fig9",
        &format!(
            "route planning (DAIF) vs n (nyc, {} requests, {} workers)",
            orders.len(),
            daif.config().n_workers
        ),
        &[
            "side",
            "n",
            "served",
            "unified_cost",
            "served_real",
            "unified_cost_real",
        ],
    )?;
    for &side in sides(cfg) {
        let mut pd = PredictedDemand::new(&city, side, budget, ModelKind::DeepSt, cfg);
        let out = daif.run(city.geo(), &orders, &mut |s| pd.view(s));
        let partition = Partition::for_budget(side, budget);
        let mut td = true_demand(&city, partition);
        let real = daif.run(city.geo(), &orders, &mut td);
        outln!(
            "{side}\t{}\t{}\t{}\t{}\t{}",
            side as u64 * side as u64,
            out.served,
            fmt(out.unified_cost),
            real.served,
            fmt(real.unified_cost),
        );
    }
    Ok(())
}
