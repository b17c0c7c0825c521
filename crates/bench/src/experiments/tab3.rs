//! Table III — the promotion of prediction-based algorithms from tuning
//! `n`: POLAR / LS / DAIF at the literature's default grid vs GridTuner's
//! optimal grid (NYC).
//!
//! Paper shape: POLAR improves markedly (+13.6% served orders, +8.97%
//! revenue), LS barely moves (its default was already near-optimal), DAIF
//! improves moderately.

use crate::ctx::{cities, test_day_orders, ModelKind, PredictedDemand};
use crate::experiments::search_experiments::build_curves;
use crate::{fmt, header, RunCfg};
use gridtuner_datagen::City;
use gridtuner_dispatch::daif::DaifConfig;
use gridtuner_dispatch::{Daif, DispatchOutcome, Ls, Polar, SimConfig, Simulator};
use gridtuner_dispatch::{Dispatcher, FleetConfig};

fn improvement(new: f64, old: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (new - old) / old * 100.0
    }
}

/// Runs Table III.
pub fn run(cfg: &RunCfg) -> std::io::Result<()> {
    let budget = 128;
    let (lo, hi) = if cfg.quick { (4, 16) } else { (4, 50) };
    let city = cities(cfg).remove(0); // NYC, dispatch scale
                                      // GridTuner's optimal side for the morning-peak slot, from the
                                      // full-volume error curves (the paper tunes on the real dataset).
    let sc = build_curves(&City::nyc(), cfg, budget, lo, hi);
    let best = sc.brute_force(16);
    let optimal = best.side;
    let orders = test_day_orders(&city, cfg.seed ^ 0x7ab3);
    let fleet = FleetConfig {
        n_drivers: ((city.daily_volume() / 22.0).round() as usize).max(20),
        seed: cfg.seed ^ 0x7ab3f,
        ..FleetConfig::default()
    };
    let sim = Simulator::new(SimConfig {
        fleet,
        geo: *city.geo(),
        unserved_penalty_km: 10.0,
    });
    header(
        "tab3",
        &format!(
            "promotion from tuning n (nyc, {} orders, GridTuner optimum side {optimal})",
            orders.len()
        ),
        &[
            "metric",
            "algorithm",
            "original_side",
            "original_value",
            "optimal_side",
            "optimal_value",
            "improve_pct",
        ],
    )?;

    let run_sim = |dispatcher: &mut dyn Dispatcher, side: u32| -> DispatchOutcome {
        let mut pd = PredictedDemand::new(&city, side, budget, ModelKind::DeepSt, cfg);
        sim.run(&orders, dispatcher, &mut |s| pd.view(s))
    };

    // POLAR (paper default 16×16).
    let polar_orig = run_sim(&mut Polar::new(), 16);
    let polar_opt = run_sim(&mut Polar::new(), optimal);
    outln!(
        "served_orders\tPOLAR\t16\t{}\t{optimal}\t{}\t{}",
        polar_orig.served,
        polar_opt.served,
        fmt(improvement(
            polar_opt.served as f64,
            polar_orig.served as f64
        ))
    );
    outln!(
        "total_revenue\tPOLAR\t16\t{}\t{optimal}\t{}\t{}",
        fmt(polar_orig.revenue),
        fmt(polar_opt.revenue),
        fmt(improvement(polar_opt.revenue, polar_orig.revenue))
    );

    // LS (paper default 20×20).
    let ls_orig = run_sim(&mut Ls::new(), 20.min(hi));
    let ls_opt = run_sim(&mut Ls::new(), optimal);
    outln!(
        "total_revenue\tLS\t{}\t{}\t{optimal}\t{}\t{}",
        20.min(hi),
        fmt(ls_orig.revenue),
        fmt(ls_opt.revenue),
        fmt(improvement(ls_opt.revenue, ls_orig.revenue))
    );
    outln!(
        "served_orders\tLS\t{}\t{}\t{optimal}\t{}\t{}",
        20.min(hi),
        ls_orig.served,
        ls_opt.served,
        fmt(improvement(ls_opt.served as f64, ls_orig.served as f64))
    );

    // DAIF (paper defaults 16×16 / 20×20).
    let daif = Daif::new(DaifConfig {
        n_workers: ((city.daily_volume() / 30.0).round() as usize).max(15),
        seed: cfg.seed ^ 0x7ab3d,
        ..DaifConfig::default()
    });
    let run_daif = |side: u32| -> DispatchOutcome {
        let mut pd = PredictedDemand::new(&city, side, budget, ModelKind::DeepSt, cfg);
        daif.run(city.geo(), &orders, &mut |s| pd.view(s))
    };
    let daif_orig = run_daif(16);
    let daif_opt = run_daif(optimal);
    outln!(
        "unified_cost\tDAIF\t16\t{}\t{optimal}\t{}\t{}",
        fmt(daif_orig.unified_cost),
        fmt(daif_opt.unified_cost),
        // Cost: improvement = reduction.
        fmt(improvement(daif_orig.unified_cost, daif_opt.unified_cost))
    );
    outln!(
        "served_requests\tDAIF\t16\t{}\t{optimal}\t{}\t{}",
        daif_orig.served,
        daif_opt.served,
        fmt(improvement(daif_opt.served as f64, daif_orig.served as f64))
    );
    Ok(())
}
