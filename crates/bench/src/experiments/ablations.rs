//! Ablations of this implementation's own design choices (promised in
//! DESIGN.md): exact vs greedy matching inside POLAR, the value of POLAR's
//! predictive repositioning stage, and fixed-K truncation vs the
//! adaptive-window expression-error algorithm.

use crate::ctx::{cities, test_day_orders, ModelKind, PredictedDemand};
use crate::{fmt, header, timing_header, RunCfg};
use gridtuner_core::expression::{expression_error_alg2, expression_error_windowed};
use gridtuner_core::kselect::recommended_k;
use gridtuner_dispatch::polar::PolarConfig;
use gridtuner_dispatch::{FleetConfig, Polar, SimConfig, Simulator};
use std::time::Instant;

fn nyc_sim(cfg: &RunCfg, n_drivers: usize) -> Simulator {
    let city = cities(cfg).remove(0);
    Simulator::new(SimConfig {
        fleet: FleetConfig {
            n_drivers,
            seed: cfg.seed ^ 0xab1,
            ..FleetConfig::default()
        },
        geo: *city.geo(),
        unserved_penalty_km: 10.0,
    })
}

/// Ablation 1 — exact Hungarian vs greedy matching inside POLAR's stage 2.
pub fn run_matching(cfg: &RunCfg) -> std::io::Result<()> {
    header(
        "abl-matching",
        "POLAR stage-2 matching: exact Hungarian vs sorted greedy (nyc)",
        &["matcher", "served", "revenue"],
    )?;
    timing_header("abl-matching", &["matcher", "wall_s"]);
    let city = cities(cfg).remove(0);
    let orders = test_day_orders(&city, cfg.seed ^ 0xab11);
    let sim = nyc_sim(cfg, ((city.daily_volume() / 22.0) as usize).max(20));
    for (name, budget) in [("hungarian", usize::MAX), ("greedy", 0)] {
        let mut pd = PredictedDemand::new(&city, 16, 64, ModelKind::Ha, cfg);
        let mut polar = Polar::with_config(PolarConfig {
            reposition_fraction: 0.5,
            hungarian_budget: budget,
        });
        let t0 = Instant::now();
        let out = sim.run(&orders, &mut polar, &mut |s| pd.view(s));
        outln!("{name}\t{}\t{}", out.served, fmt(out.revenue));
        eprintln!("{name}\t{}", fmt(t0.elapsed().as_secs_f64()));
    }
    Ok(())
}

/// Ablation 2 — POLAR's predictive repositioning fraction.
pub fn run_reposition(cfg: &RunCfg) -> std::io::Result<()> {
    header(
        "abl-reposition",
        "POLAR stage-1 repositioning fraction vs outcome (nyc, n=16x16 demand)",
        &["fraction", "served", "revenue", "travel_km"],
    )?;
    let city = cities(cfg).remove(0);
    let orders = test_day_orders(&city, cfg.seed ^ 0xab22);
    let sim = nyc_sim(cfg, ((city.daily_volume() / 22.0) as usize).max(20));
    let fractions: &[f64] = if cfg.quick {
        &[0.0, 0.5]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 1.0]
    };
    for &f in fractions {
        let mut pd = PredictedDemand::new(&city, 16, 64, ModelKind::Ha, cfg);
        let mut polar = Polar::with_config(PolarConfig {
            reposition_fraction: f,
            hungarian_budget: 250_000,
        });
        let out = sim.run(&orders, &mut polar, &mut |s| pd.view(s));
        outln!(
            "{f}\t{}\t{}\t{}",
            out.served,
            fmt(out.revenue),
            fmt(out.travel_km)
        );
    }
    Ok(())
}

/// Ablation 3 — fixed-K truncation (the paper's K = 250) vs the
/// adaptive-window variant, across mean magnitudes.
pub fn run_kselect(cfg: &RunCfg) -> std::io::Result<()> {
    header(
        "abl-kselect",
        "fixed K=250 vs recommended_k vs adaptive window (m=64)",
        &["alpha", "rest", "k250_err", "krec", "krec_err"],
    )?;
    timing_header(
        "abl-kselect",
        &["alpha", "rest", "k250_s", "krec_s", "windowed_s"],
    );
    let m = 64usize;
    let scales: &[(f64, f64)] = if cfg.quick {
        &[(2.0, 30.0), (50.0, 800.0)]
    } else {
        &[
            (0.5, 8.0),
            (2.0, 30.0),
            (10.0, 150.0),
            (50.0, 800.0),
            (200.0, 3000.0),
        ]
    };
    for &(a, b) in scales {
        let reference = expression_error_windowed(a, b, m);
        let t0 = Instant::now();
        let v250 = expression_error_alg2(a, b, m, 250);
        let t250 = t0.elapsed().as_secs_f64();
        let krec = recommended_k(a, b, m, 1e-6);
        let t0 = Instant::now();
        let vrec = expression_error_alg2(a, b, m, krec);
        let trec = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = expression_error_windowed(a, b, m);
        let twin = t0.elapsed().as_secs_f64();
        outln!(
            "{a}\t{b}\t{}\t{krec}\t{}",
            fmt((v250 - reference).abs()),
            fmt((vrec - reference).abs()),
        );
        eprintln!("{a}\t{b}\t{}\t{}\t{}", fmt(t250), fmt(trec), fmt(twin));
    }
    Ok(())
}
