//! Fig. 5 — real error and its upper bound vs `n`, per city × model.
//!
//! Paper shape: both curves fall then rise; the bound stays above the real
//! error; higher-accuracy models push the optimal `n` rightward.

use crate::ctx::{evaluate_side, harness_split, sample_side_data, ModelKind};
use crate::{fmt, header, RunCfg};

/// Runs the Fig. 5 sweep.
pub fn run(cfg: &RunCfg) -> std::io::Result<()> {
    let budget = 64;
    let sides = cfg.sweep(&[2u32, 4, 8, 12, 16, 24, 32, 48, 64], &[2u32, 8, 24]);
    let split = harness_split();
    header(
        "fig5",
        &format!("real error vs upper bound vs n (full city volumes, budget side {budget})"),
        &[
            "city",
            "model",
            "side",
            "n",
            "real",
            "model_err",
            "expr_err",
            "upper_bound",
            "expr_analytic",
        ],
    )?;
    let n_cities = if cfg.quick { 1 } else { 2 };
    let kinds: &[ModelKind] = if cfg.quick {
        &[ModelKind::Mlp]
    } else {
        &[ModelKind::Mlp, ModelKind::DeepSt, ModelKind::Dmvst]
    };
    for city in cfg.city_sweep().into_iter().take(n_cities) {
        for &side in sides {
            let data = sample_side_data(&city, side, budget, &split, cfg.seed);
            for &kind in kinds {
                let (report, analytic) = evaluate_side(&city, &data, kind, cfg);
                outln!(
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    city.name(),
                    kind.name(),
                    side,
                    side as u64 * side as u64,
                    fmt(report.real),
                    fmt(report.model),
                    fmt(report.expression),
                    fmt(report.upper_bound()),
                    fmt(analytic),
                );
            }
        }
    }
    Ok(())
}
