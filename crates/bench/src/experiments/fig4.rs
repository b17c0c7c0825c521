//! Fig. 4 — total model error vs `n` for the predictor ladder on NYC and
//! Chengdu.
//!
//! Paper shape: model error increases with `n` for every model; the
//! capacity ordering is MLP > DeepST > DMVST-Net (lower is better).

use crate::ctx::{evaluate_side, harness_split, sample_side_data, ModelKind};
use crate::{fmt, header, RunCfg};

/// Runs the Fig. 4 sweep.
pub fn run(cfg: &RunCfg) -> std::io::Result<()> {
    let budget = 64;
    let sides = cfg.sweep(&[4u32, 8, 12, 16, 24, 32], &[4u32, 16]);
    let split = harness_split();
    header(
        "fig4",
        &format!("total model error vs n (full city volumes, budget side {budget})"),
        &["city", "side", "n", "HA", "MLP", "DeepST", "DMVST"],
    )?;
    // Model training cost is volume-independent (gridded counts), so this
    // runs at the paper's full volumes where the error shapes are crisp.
    for city in cfg.city_sweep().into_iter().take(2) {
        for &side in sides {
            let data = sample_side_data(&city, side, budget, &split, cfg.seed);
            let mut row = vec![
                city.name().to_string(),
                side.to_string(),
                (side as u64 * side as u64).to_string(),
            ];
            for kind in [
                ModelKind::Ha,
                ModelKind::Mlp,
                ModelKind::DeepSt,
                ModelKind::Dmvst,
            ] {
                let (report, _) = evaluate_side(&city, &data, kind, cfg);
                row.push(fmt(report.model));
            }
            outln!("{}", row.join("\t"));
        }
    }
    Ok(())
}
