//! Fig. 13 — scatter of per-MGrid unevenness `D_α(64)` against the MGrid's
//! summed expression error, at the paper's case-study partition
//! (`n = 16×16`, `m = 8×8`).
//!
//! Paper shape: expression error grows with the unevenness of the event
//! distribution inside the MGrid; many NYC MGrids sit near the origin
//! (sparse areas).

use crate::{fmt, header, RunCfg};
use gridtuner_core::expr_kernel::{ExprWorkspace, PmfMemo};
use gridtuner_datagen::City;
use gridtuner_spatial::Partition;

/// Runs the Fig. 13 scatter (full NYC volume, analytic α field).
pub fn run(cfg: &RunCfg) -> std::io::Result<()> {
    let partition = Partition::new(16, 8); // n = 16², m = 64
    let city = City::nyc();
    let clock = *city.clock();
    let alpha = city.mean_field(partition.hgrid_spec(), clock.slot_at(9, 16));
    header(
        "fig13",
        "per-MGrid D_alpha(64) vs expression error (nyc, n=16x16, m=8x8)",
        &["mgrid", "d_alpha", "expression_error"],
    )?;
    let keep_every = if cfg.quick { 8 } else { 1 };
    let (mut ws, memo) = (ExprWorkspace::new(), PmfMemo::default());
    for (i, mcell) in partition.mgrid_spec().cells().enumerate() {
        if i % keep_every != 0 {
            continue;
        }
        let alphas: Vec<f64> = partition
            .hgrids_of(mcell)
            .into_iter()
            .map(|h| alpha.get(h))
            .collect();
        let mean = alphas.iter().sum::<f64>() / alphas.len() as f64;
        let d: f64 = alphas.iter().map(|a| (a - mean).abs()).sum();
        let e = ws
            .mgrid_error(&alphas, &memo)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        outln!("{i}\t{}\t{}", fmt(d), fmt(e));
    }
    Ok(())
}
