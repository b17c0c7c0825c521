//! Fig. 15 — effect of `m` on expression / model / real error with `n`
//! fixed at 16×16.
//!
//! Paper shape: with finite-sample α estimation, the expression and real
//! errors keep *increasing* in `m`: smaller HGrids make the per-cell means
//! noisier, and the paper uses this to justify stopping at `N = 128²`.
//! The model error is flat (it lives on the MGrid lattice).

use crate::ctx::{evaluate_side, harness_split, ModelKind};
use crate::{fmt, header, RunCfg};
use gridtuner_datagen::City;
use gridtuner_spatial::Partition;
use rand::{rngs::StdRng, SeedableRng};

/// Runs the Fig. 15 sweep: side fixed at 16, `m = q²` growing.
pub fn run(cfg: &RunCfg) -> std::io::Result<()> {
    let side = 16u32;
    let qs = cfg.sweep(&[1u32, 2, 3, 4, 6, 8], &[1u32, 4, 8]);
    let split = harness_split();
    header(
        "fig15",
        &format!("effect of m on the errors at n={side}x{side} (full NYC volume)"),
        &["q", "m", "N_side", "expr_err", "model_err", "real_err"],
    )?;
    let city = City::nyc();
    let clock = *city.clock();
    for &q in qs {
        let partition = Partition::new(side, q);
        // Sample the coherent series at this m's HGrid lattice.
        let horizon = (split.horizon_days() * clock.slots_per_day()) as usize;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ ((q as u64) << 40));
        let hgrid = city.sample_count_series(partition.hgrid_spec(), horizon, &mut rng);
        let mgrid = hgrid.coarsen(q).expect("q divides the lattice");
        let data = crate::ctx::SideData {
            partition,
            hgrid,
            mgrid,
        };
        let (report, _) = evaluate_side(&city, &data, ModelKind::Ha, cfg);
        outln!(
            "{q}\t{}\t{}\t{}\t{}\t{}",
            q as u64 * q as u64,
            side * q,
            fmt(report.expression),
            fmt(report.model),
            fmt(report.real),
        );
    }
    Ok(())
}
