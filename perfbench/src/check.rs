//! Correctness checks on decisions, run outside the timed regions.

use gridtuner_core::expression::expression_error_windowed;
use gridtuner_core::{estimate_alpha, AlphaFieldCache};
use gridtuner_engine::{EngineConfig, PartitionReport, SearchOutcome};
use gridtuner_spatial::{Event, Partition};

/// Relative tolerance between the engine's expression leg and the
/// independent per-cell recomputation (the two sum in different orders).
const EXPR_REL_TOL: f64 = 1e-9;

/// The selected side is the argmin of the decision's own probes, and the
/// reported error is that probe's value.
pub fn argmin(o: &SearchOutcome) -> Result<(), String> {
    let min = o.probes.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let own = o.probes.iter().find(|p| p.0 == o.side).map(|p| p.1);
    if own != Some(o.error) || o.error != min {
        return Err(format!(
            "side {} (error {}) is not the argmin of its probes (min {min})",
            o.side, o.error
        ));
    }
    Ok(())
}

/// Total expression error at `side`, recomputed per HGrid cell from a
/// fresh `estimate_alpha` scan of `events` and the windowed closed form,
/// without the α cache, the batched kernel or its memos.
fn expression_leg_independent(events: &[Event], cfg: &EngineConfig, part: &Partition) -> f64 {
    let alpha = estimate_alpha(events, part.hgrid_spec(), &cfg.clock, &cfg.alpha_window);
    let m = part.m();
    let mut cells = Vec::with_capacity(m);
    let mut total = 0.0;
    for mcell in part.mgrid_spec().cells() {
        cells.clear();
        cells.extend(part.hgrid_iter(mcell).map(|h| alpha.get(h)));
        let sum: f64 = cells.iter().sum();
        for &a in &cells {
            total += expression_error_windowed(a, (sum - a).max(0.0), m);
        }
    }
    total
}

/// Full check of a uniform decision taken on `events`: the selected side
/// is the argmin of its probes; its probe equals the engine's expression
/// leg (from a fresh α cache over the same log) plus the model leg bit for
/// bit; and that expression leg matches the independent recomputation.
pub fn uniform(
    events: &[Event],
    cfg: &EngineConfig,
    o: &SearchOutcome,
    model: Option<f64>,
) -> Result<(), String> {
    argmin(o)?;
    let model = model.ok_or_else(|| format!("side {} was never given to the model leg", o.side))?;
    let part = Partition::for_budget(o.side, cfg.hgrid_budget_side);
    let cache = AlphaFieldCache::new(events, &cfg.clock, &cfg.alpha_window);
    let expr = cache.expression_error(&part).map_err(|e| e.to_string())?;
    if expr + model != o.error {
        return Err(format!(
            "probe error {} at side {} is not expression {expr} + model {model}",
            o.error, o.side
        ));
    }
    let independent = expression_leg_independent(events, cfg, &part);
    if (expr - independent).abs() > EXPR_REL_TOL * independent.abs().max(f64::MIN_POSITIVE) {
        return Err(format!(
            "expression leg {expr} at side {} differs from the per-cell recomputation {independent}",
            o.side
        ));
    }
    Ok(())
}

/// A refined partition may not be worse than its uniform baseline, nor use
/// more regions than its cap, and its bound is the sum of its legs.
pub fn refined(r: &PartitionReport) -> Result<(), String> {
    if r.bound > r.uniform_bound() {
        return Err(format!(
            "refined bound {} exceeds the uniform bound {}",
            r.bound,
            r.uniform_bound()
        ));
    }
    if r.n_regions > r.region_cap {
        return Err(format!(
            "{} regions exceed the cap {}",
            r.n_regions, r.region_cap
        ));
    }
    if r.expression_error + r.model_error != r.bound {
        return Err(format!(
            "refined bound {} is not the sum of its legs",
            r.bound
        ));
    }
    Ok(())
}
