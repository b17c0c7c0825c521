//! The uncertainty stage: bootstrap confidence sets over the optimal `n`.
//!
//! A tune returns a point estimate of the optimal MGrid side. This module
//! answers the follow-up question a deployment actually cares about — *how
//! stable is that choice under sampling noise?* — by re-tuning `B`
//! seeded bootstrap resamples of the ingested event log
//! ([`gridtuner_core::resample`]) and reporting:
//!
//! * the **confidence set** over the side: every replicate argmin plus the
//!   point estimate, sorted and deduplicated (so it contains the point
//!   estimate by construction);
//! * **per-probe dispersion**: mean / stddev / min / max of the replicate
//!   upper-bound error at every probed side — inference quality across
//!   the probe grid, not only at the argmin;
//! * a **verdict**: [`StabilityVerdict::Stable`] when every replicate
//!   agrees with the point estimate, [`StabilityVerdict::Plateau`] when
//!   the point-estimate search itself sat on a tie (the shoulder-plateau
//!   failure mode the testkit documents for ternary search), and
//!   [`StabilityVerdict::Unstable`] otherwise.
//!
//! Replicates run sequentially in index order — each one derives its own
//! splitmix64 stream from `(seed, index)`, builds a replicate
//! [`AlphaFieldCache`] that *shares* the session's warm [`PmfMemo`]
//! (bit-invisible: memo entries are a pure function of the rate), and runs
//! the session's own search strategy through the `try_*` searchers. The
//! expression sweeps inside each replicate still fan out over the worker
//! pool, so the whole stage is bit-identical across `GRIDTUNER_THREADS`
//! 1/2/8 — the testkit pins the full confidence set, not just the argmin.
//!
//! The bootstrap perturbs the **expression leg only**: the model-error leg
//! is served per side from the session's model source (memoised), because
//! resampling the α window says nothing about model capacity and
//! re-training per replicate would swamp the stage. With analytic model
//! sources a replicate tune is therefore *exactly* the tune of the
//! materialised resampled log — the `bootstrap-replicate-vs-direct`
//! oracle pair holds bitwise.

use crate::error::EngineError;
use gridtuner_core::alpha::AlphaWindow;
use gridtuner_core::alpha_cache::AlphaFieldCache;
use gridtuner_core::error::CoreError;
use gridtuner_core::expr_kernel::PmfMemo;
use gridtuner_core::resample::resample_events;
use gridtuner_core::search::{
    try_brute_force, try_iterative_method, try_ternary_search, SearchOutcome, SearchStrategy,
};
use gridtuner_obs as obs;
use gridtuner_par::EnvParseError;
use gridtuner_spatial::{Event, Partition, SlotClock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Relative tolerance under which two probed errors count as tied — the
/// plateau detector's resolution, matching the goldens' float tolerance.
pub const PLATEAU_REL_TOL: f64 = 1e-9;

/// Bootstrap knobs: how many replicates and which master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapConfig {
    /// Number of bootstrap replicates `B` (≥ 1).
    pub replicates: u32,
    /// Master seed; replicate `r` uses the splitmix64-derived stream for
    /// `(seed, r)`.
    pub seed: u64,
}

impl BootstrapConfig {
    /// `B` replicates with `seed`.
    pub fn new(replicates: u32, seed: u64) -> Self {
        BootstrapConfig { replicates, seed }
    }
}

/// How stable the tuned side looks under resampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StabilityVerdict {
    /// Every replicate re-selected the point-estimate side.
    Stable,
    /// The point-estimate search sat on a tie: another probed side's
    /// error matches the winner within [`PLATEAU_REL_TOL`]. The selected
    /// side is arbitrary among the tied ones — the shoulder-plateau
    /// failure mode.
    Plateau,
    /// Replicates disagreed with the point estimate (and no tie explains
    /// it): the optimum genuinely moves under sampling noise.
    Unstable,
}

impl StabilityVerdict {
    /// Short stable label (reports, traces, goldens).
    pub fn name(&self) -> &'static str {
        match self {
            StabilityVerdict::Stable => "stable",
            StabilityVerdict::Plateau => "plateau",
            StabilityVerdict::Unstable => "unstable",
        }
    }
}

impl std::fmt::Display for StabilityVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Replicate-error spread at one probed side.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeDispersion {
    /// The probed MGrid side.
    pub side: u32,
    /// How many replicates probed this side (adaptive searches skip
    /// sides, so this can be < B).
    pub samples: u32,
    /// Mean replicate upper-bound error at this side.
    pub mean: f64,
    /// Population standard deviation of the replicate errors.
    pub std_dev: f64,
    /// Smallest replicate error seen at this side.
    pub min: f64,
    /// Largest replicate error seen at this side.
    pub max: f64,
}

/// What the uncertainty stage found.
#[derive(Debug, Clone, PartialEq)]
pub struct UncertaintyReport {
    /// Replicates run.
    pub replicates: u32,
    /// The master seed the run is replayable from.
    pub seed: u64,
    /// The point-estimate side the confidence set is anchored on.
    pub point_side: u32,
    /// Sorted, deduplicated union of the point estimate and every
    /// replicate argmin. Always contains `point_side`.
    pub confidence_set: Vec<u32>,
    /// Replicate argmins in replicate order (index = replicate).
    pub replicate_argmins: Vec<u32>,
    /// Each replicate's upper-bound error at its own argmin, in
    /// replicate order.
    pub replicate_errors: Vec<f64>,
    /// Error spread per probed side, sorted by side.
    pub dispersion: Vec<ProbeDispersion>,
    /// The stability verdict.
    pub verdict: StabilityVerdict,
    /// Distinct sides among the replicate argmins.
    pub distinct_argmins: u32,
}

/// Classifies stability from the point-estimate probe trace and the
/// replicate argmins. Pure — property tests drive it directly.
///
/// Plateau detection looks at the *point* search's own probes: if any
/// other probed side ties the winner within [`PLATEAU_REL_TOL`] the
/// selection was arbitrary regardless of what the replicates did, so
/// `Plateau` takes precedence over `Unstable`.
pub fn classify(
    point_side: u32,
    point_probes: &[(u32, f64)],
    replicate_argmins: &[u32],
) -> StabilityVerdict {
    let point_error = point_probes
        .iter()
        .find(|(s, _)| *s == point_side)
        .map(|(_, e)| *e);
    if let Some(pe) = point_error {
        let tied = point_probes.iter().any(|&(s, e)| {
            s != point_side && (e - pe).abs() <= PLATEAU_REL_TOL * (1.0 + pe.abs().max(e.abs()))
        });
        if tied {
            return StabilityVerdict::Plateau;
        }
    }
    if replicate_argmins.iter().all(|&s| s == point_side) {
        StabilityVerdict::Stable
    } else {
        StabilityVerdict::Unstable
    }
}

/// Everything [`run_bootstrap`] needs to replay a tune on a resampled
/// log: the session's window/clock/search geometry, without the session.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplicateSetup<'a> {
    pub clock: &'a SlotClock,
    pub window: &'a AlphaWindow,
    pub strategy: SearchStrategy,
    pub lo: u32,
    pub hi: u32,
    pub budget: u32,
}

/// Tunes one materialised log against a (possibly shared) pmf memo — the
/// single code path both the uncertainty stage and the
/// `bootstrap-replicate-vs-direct` oracle exercise.
pub(crate) fn tune_log(
    events: &[Event],
    setup: &ReplicateSetup<'_>,
    pmf: Arc<PmfMemo>,
    model_err: &mut dyn FnMut(u32) -> Result<f64, CoreError>,
) -> Result<SearchOutcome, CoreError> {
    let cache = AlphaFieldCache::with_shared_pmf(events, setup.clock, setup.window, pmf);
    let mut probe = |side: u32| -> Result<f64, CoreError> {
        let part = Partition::for_budget(side, setup.budget);
        let expr = cache.expression_error(&part)?;
        Ok(expr + model_err(side)?)
    };
    match setup.strategy {
        SearchStrategy::BruteForce => try_brute_force(&mut probe, setup.lo, setup.hi),
        SearchStrategy::Ternary => try_ternary_search(&mut probe, setup.lo, setup.hi),
        SearchStrategy::Iterative { init, bound } => {
            try_iterative_method(&mut probe, setup.lo, setup.hi, init, bound)
        }
    }
}

/// Runs the bootstrap: B sequential replicate tunes of resampled logs,
/// sharing `pmf` (the session's warm memo), folding the results into an
/// [`UncertaintyReport`]. Deterministic for a given `(events, config)` —
/// the replicate order, the resample streams and the searchers are all
/// fixed, and the parallel expression sweeps inside are bit-identical
/// across thread counts.
pub(crate) fn run_bootstrap(
    events: &[Event],
    setup: &ReplicateSetup<'_>,
    pmf: Arc<PmfMemo>,
    config: BootstrapConfig,
    point: &SearchOutcome,
    model_err: &mut dyn FnMut(u32) -> Result<f64, CoreError>,
) -> Result<UncertaintyReport, EngineError> {
    let _span = obs::span!(
        "uncertainty",
        replicates = config.replicates,
        seed = config.seed
    );
    let hits_base = obs::counter!("expr.pmf_memo_hits").get();
    let mut replicate_argmins = Vec::with_capacity(config.replicates as usize);
    let mut replicate_errors = Vec::with_capacity(config.replicates as usize);
    // Per-side accumulators over every replicate probe, ordered by side.
    let mut spread: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for r in 0..u64::from(config.replicates) {
        let _rep = obs::span!("uncertainty.replicate", index = r);
        obs::counter!("boot.replicates").inc();
        let resampled = resample_events(events, config.seed, r);
        let outcome = tune_log(&resampled, setup, Arc::clone(&pmf), model_err)?;
        for &(side, err) in &outcome.probes {
            spread.entry(side).or_default().push(err);
        }
        replicate_argmins.push(outcome.side);
        replicate_errors.push(outcome.error);
    }
    let cache_hits = obs::counter!("expr.pmf_memo_hits")
        .get()
        .saturating_sub(hits_base);
    obs::counter!("boot.cache_hits").add(cache_hits);

    let mut confidence_set: Vec<u32> = replicate_argmins.clone();
    confidence_set.push(point.side);
    confidence_set.sort_unstable();
    confidence_set.dedup();

    let mut distinct = replicate_argmins.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let distinct_argmins = distinct.len() as u32;
    obs::counter!("boot.distinct_argmins").add(u64::from(distinct_argmins));

    let dispersion = spread
        .into_iter()
        .map(|(side, errs)| {
            let n = errs.len() as f64;
            let mean = errs.iter().sum::<f64>() / n;
            let var = errs.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n;
            ProbeDispersion {
                side,
                samples: errs.len() as u32,
                mean,
                std_dev: var.sqrt(),
                min: errs.iter().copied().fold(f64::INFINITY, f64::min),
                max: errs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            }
        })
        .collect();

    let verdict = classify(point.side, &point.probes, &replicate_argmins);
    match verdict {
        StabilityVerdict::Stable => {}
        StabilityVerdict::Plateau => {
            obs::warn_event!(
                "uncertainty.plateau",
                side = point.side,
                set_size = confidence_set.len(),
            );
        }
        StabilityVerdict::Unstable => {
            obs::warn_event!(
                "uncertainty.unstable",
                side = point.side,
                distinct_argmins = distinct_argmins,
                set_size = confidence_set.len(),
            );
        }
    }
    obs::event!(
        "uncertainty",
        replicates = config.replicates,
        set_size = confidence_set.len(),
        verdict = verdict.name(),
    );
    Ok(UncertaintyReport {
        replicates: config.replicates,
        seed: config.seed,
        point_side: point.side,
        confidence_set,
        replicate_argmins,
        replicate_errors,
        dispersion,
        verdict,
        distinct_argmins,
    })
}

/// Parses one bootstrap env variable with the workspace's env-validation
/// contract: a malformed value is a diagnostic ([`EngineError::Env`],
/// exit 5) naming the variable and the expected form — never a silent
/// default.
fn parse_env_var<T: std::str::FromStr>(
    var: &'static str,
    expected: &'static str,
) -> Result<Option<T>, EngineError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) => raw.trim().parse::<T>().map(Some).map_err(|_| {
            EngineError::Env(EnvParseError {
                var,
                value: raw,
                expected,
            })
        }),
    }
}

/// Validated `GRIDTUNER_BOOTSTRAP` override: `Ok(None)` when unset,
/// `Ok(Some(B))` for a positive integer, [`EngineError::Env`] otherwise.
pub fn env_bootstrap_replicates() -> Result<Option<u32>, EngineError> {
    match parse_env_var::<u32>("GRIDTUNER_BOOTSTRAP", "a positive replicate count")? {
        Some(0) => Err(EngineError::Env(EnvParseError {
            var: "GRIDTUNER_BOOTSTRAP",
            value: "0".into(),
            expected: "a positive replicate count",
        })),
        other => Ok(other),
    }
}

/// Validated `GRIDTUNER_BOOTSTRAP_SEED` override: `Ok(None)` when unset,
/// `Ok(Some(seed))` for a `u64`, [`EngineError::Env`] otherwise.
pub fn env_bootstrap_seed() -> Result<Option<u64>, EngineError> {
    parse_env_var::<u64>("GRIDTUNER_BOOTSTRAP_SEED", "an unsigned 64-bit seed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_stable_when_all_replicates_agree() {
        let probes = vec![(2, 9.0), (3, 5.0), (4, 7.0)];
        assert_eq!(classify(3, &probes, &[3, 3, 3]), StabilityVerdict::Stable);
    }

    #[test]
    fn classify_unstable_when_argmins_move() {
        let probes = vec![(2, 9.0), (3, 5.0), (4, 7.0)];
        assert_eq!(classify(3, &probes, &[3, 4, 3]), StabilityVerdict::Unstable);
    }

    #[test]
    fn classify_plateau_on_ties_and_it_wins_over_unstable() {
        // Side 4 ties the winner exactly: the shoulder-plateau shape.
        let probes = vec![(2, 9.0), (3, 5.0), (4, 5.0), (5, 8.0)];
        assert_eq!(classify(3, &probes, &[3, 3, 3]), StabilityVerdict::Plateau);
        assert_eq!(classify(3, &probes, &[3, 4, 5]), StabilityVerdict::Plateau);
    }

    #[test]
    fn classify_tolerates_sub_tolerance_jitter_only() {
        let pe = 5.0;
        let within = pe + pe * PLATEAU_REL_TOL * 0.5;
        let outside = pe + pe * 1e-6;
        assert_eq!(
            classify(3, &[(3, pe), (4, within)], &[3]),
            StabilityVerdict::Plateau
        );
        assert_eq!(
            classify(3, &[(3, pe), (4, outside)], &[3]),
            StabilityVerdict::Stable
        );
    }

    #[test]
    fn verdict_labels_are_stable() {
        assert_eq!(StabilityVerdict::Stable.name(), "stable");
        assert_eq!(StabilityVerdict::Plateau.name(), "plateau");
        assert_eq!(StabilityVerdict::Unstable.to_string(), "unstable");
    }

    #[test]
    fn env_overrides_validate() {
        // Unset → None. (Serial-safe: variables are cleaned up below and
        // no other test in this binary touches them.)
        std::env::remove_var("GRIDTUNER_BOOTSTRAP");
        std::env::remove_var("GRIDTUNER_BOOTSTRAP_SEED");
        assert_eq!(env_bootstrap_replicates().unwrap(), None);
        assert_eq!(env_bootstrap_seed().unwrap(), None);
        std::env::set_var("GRIDTUNER_BOOTSTRAP", "32");
        std::env::set_var("GRIDTUNER_BOOTSTRAP_SEED", "2022");
        assert_eq!(env_bootstrap_replicates().unwrap(), Some(32));
        assert_eq!(env_bootstrap_seed().unwrap(), Some(2022));
        std::env::set_var("GRIDTUNER_BOOTSTRAP", "lots");
        let err = env_bootstrap_replicates().unwrap_err();
        assert_eq!(err.exit_code(), 5);
        assert!(err.to_string().contains("GRIDTUNER_BOOTSTRAP"), "{err}");
        std::env::set_var("GRIDTUNER_BOOTSTRAP", "0");
        assert_eq!(env_bootstrap_replicates().unwrap_err().exit_code(), 5);
        std::env::set_var("GRIDTUNER_BOOTSTRAP_SEED", "-3");
        let err = env_bootstrap_seed().unwrap_err();
        assert_eq!(err.exit_code(), 5);
        assert!(
            err.to_string().contains("GRIDTUNER_BOOTSTRAP_SEED"),
            "{err}"
        );
        std::env::remove_var("GRIDTUNER_BOOTSTRAP");
        std::env::remove_var("GRIDTUNER_BOOTSTRAP_SEED");
    }
}
