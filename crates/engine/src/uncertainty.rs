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
//! Each replicate consumes its own splitmix64 stream from `(seed, index)`
//! — the same draws, in the same order, as
//! [`resample_events`](gridtuner_core::resample_events) — but never
//! materialises the resampled log: every drawn log index is mapped
//! through the session cache's "log index → window-digest slot" index, and
//! the hits are drawn straight into the replicate's α digest
//! ([`AlphaFieldCache::bootstrap_replicate`]). A one-slot window keeps a
//! few percent of the log (189k of 6.5M events on a Chengdu month), so a
//! replicate costs its draws rather than a copy and a rescan of the whole
//! log. The replicate cache *shares*
//! the session's warm [`PmfMemo`](gridtuner_core::PmfMemo) (bit-invisible:
//! a table is a pure function of its rate and a group value of its
//! `(a, b, m)` bits), so replicates read the group values the point tune
//! and earlier replicates left, and the session's own
//! search strategy runs on it through the `try_*` searchers.
//!
//! Replicates run side by side: each is one [`par_map`] item, drawn and
//! searched on whichever thread claimed it, with its expression sweeps
//! inline there (a nested dispatch runs inline, in the same association
//! as a fanned-out one). Its cache is dropped when the item returns, so
//! each worker holds at most one replicate cache at a time. With one
//! worker, or fewer than four replicates, `par_map` runs the items inline
//! in index order and the sweeps inside fan out over the pool instead.
//!
//! The model leg stays on the calling thread, because a source need not
//! be `Sync` (a per-probe trainer usually is not). So the stage runs in
//! **rounds**. Workers read the session's model memo as it stands. A
//! replicate that probes a side the memo lacks stops there and reports
//! the side, keeping the expression errors it has computed. Between
//! rounds the calling thread measures each missing side once and re-runs
//! only the stalled replicates, which replay their kept expression errors
//! instead of sweeping again. Brute force always finishes in one round,
//! because the point search has already measured every side in the
//! range; adaptive strategies take another round only when a replicate
//! walks to a side the point search never probed. The contract that
//! makes this exact is the one the memo already relies on: the model
//! error is a pure function of the side. Each replicate's result is then
//! a function of its draws alone, so the whole stage is bit-identical
//! across `GRIDTUNER_THREADS` 1/2/8 — the testkit pins the full
//! confidence set, not just the argmin.
//!
//! The bootstrap perturbs the **expression leg only**: the model-error leg
//! is served per side from the session's model source (memoised), because
//! resampling the α window says nothing about model capacity and
//! re-training per replicate would swamp the stage. With analytic model
//! sources a replicate tune is therefore *exactly* the tune of the
//! materialised resampled log. The materialised log survives only as that
//! oracle: the `bootstrap-replicate-vs-direct` pair re-tunes
//! `resample_events` output in a fresh session and checks each replicate
//! bitwise.

use crate::error::EngineError;
use crate::session::memoised_model_error;
use gridtuner_core::alpha_cache::AlphaFieldCache;
use gridtuner_core::error::CoreError;
use gridtuner_core::search::{SearchOutcome, SearchStrategy};
use gridtuner_core::upper_bound::ModelErrorSource;
use gridtuner_obs as obs;
use gridtuner_par::par_map;
use gridtuner_spatial::Partition;
use std::collections::{BTreeMap, HashMap};

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

/// Everything [`run_bootstrap`] needs to replay a tune on a replicate
/// cache: the session's search geometry, without the session.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplicateSetup {
    pub strategy: SearchStrategy,
    pub lo: u32,
    pub hi: u32,
    pub budget: u32,
}

/// A replicate still to run: its index and the expression errors its
/// earlier, stalled attempts already computed, by side.
struct Pending {
    index: u64,
    exprs: HashMap<u32, f64>,
}

/// How one attempt at a replicate ended.
enum Attempt {
    /// The search ran to the end (or failed for a reason of its own).
    Finished(Result<SearchOutcome, CoreError>),
    /// The search probed `side`, whose model leg the round's memo lacks.
    /// `next.exprs` keeps every expression error computed so far, so the
    /// re-run replays them instead of sweeping again.
    Stalled { side: u32, next: Pending },
}

/// One attempt at replicate `pending.index`: the session's search over the
/// replicate's α cache, with the model leg read from `known` (the session
/// memo, frozen for the round). The replicate cache is drawn on the first
/// expression this attempt has not seen yet and dropped on return, so a
/// worker holds at most one replicate cache at a time.
fn attempt_replicate(
    cache: &AlphaFieldCache,
    setup: &ReplicateSetup,
    config: BootstrapConfig,
    stage: u64,
    pending: &Pending,
    known: &HashMap<u32, f64>,
) -> Attempt {
    let _rep = obs::span!(parent = stage; "uncertainty.replicate", index = pending.index);
    let mut exprs = pending.exprs.clone();
    let mut replicate: Option<AlphaFieldCache> = None;
    let mut stalled = None;
    let mut probe = |side: u32| -> Result<f64, CoreError> {
        let expr = match exprs.get(&side) {
            Some(&e) => e,
            None => {
                let drawn = replicate
                    .get_or_insert_with(|| cache.bootstrap_replicate(config.seed, pending.index));
                let e = drawn.expression_error(&Partition::for_budget(side, setup.budget))?;
                exprs.insert(side, e);
                e
            }
        };
        match known.get(&side) {
            Some(&m) => Ok(expr + m),
            None => {
                // Abort the search; the error never leaves this function.
                stalled = Some(side);
                Err(CoreError::Model {
                    side,
                    message: "model leg not measured yet".into(),
                })
            }
        }
    };
    let result = setup.strategy.run(&mut probe, setup.lo, setup.hi);
    match stalled {
        Some(side) => Attempt::Stalled {
            side,
            next: Pending {
                index: pending.index,
                exprs,
            },
        },
        None => Attempt::Finished(result),
    }
}

/// Runs the bootstrap: B replicate tunes, each on a replicate cache drawn
/// from `cache` (the session's, whose pmf memo they share), folded into
/// an [`UncertaintyReport`].
///
/// Replicates run side by side, one per [`par_map`] item, with their
/// expression sweeps inline on the thread that claimed them. The model
/// leg stays on the calling thread (`S` need not be `Sync`), so the stage
/// runs in rounds: workers read `memo` as it stands, a replicate that
/// probes a side the memo lacks stops and reports it, and between rounds
/// this thread measures each missing side once through
/// [`memoised_model_error`] and re-runs only the stalled replicates.
/// Each replicate's result is a function of its draws and the per-side
/// model values alone, so the report is bit-identical at every
/// `GRIDTUNER_THREADS`. When replicates fail, the error of the lowest
/// replicate index is returned.
pub(crate) fn run_bootstrap<S: ModelErrorSource>(
    cache: &AlphaFieldCache,
    setup: &ReplicateSetup,
    config: BootstrapConfig,
    point: &SearchOutcome,
    model: &mut S,
    memo: &mut HashMap<u32, f64>,
) -> Result<UncertaintyReport, EngineError> {
    let stage = obs::span!(
        "uncertainty",
        replicates = config.replicates,
        seed = config.seed
    );
    let hits_base = cache.pmf_memo().hits();
    obs::counter!("boot.replicates").add(u64::from(config.replicates));
    let mut results: Vec<Option<Result<SearchOutcome, CoreError>>> =
        vec![None; config.replicates as usize];
    let mut pending: Vec<Pending> = (0..u64::from(config.replicates))
        .map(|index| Pending {
            index,
            exprs: HashMap::new(),
        })
        .collect();
    // Sides whose model leg failed: each is measured once, like a success.
    let mut failed: HashMap<u32, CoreError> = HashMap::new();
    while !pending.is_empty() {
        let known = &*memo;
        let attempts = par_map(&pending, |p| {
            attempt_replicate(cache, setup, config, stage.id(), p, known)
        });
        let mut stalled = Vec::new();
        for (p, attempt) in pending.iter().zip(attempts) {
            let (side, next) = match attempt {
                Attempt::Finished(result) => {
                    results[p.index as usize] = Some(result);
                    continue;
                }
                Attempt::Stalled { side, next } => (side, next),
            };
            let served = match failed.get(&side) {
                Some(e) => Err(e.clone()),
                None => memoised_model_error(model, memo, side),
            };
            match served {
                Ok(_) => stalled.push(next),
                Err(e) => {
                    failed.entry(side).or_insert_with(|| e.clone());
                    results[next.index as usize] = Some(Err(e));
                }
            }
        }
        pending = stalled;
    }
    obs::counter!("boot.cache_hits").add(cache.pmf_memo().hits().saturating_sub(hits_base));

    let mut replicate_argmins = Vec::with_capacity(results.len());
    let mut replicate_errors = Vec::with_capacity(results.len());
    // Per-side accumulators over every replicate probe, ordered by side.
    let mut spread: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for result in results {
        let outcome = result.ok_or_else(|| {
            EngineError::Internal("a bootstrap replicate never finished".into())
        })??;
        for &(side, err) in &outcome.probes {
            spread.entry(side).or_default().push(err);
        }
        replicate_argmins.push(outcome.side);
        replicate_errors.push(outcome.error);
    }

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
}
