//! The tuning session: the engine's stateful front door.
//!
//! A [`TuningSession`] owns the ingested event log, the one-pass
//! [`AlphaFieldCache`], the per-side model-error memo and the observability
//! root of the run. The tune flow is the stage pipeline
//! ingest → alpha → search → report; the `ingest`, `tune`, `uncertainty`
//! and `partition_search` spans mark its phases, and every failure
//! surfaces as a typed [`EngineError`].
//!
//! **Incremental re-tune.** Appending events with [`ingest`] after a tune
//! does *not* rebuild the pipeline: the delta goes through
//! [`AlphaFieldCache::append`] (one partial scan, `O(|delta|)`), the
//! derived α memo is invalidated only if the delta touched the window, and
//! the model-error memo survives unless the model source declares itself
//! data-dependent. The resulting session is **bit-identical** to one built
//! from scratch on the concatenated log — the testkit pins this down
//! across thread counts.
//!
//! [`ingest`]: TuningSession::ingest

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::uncertainty::{run_bootstrap, ReplicateSetup, UncertaintyReport};
use gridtuner_core::alpha_cache::AlphaFieldCache;
use gridtuner_core::error::CoreError;
use gridtuner_core::search::SearchOutcome;
use gridtuner_core::upper_bound::ModelErrorSource;
use gridtuner_obs as obs;
use gridtuner_spatial::{Event, Partition};
use std::collections::HashMap;

/// What one [`TuningSession::ingest`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Events appended to the session log.
    pub ingested: usize,
    /// How many of them entered the α window's digest.
    pub matched: usize,
    /// Whether the delta invalidated derived α fields (and, for
    /// data-dependent models, the model-error memo).
    pub invalidated: bool,
    /// Session log size after the append.
    pub total_events: usize,
}

/// Outcome of one tune: the winning partition, the search trace, the
/// uncertainty block and the session's own scan and memo counts. Every
/// field is a function of the session's inputs alone: process-wide
/// telemetry (kernel, pool and lock counters) lives in the `obs`
/// registry, not here.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// The selected partition (MGrid side = `outcome.side`).
    pub partition: Partition,
    /// The search trace (selected side, error, evaluation count, probes).
    pub outcome: SearchOutcome,
    /// Delta (append-only) passes — one per [`ingest`] call that found the
    /// α cache already built.
    ///
    /// [`ingest`]: TuningSession::ingest
    pub alpha_delta_scans: u64,
    /// Probes served from the per-side model-error memo during this tune —
    /// the incremental re-tune dividend.
    pub model_memo_hits: usize,
    /// Bootstrap confidence set and stability verdict — present when the
    /// session config enables [`bootstrap`](EngineConfig::bootstrap).
    pub uncertainty: Option<UncertaintyReport>,
}

/// The model leg at `side`, served from `memo` when present; the flag says
/// whether it was a memo hit.
pub(crate) fn memoised_model_error<S: ModelErrorSource>(
    model: &mut S,
    memo: &mut HashMap<u32, f64>,
    side: u32,
) -> Result<(f64, bool), CoreError> {
    if let Some(&m) = memo.get(&side) {
        return Ok((m, true));
    }
    let m = model.model_error(side)?;
    memo.insert(side, m);
    Ok((m, false))
}

/// Renders a worker panic payload for [`EngineError::Internal`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// A stateful tuning run: dataset handle, α cache and model-error memo in
/// one place. Create with [`TuningSession::new`], feed with
/// [`ingest`](Self::ingest), run with [`tune`](Self::tune).
pub struct TuningSession<S> {
    config: EngineConfig,
    events: Vec<Event>,
    cache: Option<AlphaFieldCache>,
    model: S,
    model_memo: HashMap<u32, f64>,
}

impl<S> TuningSession<S> {
    /// Validates `config` and opens an empty session around `model`.
    pub fn new(config: EngineConfig, model: S) -> Result<Self, EngineError> {
        config.validate()?;
        Ok(TuningSession {
            config,
            events: Vec::new(),
            cache: None,
            model,
            model_memo: HashMap::new(),
        })
    }

    /// The session's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The ingested event log, in ingestion order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events that survived the α window filter (0 before the first scan).
    pub fn digest_len(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.digest_len())
    }

    /// The α cache, once the alpha stage has run.
    pub fn alpha_cache(&self) -> Option<&AlphaFieldCache> {
        self.cache.as_ref()
    }

    /// The model-error source.
    pub fn model(&self) -> &S {
        &self.model
    }

    /// Number of sides with a memoised model error.
    pub fn memoised_sides(&self) -> usize {
        self.model_memo.len()
    }

    /// Whether the model error at `side` is memoised (serving it costs no
    /// model evaluation).
    pub(crate) fn has_model_error(&self, side: u32) -> bool {
        self.model_memo.contains_key(&side)
    }

    /// Hands out a dispatch simulator for the configured case study.
    pub fn simulator(&self) -> Result<gridtuner_dispatch::Simulator, EngineError> {
        let sim = self.config.sim.ok_or_else(|| {
            EngineError::Config(
                "no dispatch configuration: set EngineConfig::builder().sim(...)".into(),
            )
        })?;
        Ok(gridtuner_dispatch::Simulator::new(sim))
    }

    /// The α cache, built on first use — the partition-refinement search
    /// shares the session's single-scan cache through this.
    pub(crate) fn cache_handle(&mut self) -> Result<&AlphaFieldCache, EngineError> {
        self.ensure_cache();
        self.cache
            .as_ref()
            .ok_or_else(|| EngineError::Internal("α cache missing after the alpha stage".into()))
    }

    /// The α stage: build the cache on first use (the session's single
    /// full scan), serve it afterwards.
    fn ensure_cache(&mut self) {
        if self.cache.is_none() {
            self.cache = Some(AlphaFieldCache::new(
                &self.events,
                &self.config.clock,
                &self.config.alpha_window,
            ));
        }
    }
}

impl<S: ModelErrorSource> TuningSession<S> {
    /// Appends `events` to the session log.
    ///
    /// The first ingest (or the first [`tune`](Self::tune)) performs the
    /// session's one full α scan; every later ingest is an `O(|delta|)`
    /// append that invalidates only what the delta actually touched.
    /// Events with non-finite coordinates are rejected as
    /// [`EngineError::Data`] before anything is mutated.
    pub fn ingest(&mut self, events: &[Event]) -> Result<IngestReport, EngineError> {
        let _span = obs::span!("ingest", events = events.len());
        for (i, e) in events.iter().enumerate() {
            if !e.loc.x.is_finite() || !e.loc.y.is_finite() {
                return Err(EngineError::Data(format!(
                    "event {i} has a non-finite coordinate ({}, {})",
                    e.loc.x, e.loc.y
                )));
            }
        }
        let matched = match &mut self.cache {
            None => {
                self.events.extend_from_slice(events);
                let cache = AlphaFieldCache::new(
                    &self.events,
                    &self.config.clock,
                    &self.config.alpha_window,
                );
                let matched = cache.digest_len();
                self.cache = Some(cache);
                matched
            }
            Some(cache) => {
                let matched = cache.append(events, &self.config.clock, &self.config.alpha_window);
                self.events.extend_from_slice(events);
                matched
            }
        };
        // A data-dependent model reads the whole log, window or not: any
        // delta dirties its memo. Analytic sources keep theirs.
        let model_dirty = !events.is_empty() && self.model.data_dependent();
        if model_dirty {
            self.model_memo.clear();
        }
        Ok(IngestReport {
            ingested: events.len(),
            matched,
            invalidated: matched > 0 || model_dirty,
            total_events: self.events.len(),
        })
    }

    /// Runs the configured search: every probe is Algorithm 3 (expression
    /// error from the α cache plus the memoised model leg), driven by the
    /// `try_*` searcher of the configured strategy. Probes run in search
    /// order on this thread; each probe's expression sweep fans out over
    /// the worker pool, so the result is bit-identical for every
    /// `GRIDTUNER_THREADS`, and `GRIDTUNER_THREADS=1` is the sequential
    /// run. The model source is only ever called from this thread, so it
    /// need not be `Sync`.
    pub fn tune(&mut self) -> Result<TuneReport, EngineError> {
        let (lo, hi) = self.config.side_range;
        let _span = obs::span!("tune", lo = lo, hi = hi, events = self.events.len());
        self.ensure_cache();
        let budget = self.config.hgrid_budget_side;
        let strategy = self.config.strategy;
        let mut memo_hits = 0usize;
        let outcome = {
            let cache = self.cache.as_ref().ok_or_else(|| {
                EngineError::Internal("α cache missing after the alpha stage".into())
            })?;
            let model = &mut self.model;
            let memo = &mut self.model_memo;
            let mut probe = |side: u32| -> Result<f64, CoreError> {
                let _span = obs::span!("probe", side = side);
                obs::counter!("tune.probes").inc();
                let part = Partition::for_budget(side, budget);
                let expr = cache.expression_error(&part)?;
                let (model_err, hit) = memoised_model_error(model, memo, side)?;
                memo_hits += usize::from(hit);
                let total = expr + model_err;
                obs::event!(
                    "probe",
                    side = side,
                    expression_error = expr,
                    model_error = model_err,
                    total = total,
                );
                Ok(total)
            };
            let search = move || strategy.run(&mut probe, lo, hi);
            // A panic below (a worker's, re-raised on this thread, or the
            // probe's own) must surface as a typed Internal error, not
            // tear down the caller.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(search)) {
                Ok(result) => result?,
                Err(payload) => {
                    return Err(EngineError::Internal(format!(
                        "tune worker panicked: {}",
                        panic_message(payload.as_ref())
                    )))
                }
            }
        };
        let uncertainty = self.run_uncertainty(&outcome)?;
        let cache = self.cache.as_ref().ok_or_else(|| {
            EngineError::Internal("α cache missing after the search stage".into())
        })?;
        Ok(TuneReport {
            partition: Partition::for_budget(outcome.side, budget),
            outcome,
            alpha_delta_scans: cache.delta_scans(),
            model_memo_hits: memo_hits,
            uncertainty,
        })
    }

    /// The uncertainty stage: B replicate tunes run side by side on the
    /// worker pool, each on a bootstrap replicate drawn into the session
    /// cache's window digest and sharing its warm pmf memo. The model leg
    /// is served from the session memo; sides it lacks are measured on
    /// this thread between rounds (see the module docs of
    /// [`crate::uncertainty`]). No-op unless the config enables it.
    fn run_uncertainty(
        &mut self,
        point: &SearchOutcome,
    ) -> Result<Option<UncertaintyReport>, EngineError> {
        let Some(bcfg) = self.config.bootstrap else {
            return Ok(None);
        };
        let cache = self.cache.as_ref().ok_or_else(|| {
            EngineError::Internal("α cache missing before the uncertainty stage".into())
        })?;
        let setup = ReplicateSetup {
            strategy: self.config.strategy,
            lo: self.config.side_range.0,
            hi: self.config.side_range.1,
            budget: self.config.hgrid_budget_side,
        };
        let model = &mut self.model;
        let memo = &mut self.model_memo;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_bootstrap(cache, &setup, bcfg, point, model, memo)
        })) {
            Ok(result) => result.map(Some),
            Err(payload) => Err(EngineError::Internal(format!(
                "uncertainty worker panicked: {}",
                panic_message(payload.as_ref())
            ))),
        }
    }

    /// Memoised model error at one side (outside a search).
    pub fn model_error(&mut self, side: u32) -> Result<f64, EngineError> {
        Ok(memoised_model_error(&mut self.model, &mut self.model_memo, side)?.0)
    }

    /// Expression error at one side, served from the α cache (building it
    /// on first use). Routes through the batched kernel and the session's
    /// pmf memo, so a post-tune decomposition query is nearly free.
    pub fn expression_error(&mut self, side: u32) -> Result<f64, EngineError> {
        self.ensure_cache();
        let budget = self.config.hgrid_budget_side;
        let part = Partition::for_budget(side, budget);
        match self.cache.as_ref() {
            None => Ok(0.0),
            Some(cache) => Ok(cache.expression_error(&part)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_core::alpha::AlphaWindow;
    use gridtuner_core::search::SearchStrategy;
    use gridtuner_spatial::Point;

    fn skewed_events(n: usize, days: u32) -> Vec<Event> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut out = Vec::new();
        for d in 0..days {
            for i in 0..n {
                let (x, y) = if i % 2 == 0 {
                    (
                        0.2 + 0.2 * (unit() + unit()) / 2.0,
                        0.2 + 0.2 * (unit() + unit()) / 2.0,
                    )
                } else {
                    (unit(), unit())
                };
                out.push(Event::new(Point::new(x, y), d * 24 * 60 + (i % 30) as u32));
            }
        }
        out
    }

    fn cfg(strategy: SearchStrategy) -> EngineConfig {
        EngineConfig::builder()
            .hgrid_budget_side(64)
            .side_range(2, 20)
            .strategy(strategy)
            .alpha_window(AlphaWindow {
                slot_of_day: 0,
                day_start: 0,
                day_end: 7,
                weekdays_only: false,
            })
            .build()
            .unwrap()
    }

    fn model(s: u32) -> f64 {
        (s * s) as f64 * 1.5
    }

    /// Tunes `events` from scratch in a fresh session.
    fn tune_once(strategy: SearchStrategy, events: &[Event]) -> TuneReport {
        let mut session = TuningSession::new(cfg(strategy), model).unwrap();
        session.ingest(events).unwrap();
        session.tune().unwrap()
    }

    #[test]
    fn session_tune_matches_direct_search_bitwise() {
        // The independent reference: Algorithm 3 as a plain closure over a
        // fresh α cache, driven straight through the `try_*` searcher — no
        // session, no memo.
        let events = skewed_events(600, 7);
        for strategy in [
            SearchStrategy::BruteForce,
            SearchStrategy::Ternary,
            SearchStrategy::Iterative { init: 16, bound: 4 },
        ] {
            let config = cfg(strategy);
            let cache = AlphaFieldCache::new(&events, &config.clock, &config.alpha_window);
            let budget = config.hgrid_budget_side;
            let probe =
                |s: u32| Ok(cache.expression_error(&Partition::for_budget(s, budget))? + model(s));
            let direct = strategy.run(probe, 2, 20).unwrap();
            let report = tune_once(strategy, &events);
            assert_eq!(report.outcome.side, direct.side, "{strategy:?}");
            assert_eq!(
                report.outcome.error.to_bits(),
                direct.error.to_bits(),
                "{strategy:?}"
            );
            assert_eq!(report.outcome.probes, direct.probes, "{strategy:?}");
        }
    }

    /// Events concentrated in one corner of the map, every day at slot 0.
    fn corner_events(days: u32, per_day: usize) -> Vec<Event> {
        let mut out = Vec::new();
        for d in 0..days {
            for i in 0..per_day {
                let f = i as f64 / per_day as f64;
                out.push(Event::new(
                    Point::new(0.05 + 0.1 * f, 0.05 + 0.07 * ((i * 7) % 10) as f64 / 10.0),
                    d * 24 * 60,
                ));
            }
        }
        out
    }

    /// A brute-force session over sides 1..=16 at `√N = 16` with the
    /// linear-in-n model leg `coef · s²`.
    fn corner_session(events: &[Event], coef: f64) -> TuningSession<impl FnMut(u32) -> f64> {
        let config = EngineConfig {
            hgrid_budget_side: 16,
            side_range: (1, 16),
            ..cfg(SearchStrategy::BruteForce)
        };
        let mut session = TuningSession::new(config, move |s: u32| (s * s) as f64 * coef).unwrap();
        session.ingest(events).unwrap();
        session
    }

    #[test]
    fn upper_bound_is_sum_of_legs() {
        let mut session = corner_session(&corner_events(7, 40), 0.1);
        let report = session.tune().unwrap();
        for &(side, e) in &report.outcome.probes {
            let expr = session.expression_error(side).unwrap();
            let model = session.model_error(side).unwrap();
            assert_eq!(e.to_bits(), (expr + model).to_bits(), "side {side}");
        }
        assert!(
            session.expression_error(4).unwrap() > 0.0,
            "concentrated events must have expression error"
        );
    }

    #[test]
    fn expression_leg_decreases_and_model_leg_increases() {
        let mut session = corner_session(&corner_events(7, 60), 0.5);
        let e_coarse = session.expression_error(1).unwrap();
        let e_fine = session.expression_error(16).unwrap();
        assert!(
            e_coarse > e_fine,
            "expression: coarse {e_coarse} fine {e_fine}"
        );
        assert!(session.model_error(16).unwrap() > session.model_error(1).unwrap());
    }

    #[test]
    fn induced_curve_is_u_shaped() {
        // With a linear-in-n model error and a concentrated α field, e(s)
        // must dip somewhere strictly inside the range (the paper's
        // decrease-then-increase claim, Sec. III-C). The model-error slope
        // is chosen so the right edge (where the expression error vanishes
        // because m = 1) is clearly worse than the interior.
        let report = corner_session(&corner_events(7, 200), 2.0).tune().unwrap();
        let curve = &report.outcome.probes;
        assert_eq!(curve.len(), 16);
        assert!(
            report.outcome.side > 1 && report.outcome.side < 16,
            "minimum at the boundary: side={}, curve={curve:?}",
            report.outcome.side
        );
    }

    #[test]
    fn all_strategies_land_near_brute_force() {
        let events = skewed_events(1_200, 7);
        let bf = tune_once(SearchStrategy::BruteForce, &events).outcome;
        let tern = tune_once(SearchStrategy::Ternary, &events).outcome;
        let iter = tune_once(SearchStrategy::Iterative { init: 16, bound: 4 }, &events).outcome;
        // Heuristics land near the optimum but are not guaranteed to hit it
        // (the paper's Table IV reports 52–96% hit probabilities and ≥ 97%
        // optimal ratios); 10% headroom accommodates the jagged tail.
        assert!(tern.error <= bf.error * 1.10);
        assert!(iter.error <= bf.error * 1.10);
        // And use strictly fewer model trainings.
        assert!(tern.evals < bf.evals);
        assert!(iter.evals < bf.evals);
    }

    #[test]
    fn result_partition_matches_selected_side() {
        let report = tune_once(SearchStrategy::BruteForce, &skewed_events(1_200, 7));
        assert_eq!(report.partition.mgrid_side(), report.outcome.side);
        assert!(report.partition.total_hgrids() >= 64 * 64);
    }

    #[test]
    fn incremental_ingest_matches_rebuild_bitwise() {
        let all = skewed_events(400, 7);
        let (old, delta) = all.split_at(900);
        let mk = || TuningSession::new(cfg(SearchStrategy::BruteForce), model);
        let mut incremental = mk().unwrap();
        incremental.ingest(old).unwrap();
        incremental.tune().unwrap(); // warm every memo, then perturb
        let ingest = incremental.ingest(delta).unwrap();
        assert!(ingest.matched > 0);
        assert!(ingest.invalidated);
        let re = incremental.tune().unwrap();
        let mut fresh = mk().unwrap();
        fresh.ingest(&all).unwrap();
        let scratch = fresh.tune().unwrap();
        assert_eq!(re.outcome.side, scratch.outcome.side);
        assert_eq!(re.outcome.error.to_bits(), scratch.outcome.error.to_bits());
        assert_eq!(re.outcome.probes, scratch.outcome.probes);
        // The incremental session appended the delta in one partial scan...
        assert_eq!(re.alpha_delta_scans, 1);
        // ...and served every model probe from the memo (analytic source).
        assert_eq!(re.model_memo_hits, re.outcome.evals);
    }

    #[test]
    fn data_dependent_model_memo_is_dropped_by_a_delta() {
        /// The analytic `model` curve, declared data-dependent and counting
        /// its calls.
        struct Counting {
            calls: usize,
        }
        impl ModelErrorSource for Counting {
            fn model_error(&mut self, side: u32) -> Result<f64, CoreError> {
                self.calls += 1;
                Ok(model(side))
            }
            fn data_dependent(&self) -> bool {
                true
            }
        }
        let old = skewed_events(300, 7);
        // Slot 1 of day 0: outside the slot-0 window, so only the model
        // memo can be invalidated by this delta.
        let delta: Vec<Event> = old[..40]
            .iter()
            .map(|e| Event::new(e.loc, e.minute + 45))
            .collect();
        let mk = || TuningSession::new(cfg(SearchStrategy::BruteForce), Counting { calls: 0 });
        let mut session = mk().unwrap();
        session.ingest(&old).unwrap();
        let evals = session.tune().unwrap().outcome.evals;
        let ingest = session.ingest(&delta).unwrap();
        assert!(ingest.matched == 0 && ingest.invalidated, "{ingest:?}");
        assert_eq!(session.memoised_sides(), 0);
        let mut re = session.tune().unwrap();
        assert_eq!(session.model().calls, evals + re.outcome.evals);
        assert_eq!(re.model_memo_hits, 0, "every probed side re-measured");
        // Bit for bit a fresh session's report, but for its one delta scan
        // (`Debug` prints each f64's shortest round-trip form).
        let mut fresh = mk().unwrap();
        fresh.ingest(&[&old[..], &delta[..]].concat()).unwrap();
        assert_eq!(std::mem::take(&mut re.alpha_delta_scans), 1);
        assert_eq!(format!("{re:?}"), format!("{:?}", fresh.tune().unwrap()));
    }

    #[test]
    fn parallel_tune_matches_sequential() {
        // A one-worker budget is the sequential run. Results never depend
        // on the budget, so overriding it cannot disturb other tests.
        let events = skewed_events(500, 7);
        let prev = gridtuner_par::max_threads();
        gridtuner_par::set_max_threads(1);
        let s = tune_once(SearchStrategy::BruteForce, &events);
        gridtuner_par::set_max_threads(8);
        let p = tune_once(SearchStrategy::BruteForce, &events);
        gridtuner_par::set_max_threads(prev);
        assert_eq!(p.outcome.side, s.outcome.side);
        assert_eq!(p.outcome.error.to_bits(), s.outcome.error.to_bits());
        assert_eq!(p.outcome.probes, s.outcome.probes);
    }

    #[test]
    fn session_pmf_memo_serves_hits_across_tunes() {
        let events = skewed_events(400, 7);
        let mut session = TuningSession::new(cfg(SearchStrategy::BruteForce), model).unwrap();
        session.ingest(&events).unwrap();
        let first = session.tune().unwrap();
        let memo = |s: &TuningSession<_>| {
            let m = s.alpha_cache().unwrap().pmf_memo();
            (m.entries(), m.hits())
        };
        // Every probe sweeps the HGrid lattice through the kernel, whose
        // tables land in the session's pmf memo...
        let (entries, first_hits) = memo(&session);
        assert!(entries > 0);
        // ...and quantised α rates recur across probes, so the memo
        // serves hits within the very first tune...
        assert!(first_hits > 0);
        // ...and more on a warm re-tune, which still answers bit-identically.
        let second = session.tune().unwrap();
        assert!(memo(&session).1 > first_hits);
        assert_eq!(second.outcome, first.outcome);
    }

    #[test]
    fn bootstrap_tune_reports_a_confidence_set() {
        use crate::uncertainty::BootstrapConfig;
        let events = skewed_events(400, 7);
        let config = EngineConfig {
            bootstrap: Some(BootstrapConfig::new(8, 7)),
            ..cfg(SearchStrategy::BruteForce)
        };
        let mut session = TuningSession::new(config, model).unwrap();
        session.ingest(&events).unwrap();
        let hits_before = obs::counter!("boot.cache_hits").get();
        let report = session.tune().unwrap();
        let unc = report.uncertainty.as_ref().expect("bootstrap was enabled");
        assert_eq!(unc.replicates, 8);
        assert_eq!(unc.replicate_argmins.len(), 8);
        assert_eq!(unc.replicate_errors.len(), 8);
        assert_eq!(unc.point_side, report.outcome.side);
        assert!(
            unc.confidence_set.contains(&report.outcome.side),
            "confidence set {:?} must contain the point estimate {}",
            unc.confidence_set,
            report.outcome.side
        );
        assert!(unc.confidence_set.windows(2).all(|w| w[0] < w[1]));
        // Replicates share the session's warm pmf memo, so the stage
        // must see cache hits. Other tests only add to the process-wide
        // counter, so a positive change is this stage's own.
        assert!(obs::counter!("boot.cache_hits").get() > hits_before);
        // Every probed side carries a full dispersion row under brute
        // force (every replicate probes every side).
        assert!(unc.dispersion.iter().all(|d| d.samples == 8));
    }

    #[test]
    fn overlapping_sessions_report_what_each_reports_alone() {
        // Two sessions with the same inputs tune at the same time on two
        // threads, sharing the process's worker pool and obs registry;
        // each report must equal a solo run's, field for field.
        use crate::uncertainty::BootstrapConfig;
        use std::sync::Barrier;
        let events = skewed_events(400, 7);
        let config = EngineConfig {
            bootstrap: Some(BootstrapConfig::new(4, 11)),
            ..cfg(SearchStrategy::BruteForce)
        };
        let solo = {
            let mut s = TuningSession::new(config, model).unwrap();
            s.ingest(&events).unwrap();
            s.tune().unwrap()
        };
        let barrier = Barrier::new(2);
        let reports: Vec<TuneReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut s = TuningSession::new(config, model).unwrap();
                        s.ingest(&events).unwrap();
                        barrier.wait();
                        s.tune().unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for report in &reports {
            assert_eq!(report, &solo);
        }
    }

    #[test]
    fn bootstrap_is_deterministic() {
        use crate::uncertainty::BootstrapConfig;
        let events = skewed_events(300, 7);
        let config = EngineConfig {
            bootstrap: Some(BootstrapConfig::new(6, 2022)),
            ..cfg(SearchStrategy::BruteForce)
        };
        let run_seq = || {
            let mut s = TuningSession::new(config, model).unwrap();
            s.ingest(&events).unwrap();
            s.tune().unwrap()
        };
        let a = run_seq();
        let b = run_seq();
        assert_eq!(a.uncertainty, b.uncertainty, "same seed, same bits");
    }

    #[test]
    fn non_finite_events_are_a_data_error() {
        let mut session = TuningSession::new(cfg(SearchStrategy::BruteForce), model).unwrap();
        let bad = vec![Event::new(Point::new(f64::NAN, 0.5), 0)];
        let err = session.ingest(&bad).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert_eq!(session.events().len(), 0, "rejected delta must not land");
    }

    #[test]
    fn invalid_config_is_rejected_at_session_open() {
        let cfg = EngineConfig {
            side_range: (10, 2),
            ..EngineConfig::default()
        };
        let err = TuningSession::new(cfg, model).map(|_| ()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn model_failures_propagate_as_internal() {
        struct Failing;
        impl ModelErrorSource for Failing {
            fn model_error(&mut self, side: u32) -> Result<f64, CoreError> {
                Err(CoreError::Model {
                    side,
                    message: "synthetic failure".into(),
                })
            }
        }
        let mut session = TuningSession::new(cfg(SearchStrategy::BruteForce), Failing).unwrap();
        session.ingest(&skewed_events(50, 7)).unwrap();
        let err = session.tune().unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("synthetic failure"), "{err}");
    }

    #[test]
    fn stages_run_in_pipeline_order() {
        // The phase spans are the stage markers. On this thread the ingest
        // span closes before the tune span opens, and every unique probe
        // opens inside the tune. Other tests may record concurrently, so
        // only this thread's records count.
        let events = skewed_events(200, 7);
        let mut session = TuningSession::new(cfg(SearchStrategy::Ternary), model).unwrap();
        let buf = obs::trace::capture_to_buffer();
        obs::enable();
        session.ingest(&events).unwrap();
        let report = session.tune().unwrap();
        obs::disable();
        obs::trace::flush();
        let stream = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        obs::trace::clear_sink();
        let tid = obs::span::current_tid();
        let marks: Vec<String> = obs::json::parse_jsonl(&stream)
            .unwrap()
            .iter()
            .filter(|r| r.get("tid").and_then(|v| v.as_f64()) == Some(tid as f64))
            .filter_map(|r| {
                let t = r.get("t")?.as_str()?;
                let name = r.get("name")?.as_str()?;
                let is_span = t == "span_start" || t == "span_end";
                (is_span && matches!(name, "ingest" | "tune" | "probe"))
                    .then(|| format!("{t} {name}"))
            })
            .collect();
        let mut expected = vec!["span_start ingest", "span_end ingest", "span_start tune"];
        for _ in 0..report.outcome.evals {
            expected.extend(["span_start probe", "span_end probe"]);
        }
        expected.push("span_end tune");
        assert_eq!(marks, expected);
    }

    #[test]
    fn simulator_requires_a_sim_config() {
        let session = TuningSession::<fn(u32) -> f64>::new(
            cfg(SearchStrategy::BruteForce),
            model as fn(u32) -> f64,
        )
        .unwrap();
        let err = session.simulator().map(|_| ()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let sim = gridtuner_dispatch::SimConfig::for_geo(gridtuner_spatial::GeoBounds::xian());
        let with_sim = TuningSession::new(
            EngineConfig {
                sim: Some(sim),
                ..cfg(SearchStrategy::BruteForce)
            },
            model as fn(u32) -> f64,
        )
        .unwrap();
        with_sim.simulator().unwrap();
    }
}
