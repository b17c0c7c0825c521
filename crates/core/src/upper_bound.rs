//! Algorithm 3: `UpperBound(n, N, X, Model)` — the quantity the search
//! algorithms minimise.
//!
//! For an MGrid side `s` (`n = s²`), the upper bound of the total real
//! error is
//!
//! ```text
//! e(s) = n·MAE(f)  +  Σ_i Σ_j E_e(i, j)
//! ```
//!
//! The first term is supplied by a [`ModelErrorFn`] (training a prediction
//! model for side `s` and measuring its MGrid-level MAE — Eq. 20); the
//! second is computed analytically from the α field estimated on the
//! partition's HGrid lattice (Sec. III-B).

use crate::alpha::AlphaWindow;
use crate::alpha_cache::AlphaFieldCache;
use crate::error::CoreError;
use crate::search::ErrorOracle;
use gridtuner_obs as obs;
use gridtuner_spatial::{Event, Partition, SlotClock, SpatialPartition};

/// Integer square root (floor), exact for any region count.
fn isqrt(n: usize) -> u32 {
    let n = n as u64;
    let mut s = (n as f64).sqrt() as u64;
    while (s + 1).saturating_mul(s + 1) <= n {
        s += 1;
    }
    while s.saturating_mul(s) > n {
        s -= 1;
    }
    s as u32
}

/// The model-error leg of Algorithm 3: everything that knows how to train
/// and evaluate a prediction model at a given MGrid side.
pub trait ModelErrorFn {
    /// Total model error `Σ_i E|λ̂_i − λ_i| ≈ n·MAE(f)` at MGrid side `s`.
    fn total_model_error(&mut self, mgrid_side: u32) -> f64;
}

impl<F: FnMut(u32) -> f64> ModelErrorFn for F {
    fn total_model_error(&mut self, mgrid_side: u32) -> f64 {
        self(mgrid_side)
    }
}

/// The typed, fallible generalisation of [`ModelErrorFn`] — the model leg
/// of the engine's session API. `HistoricalAverage`-backed city models,
/// the nn predictors, and testkit's synthetic oracles all plug in through
/// this one trait; failures surface as [`CoreError::Model`] instead of
/// panicking mid-search.
pub trait ModelErrorSource {
    /// Total model error at MGrid side `s`, or a typed failure.
    fn model_error(&mut self, mgrid_side: u32) -> Result<f64, CoreError>;

    /// Whether the source reads the ingested event log. When true, a data
    /// delta invalidates the session's per-side model-error memo; analytic
    /// sources (the default) keep their memo across ingests.
    fn data_dependent(&self) -> bool {
        false
    }
}

impl<F: FnMut(u32) -> f64> ModelErrorSource for F {
    fn model_error(&mut self, mgrid_side: u32) -> Result<f64, CoreError> {
        Ok(self(mgrid_side))
    }
}

/// Adapter presenting any infallible [`ModelErrorFn`] (closures included)
/// as a [`ModelErrorSource`].
pub struct InfallibleSource<M>(pub M);

impl<M: ModelErrorFn> ModelErrorSource for InfallibleSource<M> {
    fn model_error(&mut self, mgrid_side: u32) -> Result<f64, CoreError> {
        Ok(self.0.total_model_error(mgrid_side))
    }
}

/// An [`ErrorOracle`] implementing Algorithm 3: expression error from
/// historical events + model error from a [`ModelErrorFn`].
///
/// Construction performs the **single** event-log pass of the tuning run:
/// the log is distilled into an [`AlphaFieldCache`], and every probe's α
/// field is derived from the cache's digest — `expression_error` never
/// touches the raw events again. [`alpha_rescans`](Self::alpha_rescans)
/// exposes the pass count so harnesses can assert the invariant.
pub struct UpperBoundOracle<M> {
    alpha: AlphaFieldCache,
    hgrid_budget_side: u32,
    model: M,
}

impl<M: ModelErrorFn> UpperBoundOracle<M> {
    /// Creates the oracle. `hgrid_budget_side` is `√N` (128 in the paper).
    /// Scans `events` exactly once, here.
    pub fn new(
        events: Vec<Event>,
        clock: SlotClock,
        window: AlphaWindow,
        hgrid_budget_side: u32,
        model: M,
    ) -> Self {
        assert!(hgrid_budget_side > 0, "HGrid budget side must be positive");
        UpperBoundOracle {
            alpha: AlphaFieldCache::new(&events, &clock, &window),
            hgrid_budget_side,
            model,
        }
    }

    /// The partition Algorithm 3 would use for a given side.
    pub fn partition_for(&self, side: u32) -> Partition {
        Partition::for_budget(side, self.hgrid_budget_side)
    }

    /// Expression-error leg only (useful for reporting the decomposition).
    /// Served from the α cache: no event-log access. Routes through the
    /// cache's batched kernel so the pmf memo stays warm across probes.
    pub fn expression_error(&self, side: u32) -> f64 {
        // (The "expression_error" span opens inside the batched sweep, the
        // common entry point for both this oracle and the harnesses.)
        let part = self.partition_for(side);
        match self.alpha.expression_error(&part) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Model-error leg only.
    pub fn model_error(&mut self, side: u32) -> f64 {
        self.model.total_model_error(side)
    }

    /// Expression-error leg for any [`SpatialPartition`] — the oracle's
    /// trait-parameterised face. Served from the same α cache and pmf memo
    /// as [`expression_error`](Self::expression_error); for a
    /// [`UniformGrid`](gridtuner_spatial::UniformGrid) of side `s` the
    /// result is bit-identical to `expression_error(s)` when the lattice
    /// sides coincide.
    pub fn partition_expression_error<P: SpatialPartition + Sync>(
        &self,
        partition: &P,
    ) -> Result<f64, CoreError> {
        self.alpha.partition_expression_error(partition)
    }

    /// Model-error leg for a partition with `n_regions` regions. The model
    /// trait only knows square sides, so a non-square region count is
    /// bracketed by the two nearest squares `s₁² ≤ R ≤ (s₁+1)²` and the
    /// error is interpolated linearly in `n` — exact for model curves
    /// linear in n (the analytic `c·n` sources the goldens use) and a
    /// monotone estimate otherwise.
    pub fn model_error_for_regions(&mut self, n_regions: usize) -> f64 {
        let s1 = isqrt(n_regions.max(1)).max(1);
        let n1 = (s1 as usize).pow(2);
        if n1 == n_regions.max(1) {
            return self.model.total_model_error(s1);
        }
        let s2 = s1 + 1;
        let n2 = (s2 as usize).pow(2);
        let lo = self.model.total_model_error(s1);
        let hi = self.model.total_model_error(s2);
        let t = (n_regions - n1) as f64 / (n2 - n1) as f64;
        lo + t * (hi - lo)
    }

    /// Theorem II.1's upper bound for an arbitrary partition: per-region
    /// expression error plus the region-count model leg.
    pub fn partition_bound<P: SpatialPartition + Sync>(
        &mut self,
        partition: &P,
    ) -> Result<f64, CoreError> {
        let expr = self.alpha.partition_expression_error(partition)?;
        Ok(expr + self.model_error_for_regions(partition.n_regions()))
    }

    /// Full event-log passes performed since construction (always 1).
    pub fn alpha_rescans(&self) -> u64 {
        self.alpha.full_scans()
    }

    /// The α cache backing this oracle.
    pub fn alpha_cache(&self) -> &AlphaFieldCache {
        &self.alpha
    }
}

impl<M: ModelErrorFn> ErrorOracle for UpperBoundOracle<M> {
    fn eval(&mut self, side: u32) -> f64 {
        #[cfg(feature = "check-invariants")]
        assert_eq!(
            self.alpha.full_scans(),
            1,
            "tuning hot path rescanned the event log"
        );
        let _span = obs::span!("probe", side = side);
        obs::counter!("tune.probes").inc();
        let expr = self.expression_error(side);
        let model = self.model.total_model_error(side);
        let total = expr + model;
        obs::event!(
            "probe",
            side = side,
            expression_error = expr,
            model_error = model,
            total = total,
        );
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_spatial::Point;

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

    fn window() -> AlphaWindow {
        AlphaWindow {
            slot_of_day: 0,
            day_start: 0,
            day_end: 7,
            weekdays_only: false,
        }
    }

    #[test]
    fn upper_bound_is_sum_of_legs() {
        let events = corner_events(7, 40);
        let clock = SlotClock::default();
        let mut oracle =
            UpperBoundOracle::new(events, clock, window(), 16, |s: u32| (s * s) as f64 * 0.1);
        let e = oracle.eval(4);
        let expr = oracle.expression_error(4);
        let model = oracle.model_error(4);
        assert!((e - (expr + model)).abs() < 1e-9);
        assert!(expr > 0.0, "concentrated events must have expression error");
    }

    #[test]
    fn expression_leg_decreases_and_model_leg_increases() {
        let events = corner_events(7, 60);
        let clock = SlotClock::default();
        let model = |s: u32| (s * s) as f64 * 0.5;
        let mut oracle = UpperBoundOracle::new(events, clock, window(), 16, model);
        let e_coarse = oracle.expression_error(1);
        let e_fine = oracle.expression_error(16);
        assert!(
            e_coarse > e_fine,
            "expression: coarse {e_coarse} fine {e_fine}"
        );
        assert!(oracle.model_error(16) > oracle.model_error(1));
    }

    #[test]
    fn induced_curve_is_u_shaped() {
        // With a linear-in-n model error and a concentrated α field, e(s)
        // must dip somewhere strictly inside the range (the paper's
        // decrease-then-increase claim, Sec. III-C). The model-error slope
        // is chosen so the right edge (where the expression error vanishes
        // because m = 1) is clearly worse than the interior.
        let events = corner_events(7, 200);
        let clock = SlotClock::default();
        let mut oracle =
            UpperBoundOracle::new(events, clock, window(), 16, |s: u32| (s * s) as f64 * 2.0);
        let curve: Vec<f64> = (1..=16).map(|s| oracle.eval(s)).collect();
        let min_idx = curve
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            min_idx > 0 && min_idx < curve.len() - 1,
            "minimum at the boundary: idx={min_idx}, curve={curve:?}"
        );
    }

    #[test]
    fn trait_parameterised_oracle_matches_square_path() {
        use gridtuner_spatial::UniformGrid;
        let events = corner_events(7, 60);
        let clock = SlotClock::default();
        let mut oracle =
            UpperBoundOracle::new(events, clock, window(), 16, |s: u32| (s * s) as f64 * 0.5);
        for side in [1u32, 3, 4] {
            let u = UniformGrid::for_budget(side, 16);
            let via_trait = oracle.partition_expression_error(&u).unwrap();
            let square = oracle.expression_error(side);
            assert_eq!(via_trait.to_bits(), square.to_bits(), "side {side}");
            // Square region counts take the exact (non-interpolated) leg.
            let bound = oracle.partition_bound(&u).unwrap();
            assert!((bound - oracle.eval(side)).abs() < 1e-12);
        }
    }

    #[test]
    fn region_model_leg_interpolates_linearly_in_n() {
        let events = corner_events(1, 1);
        let mut oracle =
            UpperBoundOracle::new(events, SlotClock::default(), window(), 16, |s: u32| {
                (s * s) as f64 * 0.5
            });
        // Linear-in-n model: interpolation is exact at every region count.
        for regions in [1usize, 2, 3, 5, 9, 12, 17, 100] {
            let got = oracle.model_error_for_regions(regions);
            assert!(
                (got - 0.5 * regions as f64).abs() < 1e-9,
                "R={regions}: {got}"
            );
        }
    }

    #[test]
    fn isqrt_is_exact() {
        for n in 0usize..2000 {
            let s = isqrt(n) as usize;
            assert!(s * s <= n && (s + 1) * (s + 1) > n, "n={n} s={s}");
        }
    }

    #[test]
    fn partition_for_respects_budget() {
        let events = corner_events(1, 1);
        let oracle =
            UpperBoundOracle::new(events, SlotClock::default(), window(), 128, |_s: u32| 0.0);
        for side in [1u32, 4, 16, 24, 76] {
            let p = oracle.partition_for(side);
            assert!(p.total_hgrids() >= 128 * 128, "side {side}");
            assert_eq!(p.mgrid_side(), side);
        }
    }
}
