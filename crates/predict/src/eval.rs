//! Model-error measurement, and the bridge into the OGSS search.
//!
//! Eq. 20 of the paper: `Σ_i Σ_j E_m(i,j) = Σ_i E|λ̂_i − λ_i| ≈ n·MAE(f)`.
//! [`try_total_model_error`] measures exactly that (the slot-averaged
//! MGrid L1 bias); [`CityModelError`] packages "sample a training series
//! at side `s`, fit a fresh predictor, evaluate on validation slots" as a
//! [`ModelErrorSource`], the model leg of Algorithm 3.

use crate::error::PredictError;
use crate::features::FeatureConfig;
use crate::models::Predictor;
use gridtuner_core::error::CoreError;
use gridtuner_core::upper_bound::ModelErrorSource;
use gridtuner_datagen::{City, DataSplit};
use gridtuner_spatial::{CountSeries, GridSpec, SlotClock, SlotId};
use rand::{rngs::StdRng, SeedableRng};

/// All global slots belonging to days `[days.0, days.1)`.
pub fn slots_in_days(clock: &SlotClock, days: (u32, u32)) -> Vec<SlotId> {
    (days.0..days.1)
        .flat_map(|d| (0..clock.slots_per_day()).map(move |s| (d, s)))
        .map(|(d, s)| clock.slot_at(d, s))
        .collect()
}

/// Mean over `eval_slots` of `Σ_i |λ̂_i − λ_i|` — the total model error of
/// Eq. 20. Slots beyond the series horizon are skipped; an unfitted model,
/// lattice mismatch or empty evaluable set is a typed error.
pub fn try_total_model_error<P: Predictor + ?Sized>(
    model: &mut P,
    series: &CountSeries,
    clock: &SlotClock,
    eval_slots: &[SlotId],
) -> Result<f64, PredictError> {
    let mut acc = 0.0;
    let mut used = 0usize;
    for &slot in eval_slots {
        if slot.index() >= series.n_slots() {
            continue;
        }
        let pred = model.try_predict(series, clock, slot)?;
        let actual = series.slot_matrix(slot);
        acc += pred.l1_distance(&actual)?;
        used += 1;
    }
    if used == 0 {
        return Err(PredictError::NoEvaluableSlots);
    }
    Ok(acc / used as f64)
}

/// The model leg of Algorithm 3 for a synthetic [`City`]: each call samples
/// a fresh count series at the requested MGrid side, fits a fresh predictor
/// from the factory, and reports the validation model error. Deterministic
/// per (seed, side).
pub struct CityModelError<F> {
    city: City,
    split: DataSplit,
    factory: F,
    seed: u64,
    /// Evaluate on at most this many validation slots (0 = all).
    max_eval_slots: usize,
}

impl<F: FnMut() -> Box<dyn Predictor>> CityModelError<F> {
    /// Creates the oracle.
    pub fn new(city: City, split: DataSplit, seed: u64, factory: F) -> Self {
        CityModelError {
            city,
            split,
            factory,
            seed,
            max_eval_slots: 0,
        }
    }

    /// Caps the number of validation slots (cheaper searches).
    pub fn with_max_eval_slots(mut self, n: usize) -> Self {
        self.max_eval_slots = n;
        self
    }

    /// Fits a predictor at `side` and returns `(model error, series)` —
    /// useful when the caller also needs the sampled series. Evaluation
    /// failures surface as typed errors.
    pub fn try_measure(&mut self, side: u32) -> Result<(f64, CountSeries), PredictError> {
        let _span = gridtuner_obs::span!("model_error", side = side);
        let clock = *self.city.clock();
        let spec = GridSpec::new(side);
        let horizon = (self.split.val_days.1 * clock.slots_per_day()) as usize;
        let mut rng = StdRng::seed_from_u64(self.seed ^ (side as u64) << 32);
        let series = self.city.sample_count_series(spec, horizon, &mut rng);
        let mut model = (self.factory)();
        let train_end = clock.slot_at(self.split.train_days.1, 0);
        model.fit(&series, &clock, train_end);
        // Evaluate only slots with a full feature window for the richest
        // model we ship (closeness 8 ⇒ the first day of validation always
        // qualifies).
        let mut slots = slots_in_days(&clock, self.split.val_days);
        let min_slot = FeatureConfig {
            closeness: 8,
            period_days: 3,
            trend_weeks: 2,
        }
        .first_usable_slot(&clock);
        slots.retain(|s| s.0 >= min_slot);
        if self.max_eval_slots > 0 && slots.len() > self.max_eval_slots {
            slots.truncate(self.max_eval_slots);
        }
        let err = try_total_model_error(model.as_mut(), &series, &clock, &slots)?;
        Ok((err, series))
    }
}

/// The session-API face of the city model oracle: the
/// [`try_measure`](CityModelError::try_measure) error, with failures typed
/// as [`CoreError::Model`]. The series is re-sampled per (seed, side) from the city's
/// generator — not from the session's ingested log — so a data delta does
/// not invalidate memoised values (`data_dependent` stays false).
impl<F: FnMut() -> Box<dyn Predictor>> ModelErrorSource for CityModelError<F> {
    fn model_error(&mut self, mgrid_side: u32) -> Result<f64, CoreError> {
        self.try_measure(mgrid_side)
            .map(|(e, _)| e)
            .map_err(|e| CoreError::Model {
                side: mgrid_side,
                message: e.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{HistoricalAverage, Mlp, TrainConfig};

    fn tiny_city() -> City {
        City::xian().scaled(0.01)
    }

    fn tiny_split() -> DataSplit {
        DataSplit {
            train_days: (0, 15),
            val_days: (15, 17),
            test_day: 17,
        }
    }

    #[test]
    fn slots_in_days_enumerates_all() {
        let clock = SlotClock::default();
        let slots = slots_in_days(&clock, (2, 4));
        assert_eq!(slots.len(), 96);
        assert_eq!(slots[0], clock.slot_at(2, 0));
        assert_eq!(*slots.last().unwrap(), clock.slot_at(3, 47));
    }

    #[test]
    fn total_model_error_matches_manual_for_ha() {
        let clock = SlotClock::default();
        // Deterministic series: constant 3 per cell on weekdays at all
        // slots; HA should predict it perfectly on a weekday.
        let mut series = CountSeries::zeros(2, 48 * 8);
        for t in 0..48 * 8 {
            let slot = SlotId(t);
            if clock.is_weekday(slot) {
                for v in series.slot_mut(slot) {
                    *v = 3.0;
                }
            }
        }
        let mut ha = HistoricalAverage::new();
        ha.fit(&series, &clock, SlotId(48 * 7));
        let err = try_total_model_error(&mut ha, &series, &clock, &[clock.slot_at(7, 10)]).unwrap();
        assert!(err.abs() < 1e-9, "err = {err}");
    }

    #[test]
    fn model_error_grows_with_n_for_ha() {
        // The paper's Fig. 4 trend: finer grids → larger total model error.
        let city = tiny_city();
        let mk = || Box::new(HistoricalAverage::new()) as Box<dyn Predictor>;
        let mut oracle = CityModelError::new(city, tiny_split(), 7, mk).with_max_eval_slots(24);
        let coarse = oracle.model_error(2).unwrap();
        let mid = oracle.model_error(8).unwrap();
        let fine = oracle.model_error(16).unwrap();
        assert!(
            coarse < mid && mid < fine,
            "model error not increasing: {coarse} {mid} {fine}"
        );
    }

    #[test]
    fn trained_mlp_beats_zero_prediction() {
        let city = tiny_city();
        let clock = *city.clock();
        let mut rng = StdRng::seed_from_u64(3);
        let series = city.sample_count_series(GridSpec::new(4), 48 * 17, &mut rng);
        let cfg = TrainConfig {
            epochs: 6,
            max_samples: 200,
            ..TrainConfig::default()
        };
        let mut mlp = Mlp::new(cfg);
        mlp.fit(&series, &clock, clock.slot_at(15, 0));
        let slots = slots_in_days(&clock, (15, 16));
        let err = try_total_model_error(&mut mlp, &series, &clock, &slots).unwrap();
        // Zero prediction's error = mean total counts per slot.
        let zero_err: f64 =
            slots.iter().map(|&s| series.slot_total(s)).sum::<f64>() / slots.len() as f64;
        assert!(
            err < 0.8 * zero_err,
            "MLP err {err} vs zero-predictor {zero_err}"
        );
    }

    #[test]
    fn measure_is_deterministic_per_seed() {
        let mk = || Box::new(HistoricalAverage::new()) as Box<dyn Predictor>;
        let city = tiny_city();
        let mut a = CityModelError::new(city.clone(), tiny_split(), 42, mk).with_max_eval_slots(8);
        let mk2 = || Box::new(HistoricalAverage::new()) as Box<dyn Predictor>;
        let mut b = CityModelError::new(city, tiny_split(), 42, mk2).with_max_eval_slots(8);
        assert_eq!(a.try_measure(4).unwrap().0, b.try_measure(4).unwrap().0);
    }
}
