//! Naive forecasting baselines.
//!
//! Every demand-forecasting evaluation needs the two classic floors:
//! **persistence** (tomorrow = right now) and **seasonal naive**
//! (tomorrow = the same slot yesterday/last week). They cost nothing to
//! "train" and calibrate how much the learned models actually add.

use crate::error::PredictError;
use crate::models::Predictor;
use gridtuner_spatial::{CountMatrix, CountSeries, SlotClock, SlotId};

/// Predicts slot `t` as a copy of slot `t − 1` (zeros at the very start).
#[derive(Debug, Clone, Copy, Default)]
pub struct Persistence;

impl Persistence {
    /// A persistence forecaster.
    pub fn new() -> Self {
        Persistence
    }
}

impl Predictor for Persistence {
    fn name(&self) -> &'static str {
        "persistence"
    }

    fn fit(&mut self, _series: &CountSeries, _clock: &SlotClock, _train_end: SlotId) {}

    fn try_predict(
        &mut self,
        series: &CountSeries,
        _clock: &SlotClock,
        slot: SlotId,
    ) -> Result<CountMatrix, PredictError> {
        Ok(if slot.0 == 0 {
            CountMatrix::zeros(series.side())
        } else {
            series.slot_matrix(SlotId(slot.0 - 1))
        })
    }
}

/// Predicts slot `t` as a copy of the same slot one season earlier.
#[derive(Debug, Clone, Copy)]
pub struct SeasonalNaive {
    /// Season length in slots (e.g. 48 = daily with 30-minute slots).
    pub season_slots: u32,
}

impl SeasonalNaive {
    /// Daily seasonality under the given clock.
    pub fn daily(clock: &SlotClock) -> Self {
        SeasonalNaive {
            season_slots: clock.slots_per_day(),
        }
    }

    /// Weekly seasonality under the given clock.
    pub fn weekly(clock: &SlotClock) -> Self {
        SeasonalNaive {
            season_slots: clock.slots_per_week(),
        }
    }
}

impl Predictor for SeasonalNaive {
    fn name(&self) -> &'static str {
        "seasonal-naive"
    }

    fn fit(&mut self, _series: &CountSeries, _clock: &SlotClock, _train_end: SlotId) {}

    fn try_predict(
        &mut self,
        series: &CountSeries,
        _clock: &SlotClock,
        slot: SlotId,
    ) -> Result<CountMatrix, PredictError> {
        Ok(if slot.0 < self.season_slots {
            CountMatrix::zeros(series.side())
        } else {
            series.slot_matrix(SlotId(slot.0 - self.season_slots))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::try_total_model_error;
    use crate::models::HistoricalAverage;

    fn series_with_daily_pattern() -> (CountSeries, SlotClock) {
        let clock = SlotClock::default();
        let mut s = CountSeries::zeros(2, 48 * 8);
        for t in 0..48 * 8u32 {
            let sod = clock.slot_of_day(SlotId(t)) as f64;
            for (i, v) in s.slot_mut(SlotId(t)).iter_mut().enumerate() {
                *v = sod + i as f64;
            }
        }
        (s, clock)
    }

    #[test]
    fn persistence_copies_previous_slot() {
        let (series, clock) = series_with_daily_pattern();
        let mut p = Persistence::new();
        p.fit(&series, &clock, SlotId(48));
        let pred = p.predict(&series, &clock, SlotId(100));
        assert_eq!(pred.as_slice(), series.slot(SlotId(99)));
        // Slot 0 has no history.
        assert_eq!(p.predict(&series, &clock, SlotId(0)).total(), 0.0);
    }

    #[test]
    fn seasonal_naive_is_exact_on_perfectly_periodic_data() {
        let (series, clock) = series_with_daily_pattern();
        let mut daily = SeasonalNaive::daily(&clock);
        let err = try_total_model_error(
            &mut daily,
            &series,
            &clock,
            &[SlotId(48 * 7 + 3), SlotId(48 * 7 + 30)],
        )
        .unwrap();
        assert_eq!(err, 0.0, "daily-periodic data must be predicted exactly");
    }

    #[test]
    fn seasonal_naive_beats_persistence_on_periodic_data() {
        let (series, clock) = series_with_daily_pattern();
        let slots: Vec<SlotId> = (0..10).map(|k| SlotId(48 * 7 + k * 4 + 1)).collect();
        let p_err =
            try_total_model_error(&mut Persistence::new(), &series, &clock, &slots).unwrap();
        let s_err =
            try_total_model_error(&mut SeasonalNaive::daily(&clock), &series, &clock, &slots)
                .unwrap();
        assert!(s_err < p_err, "seasonal {s_err} vs persistence {p_err}");
    }

    #[test]
    fn baselines_floor_the_historical_average_on_noiseless_data() {
        // On deterministic periodic data all three are exact after a week.
        let (series, clock) = series_with_daily_pattern();
        let mut ha = HistoricalAverage::new();
        ha.fit(&series, &clock, SlotId(48 * 7));
        let slot = SlotId(48 * 7 + 9);
        let ha_err = ha
            .predict(&series, &clock, slot)
            .l1_distance(&series.slot_matrix(slot))
            .unwrap();
        assert!(ha_err < 1e-9);
    }

    #[test]
    fn weekly_season_length() {
        let clock = SlotClock::default();
        assert_eq!(SeasonalNaive::weekly(&clock).season_slots, 336);
    }
}
