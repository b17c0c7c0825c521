//! The predictor ladder: historical average, MLP, DeepST-like,
//! DMVST-like.
//!
//! All neural predictors share one training core (`NnCore`): build
//! closeness/period/trend samples, normalize by the training maximum,
//! minimize Huber loss with Adam, and clamp predictions to non-negative
//! counts. They differ in features and architecture, forming the paper's
//! capacity ladder (Sec. V-B): the MLP sees only the flattened closeness
//! window; DeepST-like adds period channels and convolutional structure
//! with a residual block; DMVST-like adds trend channels and a second
//! residual block ("multi-view": more temporal views + deeper spatial
//! view). Widths are CPU-sized; the paper's exact MLP widths are available
//! via [`MlpConfig::paper_sized`].

use crate::error::PredictError;
use crate::features::{build_samples, features_for, FeatureConfig};
use crate::trainer::{minibatch_step, normalize, stack_batch};
use gridtuner_nn::{Adam, Conv2d, Dense, Flatten, Layer, ReLU, Residual, Sequential};
use gridtuner_spatial::{CountMatrix, CountSeries, SlotClock, SlotId};
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

/// A spatiotemporal predictor over gridded count series.
pub trait Predictor {
    /// Model name (used in experiment tables).
    fn name(&self) -> &'static str;
    /// Fits on slots `[0, train_end)` of the series.
    fn fit(&mut self, series: &CountSeries, clock: &SlotClock, train_end: SlotId);
    /// Predicts the counts of `slot` using only strictly earlier history,
    /// or a typed failure (unfitted model, lattice mismatch).
    fn try_predict(
        &mut self,
        series: &CountSeries,
        clock: &SlotClock,
        slot: SlotId,
    ) -> Result<CountMatrix, PredictError>;
}

/// Training hyper-parameters shared by the neural predictors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the (subsampled) training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Cap on training samples (random subsample above this).
    pub max_samples: usize,
    /// RNG seed for init, shuffling and subsampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 6,
            lr: 1e-3,
            batch_size: 16,
            max_samples: 800,
            seed: 0x9d17,
        }
    }
}

// ---------------------------------------------------------------------------
// Historical average
// ---------------------------------------------------------------------------

/// Per-(cell, slot-of-day) historical mean, with separate weekday and
/// weekend tables. The zero-parameter baseline, and the cheap stand-in
/// model for search-algorithm experiments.
#[derive(Debug, Clone, Default)]
pub struct HistoricalAverage {
    side: u32,
    // [is_weekend][slot_of_day][cell]
    tables: Vec<Vec<Vec<f64>>>,
}

impl HistoricalAverage {
    /// An unfitted historical-average model.
    pub fn new() -> Self {
        HistoricalAverage::default()
    }
}

impl Predictor for HistoricalAverage {
    fn name(&self) -> &'static str {
        "historical-average"
    }

    fn fit(&mut self, series: &CountSeries, clock: &SlotClock, train_end: SlotId) {
        let spd = clock.slots_per_day() as usize;
        let cells = series.spec().n_cells();
        self.side = series.side();
        let mut sums = vec![vec![vec![0.0f64; cells]; spd]; 2];
        let mut counts = vec![vec![0usize; spd]; 2];
        let end = (train_end.0 as usize).min(series.n_slots());
        for t in 0..end {
            let slot = SlotId(t as u32);
            let wk = usize::from(!clock.is_weekday(slot));
            let sod = clock.slot_of_day(slot) as usize;
            counts[wk][sod] += 1;
            for (acc, v) in sums[wk][sod].iter_mut().zip(series.slot(slot)) {
                *acc += v;
            }
        }
        for wk in 0..2 {
            for sod in 0..spd {
                let c = counts[wk][sod];
                if c > 0 {
                    for v in &mut sums[wk][sod] {
                        *v /= c as f64;
                    }
                } else if counts[1 - wk][sod] > 0 {
                    // No days of this kind seen: borrow the other table.
                    sums[wk][sod] = sums[1 - wk][sod].clone();
                    let c = counts[1 - wk][sod];
                    for v in &mut sums[wk][sod] {
                        *v /= c as f64;
                    }
                }
            }
        }
        self.tables = sums;
    }

    fn try_predict(
        &mut self,
        series: &CountSeries,
        clock: &SlotClock,
        slot: SlotId,
    ) -> Result<CountMatrix, PredictError> {
        if self.tables.is_empty() {
            return Err(PredictError::NotFitted);
        }
        if series.side() != self.side {
            return Err(PredictError::LatticeMismatch {
                expected: self.side,
                got: series.side(),
            });
        }
        let wk = usize::from(!clock.is_weekday(slot));
        let sod = clock.slot_of_day(slot) as usize;
        Ok(CountMatrix::from_vec(
            self.side,
            self.tables[wk][sod].clone(),
        )?)
    }
}

// ---------------------------------------------------------------------------
// Shared neural core
// ---------------------------------------------------------------------------

/// Everything common to the neural predictors: lazily-built network,
/// normalization, Adam/Huber training, clamped prediction, and a
/// persistence fallback for slots without a full feature window.
type NetBuilder = Box<dyn Fn(&mut StdRng, usize, usize) -> Sequential + Send>;

struct NnCore {
    feature_cfg: FeatureConfig,
    train_cfg: TrainConfig,
    build: NetBuilder,
    net: Option<Sequential>,
    norm: f32,
    side: u32,
}

impl NnCore {
    fn new(feature_cfg: FeatureConfig, train_cfg: TrainConfig, build: NetBuilder) -> Self {
        NnCore {
            feature_cfg,
            train_cfg,
            build,
            net: None,
            norm: 1.0,
            side: 0,
        }
    }

    fn fit(&mut self, series: &CountSeries, clock: &SlotClock, train_end: SlotId) {
        let _span = gridtuner_obs::span!(
            "train",
            side = series.side(),
            epochs = self.train_cfg.epochs
        );
        let mut rng = StdRng::seed_from_u64(self.train_cfg.seed);
        self.side = series.side();
        let mut samples = build_samples(series, clock, &self.feature_cfg, SlotId(0), train_end);
        assert!(
            !samples.is_empty(),
            "training range too short for the feature window"
        );
        samples.shuffle(&mut rng);
        samples.truncate(self.train_cfg.max_samples);
        // Normalize by the largest target/input magnitude seen in training.
        let mut norm = 1.0f32;
        for s in &samples {
            norm = norm.max(s.input.max_abs()).max(s.target.max_abs());
        }
        self.norm = norm;
        let side = series.side() as usize;
        let mut net = (self.build)(&mut rng, self.feature_cfg.channels(), side);
        let mut opt = Adam::new(self.train_cfg.lr);
        let bs = self.train_cfg.batch_size.max(1);
        let mut data = normalize(&samples, norm);
        for epoch in 0..self.train_cfg.epochs {
            let _epoch_span = gridtuner_obs::span!("train.epoch", epoch = epoch);
            gridtuner_obs::counter!("train.epochs").inc();
            data.shuffle(&mut rng);
            for batch in data.chunks(bs) {
                let (x, t) = stack_batch(batch);
                minibatch_step(&mut net, &mut opt, &x, &t);
            }
        }
        self.net = Some(net);
    }

    fn try_predict(
        &mut self,
        series: &CountSeries,
        clock: &SlotClock,
        slot: SlotId,
    ) -> Result<CountMatrix, PredictError> {
        let net = self.net.as_mut().ok_or(PredictError::NotFitted)?;
        if series.side() != self.side {
            return Err(PredictError::LatticeMismatch {
                expected: self.side,
                got: series.side(),
            });
        }
        match features_for(series, clock, &self.feature_cfg, slot) {
            Some(mut x) => {
                x.scale(1.0 / self.norm);
                let y = net.forward(&x.into_batch_of_one());
                let data: Vec<f64> = y
                    .as_slice()
                    .iter()
                    .map(|&v| (v * self.norm).max(0.0) as f64)
                    .collect();
                Ok(CountMatrix::from_vec(self.side, data)?)
            }
            None => {
                // Persistence fallback: repeat the previous slot (or zeros
                // at the very start of the series).
                if slot.0 == 0 {
                    Ok(CountMatrix::zeros(self.side))
                } else {
                    Ok(series.slot_matrix(SlotId(slot.0 - 1)))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// MLP
// ---------------------------------------------------------------------------

/// MLP sizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpConfig {
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Closeness window length (paper: 8).
    pub closeness: usize,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: vec![256, 128],
            closeness: 4,
        }
    }
}

impl MlpConfig {
    /// The paper's exact sizing: six hidden layers 1024, 1024, 512, 512,
    /// 256, 256 on an 8-slot closeness window. CPU-expensive at large `n`.
    pub fn paper_sized() -> Self {
        MlpConfig {
            hidden: vec![1024, 1024, 512, 512, 256, 256],
            closeness: 8,
        }
    }
}

/// The paper's MLP: flattened closeness window through a dense ReLU stack.
pub struct Mlp {
    core: NnCore,
    hidden: Vec<usize>,
}

impl Mlp {
    /// A CPU-sized MLP (hidden 256-128, closeness 4).
    pub fn new(train_cfg: TrainConfig) -> Self {
        Mlp::with_config(MlpConfig::default(), train_cfg)
    }

    /// An MLP with explicit sizing.
    pub fn with_config(cfg: MlpConfig, train_cfg: TrainConfig) -> Self {
        let hidden = cfg.hidden.clone();
        let build: NetBuilder = Box::new(move |rng, channels, side| {
            let in_dim = channels * side * side;
            let out_dim = side * side;
            let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(Flatten::new())];
            let mut prev = in_dim;
            for &h in &hidden {
                layers.push(Box::new(Dense::new(rng, prev, h)));
                layers.push(Box::new(ReLU::new()));
                prev = h;
            }
            layers.push(Box::new(Dense::new(rng, prev, out_dim)));
            Sequential::new(layers)
        });
        Mlp {
            core: NnCore::new(
                FeatureConfig::closeness_only(cfg.closeness),
                train_cfg,
                build,
            ),
            hidden: cfg.hidden,
        }
    }

    /// Hidden widths (for reporting).
    pub fn hidden(&self) -> &[usize] {
        &self.hidden
    }
}

impl Predictor for Mlp {
    fn name(&self) -> &'static str {
        "mlp"
    }

    fn fit(&mut self, series: &CountSeries, clock: &SlotClock, train_end: SlotId) {
        self.core.fit(series, clock, train_end);
    }

    fn try_predict(
        &mut self,
        series: &CountSeries,
        clock: &SlotClock,
        slot: SlotId,
    ) -> Result<CountMatrix, PredictError> {
        self.core.try_predict(series, clock, slot)
    }
}

// ---------------------------------------------------------------------------
// DeepST-like
// ---------------------------------------------------------------------------

fn deepst_builder(rng: &mut StdRng, channels: usize, _side: usize) -> Sequential {
    const CH: usize = 8;
    Sequential::new(vec![
        Box::new(Conv2d::new(rng, channels, CH, 3)),
        Box::new(ReLU::new()),
        Box::new(Residual::new(Sequential::new(vec![
            Box::new(Conv2d::new(rng, CH, CH, 3)),
            Box::new(ReLU::new()),
            Box::new(Conv2d::new(rng, CH, CH, 3)),
        ]))),
        Box::new(ReLU::new()),
        Box::new(Conv2d::new(rng, CH, 1, 3)),
        Box::new(Flatten::new()),
    ])
}

/// DeepST-like predictor: residual convolutional network over closeness +
/// period channel stacks.
pub struct DeepStLike {
    core: NnCore,
}

impl DeepStLike {
    /// Default feature window: closeness 4, period 3 days.
    pub fn new(train_cfg: TrainConfig) -> Self {
        DeepStLike {
            core: NnCore::new(
                FeatureConfig {
                    closeness: 4,
                    period_days: 3,
                    trend_weeks: 0,
                },
                train_cfg,
                Box::new(deepst_builder),
            ),
        }
    }
}

impl Predictor for DeepStLike {
    fn name(&self) -> &'static str {
        "deepst-like"
    }

    fn fit(&mut self, series: &CountSeries, clock: &SlotClock, train_end: SlotId) {
        self.core.fit(series, clock, train_end);
    }

    fn try_predict(
        &mut self,
        series: &CountSeries,
        clock: &SlotClock,
        slot: SlotId,
    ) -> Result<CountMatrix, PredictError> {
        self.core.try_predict(series, clock, slot)
    }
}

// ---------------------------------------------------------------------------
// DMVST-like
// ---------------------------------------------------------------------------

fn dmvst_builder(rng: &mut StdRng, channels: usize, _side: usize) -> Sequential {
    const CH: usize = 12;
    Sequential::new(vec![
        Box::new(Conv2d::new(rng, channels, CH, 3)),
        Box::new(ReLU::new()),
        Box::new(Residual::new(Sequential::new(vec![
            Box::new(Conv2d::new(rng, CH, CH, 3)),
            Box::new(ReLU::new()),
            Box::new(Conv2d::new(rng, CH, CH, 3)),
        ]))),
        Box::new(ReLU::new()),
        Box::new(Residual::new(Sequential::new(vec![
            Box::new(Conv2d::new(rng, CH, CH, 3)),
            Box::new(ReLU::new()),
            Box::new(Conv2d::new(rng, CH, CH, 3)),
        ]))),
        Box::new(ReLU::new()),
        Box::new(Conv2d::new(rng, CH, 1, 3)),
        Box::new(Flatten::new()),
    ])
}

/// DMVST-like predictor: the deepest model, with all three temporal views
/// (closeness + period + trend) and two residual blocks.
pub struct DmvstLike {
    core: NnCore,
}

impl DmvstLike {
    /// Default feature window: closeness 4, period 3 days, trend 2 weeks.
    pub fn new(train_cfg: TrainConfig) -> Self {
        DmvstLike {
            core: NnCore::new(
                FeatureConfig {
                    closeness: 4,
                    period_days: 3,
                    trend_weeks: 2,
                },
                train_cfg,
                Box::new(dmvst_builder),
            ),
        }
    }
}

impl Predictor for DmvstLike {
    fn name(&self) -> &'static str {
        "dmvst-like"
    }

    fn fit(&mut self, series: &CountSeries, clock: &SlotClock, train_end: SlotId) {
        self.core.fit(series, clock, train_end);
    }

    fn try_predict(
        &mut self,
        series: &CountSeries,
        clock: &SlotClock,
        slot: SlotId,
    ) -> Result<CountMatrix, PredictError> {
        self.core.try_predict(series, clock, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn synthetic_series(side: u32, days: u32, seed: u64) -> (CountSeries, SlotClock) {
        // A deterministic daily pattern plus seeded noise.
        let clock = SlotClock::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = (days * clock.slots_per_day()) as usize;
        let mut s = CountSeries::zeros(side, n);
        for t in 0..n {
            let slot = SlotId(t as u32);
            let sod = clock.slot_of_day(slot) as f64;
            let level = 3.0 + 2.0 * (sod / 48.0 * std::f64::consts::TAU).sin();
            for (i, v) in s.slot_mut(slot).iter_mut().enumerate() {
                *v = (level + (i % 3) as f64 + rng.gen_range(0.0..0.5)).round();
            }
        }
        (s, clock)
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            max_samples: 120,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn historical_average_recovers_periodic_means() {
        let (series, clock) = synthetic_series(2, 10, 1);
        let mut ha = HistoricalAverage::new();
        ha.fit(&series, &clock, SlotId(48 * 10));
        let pred = ha
            .try_predict(&series, &clock, clock.slot_at(7, 20))
            .unwrap();
        // Noise is ≤ 0.5, so the mean must land within 1 of the level.
        let sod = 20.0f64;
        let level = 3.0 + 2.0 * (sod / 48.0 * std::f64::consts::TAU).sin();
        for (i, &v) in pred.as_slice().iter().enumerate() {
            assert!(
                (v - (level + (i % 3) as f64)).abs() < 1.0,
                "cell {i}: {v} vs level {level}"
            );
        }
    }

    #[test]
    fn historical_average_separates_weekends() {
        let clock = SlotClock::default();
        let mut series = CountSeries::zeros(1, 48 * 14);
        for t in 0..48 * 14 {
            let slot = SlotId(t);
            series.slot_mut(slot)[0] = if clock.is_weekday(slot) { 10.0 } else { 2.0 };
        }
        let mut ha = HistoricalAverage::new();
        ha.fit(&series, &clock, SlotId(48 * 14));
        let wd = ha
            .try_predict(&series, &clock, clock.slot_at(14, 5))
            .unwrap();
        let we = ha
            .try_predict(&series, &clock, clock.slot_at(19, 5))
            .unwrap(); // Saturday
        assert!((wd.as_slice()[0] - 10.0).abs() < 1e-9);
        assert!((we.as_slice()[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn historical_average_requires_fit() {
        let (series, clock) = synthetic_series(2, 2, 2);
        let unfitted = HistoricalAverage::new().try_predict(&series, &clock, SlotId(0));
        assert!(matches!(unfitted, Err(PredictError::NotFitted)));
    }

    #[test]
    fn mlp_predicts_nonnegative_counts_with_right_shape() {
        let (series, clock) = synthetic_series(4, 6, 3);
        let mut mlp = Mlp::new(quick_cfg());
        mlp.fit(&series, &clock, SlotId(48 * 5));
        let pred = mlp
            .try_predict(&series, &clock, clock.slot_at(5, 30))
            .unwrap();
        assert_eq!(pred.side(), 4);
        assert!(pred.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn mlp_training_improves_over_init() {
        let (series, clock) = synthetic_series(3, 8, 4);
        let eval_slot = clock.slot_at(7, 25);
        let actual = series.slot_matrix(eval_slot);
        // Zero-predictor baseline: error equals the slot's total count.
        let zero_err = actual.total();
        let mut mlp = Mlp::with_config(
            MlpConfig {
                hidden: vec![64, 32],
                closeness: 4,
            },
            TrainConfig {
                epochs: 8,
                max_samples: 300,
                ..TrainConfig::default()
            },
        );
        mlp.fit(&series, &clock, SlotId(48 * 7));
        let pred = mlp.try_predict(&series, &clock, eval_slot).unwrap();
        let err = pred.l1_distance(&actual).unwrap();
        assert!(
            err < 0.5 * zero_err,
            "trained MLP err {err} should beat the zero predictor {zero_err}"
        );
    }

    #[test]
    fn deepst_like_smoke() {
        let (series, clock) = synthetic_series(4, 8, 5);
        let mut m = DeepStLike::new(quick_cfg());
        m.fit(&series, &clock, SlotId(48 * 7));
        let pred = m
            .try_predict(&series, &clock, clock.slot_at(7, 12))
            .unwrap();
        assert_eq!(pred.side(), 4);
        assert!(pred.as_slice().iter().all(|&v| v.is_finite() && v >= 0.0));
        assert_eq!(m.name(), "deepst-like");
    }

    #[test]
    fn dmvst_like_smoke_and_fallback() {
        let (series, clock) = synthetic_series(3, 16, 6);
        let mut m = DmvstLike::new(quick_cfg());
        m.fit(&series, &clock, SlotId(48 * 15));
        // A slot within the trend window → real prediction.
        let pred = m
            .try_predict(&series, &clock, clock.slot_at(15, 8))
            .unwrap();
        assert_eq!(pred.side(), 3);
        // A slot too early for the trend window → persistence fallback.
        let early = m.try_predict(&series, &clock, SlotId(5)).unwrap();
        assert_eq!(early.as_slice(), series.slot(SlotId(4)));
        assert_eq!(m.name(), "dmvst-like");
    }

    #[test]
    fn paper_sized_mlp_config() {
        let cfg = MlpConfig::paper_sized();
        assert_eq!(cfg.hidden, vec![1024, 1024, 512, 512, 256, 256]);
        assert_eq!(cfg.closeness, 8);
    }
}
