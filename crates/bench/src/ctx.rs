//! Shared experiment context: coherent sampling, predictor factories,
//! error evaluation and dispatch wiring used by several figures.

use crate::RunCfg;
use gridtuner_core::alpha::AlphaWindow;
use gridtuner_core::errors::{evaluate_errors, ErrorReport, ErrorSample};
use gridtuner_core::expression::try_partition_expression_error;
use gridtuner_datagen::{City, DataSplit, TripGenerator};
use gridtuner_dispatch::{DemandView, Order};
use gridtuner_predict::{DeepStLike, DmvstLike, HistoricalAverage, Mlp, Predictor, TrainConfig};
use gridtuner_spatial::{CountMatrix, CountSeries, Partition, SlotClock, SlotId};
use rand::{rngs::StdRng, SeedableRng};

/// The model ladder of the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Historical average (cheap baseline, used by the search tables).
    Ha,
    /// The paper's MLP.
    Mlp,
    /// DeepST-like residual conv net.
    DeepSt,
    /// DMVST-like deeper multi-view net.
    Dmvst,
}

impl ModelKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Ha => "HA",
            ModelKind::Mlp => "MLP",
            ModelKind::DeepSt => "DeepST",
            ModelKind::Dmvst => "DMVST",
        }
    }

    /// The three neural models of Fig. 4/5.
    pub fn neural() -> [ModelKind; 3] {
        [ModelKind::Mlp, ModelKind::DeepSt, ModelKind::Dmvst]
    }

    /// Builds a fresh predictor.
    pub fn build(self, cfg: &RunCfg) -> Box<dyn Predictor> {
        let train = TrainConfig {
            epochs: if cfg.quick { 2 } else { 4 },
            max_samples: if cfg.quick { 150 } else { 450 },
            seed: cfg.seed,
            ..TrainConfig::default()
        };
        match self {
            ModelKind::Ha => Box::new(HistoricalAverage::new()),
            ModelKind::Mlp => Box::new(Mlp::new(train)),
            ModelKind::DeepSt => Box::new(DeepStLike::new(train)),
            ModelKind::Dmvst => Box::new(DmvstLike::new(train)),
        }
    }
}

/// The standard synthetic-horizon split used by the harness: four training
/// weeks, three validation days, one test day (CPU-sized version of the
/// paper's splits).
pub fn harness_split() -> DataSplit {
    DataSplit {
        train_days: (0, 28),
        val_days: (28, 31),
        test_day: 31,
    }
}

/// City presets at the harness scale.
pub fn cities(cfg: &RunCfg) -> Vec<City> {
    City::all_presets()
        .into_iter()
        .map(|c| c.scaled(cfg.volume_scale))
        .collect()
}

/// One grid size's coherent data: the partition, the HGrid-lattice series
/// for the whole horizon, and its MGrid coarsening (training view).
pub struct SideData {
    /// The `(n, m)` partition for this side.
    pub partition: Partition,
    /// Sampled counts on the HGrid lattice, slots `0..horizon`.
    pub hgrid: CountSeries,
    /// The same counts summed to the MGrid lattice.
    pub mgrid: CountSeries,
}

/// Samples the coherent per-side data (one Poisson draw per HGrid cell and
/// slot; the MGrid view is its exact coarsening, so training and
/// evaluation see the same world).
pub fn sample_side_data(
    city: &City,
    side: u32,
    budget: u32,
    split: &DataSplit,
    seed: u64,
) -> SideData {
    let partition = Partition::for_budget(side, budget);
    let clock = city.clock();
    let horizon = (split.horizon_days() * clock.slots_per_day()) as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ ((side as u64) << 24));
    let hgrid = city.sample_count_series(partition.hgrid_spec(), horizon, &mut rng);
    let mgrid = hgrid
        .coarsen(partition.sub_side())
        .expect("hgrid lattice divides by sub side");
    SideData {
        partition,
        hgrid,
        mgrid,
    }
}

/// Trains `kind` on the side's MGrid series and evaluates the three
/// empirical errors plus the analytic expression error on the test day's
/// slots (Definitions 3–5, Theorem II.1).
pub fn evaluate_side(
    city: &City,
    data: &SideData,
    kind: ModelKind,
    cfg: &RunCfg,
) -> (ErrorReport, f64) {
    let clock = *city.clock();
    let split = harness_split();
    let mut model = kind.build(cfg);
    model.fit(&data.mgrid, &clock, clock.slot_at(split.train_days.1, 0));
    // Evaluate over a band of test-day slots (morning through evening).
    let eval_sods: &[u32] = if cfg.quick {
        &[16, 24, 36]
    } else {
        &[10, 14, 16, 18, 22, 26, 30, 34, 38, 42]
    };
    let samples: Vec<ErrorSample> = eval_sods
        .iter()
        .map(|&sod| {
            let slot = clock.slot_at(split.test_day, sod);
            ErrorSample {
                predicted_mgrid: model
                    .try_predict(&data.mgrid, &clock, slot)
                    .expect("fitted on this lattice"),
                actual_hgrid: data.hgrid.slot_matrix(slot),
            }
        })
        .collect();
    let report = evaluate_errors(&samples, &data.partition).expect("consistent lattices");
    // Analytic expression error from the true mean field, averaged over
    // the same slots.
    let analytic: f64 = eval_sods
        .iter()
        .map(|&sod| {
            let slot = clock.slot_at(split.test_day, sod);
            let alpha = city.mean_field(data.partition.hgrid_spec(), slot);
            uniform_expression_error(&alpha, &data.partition)
        })
        .sum::<f64>()
        / eval_sods.len() as f64;
    (report, analytic)
}

/// Total expression error of the square `partition` over a finite α field
/// on its HGrid lattice (the batched sweep).
pub fn uniform_expression_error(alpha: &CountMatrix, partition: &Partition) -> f64 {
    try_partition_expression_error(alpha, partition, None)
        .expect("finite α field on the partition's HGrid lattice")
}

/// The paper's α-estimation window for a given slot-of-day over the
/// harness split's training weeks.
pub fn alpha_window(slot_of_day: u32) -> AlphaWindow {
    AlphaWindow {
        slot_of_day,
        day_start: 0,
        day_end: harness_split().train_days.1,
        weekdays_only: true,
    }
}

/// The test day's orders for a city (deterministic per seed).
pub fn test_day_orders(city: &City, seed: u64) -> Vec<Order> {
    let mut rng = StdRng::seed_from_u64(seed);
    let trips = TripGenerator::default().trips_for_day(city, harness_split().test_day, &mut rng);
    Order::from_trips(&trips)
}

/// A per-slot demand closure backed by a trained predictor at a given
/// partition: predicts the test day's slots from the MGrid series history.
pub struct PredictedDemand {
    model: Box<dyn Predictor>,
    data: SideData,
    clock: SlotClock,
}

impl PredictedDemand {
    /// Trains `kind` at `side` and packages the per-slot demand source.
    pub fn new(city: &City, side: u32, budget: u32, kind: ModelKind, cfg: &RunCfg) -> Self {
        let split = harness_split();
        let data = sample_side_data(city, side, budget, &split, cfg.seed);
        let clock = *city.clock();
        let mut model = kind.build(cfg);
        model.fit(&data.mgrid, &clock, clock.slot_at(split.train_days.1, 0));
        PredictedDemand { model, data, clock }
    }

    /// The demand view for a slot.
    pub fn view(&mut self, slot: SlotId) -> DemandView {
        let pred = self
            .model
            .try_predict(&self.data.mgrid, &self.clock, slot)
            .expect("fitted on this lattice");
        DemandView::from_mgrid(&pred, &self.data.partition)
    }
}

/// Ground-truth demand ("using real order data" in Figs. 6–9): the true
/// mean field at the partition's MGrid resolution, spread to HGrids.
pub fn true_demand(city: &City, partition: Partition) -> impl FnMut(SlotId) -> DemandView + '_ {
    move |slot| {
        let mgrid = city.mean_field(partition.mgrid_spec(), slot);
        DemandView::from_mgrid(&mgrid, &partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunCfg;

    #[test]
    fn model_kind_names_match_paper_labels() {
        assert_eq!(ModelKind::Ha.name(), "HA");
        assert_eq!(ModelKind::Mlp.name(), "MLP");
        assert_eq!(ModelKind::DeepSt.name(), "DeepST");
        assert_eq!(ModelKind::Dmvst.name(), "DMVST");
        assert_eq!(ModelKind::neural().len(), 3);
    }

    #[test]
    fn side_data_views_are_coherent() {
        // MGrid series must be the exact coarsening of the HGrid series.
        let cfg = RunCfg::quick();
        let city = cities(&cfg).remove(2); // Xi'an, smallest
        let split = DataSplit {
            train_days: (0, 2),
            val_days: (2, 3),
            test_day: 3,
        };
        let data = sample_side_data(&city, 4, 16, &split, 1);
        assert_eq!(data.partition.mgrid_side(), 4);
        for t in [0u32, 47, 100] {
            let h = data.hgrid.slot_matrix(SlotId(t));
            let m = data.mgrid.slot_matrix(SlotId(t));
            assert!((h.total() - m.total()).abs() < 1e-9, "slot {t}");
        }
    }

    #[test]
    fn harness_split_is_well_formed() {
        let s = harness_split();
        assert!(s.train_days.1 <= s.val_days.0);
        assert!(s.val_days.1 <= s.test_day);
    }

    #[test]
    fn predicted_demand_produces_hgrid_views() {
        let cfg = RunCfg::quick();
        let city = cities(&cfg).remove(2);
        let mut pd = PredictedDemand::new(&city, 4, 16, ModelKind::Ha, &cfg);
        let v = pd.view(SlotId(48 * 31 + 16));
        assert_eq!(v.spec().side(), 16);
        assert!(v.total() >= 0.0);
    }
}
