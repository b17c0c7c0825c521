//! The two workloads: their inputs, engine configurations and model legs.
//! See `README.md` for why each exists and which layers it loads.

use crate::layers::{TimedModel, TimedPredictor};
use crate::trace::Tracer;
use gridtuner_datagen::{City, DataSplit};
use gridtuner_engine::{AlphaWindow, EngineConfig, SearchStrategy};
use gridtuner_predict::{CityModelError, FeatureConfig, Mlp, MlpConfig, Predictor, TrainConfig};
use gridtuner_spatial::Event;
use rand::{rngs::StdRng, SeedableRng};
use std::cell::Cell;
use std::rc::Rc;

pub const NAMES: [&str; 2] = ["search-mlp", "refine-boot"];

/// Days of trip log the batch workloads load: the α window's month.
const LOG_DAYS: u32 = 28;
/// First day of the month the traced `refine-boot` run streams, one
/// 30-minute slot at a time, into a session loaded with the days before
/// it: Friday 25 (day 0 is a Monday), whose slot 16 falls in the α window,
/// then the weekend.
pub const STREAM_FROM_DAY: u32 = 25;
/// Bootstrap replicates in `refine-boot`.
const REPLICATES: u32 = 4;
/// Validation slots the city model leg evaluates per side.
const EVAL_SLOTS: usize = 24;
/// Training-sample cap of the MLP leg.
const MLP_MAX_SAMPLES: usize = 200;
/// Seed of the model leg's own count-series sampling. Fixed: `--seed`
/// varies the event log the program is handed, not the model leg, so the
/// model-leg work per probed side is the same for every seed.
const MODEL_SEED: u64 = 2022;

/// Model trained on days 0..28, validated on days 28..30.
fn split() -> DataSplit {
    DataSplit {
        train_days: (0, 28),
        val_days: (28, 30),
        test_day: 30,
    }
}

/// The Chengdu month both batch workloads load: every event of days
/// 0..28, all slots.
pub fn chengdu_month(seed: u64) -> (City, Vec<Event>) {
    let city = City::chengdu();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = Vec::new();
    for d in 0..LOG_DAYS {
        log.extend(city.sample_day_events(d, &mut rng));
    }
    (city, log)
}

fn config(city: &City, budget: u32, range: (u32, u32), strategy: SearchStrategy) -> EngineConfig {
    EngineConfig::builder()
        .hgrid_budget_side(budget)
        .side_range(range.0, range.1)
        .strategy(strategy)
        .alpha_window(AlphaWindow::default())
        .clock(*city.clock())
        .build()
        .expect("benchmark configurations are valid")
}

const ALG5: SearchStrategy = SearchStrategy::Iterative { init: 16, bound: 4 };

/// `search-mlp`: Alg. 5 over sides 2..24 at √N = 64.
pub fn search_mlp_config(city: &City) -> EngineConfig {
    config(city, 64, (2, 24), ALG5)
}

/// `refine-boot`: brute force over sides 4..76 at √N = 128, B bootstrap
/// replicates seeded by the workload seed.
pub fn refine_boot_config(city: &City, seed: u64) -> EngineConfig {
    let mut c = config(city, 128, (4, 76), SearchStrategy::BruteForce);
    c.bootstrap = Some(gridtuner_engine::BootstrapConfig::new(REPLICATES, seed));
    c
}

/// The analytic `0.05·s²` model leg the goldens use.
pub type Analytic = fn(u32) -> f64;

pub fn analytic(side: u32) -> f64 {
    0.05 * f64::from(side) * f64::from(side)
}

pub type CityLeg = CityModelError<Box<dyn FnMut() -> Box<dyn Predictor>>>;

/// The city model leg: per probed side, sample a count series, fit a fresh
/// predictor from `make`, evaluate on validation slots. Predictors are
/// wrapped so their fits and evaluations show up as spans.
fn city_leg(
    city: &City,
    tracer: &Rc<Tracer>,
    sample_epochs: &Rc<Cell<u64>>,
    first_usable: u32,
    max_samples: usize,
    make: fn() -> Box<dyn Predictor>,
) -> TimedModel<CityLeg> {
    let (t, se) = (Rc::clone(tracer), Rc::clone(sample_epochs));
    let factory: Box<dyn FnMut() -> Box<dyn Predictor>> = Box::new(move || {
        TimedPredictor::boxed(
            make(),
            Rc::clone(&t),
            first_usable,
            max_samples,
            Rc::clone(&se),
        )
    });
    let leg = CityModelError::new(city.clone(), split(), MODEL_SEED, factory)
        .with_max_eval_slots(EVAL_SLOTS);
    TimedModel::new(leg, Rc::clone(tracer))
}

/// The MLP leg of `search-mlp`: default 256-128 MLP, 200 training samples.
pub fn mlp_leg(
    city: &City,
    tracer: &Rc<Tracer>,
    sample_epochs: &Rc<Cell<u64>>,
) -> TimedModel<CityLeg> {
    let first_usable = FeatureConfig::closeness_only(MlpConfig::default().closeness)
        .first_usable_slot(city.clock());
    city_leg(
        city,
        tracer,
        sample_epochs,
        first_usable,
        MLP_MAX_SAMPLES,
        || {
            Box::new(Mlp::new(TrainConfig {
                max_samples: MLP_MAX_SAMPLES,
                ..TrainConfig::default()
            }))
        },
    )
}
