//! Model comparison: the predictor ladder at several grid sizes (the
//! miniature of the paper's Fig. 4).
//!
//! ```text
//! cargo run --release --example model_comparison
//! ```
//!
//! Trains the historical average, the MLP, the DeepST-like and the
//! DMVST-like model at a few MGrid sides on a Chengdu-like city and prints
//! the total model error `Σ_i |λ̂_i − λ_i| ≈ n·MAE(f)` on validation slots.

use gridtuner::datagen::{City, DataSplit};
use gridtuner::predict::{
    CityModelError, DeepStLike, DmvstLike, HistoricalAverage, Mlp, Predictor, TrainConfig,
};

fn main() {
    let scale = 0.02; // ~4.8k orders/day
    let split = DataSplit {
        train_days: (0, 21),
        val_days: (21, 23),
        test_day: 23,
    };
    let train_cfg = TrainConfig {
        epochs: 4,
        max_samples: 400,
        ..TrainConfig::default()
    };
    let sides = [4u32, 8, 16, 24];

    println!("total model error on validation slots (Chengdu-like, scale {scale}):");
    print!("{:>18}", "model \\ side");
    for s in sides {
        print!("{:>10}", format!("{s}x{s}"));
    }
    println!();

    type Factory = Box<dyn Fn() -> Box<dyn Predictor>>;
    let factories: Vec<(&str, Factory)> = vec![
        (
            "historical-avg",
            Box::new(|| Box::new(HistoricalAverage::new()) as Box<dyn Predictor>),
        ),
        (
            "mlp",
            Box::new(move || Box::new(Mlp::new(train_cfg)) as Box<dyn Predictor>),
        ),
        (
            "deepst-like",
            Box::new(move || Box::new(DeepStLike::new(train_cfg)) as Box<dyn Predictor>),
        ),
        (
            "dmvst-like",
            Box::new(move || Box::new(DmvstLike::new(train_cfg)) as Box<dyn Predictor>),
        ),
    ];

    for (name, factory) in factories {
        print!("{name:>18}");
        let mut oracle =
            CityModelError::new(City::chengdu().scaled(scale), split, 11, move || factory())
                .with_max_eval_slots(16);
        for s in sides {
            let (err, _) = oracle
                .try_measure(s)
                .expect("validation slots lie inside the sampled series");
            print!("{err:>10.1}");
        }
        println!();
    }
    println!("\n(model error grows with n for every model — the paper's Fig. 4 trend)");
}
