//! Cross-thread determinism matrix: the same tuning run, the same
//! reductions and the same network training must be **bit-identical**
//! under `GRIDTUNER_THREADS` = 1, 2 and 8.
//!
//! The worker count is swept in-process via
//! [`gridtuner_par::set_max_threads`] (the env var is read once and
//! cached). This file holds exactly one `#[test]` on purpose: the override
//! is global, and a second concurrently-running test in the same binary
//! would observe it mid-sweep.

use gridtuner_engine::{EngineConfig, SearchStrategy, TuningSession};
use gridtuner_nn::{Adam, Conv2d, Dense, Flatten, Layer, ReLU, Residual, Sequential, Tensor};
use gridtuner_testkit::nn_reference::{per_sample_epoch, TwoPassAdam};
use gridtuner_testkit::Scenario;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Samples per training run: one full minibatch of 16 and a partial one.
const TRAIN_SAMPLES: usize = 21;
const TRAIN_BATCH: usize = 16;

/// A tiny MLP (`[2, 4, 4]` → 24 → 16), a tiny DeepST-like residual conv
/// stack (`[3, 5, 5]` → 25), and an MLP (`[4, 8, 8]` → 256 → 64) whose
/// 82k parameters are enough for the fused Adam step to split over the
/// pool, with their per-sample input and target shapes.
fn nets() -> Vec<(Sequential, Vec<usize>, usize)> {
    let mut rng = StdRng::seed_from_u64(0x7e57);
    let mlp = Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(Dense::new(&mut rng, 32, 24)),
        Box::new(ReLU::new()),
        Box::new(Dense::new(&mut rng, 24, 16)),
    ]);
    let deepst = Sequential::new(vec![
        Box::new(Conv2d::new(&mut rng, 3, 4, 3)),
        Box::new(ReLU::new()),
        Box::new(Residual::new(Sequential::new(vec![
            Box::new(Conv2d::new(&mut rng, 4, 4, 3)),
            Box::new(ReLU::new()),
            Box::new(Conv2d::new(&mut rng, 4, 4, 3)),
        ]))),
        Box::new(ReLU::new()),
        Box::new(Conv2d::new(&mut rng, 4, 1, 3)),
        Box::new(Flatten::new()),
    ]);
    let wide = Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(Dense::new(&mut rng, 256, 256)),
        Box::new(ReLU::new()),
        Box::new(Dense::new(&mut rng, 256, 64)),
    ]);
    vec![
        (mlp, vec![2, 4, 4], 16),
        (deepst, vec![3, 5, 5], 25),
        (wide, vec![4, 8, 8], 64),
    ]
}

/// `TRAIN_SAMPLES` random `(input, target)` samples of the given shapes.
fn train_data(input: &[usize], outputs: usize, seed: u64) -> Vec<(Tensor, Tensor)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = |shape: &[usize]| {
        let n = shape.iter().product();
        let data = (0..n).map(|_| rng.gen_range(0.0..1.0f64) as f32).collect();
        Tensor::from_vec(shape, data)
    };
    (0..TRAIN_SAMPLES)
        .map(|_| (draw(input), draw(&[outputs])))
        .collect()
}

/// Weight bits of every net after `epochs` epochs of two Adam minibatches
/// each (the second partial), trained by the production batched step or,
/// with `reference`, by the per-sample loop and two-pass Adam.
fn train_nets(epochs: usize, reference: bool) -> Vec<u32> {
    let mut bits = Vec::new();
    for (seed, (mut net, input, outputs)) in nets().into_iter().enumerate() {
        let data = train_data(&input, outputs, seed as u64);
        let (mut adam, mut two_pass) = (Adam::new(0.01), TwoPassAdam::new(0.01));
        let one_sample: Vec<(Tensor, Tensor)> = data
            .iter()
            .map(|(x, t)| (x.clone().into_batch_of_one(), t.clone().into_batch_of_one()))
            .collect();
        for _ in 0..epochs {
            if reference {
                per_sample_epoch(&mut net, &mut two_pass, &one_sample, TRAIN_BATCH);
                continue;
            }
            for batch in data.chunks(TRAIN_BATCH) {
                let xs: Vec<&Tensor> = batch.iter().map(|(x, _)| x).collect();
                let ts: Vec<&Tensor> = batch.iter().map(|(_, t)| t).collect();
                let (x, t) = (Tensor::stack(&xs), Tensor::stack(&ts));
                gridtuner_predict::minibatch_step(&mut net, &mut adam, &x, &t);
            }
        }
        for p in net.params_mut() {
            bits.extend(p.value.as_slice().iter().map(|v| v.to_bits()));
        }
    }
    bits
}

/// One full pipeline run at the current worker count: a brute-force
/// session tune plus the two reduction primitives on scenario data.
fn run_pipeline(scenario: &Scenario, values: &[f64]) -> (u32, u64, Vec<(u32, u64)>, u64, Vec<u32>) {
    let config = EngineConfig {
        hgrid_budget_side: scenario.params.budget_side,
        side_range: scenario.params.side_range(),
        strategy: SearchStrategy::BruteForce,
        alpha_window: scenario.window,
        clock: scenario.clock,
        ..EngineConfig::default()
    };
    let mut session = TuningSession::new(config, scenario.model_fn()).unwrap();
    session.ingest(&scenario.events).unwrap();
    let result = session.tune().unwrap();
    let probes: Vec<(u32, u64)> = result
        .outcome
        .probes
        .iter()
        .map(|&(s, e)| (s, e.to_bits()))
        .collect();
    let sum = gridtuner_par::par_sum(values, |x| (x * 1.000001).sin()).to_bits();
    let acc = gridtuner_par::par_accumulate(values, 13, |i, x, buf| {
        buf[i % 13] += *x as f32;
    })
    .iter()
    .map(|v| v.to_bits())
    .collect();
    (
        result.outcome.side,
        result.outcome.error.to_bits(),
        probes,
        sum,
        acc,
    )
}

#[test]
fn thread_matrix_is_bit_identical() {
    let scenarios: Vec<Scenario> = [11u64, 42, 1234]
        .iter()
        .map(|&s| Scenario::generate(s))
        .collect();
    let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).cos()).collect();
    let baseline: Vec<_> = scenarios
        .iter()
        .map(|sc| run_pipeline(sc, &values))
        .collect();
    let trained = train_nets(1, true);
    assert!(
        trained != train_nets(0, true),
        "training left the weights unchanged"
    );
    for threads in [1usize, 2, 8] {
        gridtuner_par::set_max_threads(threads);
        assert!(
            train_nets(1, false) == trained,
            "batched training diverged from the per-sample reference at \
             GRIDTUNER_THREADS={threads}"
        );
        for (sc, expect) in scenarios.iter().zip(&baseline) {
            let got = run_pipeline(sc, &values);
            assert_eq!(
                &got, expect,
                "pipeline diverged at GRIDTUNER_THREADS={threads} (seed {})",
                sc.params.seed
            );
        }
    }
}
