//! The NN substrate: layer forward passes and the minibatch training step
//! `NnCore::fit` takes.

use criterion::{criterion_group, criterion_main, Criterion};
use gridtuner_nn::{Adam, Conv2d, Dense, Flatten, Layer, ReLU, Sequential, Tensor};
use gridtuner_predict::minibatch_step;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Duration;

/// A `shape` tensor of smooth non-zero values.
fn wave(shape: &[usize]) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|i| (i as f32 * 0.37).sin()).collect())
}

fn bench_nn(c: &mut Criterion) {
    let mut g = c.benchmark_group("nn");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(1);

    let mut dense = Dense::new(&mut rng, 1024, 256);
    let x1 = Tensor::zeros(&[1, 1024]);
    g.bench_function("dense_1024x256_forward", |b| b.iter(|| dense.forward(&x1)));

    let mut conv = Conv2d::new(&mut rng, 8, 8, 3);
    let x2 = Tensor::zeros(&[1, 8, 16, 16]);
    g.bench_function("conv_8ch_16x16_forward", |b| b.iter(|| conv.forward(&x2)));

    // One minibatch step of the default MLP at side 16, as `search-mlp`
    // trains it: 16 samples of a 4-slot closeness window, 4·256 → 256 →
    // 128 → 256, batched forward + Huber + backward + Adam.
    let mut net = Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(Dense::new(&mut rng, 4 * 256, 256)),
        Box::new(ReLU::new()),
        Box::new(Dense::new(&mut rng, 256, 128)),
        Box::new(ReLU::new()),
        Box::new(Dense::new(&mut rng, 128, 256)),
    ]);
    let mut opt = Adam::new(1e-3);
    let x3 = wave(&[16, 4, 16, 16]);
    let t3 = wave(&[16, 256]);
    g.bench_function("mlp_train_step", |b| {
        b.iter(|| minibatch_step(&mut net, &mut opt, &x3, &t3, 0.0))
    });
    g.finish();
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);
