//! The NN substrate: layer forward passes, the Dense backward passes,
//! the Adam step, and the minibatch training step `NnCore::fit` takes.

use criterion::{criterion_group, criterion_main, Criterion};
use gridtuner_nn::{Adam, Conv2d, Dense, Flatten, Layer, Optimizer, ReLU, Sequential, Tensor};
use gridtuner_predict::minibatch_step;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Duration;

/// A `shape` tensor of smooth non-zero values.
fn wave(shape: &[usize]) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|i| (i as f32 * 0.37).sin()).collect())
}

/// The default MLP at side 16, as `search-mlp` trains it: a 4-slot
/// closeness window, 4·256 → 256 → 128 → 256.
fn mlp(rng: &mut StdRng) -> Sequential {
    Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(Dense::new(rng, 4 * 256, 256)),
        Box::new(ReLU::new()),
        Box::new(Dense::new(rng, 256, 128)),
        Box::new(ReLU::new()),
        Box::new(Dense::new(rng, 128, 256)),
    ])
}

fn bench_nn(c: &mut Criterion) {
    let mut g = c.benchmark_group("nn");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(1);

    let mut dense = Dense::new(&mut rng, 1024, 256);
    let x1 = Tensor::zeros(&[1, 1024]);
    g.bench_function("dense_1024x256_forward", |b| b.iter(|| dense.forward(&x1)));

    // The training shapes: a minibatch of 16 through the MLP's widest
    // layer, forward and parameter gradient (the layer's input gradient
    // is never needed there).
    let x16 = wave(&[16, 1024]);
    let g16 = wave(&[16, 256]);
    g.bench_function("dense_1024x256_forward_b16", |b| {
        b.iter(|| dense.forward(&x16))
    });
    dense.forward(&x16);
    g.bench_function("dense_1024x256_backward_params_b16", |b| {
        b.iter(|| dense.backward_params(&g16))
    });

    // The same layer at side 24, the top of `search-mlp`'s range: 4·576
    // inputs.
    let mut dense24 = Dense::new(&mut rng, 2304, 256);
    let x24 = wave(&[16, 2304]);
    g.bench_function("dense_2304x256_forward_b16", |b| {
        b.iter(|| dense24.forward(&x24))
    });
    dense24.forward(&x24);
    g.bench_function("dense_2304x256_backward_params_b16", |b| {
        b.iter(|| dense24.backward_params(&g16))
    });

    // The MLP's last layer, 128 → 256, at the same batch: its full
    // backward (weight and input gradients, one pool dispatch).
    let mut dense_top = Dense::new(&mut rng, 128, 256);
    dense_top.forward(&wave(&[16, 128]));
    g.bench_function("dense_128x256_backward_b16", |b| {
        b.iter(|| dense_top.backward(&g16))
    });

    let mut conv = Conv2d::new(&mut rng, 8, 8, 3);
    let x2 = Tensor::zeros(&[1, 8, 16, 16]);
    g.bench_function("conv_8ch_16x16_forward", |b| b.iter(|| conv.forward(&x2)));

    // One Adam step over the MLP's parameters, with the minibatch step's
    // 1/16 scale. Each iteration first refills the
    // gradients (the step consumes them): with zero gradients the moments
    // decay into subnormals and the timing stops describing training.
    let mut net = mlp(&mut rng);
    let grads: Vec<Tensor> = net
        .params_mut()
        .iter()
        .map(|p| wave(p.value.shape()))
        .collect();
    let mut adam = Adam::new(1e-3);
    g.bench_function("adam_step_mlp", |b| {
        b.iter(|| {
            let mut params = net.params_mut();
            for (p, g) in params.iter_mut().zip(&grads) {
                p.grad.as_mut_slice().copy_from_slice(g.as_slice());
            }
            adam.scaled_step(&mut params, 1.0 / 16.0);
        })
    });

    // One minibatch step of the same MLP: 16 samples, batched forward +
    // Huber + backward + Adam.
    let mut net = mlp(&mut rng);
    let mut opt = Adam::new(1e-3);
    let x3 = wave(&[16, 4, 16, 16]);
    let t3 = wave(&[16, 256]);
    g.bench_function("mlp_train_step", |b| {
        b.iter(|| minibatch_step(&mut net, &mut opt, &x3, &t3))
    });
    g.finish();
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);
