//! Property-based gradient checks: for random layer shapes, random inputs
//! and random targets, analytic gradients must match central finite
//! differences. Inputs are one-sample batches `[1, …]`.

use gridtuner_nn::{mse_loss, Conv2d, Dense, Layer, ReLU, Residual, Sequential, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Checks ∂loss/∂input of `layer` at `input` against finite differences.
fn check_input_grad<L: Layer>(layer: &mut L, input: &Tensor, target: &Tensor, tol: f64) {
    let out = layer.forward(input);
    let (_, grad) = mse_loss(&out, target);
    layer.forward(input);
    let dx = layer.backward(&grad);
    let eps = 1e-2f32;
    for i in 0..input.len() {
        let mut plus = input.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = input.clone();
        minus.as_mut_slice()[i] -= eps;
        let (lp, _) = mse_loss(&layer.forward(&plus), target);
        let (lm, _) = mse_loss(&layer.forward(&minus), target);
        let num = (lp - lm) / (2.0 * eps as f64);
        let ana = dx.as_slice()[i] as f64;
        assert!(
            (num - ana).abs() <= tol * (1.0 + num.abs()),
            "input grad {i}: numeric {num}, analytic {ana}"
        );
    }
}

fn small_values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0f32..1.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_input_gradients((in_dim, out_dim) in (1usize..6, 1usize..6),
                             seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Dense::new(&mut rng, in_dim, out_dim);
        let x = Tensor::from_vec(&[1, in_dim], (0..in_dim).map(|i| ((i as f32) - 1.0) * 0.4).collect());
        let t = Tensor::zeros(&[1, out_dim]);
        check_input_grad(&mut layer, &x, &t, 2e-2);
    }

    #[test]
    fn conv_input_gradients((ic, oc) in (1usize..3, 1usize..3),
                            (h, w) in (2usize..5, 2usize..5),
                            seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Conv2d::new(&mut rng, ic, oc, 3);
        let x = Tensor::from_vec(&[1, ic, h, w],
            (0..ic * h * w).map(|i| ((i % 7) as f32 - 3.0) * 0.2).collect());
        let t = Tensor::zeros(&[1, oc, h, w]);
        check_input_grad(&mut layer, &x, &t, 3e-2);
    }

    #[test]
    fn residual_stack_gradients(dim in 2usize..6, seed in 0u64..500, xs in small_values(8)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inner = Sequential::new(vec![
            Box::new(Dense::new(&mut rng, dim, dim)),
        ]);
        let mut layer = Residual::new(inner);
        let x = Tensor::from_vec(&[1, dim], xs[..dim].to_vec());
        let t = Tensor::zeros(&[1, dim]);
        check_input_grad(&mut layer, &x, &t, 2e-2);
    }

    #[test]
    fn relu_is_non_expansive(xs in small_values(16)) {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(&[16], xs);
        let y = relu.forward(&x);
        // |relu(x)| ≤ |x| elementwise, and the gradient mask is 0/1.
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            prop_assert!(a.abs() <= b.abs() + 1e-12);
        }
        let g = relu.backward(&Tensor::from_vec(&[16], vec![1.0; 16]));
        for v in g.as_slice() {
            prop_assert!(*v == 0.0 || *v == 1.0);
        }
    }

    #[test]
    fn sequential_forward_is_deterministic(seed in 0u64..500, xs in small_values(4)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(&mut rng, 4, 5)),
            Box::new(ReLU::new()),
            Box::new(Dense::new(&mut rng, 5, 2)),
        ]);
        let x = Tensor::from_vec(&[1, 4], xs);
        let y1 = net.forward(&x);
        let y2 = net.forward(&x);
        prop_assert_eq!(y1.as_slice(), y2.as_slice());
    }
}
