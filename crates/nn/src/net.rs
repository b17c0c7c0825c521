//! Layer composition.

use crate::layers::{Layer, Param};
use crate::tensor::Tensor;

/// A straight-line stack of layers. Implements [`Layer`] itself, so stacks
/// nest (e.g. inside [`crate::layers::Residual`]).
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Builds a stack from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Runs `backward` through `layers` from the top, returning the
    /// gradient at their input.
    fn backward_through(layers: &mut [Box<dyn Layer>], grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        Self::backward_through(&mut self.layers, grad_out)
    }

    /// Backpropagates only as far as the lowest layer with parameters,
    /// which accumulates its parameter gradients without an input
    /// gradient; the parameter-free layers below it are not visited.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let Some(lowest) = self
            .layers
            .iter_mut()
            .position(|l| !l.params_mut().is_empty())
        else {
            return;
        };
        let (below, above) = self.layers.split_at_mut(lowest + 1);
        let g = Self::backward_through(above, grad_out);
        below[lowest].backward_params(&g);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten, ReLU, Residual};
    use crate::loss::mse_loss;
    use crate::optim::{Adam, Optimizer};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn forward_composes_layers() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(&mut rng, 2, 8)),
            Box::new(ReLU::new()),
            Box::new(Dense::new(&mut rng, 8, 1)),
        ]);
        assert_eq!(net.len(), 3);
        let y = net.forward(&Tensor::from_vec(&[1, 2], vec![0.5, -0.5]));
        assert_eq!(y.shape(), &[1, 1]);
        let n_params: usize = net.params_mut().iter().map(|p| p.value.len()).sum();
        assert_eq!(n_params, 2 * 8 + 8 + 8 + 1);
    }

    #[test]
    fn training_reduces_loss_on_a_toy_regression() {
        // Fit y = 2x₀ - x₁ + 1 from 64 samples; the loss must drop by 10×.
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(&mut rng, 2, 16)),
            Box::new(ReLU::new()),
            Box::new(Dense::new(&mut rng, 16, 1)),
        ]);
        let (mut xs, mut ts) = (Vec::new(), Vec::new());
        for i in 0..64 {
            let x0 = (i % 8) as f32 / 8.0;
            let x1 = (i / 8) as f32 / 8.0;
            xs.extend([x0, x1]);
            ts.push(2.0 * x0 - x1 + 1.0);
        }
        let (x, t) = (
            Tensor::from_vec(&[64, 2], xs),
            Tensor::from_vec(&[64, 1], ts),
        );
        let mut opt = Adam::new(0.01);
        let loss_at = |net: &mut Sequential| -> f64 { mse_loss(&net.forward(&x), &t).0 / 64.0 };
        let before = loss_at(&mut net);
        for _ in 0..200 {
            net.zero_grad();
            let y = net.forward(&x);
            let (_, g) = mse_loss(&y, &t);
            net.backward_params(&g);
            for p in net.params_mut() {
                p.grad.scale(1.0 / 64.0);
            }
            opt.step(&mut net.params_mut());
        }
        let after = loss_at(&mut net);
        assert!(
            after < before / 10.0,
            "loss did not drop: {before} -> {after}"
        );
    }

    #[test]
    fn zero_grad_clears_all_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Sequential::new(vec![Box::new(Dense::new(&mut rng, 3, 3))]);
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 1.0, 1.0]);
        let y = net.forward(&x);
        let (_, g) = mse_loss(&y, &Tensor::zeros(&[1, 3]));
        net.backward(&g);
        assert!(net.params_mut().iter().any(|p| p.grad.max_abs() > 0.0));
        net.zero_grad();
        assert!(net.params_mut().iter().all(|p| p.grad.max_abs() == 0.0));
    }

    #[test]
    fn backward_params_matches_backward_on_every_parameter() {
        // A residual block as the lowest parametrised layer: the skip of
        // the input gradient reaches through it into the inner stack.
        let build = || {
            let mut rng = StdRng::seed_from_u64(3);
            Sequential::new(vec![
                Box::new(Flatten::new()),
                Box::new(Residual::new(Sequential::new(vec![
                    Box::new(Dense::new(&mut rng, 6, 6)),
                    Box::new(ReLU::new()),
                ]))),
                Box::new(Dense::new(&mut rng, 6, 4)),
            ])
        };
        let x = Tensor::from_vec(
            &[3, 2, 3],
            (0..18).map(|i| (i as f32 * 0.7).sin()).collect(),
        );
        let grads = |net: &mut Sequential, full: bool| -> Vec<Vec<u32>> {
            let y = net.forward(&x);
            let (_, g) = mse_loss(&y, &Tensor::zeros(&[3, 4]));
            if full {
                assert_eq!(net.backward(&g).shape(), &[3, 2, 3]);
            } else {
                net.backward_params(&g);
            }
            net.params_mut()
                .iter()
                .map(|p| p.grad.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(grads(&mut build(), false), grads(&mut build(), true));
    }
}
