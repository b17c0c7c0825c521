//! The one minibatch step every predictor's training takes, and the
//! sample preparation around it: `NnCore::fit` normalises its samples once
//! and trains each minibatch through [`minibatch_step`].

use crate::features::Sample;
use gridtuner_nn::{huber_loss, Layer, Optimizer, Sequential, Tensor};

/// Normalizes a sample set once: every epoch then borrows the scaled
/// tensors instead of cloning and rescaling per step.
pub(crate) fn normalize(samples: &[Sample], norm: f32) -> Vec<(Tensor, Tensor)> {
    samples
        .iter()
        .map(|s| {
            let mut x = s.input.clone();
            x.scale(1.0 / norm);
            let mut t = s.target.clone();
            t.scale(1.0 / norm);
            (x, t)
        })
        .collect()
}

/// Stacks `(input, target)` pairs into one `[B, …]` input and one
/// `[B, …]` target tensor.
pub(crate) fn stack_batch(batch: &[(Tensor, Tensor)]) -> (Tensor, Tensor) {
    let xs: Vec<&Tensor> = batch.iter().map(|(x, _)| x).collect();
    let ts: Vec<&Tensor> = batch.iter().map(|(_, t)| t).collect();
    (Tensor::stack(&xs), Tensor::stack(&ts))
}

/// One optimisation step on a stacked minibatch `x: [B, …]`, `t: [B, …]`:
/// run one batched forward, Huber loss and backward, and step the
/// optimizer on the summed gradients scaled by `1/B` (see
/// [`Optimizer::scaled_step`], which `Adam` fuses into one pass). The
/// backward skips the input gradient of the network's lowest parametrised
/// layer (see [`Layer::backward_params`]). The result is bit-identical to
/// running the `B` samples one at a time with their gradients accumulated
/// in order.
///
/// The gradients must be zero on entry, as they are on a new network and
/// after every step: an optimizer step leaves every gradient it consumed
/// at zero (see [`Optimizer::step`]), so no step zeroes them again.
pub fn minibatch_step(net: &mut Sequential, opt: &mut impl Optimizer, x: &Tensor, t: &Tensor) {
    let batch = x.shape()[0];
    let y = net.forward(x);
    let (_, g) = huber_loss(&y, t, 1.0);
    net.backward_params(&g);
    opt.scaled_step(&mut net.params_mut(), 1.0 / batch as f32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_nn::{Adam, Dense, Flatten, ReLU};
    use rand::{rngs::StdRng, SeedableRng};

    /// A `shape` tensor of smooth values, phase-shifted by `k`.
    fn wave(shape: &[usize], k: f32) -> Tensor {
        let n = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|i| (i as f32 * 0.37 + k).sin()).collect())
    }

    #[test]
    fn steps_need_no_zeroing_between_them() {
        // Twenty steps, one network left as each step leaves it and one
        // zeroed before every step: every weight and gradient keeps its
        // bits. The first layer's 32k weights split Adam over the pool.
        let net = || {
            let mut rng = StdRng::seed_from_u64(31);
            Sequential::new(vec![
                Box::new(Flatten::new()),
                Box::new(Dense::new(&mut rng, 4 * 64, 128)),
                Box::new(ReLU::new()),
                Box::new(Dense::new(&mut rng, 128, 64)),
            ])
        };
        let (mut plain, mut zeroed) = (net(), net());
        let (mut opt_plain, mut opt_zeroed) = (Adam::new(1e-3), Adam::new(1e-3));
        for step in 0..20 {
            let x = wave(&[16, 4, 8, 8], step as f32);
            let t = wave(&[16, 64], 0.5 * step as f32);
            minibatch_step(&mut plain, &mut opt_plain, &x, &t);
            zeroed.zero_grad();
            minibatch_step(&mut zeroed, &mut opt_zeroed, &x, &t);
        }
        let bits = |net: &mut Sequential| -> Vec<u32> {
            net.params_mut()
                .iter()
                .flat_map(|p| p.value.as_slice().iter().chain(p.grad.as_slice()))
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&mut plain), bits(&mut zeroed));
    }
}
