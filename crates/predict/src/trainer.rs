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
/// zero the gradients, run one batched forward, Huber loss and backward,
/// and step the optimizer on the summed gradients scaled by `1/B` (see
/// [`Optimizer::scaled_step`], which `Adam` fuses into one pass). The
/// backward skips the input gradient of the network's lowest parametrised
/// layer (see [`Layer::backward_params`]). The result is bit-identical to
/// running the `B` samples one at a time with their gradients accumulated
/// in order.
pub fn minibatch_step(net: &mut Sequential, opt: &mut impl Optimizer, x: &Tensor, t: &Tensor) {
    let batch = x.shape()[0];
    net.zero_grad();
    let y = net.forward(x);
    let (_, g) = huber_loss(&y, t, 1.0);
    net.backward_params(&g);
    opt.scaled_step(&mut net.params_mut(), 1.0 / batch as f32);
}
