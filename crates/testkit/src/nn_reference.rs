//! The reference for the batched minibatch step.
//!
//! Production training (`gridtuner_predict::minibatch_step`) runs one
//! batched forward and backward per minibatch and a fused one-pass Adam
//! update. The reference here runs each sample of a minibatch on its own,
//! with a full backward, and updates Adam in two passes per parameter.
//! Tests train the same network both ways and require bit-identical
//! weights.

use gridtuner_nn::{huber_loss, Layer, Optimizer, Param, Sequential, Tensor};

/// Adam with bias correction as two passes per parameter: the moment
/// updates first, then the parameter update.
#[derive(Debug, Clone, Copy)]
pub struct TwoPassAdam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
}

impl TwoPassAdam {
    /// Adam with the customary betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        TwoPassAdam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }
}

impl Optimizer for TwoPassAdam {
    // Indexed loops: `g`, `m`, `v` are walked in lockstep.
    #[allow(clippy::needless_range_loop)]
    fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in params.iter_mut() {
            let g = p.grad.as_mut_slice();
            for i in 0..g.len() {
                let gi = g[i];
                g[i] = 0.0;
                p.m[i] = self.beta1 * p.m[i] + (1.0 - self.beta1) * gi;
                p.v[i] = self.beta2 * p.v[i] + (1.0 - self.beta2) * gi * gi;
            }
            let v = p.value.as_mut_slice();
            for i in 0..v.len() {
                let m_hat = p.m[i] / bc1;
                let v_hat = p.v[i] / bc2;
                v[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

/// One epoch of the per-sample minibatch loop over `data` (each pair a
/// one-sample batch `[1, …]`): per minibatch, zero the gradients, run every
/// sample's forward, Huber loss and full backward in order, scale by
/// `1/B` and step `opt`.
pub fn per_sample_epoch(
    net: &mut Sequential,
    opt: &mut impl Optimizer,
    data: &[(Tensor, Tensor)],
    batch_size: usize,
) {
    for batch in data.chunks(batch_size.max(1)) {
        net.zero_grad();
        for (x, t) in batch {
            let y = net.forward(x);
            let (_, g) = huber_loss(&y, t, 1.0);
            net.backward(&g);
        }
        for p in net.params_mut() {
            p.grad.scale(1.0 / batch.len() as f32);
        }
        opt.step(&mut net.params_mut());
    }
}
