//! Optimizers.

use crate::layers::Param;
use crate::layers_extra::clip_gradients;

/// Anything that can update parameters from their accumulated gradients.
pub trait Optimizer {
    /// Applies one update step to every parameter. Gradients are consumed
    /// (zeroed) by the step so the next minibatch starts clean.
    fn step(&mut self, params: &mut [&mut Param]);

    /// One step on the gradients `(g·scale).clamp(−clip, clip)` (`clip = 0`
    /// disables clipping): a minibatch step passes `scale = 1/B` for its
    /// `B` summed samples. By default the scale and the clip are passes of
    /// their own before [`step`](Optimizer::step); [`Adam`] fuses both
    /// into its update.
    fn scaled_step(&mut self, params: &mut [&mut Param], scale: f32, clip: f32) {
        for p in params.iter_mut() {
            p.grad.scale(scale);
        }
        if clip > 0.0 {
            clip_gradients(params, clip);
        }
        self.step(params);
    }
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd { lr, momentum }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            let g = p.grad.as_mut_slice();
            for (i, gi) in g.iter_mut().enumerate() {
                p.m[i] = self.momentum * p.m[i] + *gi;
                *gi = 0.0;
            }
            let v = p.value.as_mut_slice();
            for (vi, mi) in v.iter_mut().zip(&p.m) {
                *vi -= self.lr * mi;
            }
        }
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone, Copy)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    t: u64,
}

impl Adam {
    /// Adam with the customary betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }
}

/// Parameter elements per task of the pool-parallel Adam pass. A smaller
/// parameter shares its task with its neighbours, so a network of fewer
/// elements than this is updated inline, without a pool dispatch.
const ADAM_TASK: usize = 16 * 1024;

/// One step's constants of Adam's fused per-element update.
#[derive(Debug, Clone, Copy)]
struct AdamUpdate {
    scale: f32,
    limit: f32,
    b1: f32,
    b2: f32,
    c1: f32,
    c2: f32,
    bc1: f32,
    bc2: f32,
    lr: f32,
    eps: f32,
}

impl AdamUpdate {
    /// Updates one run of a parameter's elements: value `x`, gradient `g`
    /// and moments `m`, `v`. They are separate arguments so the compiler
    /// knows they do not alias, and vectorises the loop.
    fn apply(&self, x: &mut [f32], g: &mut [f32], m: &mut [f32], v: &mut [f32]) {
        let k = *self;
        for ((x, g), (m, v)) in x.iter_mut().zip(g).zip(m.iter_mut().zip(v)) {
            let gi = (*g * k.scale).clamp(-k.limit, k.limit);
            *g = 0.0;
            *m = k.b1 * *m + k.c1 * gi;
            *v = k.b2 * *v + k.c2 * gi * gi;
            let m_hat = *m / k.bc1;
            let v_hat = *v / k.bc2;
            *x -= k.lr * m_hat / (v_hat.sqrt() + k.eps);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.scaled_step(params, 1.0, 0.0);
    }

    /// One fused pass over every element: scale and clip the gradient,
    /// update the moments, apply the bias-corrected update, and zero the
    /// gradient, in the textbook expression order. Without clipping the
    /// clamp is to `±∞`, which returns its input. `1 − β` is hoisted (the
    /// same value) and the divisions stay divisions, so every update is
    /// bit-identical to scaling, clipping and a two-pass Adam run one
    /// after another. Elements are independent, so the parameters are cut
    /// into tasks of about `ADAM_TASK` elements and updated in one pool
    /// dispatch; the task layout cannot change any bit.
    fn scaled_step(&mut self, params: &mut [&mut Param], scale: f32, clip: f32) {
        self.t += 1;
        let update = AdamUpdate {
            scale,
            limit: if clip > 0.0 { clip } else { f32::INFINITY },
            b1: self.beta1,
            b2: self.beta2,
            c1: 1.0 - self.beta1,
            c2: 1.0 - self.beta2,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
            lr: self.lr,
            eps: self.eps,
        };
        // Each task is a list of `[value, grad, m, v]` runs.
        let mut tasks: Vec<Vec<[&mut [f32]; 4]>> = Vec::new();
        let (mut task, mut filled) = (Vec::new(), 0);
        for p in params.iter_mut() {
            let Param { value, grad, m, v } = &mut **p;
            let runs = value
                .as_mut_slice()
                .chunks_mut(ADAM_TASK)
                .zip(grad.as_mut_slice().chunks_mut(ADAM_TASK))
                .zip(m.chunks_mut(ADAM_TASK).zip(v.chunks_mut(ADAM_TASK)));
            for ((x, g), (m, v)) in runs {
                if filled > 0 && filled + x.len() > ADAM_TASK {
                    tasks.push(std::mem::take(&mut task));
                    filled = 0;
                }
                filled += x.len();
                task.push([x, g, m, v]);
            }
        }
        tasks.push(task);
        gridtuner_par::par_chunks_mut(&mut tasks, 1, |_, task| {
            for [x, g, m, v] in task.iter_mut().flatten() {
                update.apply(x, g, m, v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn quadratic_grad(p: &Param) -> Tensor {
        // L = Σ x² → ∂L/∂x = 2x.
        let g: Vec<f32> = p.value.as_slice().iter().map(|&x| 2.0 * x).collect();
        Tensor::from_vec(p.value.shape(), g)
    }

    fn run<O: Optimizer>(opt: &mut O, steps: usize) -> f32 {
        let mut p = Param::new(Tensor::vector(&[5.0, -3.0, 1.0]));
        for _ in 0..steps {
            p.grad = quadratic_grad(&p);
            opt.step(&mut [&mut p]);
        }
        p.value.max_abs()
    }

    #[test]
    fn sgd_converges_on_a_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0);
        assert!(run(&mut opt, 100) < 1e-3);
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let slow = run(&mut Sgd::new(0.01, 0.0), 60);
        let fast = run(&mut Sgd::new(0.01, 0.9), 60);
        assert!(fast < slow, "momentum {fast} vs plain {slow}");
    }

    #[test]
    fn adam_converges_on_a_quadratic() {
        let mut opt = Adam::new(0.3);
        assert!(run(&mut opt, 200) < 1e-2);
    }

    #[test]
    fn adam_fused_scale_and_clip_match_separate_passes() {
        // `Adam` through the trait's default `scaled_step`: scale and clip
        // passes of their own, then a plain step.
        struct Separate(Adam);
        impl Optimizer for Separate {
            fn step(&mut self, params: &mut [&mut Param]) {
                self.0.step(params);
            }
        }
        // One parameter large enough to span several Adam tasks.
        let wave =
            |n: usize, k: f32| -> Vec<f32> { (0..n).map(|i| (i as f32 * k).sin()).collect() };
        let params =
            || [3, 2 * ADAM_TASK + 5].map(|n| Param::new(Tensor::from_vec(&[n], wave(n, 0.37))));
        let (mut fused, mut separate) = (params(), params());
        let (mut adam, mut reference) = (Adam::new(0.01), Separate(Adam::new(0.01)));
        for (clip, g) in [(0.0, 9.0), (0.5, 9.0), (0.5, 0.2)] {
            for ps in [&mut fused, &mut separate] {
                for p in ps.iter_mut() {
                    p.grad = Tensor::from_vec(p.value.shape(), wave(p.value.len(), 0.11));
                    p.grad.scale(g);
                }
            }
            adam.scaled_step(&mut fused.each_mut(), 0.25, clip);
            reference.scaled_step(&mut separate.each_mut(), 0.25, clip);
            for (a, b) in fused.iter().zip(&separate) {
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.value), bits(&b.value));
                assert!(a.grad.max_abs() == 0.0 && b.grad.max_abs() == 0.0);
            }
        }
    }

    #[test]
    fn step_consumes_gradients() {
        let mut p = Param::new(Tensor::vector(&[1.0]));
        p.grad = Tensor::vector(&[2.0]);
        Sgd::new(0.1, 0.0).step(&mut [&mut p]);
        assert_eq!(p.grad.as_slice(), &[0.0]);
        assert!((p.value.as_slice()[0] - 0.8).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn invalid_lr_rejected() {
        Sgd::new(0.0, 0.5);
    }
}
