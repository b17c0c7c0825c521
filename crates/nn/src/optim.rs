//! Optimizers.

use crate::layers::Param;

/// Anything that can update parameters from their accumulated gradients.
pub trait Optimizer {
    /// Applies one update step to every parameter. Gradients are consumed
    /// (zeroed) by the step so the next minibatch starts clean.
    fn step(&mut self, params: &mut [&mut Param]);
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

impl Optimizer for Adam {
    /// One fused pass per parameter: moments, bias correction and update
    /// per element, in the textbook expression order. The zip has no
    /// bounds checks or cross-element dependencies, so it vectorises; the
    /// divisions stay divisions, so every update is bit-identical to the
    /// two-pass form.
    fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (b1, b2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let (c1, c2) = (1.0 - b1, 1.0 - b2);
        for p in params.iter_mut() {
            let elems = p
                .value
                .as_mut_slice()
                .iter_mut()
                .zip(p.grad.as_mut_slice())
                .zip(p.m.iter_mut().zip(p.v.iter_mut()));
            for ((x, g), (m, v)) in elems {
                let gi = *g;
                *g = 0.0;
                *m = b1 * *m + c1 * gi;
                *v = b2 * *v + c2 * gi * gi;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *x -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
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
