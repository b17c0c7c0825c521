//! Optimizers.

use crate::layers::Param;
use crate::wide;

/// Anything that can update parameters from their accumulated gradients.
pub trait Optimizer {
    /// Applies one update step to every parameter. Gradients are consumed
    /// (zeroed) by the step so the next minibatch starts clean.
    fn step(&mut self, params: &mut [&mut Param]);

    /// One step on the gradients `g·scale`: a minibatch step passes
    /// `scale = 1/B` for its `B` summed samples. By default the scale is a
    /// pass of its own before [`step`](Optimizer::step); [`Adam`] fuses it
    /// into its update.
    fn scaled_step(&mut self, params: &mut [&mut Param], scale: f32) {
        for p in params.iter_mut() {
            p.grad.scale(scale);
        }
        self.step(params);
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

/// One task of the pool-parallel Adam pass: a list of `[value, grad, m,
/// v]` runs.
type AdamTask<'a> = Vec<[&'a mut [f32]; 4]>;

/// One step's constants of Adam's fused per-element update.
#[derive(Debug, Clone, Copy)]
struct AdamUpdate {
    scale: f32,
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
    #[inline(always)]
    fn apply(&self, x: &mut [f32], g: &mut [f32], m: &mut [f32], v: &mut [f32]) {
        let k = *self;
        for ((x, g), (m, v)) in x.iter_mut().zip(g).zip(m.iter_mut().zip(v)) {
            let gi = *g * k.scale;
            *g = 0.0;
            *m = k.b1 * *m + k.c1 * gi;
            *v = k.b2 * *v + k.c2 * gi * gi;
            let m_hat = *m / k.bc1;
            let v_hat = *v / k.bc2;
            *x -= k.lr * m_hat / (v_hat.sqrt() + k.eps);
        }
    }
}

/// One pool task of [`Adam::scaled_step`]: [`AdamUpdate::apply`] to each
/// `[value, grad, m, v]` run of the tasks in `tasks`.
struct AdamRuns<'a, 'b> {
    update: AdamUpdate,
    tasks: &'a mut [AdamTask<'b>],
}

impl wide::Kernel for AdamRuns<'_, '_> {
    #[inline(always)]
    fn exec(self) {
        for [x, g, m, v] in self.tasks.iter_mut().flatten() {
            self.update.apply(x, g, m, v);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.scaled_step(params, 1.0);
    }

    /// One fused pass over every element: scale the gradient, update the
    /// moments, apply the bias-corrected update, and zero the gradient, in
    /// the textbook expression order. `1 − β` is hoisted (the same value)
    /// and the divisions stay divisions, so every update is bit-identical
    /// to scaling and a two-pass Adam run one after the other. Elements
    /// are independent, so the parameters are cut into tasks of about
    /// `ADAM_TASK` elements and updated in one pool dispatch; the task
    /// layout cannot change any bit.
    fn scaled_step(&mut self, params: &mut [&mut Param], scale: f32) {
        self.t += 1;
        let update = AdamUpdate {
            scale,
            b1: self.beta1,
            b2: self.beta2,
            c1: 1.0 - self.beta1,
            c2: 1.0 - self.beta2,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
            lr: self.lr,
            eps: self.eps,
        };
        let mut tasks: Vec<AdamTask> = Vec::new();
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
            wide::run(AdamRuns {
                update,
                tasks: task,
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use crate::wide::Kernel;

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
    fn adam_converges_on_a_quadratic() {
        let mut opt = Adam::new(0.3);
        assert!(run(&mut opt, 200) < 1e-2);
    }

    #[test]
    fn adam_fused_scale_matches_separate_passes() {
        // `Adam` through the trait's default `scaled_step`: a scale pass of
        // its own, then a plain step.
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
        for g in [9.0, 0.2] {
            for ps in [&mut fused, &mut separate] {
                for p in ps.iter_mut() {
                    p.grad = Tensor::from_vec(p.value.shape(), wave(p.value.len(), 0.11));
                    p.grad.scale(g);
                }
            }
            adam.scaled_step(&mut fused.each_mut(), 0.25);
            reference.scaled_step(&mut separate.each_mut(), 0.25);
            for (a, b) in fused.iter().zip(&separate) {
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.value), bits(&b.value));
                assert!(a.grad.max_abs() == 0.0 && b.grad.max_abs() == 0.0);
            }
        }
    }

    #[test]
    fn adam_update_matches_across_compilations() {
        // The update called directly (the build target's copy) and through
        // `wide::run` (the AVX2 copy on an AVX2 host), over a parameter
        // that spans three tasks and ends off a multiple of 8.
        let n = 2 * ADAM_TASK + 5;
        let wave = |k: f32| -> Vec<f32> { (0..n).map(|i| (i as f32 * k).sin()).collect() };
        let update = AdamUpdate {
            scale: 0.25,
            b1: 0.9,
            b2: 0.999,
            c1: 1.0 - 0.9,
            c2: 1.0 - 0.999,
            bc1: 1.0 - 0.9f32.powi(3),
            bc2: 1.0 - 0.999f32.powi(3),
            lr: 0.01,
            eps: 1e-8,
        };
        // The second moment is a running mean of squares: non-negative.
        let v = wave(0.02).iter().map(|v| v * v).collect();
        let first = [wave(0.37), wave(0.11), wave(0.05), v];
        let mut state = [first.clone(), first];
        for (copy, [x, g, m, v]) in state.iter_mut().enumerate() {
            let runs = x.chunks_mut(ADAM_TASK).zip(g.chunks_mut(ADAM_TASK));
            let runs = runs.zip(m.chunks_mut(ADAM_TASK).zip(v.chunks_mut(ADAM_TASK)));
            let mut tasks: Vec<AdamTask> =
                runs.map(|((x, g), (m, v))| vec![[x, g, m, v]]).collect();
            let kernel = AdamRuns {
                update,
                tasks: &mut tasks,
            };
            if copy == 0 {
                kernel.exec();
            } else {
                wide::run(kernel);
            }
        }
        for (a, b) in state[0].iter().zip(&state[1]) {
            let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn step_consumes_gradients() {
        let mut p = Param::new(Tensor::vector(&[1.0]));
        p.grad = Tensor::vector(&[2.0]);
        Adam::new(0.1).step(&mut [&mut p]);
        assert_eq!(p.grad.as_slice(), &[0.0]);
        // Adam's first bias-corrected step moves by `lr` against the sign.
        assert!((p.value.as_slice()[0] - 0.9).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn invalid_lr_rejected() {
        Adam::new(0.0);
    }
}
