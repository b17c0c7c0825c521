//! A reusable training loop with validation-based early stopping,
//! learning-rate decay and gradient clipping, and the one minibatch step
//! every training loop in the crate takes.
//!
//! [`super::models::NnCore`]'s fixed-epoch loop is fine for harness sweeps
//! where wall-clock predictability matters; `fit_until` is the
//! production-style alternative: hold out a slice of the samples, stop when
//! validation stops improving, and keep the best weights seen. Both
//! normalise their samples once and train each minibatch through
//! [`minibatch_step`].

use crate::features::Sample;
use gridtuner_nn::{clip_gradients, huber_loss, Adam, Layer, Optimizer, Sequential, Tensor};
use gridtuner_obs as obs;

/// Early-stopping configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitConfig {
    /// Upper bound on epochs.
    pub max_epochs: usize,
    /// Stop after this many epochs without validation improvement.
    pub patience: usize,
    /// Fraction of samples held out for validation (0 disables early
    /// stopping and trains for `max_epochs`).
    pub val_fraction: f64,
    /// Initial Adam learning rate.
    pub lr: f32,
    /// Multiplicative LR decay per epoch.
    pub lr_decay: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Gradient clip limit (`0` disables clipping).
    pub grad_clip: f32,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            max_epochs: 40,
            patience: 4,
            val_fraction: 0.15,
            lr: 1e-3,
            lr_decay: 0.97,
            batch_size: 16,
            grad_clip: 5.0,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitReport {
    /// Epochs actually run.
    pub epochs: usize,
    /// Best validation loss seen (mean Huber per sample); training loss
    /// when no validation split was requested.
    pub best_val_loss: f64,
    /// Whether early stopping (rather than the epoch cap) ended training.
    pub stopped_early: bool,
}

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
/// scale the summed gradients by `1/B`, clip them to `±grad_clip` (`0`
/// disables clipping), and step the optimizer. The backward skips the
/// input gradient of the network's lowest parametrised layer (see
/// [`Layer::backward_params`]). The result is bit-identical to running the
/// `B` samples one at a time with their gradients accumulated in order.
pub fn minibatch_step(
    net: &mut Sequential,
    opt: &mut impl Optimizer,
    x: &Tensor,
    t: &Tensor,
    grad_clip: f32,
) {
    let batch = x.shape()[0];
    net.zero_grad();
    let y = net.forward(x);
    let (_, g) = huber_loss(&y, t, 1.0);
    net.backward_params(&g);
    for p in net.params_mut() {
        p.grad.scale(1.0 / batch as f32);
    }
    if grad_clip > 0.0 {
        clip_gradients(&mut net.params_mut(), grad_clip);
    }
    opt.step(&mut net.params_mut());
}

/// Mean per-sample Huber loss over `data`, from batched forwards of up to
/// 64 samples (each sample's loss is summed on its own, in sample order).
fn epoch_loss(net: &mut Sequential, data: &[(Tensor, Tensor)]) -> f64 {
    let mut acc = 0.0;
    for chunk in data.chunks(64) {
        let (x, t) = stack_batch(chunk);
        let y = net.forward(&x);
        let per_sample = t.len() / chunk.len();
        for (ys, ts) in y
            .as_slice()
            .chunks_exact(per_sample)
            .zip(t.as_slice().chunks_exact(per_sample))
        {
            acc += huber_loss(&Tensor::vector(ys), &Tensor::vector(ts), 1.0).0;
        }
    }
    acc / data.len().max(1) as f64
}

/// Snapshot / restore of all parameter values.
fn snapshot(net: &mut Sequential) -> Vec<Vec<f32>> {
    net.params_mut()
        .iter()
        .map(|p| p.value.as_slice().to_vec())
        .collect()
}

fn restore(net: &mut Sequential, snap: &[Vec<f32>]) {
    for (p, s) in net.params_mut().into_iter().zip(snap) {
        p.value.as_mut_slice().copy_from_slice(s);
    }
}

/// Trains `net` on `samples` (already shuffled by the caller; the split
/// takes the tail as validation). `norm` is the normalization constant the
/// caller derived from the training data.
pub fn fit_until(
    net: &mut Sequential,
    samples: &[Sample],
    norm: f32,
    cfg: &FitConfig,
) -> FitReport {
    assert!(!samples.is_empty(), "no training samples");
    assert!(norm > 0.0, "normalization must be positive");
    let _span = obs::span!("fit", samples = samples.len(), max_epochs = cfg.max_epochs);
    let n_val = ((samples.len() as f64) * cfg.val_fraction) as usize;
    let (train, val) = samples.split_at(samples.len() - n_val);
    // Scale inputs/targets once up front: the epoch loop below only
    // borrows, so no tensor is cloned per training step.
    let train_data = normalize(train, norm);
    let val_data = normalize(val, norm);
    let mut opt = Adam::new(cfg.lr);
    let mut best = f64::INFINITY;
    let mut best_snap = snapshot(net);
    let mut since_best = 0usize;
    let mut epochs = 0usize;
    let mut stopped_early = false;
    for epoch in 0..cfg.max_epochs {
        let _epoch_span = obs::span!("fit.epoch", epoch = epoch);
        epochs = epoch + 1;
        opt.lr = cfg.lr * cfg.lr_decay.powi(epoch as i32);
        for batch in train_data.chunks(cfg.batch_size.max(1)) {
            let (x, t) = stack_batch(batch);
            minibatch_step(net, &mut opt, &x, &t, cfg.grad_clip);
        }
        let monitored = if val_data.is_empty() {
            epoch_loss(net, &train_data)
        } else {
            epoch_loss(net, &val_data)
        };
        obs::counter!("train.epochs").inc();
        obs::event!("train.epoch", epoch = epoch, loss = monitored);
        if monitored < best - 1e-9 {
            best = monitored;
            best_snap = snapshot(net);
            since_best = 0;
        } else {
            since_best += 1;
            if !val_data.is_empty() && since_best >= cfg.patience {
                stopped_early = true;
                break;
            }
        }
    }
    restore(net, &best_snap);
    FitReport {
        epochs,
        best_val_loss: best,
        stopped_early,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_nn::{Dense, ReLU, Tensor};
    use rand::{rngs::StdRng, SeedableRng};

    fn toy_samples(n: usize) -> Vec<Sample> {
        // y = x0 + 2*x1 on a 1-cell "grid", shuffled (fit_until expects the
        // caller to shuffle before the tail-validation split).
        use rand::seq::SliceRandom;
        let mut out: Vec<Sample> = (0..n)
            .map(|i| {
                let x0 = (i % 10) as f32 / 10.0;
                let x1 = (i / 10) as f32 / 10.0;
                Sample {
                    slot: gridtuner_spatial::SlotId(i as u32),
                    input: Tensor::from_vec(&[2, 1, 1], vec![x0, x1]),
                    target: Tensor::vector(&[x0 + 2.0 * x1]),
                }
            })
            .collect();
        out.shuffle(&mut StdRng::seed_from_u64(99));
        out
    }

    fn toy_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(gridtuner_nn::Flatten::new()),
            Box::new(Dense::new(&mut rng, 2, 16)),
            Box::new(ReLU::new()),
            Box::new(Dense::new(&mut rng, 16, 1)),
        ])
    }

    #[test]
    fn fit_until_learns_the_toy_function() {
        let samples = toy_samples(100);
        let mut net = toy_net(3);
        let cfg = FitConfig {
            lr: 0.01,
            max_epochs: 150,
            patience: 150,
            ..FitConfig::default()
        };
        let report = fit_until(&mut net, &samples, 1.0, &cfg);
        assert!(report.best_val_loss < 0.05, "val loss {report:?}");
        assert!(report.epochs >= 1);
    }

    #[test]
    fn early_stopping_triggers_on_plateau() {
        let samples = toy_samples(60);
        let mut net = toy_net(4);
        let cfg = FitConfig {
            max_epochs: 200,
            patience: 3,
            lr: 0.01,
            ..FitConfig::default()
        };
        let report = fit_until(&mut net, &samples, 1.0, &cfg);
        assert!(
            report.stopped_early || report.epochs == 200,
            "inconsistent report {report:?}"
        );
        assert!(report.epochs < 200, "should stop early on this toy problem");
    }

    #[test]
    fn best_weights_are_restored() {
        // Train with a huge LR that destabilizes late epochs: the reported
        // loss must match the restored weights' loss, not the final ones.
        let samples = toy_samples(80);
        let mut net = toy_net(5);
        let cfg = FitConfig {
            max_epochs: 30,
            patience: 30, // never stop early
            lr: 0.3,
            lr_decay: 1.0,
            ..FitConfig::default()
        };
        let report = fit_until(&mut net, &samples, 1.0, &cfg);
        let n_val = (samples.len() as f64 * cfg.val_fraction) as usize;
        let val = normalize(&samples[samples.len() - n_val..], 1.0);
        let actual = epoch_loss(&mut net, &val);
        assert!(
            (actual - report.best_val_loss).abs() < 1e-9,
            "restored loss {actual} vs reported {}",
            report.best_val_loss
        );
    }

    #[test]
    fn zero_val_fraction_trains_full_epochs() {
        let samples = toy_samples(40);
        let mut net = toy_net(6);
        let cfg = FitConfig {
            max_epochs: 5,
            val_fraction: 0.0,
            ..FitConfig::default()
        };
        let report = fit_until(&mut net, &samples, 1.0, &cfg);
        assert_eq!(report.epochs, 5);
        assert!(!report.stopped_early);
    }

    #[test]
    #[should_panic(expected = "no training samples")]
    fn empty_samples_rejected() {
        fit_until(&mut toy_net(7), &[], 1.0, &FitConfig::default());
    }
}
