//! Losses with analytic gradients.
//!
//! Each loss returns `(scalar loss, ∂loss/∂prediction)`. Losses are *sums*
//! over elements (not means): callers that train on minibatches divide the
//! accumulated parameter gradients by the batch size instead.

use crate::tensor::Tensor;

/// Squared-error loss `Σ (ŷ − y)²` and its gradient `2(ŷ − y)`.
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> (f64, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "loss shape mismatch");
    let mut loss = 0.0f64;
    let grad: Vec<f32> = pred
        .as_slice()
        .iter()
        .zip(target.as_slice())
        .map(|(&p, &t)| {
            let d = p - t;
            loss += (d as f64) * (d as f64);
            2.0 * d
        })
        .collect();
    (loss, Tensor::from_vec(pred.shape(), grad))
}

/// Huber loss with threshold `delta`: quadratic near zero, linear in the
/// tails — robust to the long-tailed count residuals of busy cells.
pub fn huber_loss(pred: &Tensor, target: &Tensor, delta: f32) -> (f64, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "loss shape mismatch");
    assert!(delta > 0.0, "delta must be positive");
    let mut loss = 0.0f64;
    let grad: Vec<f32> = pred
        .as_slice()
        .iter()
        .zip(target.as_slice())
        .map(|(&p, &t)| {
            let d = p - t;
            if d.abs() <= delta {
                loss += 0.5 * (d as f64) * (d as f64);
                d
            } else {
                loss += (delta * (d.abs() - 0.5 * delta)) as f64;
                delta * d.signum()
            }
        })
        .collect();
    (loss, Tensor::from_vec(pred.shape(), grad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_known_values() {
        let p = Tensor::vector(&[1.0, 3.0]);
        let t = Tensor::vector(&[0.0, 1.0]);
        let (l, g) = mse_loss(&p, &t);
        assert!((l - 5.0).abs() < 1e-9);
        assert_eq!(g.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn huber_transitions_at_delta() {
        let p = Tensor::vector(&[0.5, 3.0]);
        let t = Tensor::vector(&[0.0, 0.0]);
        let (l, g) = huber_loss(&p, &t, 1.0);
        // 0.5·0.25 + 1·(3 − 0.5) = 0.125 + 2.5
        assert!((l - 2.625).abs() < 1e-6);
        assert_eq!(g.as_slice(), &[0.5, 1.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let p = Tensor::vector(&[0.3, -0.8, 1.7]);
        let t = Tensor::vector(&[0.1, 0.1, 0.1]);
        let eps = 1e-3f32;
        for (name, f) in [
            (
                "mse",
                Box::new(|a: &Tensor, b: &Tensor| mse_loss(a, b))
                    as Box<dyn Fn(&Tensor, &Tensor) -> (f64, Tensor)>,
            ),
            (
                "huber",
                Box::new(|a: &Tensor, b: &Tensor| huber_loss(a, b, 1.0)),
            ),
        ] {
            let (_, g) = f(&p, &t);
            for i in 0..p.len() {
                let mut plus = p.clone();
                plus.as_mut_slice()[i] += eps;
                let mut minus = p.clone();
                minus.as_mut_slice()[i] -= eps;
                let num = (f(&plus, &t).0 - f(&minus, &t).0) / (2.0 * eps as f64);
                assert!(
                    (num - g.as_slice()[i] as f64).abs() < 1e-2,
                    "{name} grad {i}: numeric {num} analytic {}",
                    g.as_slice()[i]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_rejected() {
        mse_loss(&Tensor::vector(&[1.0]), &Tensor::vector(&[1.0, 2.0]));
    }
}
