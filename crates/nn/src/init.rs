//! Weight initialisation.

use rand::Rng;

/// He/Kaiming uniform initialisation: `U(-a, a)` with `a = √(6 / fan_in)`.
/// Suited to ReLU stacks (keeps activation variance stable).
pub fn he_uniform<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, n: usize) -> Vec<f32> {
    assert!(fan_in > 0, "degenerate fan-in");
    let a = (6.0 / fan_in as f64).sqrt() as f32;
    (0..n).map(|_| rng.gen_range(-a..=a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn he_respects_bounds_and_is_centred() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = he_uniform(&mut rng, 150, 30_000);
        let a = (6.0f64 / 150.0).sqrt() as f32;
        assert!(w.iter().all(|&v| v.abs() <= a));
        let mean: f32 = w.iter().sum::<f32>() / w.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
    }
}
