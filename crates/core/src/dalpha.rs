//! The unevenness metric `D_α(N)` (Eq. 2) and the HGrid-budget selection
//! rule.
//!
//! `D_α(N) = Σ_ij |α_ij − ᾱ_N|` measures how unevenly the mean event field
//! is distributed over `N` HGrids. Theorem III.1: once HGrids are small
//! enough to be internally uniform, refining further leaves `D_α`
//! unchanged — so the right `N` is where the `D_α(N)` curve flattens
//! (Fig. 14 finds ≈ 76² on NYC; the paper then takes `N = 128²` with
//! margin).

use crate::error::CoreError;
use gridtuner_spatial::{CountMatrix, Partition};

/// `D_α` of a mean field: total absolute deviation from the field mean.
pub fn d_alpha(alpha: &CountMatrix) -> f64 {
    let mean = alpha.mean();
    alpha.as_slice().iter().map(|&a| (a - mean).abs()).sum()
}

/// Per-MGrid unevenness contributions under the square `partition`:
/// entry `r` (row-major MGrid order) is `Σ_{h ∈ MGrid r} |α_h − ᾱ_r|` with
/// `ᾱ_r` the MGrid's own mean — its share of the field's `D_α`. A large
/// contribution marks an MGrid hiding internal structure that a finer
/// grid would expose; zero marks an internally uniform one.
///
/// The field must live on the partition's HGrid lattice.
pub fn region_d_alpha(alpha: &CountMatrix, partition: &Partition) -> Result<Vec<f64>, CoreError> {
    if alpha.side() != partition.hgrid_spec().side() {
        return Err(CoreError::Data(format!(
            "alpha field must live on the partition's HGrid lattice \
             (field side {}, lattice side {})",
            alpha.side(),
            partition.hgrid_spec().side()
        )));
    }
    let k = partition.m() as f64;
    Ok(partition
        .mgrid_spec()
        .cells()
        .map(|mcell| {
            let mean = partition
                .hgrid_iter(mcell)
                .map(|h| alpha.get(h))
                .sum::<f64>()
                / k;
            partition
                .hgrid_iter(mcell)
                .map(|h| (alpha.get(h) - mean).abs())
                .sum()
        })
        .collect())
}

/// Selects the HGrid side from a `(side, D_α)` curve sampled at increasing
/// sides: the first side whose relative `D_α` growth *per doubling of cell
/// count* falls below `flat_threshold` (e.g. `0.05` = 5%). Falls back to
/// the last sampled side when the curve never flattens (the paper's
/// "estimation noise keeps growing" regime).
///
/// The input must be sorted by strictly increasing side and contain at
/// least two points; anything else is a [`CoreError::Data`].
pub fn select_hgrid_side(curve: &[(u32, f64)], flat_threshold: f64) -> Result<u32, CoreError> {
    if curve.len() < 2 {
        return Err(CoreError::Data(format!(
            "need at least two (side, D_alpha) samples to select an HGrid side, got {}",
            curve.len()
        )));
    }
    if let Some(w) = curve.windows(2).find(|w| w[0].0 >= w[1].0) {
        return Err(CoreError::Data(format!(
            "(side, D_alpha) curve must be sorted by strictly increasing side \
             (side {} is followed by side {})",
            w[0].0, w[1].0
        )));
    }
    for w in curve.windows(2) {
        let (s0, d0) = w[0];
        let (s1, d1) = w[1];
        if d0 <= 0.0 {
            continue;
        }
        // Normalize the growth rate to a per-doubling-of-cells basis so the
        // threshold is independent of the sampling stride.
        let doublings = 2.0 * (s1 as f64 / s0 as f64).log2();
        let growth = (d1 - d0) / d0 / doublings.max(f64::MIN_POSITIVE);
        if growth < flat_threshold {
            return Ok(s0);
        }
    }
    Ok(curve[curve.len() - 1].0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(side: u32, f: impl Fn(usize, usize) -> f64) -> CountMatrix {
        let mut m = CountMatrix::zeros(side);
        for r in 0..side as usize {
            for c in 0..side as usize {
                m.as_mut_slice()[r * side as usize + c] = f(r, c);
            }
        }
        m
    }

    #[test]
    fn d_alpha_zero_for_uniform_field() {
        let m = field(8, |_, _| 3.25);
        assert!(d_alpha(&m).abs() < 1e-12);
    }

    #[test]
    fn d_alpha_matches_hand_computation() {
        let m = CountMatrix::from_vec(2, vec![0.0, 0.0, 0.0, 4.0]).unwrap();
        // mean 1: |0-1|·3 + |4-1| = 6.
        assert!((d_alpha(&m) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn d_alpha_invariant_under_uniform_refinement() {
        // Theorem III.1: spreading a field uniformly by K leaves D_α fixed.
        let m = field(4, |r, c| (r * 4 + c) as f64);
        let refined = m.spread(3).unwrap();
        assert!((d_alpha(&m) - d_alpha(&refined)).abs() < 1e-9);
    }

    #[test]
    fn d_alpha_increases_under_concentration() {
        // Coarsening a concentrated field then comparing at equal side:
        // fine view of uneven data has larger D_α than its blurred version.
        let fine = field(8, |r, c| if r == 0 && c == 0 { 64.0 } else { 0.0 });
        let blurred = fine.coarsen(4).unwrap().spread(4).unwrap();
        assert!(d_alpha(&fine) > d_alpha(&blurred));
    }

    #[test]
    fn region_d_alpha_sums_to_partitioned_unevenness() {
        let m = field(8, |r, c| ((r * 5 + c * 3) % 7) as f64);
        // One region covering everything reduces to plain D_α.
        let root = Partition::for_budget(1, 8);
        let contrib = region_d_alpha(&m, &root).unwrap();
        assert_eq!(contrib.len(), 1);
        assert!((contrib[0] - d_alpha(&m)).abs() < 1e-12);
        // A uniform field contributes zero everywhere, any partition.
        let flat = field(8, |_, _| 2.5);
        let u = Partition::for_budget(4, 8);
        assert!(region_d_alpha(&flat, &u)
            .unwrap()
            .iter()
            .all(|&c| c.abs() < 1e-12));
        // Lattice mismatch is a Data error, not a panic.
        assert!(region_d_alpha(&field(5, |_, _| 1.0), &root).is_err());
    }

    #[test]
    fn splitting_never_increases_total_region_d_alpha() {
        // Refinement exposes structure: each region's deviation from its
        // own mean can only shrink when measured against finer means.
        let m = field(8, |r, c| if r < 4 && c < 4 { 9.0 } else { 1.0 });
        let root = Partition::for_budget(1, 8);
        let before: f64 = region_d_alpha(&m, &root).unwrap().iter().sum();
        let split = Partition::for_budget(2, 8);
        let after: f64 = region_d_alpha(&m, &split).unwrap().iter().sum();
        assert!(
            after <= before + 1e-12,
            "split raised D_α: {before} -> {after}"
        );
    }

    #[test]
    fn select_side_finds_the_knee() {
        // D_α grows fast up to side 64, then plateaus.
        let curve = vec![
            (8, 100.0),
            (16, 180.0),
            (32, 260.0),
            (64, 300.0),
            (128, 304.0),
            (256, 306.0),
        ];
        assert_eq!(select_hgrid_side(&curve, 0.05), Ok(64));
    }

    #[test]
    fn select_side_falls_back_to_last_when_never_flat() {
        let curve = vec![(8, 100.0), (16, 200.0), (32, 400.0)];
        assert_eq!(select_hgrid_side(&curve, 0.05), Ok(32));
    }

    #[test]
    fn select_side_handles_zero_prefix() {
        // An all-zero early sample must not divide by zero.
        let curve = vec![(4, 0.0), (8, 10.0), (16, 10.2)];
        assert_eq!(select_hgrid_side(&curve, 0.05), Ok(8));
    }

    #[test]
    fn select_side_requires_sorted_input() {
        for curve in [&[(16, 1.0), (8, 2.0)][..], &[(8, 1.0), (8, 2.0)]] {
            match select_hgrid_side(curve, 0.05) {
                Err(CoreError::Data(m)) => assert!(m.contains("sorted"), "{m}"),
                other => panic!("unsorted curve {curve:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn select_side_requires_two_samples() {
        for curve in [&[][..], &[(8, 1.0)]] {
            match select_hgrid_side(curve, 0.05) {
                Err(CoreError::Data(m)) => assert!(m.contains("at least two"), "{m}"),
                other => panic!("short curve {curve:?} gave {other:?}"),
            }
        }
    }
}
