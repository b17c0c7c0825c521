//! Property-based tests (proptest) on the workspace's core invariants.

use gridtuner::core::errors::{evaluate_errors, ErrorSample};
use gridtuner::core::expression::{
    expression_error_alg1, expression_error_alg2, expression_error_windowed, lemma_upper_bound,
};
use gridtuner::core::poisson::{mass_window, poisson_mad, poisson_pmf_into};
use gridtuner::spatial::{CountMatrix, GridSpec, Partition, Point};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithms 1 and 2 compute the same truncated series.
    #[test]
    fn alg1_and_alg2_agree(
        a in 0.0f64..20.0,
        b in 0.0f64..40.0,
        m in 2usize..12,
        k in 3usize..25,
    ) {
        let e1 = expression_error_alg1(a, b, m, k);
        let e2 = expression_error_alg2(a, b, m, k);
        prop_assert!((e1 - e2).abs() < 1e-8 * (1.0 + e1.abs()),
            "alg1 {e1} vs alg2 {e2}");
    }

    /// The adaptive-window value is bounded by Lemma III.1 and
    /// non-negative.
    #[test]
    fn windowed_expression_error_respects_lemma(
        a in 0.0f64..100.0,
        b in 0.0f64..500.0,
        m in 2usize..20,
    ) {
        let e = expression_error_windowed(a, b, m);
        prop_assert!(e >= -1e-12);
        prop_assert!(e <= lemma_upper_bound(a, b, m) + 1e-9,
            "e {e} above lemma bound {}", lemma_upper_bound(a, b, m));
    }

    /// Poisson pmf over a mass window always integrates to ≈ 1.
    #[test]
    fn pmf_mass_window_is_complete(lambda in 0.0f64..20_000.0) {
        let (lo, hi) = mass_window(lambda, 0);
        let mut pmf = Vec::new();
        poisson_pmf_into(lambda, lo, hi, &mut pmf);
        let total: f64 = pmf.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "λ={lambda}: {total}");
    }

    /// Closed-form MAD matches the series sum for any mean.
    #[test]
    fn poisson_mad_matches_series(lambda in 0.01f64..2_000.0) {
        let (lo, hi) = mass_window(lambda, 5);
        let mut pmf = Vec::new();
        poisson_pmf_into(lambda, lo, hi, &mut pmf);
        let series: f64 = pmf
            .iter()
            .enumerate()
            .map(|(i, p)| ((lo + i as u64) as f64 - lambda).abs() * p)
            .sum();
        let closed = poisson_mad(lambda);
        prop_assert!((series - closed).abs() < 1e-6 * closed.max(1.0),
            "λ={lambda}: series {series} closed {closed}");
    }

    /// Coarsen/spread conserve mass and invert on any non-negative field.
    #[test]
    fn coarsen_spread_mass_conservation(
        side_factor in 1u32..5,
        factor in 1u32..5,
        seed in 0u64..1000,
    ) {
        let side = side_factor * factor;
        let mut m = CountMatrix::zeros(side);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for v in m.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state % 1000) as f64 / 10.0;
        }
        let down = m.coarsen(factor).unwrap();
        prop_assert!((down.total() - m.total()).abs() < 1e-6);
        let up = down.spread(factor).unwrap();
        prop_assert!((up.total() - m.total()).abs() < 1e-6);
        let down2 = up.coarsen(factor).unwrap();
        for (x, y) in down.as_slice().iter().zip(down2.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// Theorem II.1 on arbitrary prediction/actual pairs.
    #[test]
    fn real_error_bounded_by_decomposition(
        s in 1u32..5,
        q in 1u32..4,
        seed in 0u64..1000,
    ) {
        let p = Partition::new(s, q);
        let mut state = seed.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(3);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 100) as f64 / 7.0
        };
        let pred: Vec<f64> = (0..p.n()).map(|_| next()).collect();
        let actual: Vec<f64> = (0..p.total_hgrids()).map(|_| next()).collect();
        let sample = ErrorSample {
            predicted_mgrid: CountMatrix::from_vec(p.mgrid_spec().side(), pred).unwrap(),
            actual_hgrid: CountMatrix::from_vec(p.hgrid_spec().side(), actual).unwrap(),
        };
        let r = evaluate_errors(&[sample], &p).unwrap();
        prop_assert!(r.real <= r.upper_bound() + 1e-9, "{r:?}");
        prop_assert!(r.upper_bound() - r.real <= 2.0 * r.model.min(r.expression) + 1e-9);
    }

    /// Partition bookkeeping: the MGrids' HGrids tile the lattice — every
    /// HGrid is seen exactly once.
    #[test]
    fn partition_indexing_roundtrip(s in 1u32..8, q in 1u32..6) {
        let p = Partition::new(s, q);
        let h = p.hgrid_spec();
        let mut seen = vec![false; h.n_cells()];
        for mcell in p.mgrid_spec().cells() {
            for hcell in p.hgrids_of(mcell) {
                prop_assert!(!seen[hcell.index()]);
                seen[hcell.index()] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|x| x));
    }

    /// Grid cell lookup agrees with cell bounds on random points.
    #[test]
    fn cell_lookup_matches_bounds(side in 1u32..40, x in 0.0f64..1.0, y in 0.0f64..1.0) {
        let spec = GridSpec::new(side);
        let pt = Point::new(x.min(0.999_999), y.min(0.999_999));
        let cell = spec.cell_of(&pt).unwrap();
        prop_assert!(spec.cell_bounds(cell).contains(&pt));
    }
}
