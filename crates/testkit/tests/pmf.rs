//! Property tests for the stride-4 pmf fill.
//!
//! Two promises of the stride-4 mode-anchored recurrence
//! (`gridtuner_core::poisson::poisson_pmf_into`), fuzzed rather than
//! pinned to examples:
//!
//! 1. **mass conservation** — over the mass window the stride-4 fill sums
//!    to 1 within the same tolerance as the serial mode-anchored walk:
//!    4-wide waves neither leak nor amplify rounding;
//! 2. **window purity** — every entry is a pure function of
//!    `(λ, clamped mode, k)`: a partial window that still contains the
//!    mode reproduces the full window's bits, so memoised and fresh
//!    tables can never disagree.

use gridtuner_core::poisson::{mass_window, poisson_pmf, poisson_pmf_into};
use proptest::prelude::*;

/// The serial reference the stride-4 fill replaced: anchor `p(mode)` by the
/// direct log formula, walk up with `p(k+1) = p(k)·λ/(k+1)` and down
/// with `p(k−1) = p(k)·k/λ`, one entry at a time.
fn serial_walk(lambda: f64, lo: u64, hi: u64) -> Vec<f64> {
    let len = (hi - lo + 1) as usize;
    let mut out = vec![0.0; len];
    if lambda == 0.0 {
        if lo == 0 {
            out[0] = 1.0;
        }
        return out;
    }
    let mode = (lambda.floor() as u64).clamp(lo, hi);
    let anchor = (mode - lo) as usize;
    out[anchor] = poisson_pmf(lambda, mode);
    for i in anchor + 1..len {
        out[i] = out[i - 1] * lambda / (lo + i as u64) as f64;
    }
    for i in (0..anchor).rev() {
        out[i] = out[i + 1] * (lo + i as u64 + 1) as f64 / lambda;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stride4_pmf_conserves_mass_like_the_serial_walk(
        lambda in 0.0f64..3000.0, pad in 0u64..16) {
        let (lo, hi) = mass_window(lambda, pad);
        let mut table = Vec::new();
        poisson_pmf_into(lambda, lo, hi, &mut table);
        let mass: f64 = table.iter().sum();
        prop_assert!(
            (mass - 1.0).abs() < 1e-9,
            "stride-4 window mass {} at λ = {}", mass, lambda
        );
        // Same tolerance as the serial walk: the 4-wide waves change the
        // evaluation order, not the numeric quality.
        let serial_mass: f64 = serial_walk(lambda, lo, hi).iter().sum();
        prop_assert!(
            (mass - serial_mass).abs() < 1e-11,
            "stride-4 mass {} vs serial-walk mass {} at λ = {}",
            mass, serial_mass, lambda
        );
    }

    #[test]
    fn partial_windows_reproduce_full_window_bits(
        lambda in 0.0f64..3000.0, cut_lo in 0u64..40, cut_hi in 0u64..40) {
        let (lo, hi) = mass_window(lambda, 0);
        // Entries are pure in (λ, clamped mode, k), so bitwise agreement
        // is promised for windows sharing the mode: keep it inside.
        let mode = (lambda.floor() as u64).clamp(lo, hi);
        let (sub_lo, sub_hi) = (lo + cut_lo.min(mode - lo), hi - cut_hi.min(hi - mode));
        let mut full = Vec::new();
        poisson_pmf_into(lambda, lo, hi, &mut full);
        let mut part = Vec::new();
        poisson_pmf_into(lambda, sub_lo, sub_hi, &mut part);
        for (i, p) in part.iter().enumerate() {
            let f = full[(sub_lo - lo) as usize + i];
            prop_assert_eq!(
                p.to_bits(), f.to_bits(),
                "k = {} at λ = {}: partial {} vs full {}",
                sub_lo + i as u64, lambda, p, f
            );
        }
    }
}
