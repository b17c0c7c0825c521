//! Numerically-stable Poisson machinery.
//!
//! The paper models the event count of every HGrid as
//! `λ_ij ~ Pois(α_ij)` (Sec. III-B) and its formulas multiply Poisson pmf
//! values whose means can reach the thousands (the whole of NYC in one slot
//! when `n = 1`). Naively starting recurrences from `e^{-λ}` underflows for
//! `λ ≳ 745`, silently zeroing every later term, so all pmf evaluation here
//! goes through [`poisson_pmf_into`], which anchors the recurrence at the
//! distribution's mode in log space and walks outward.
//!
//! The walk itself is the **stride-4 recurrence**: instead of the serial
//! chain `p(k+1) = p(k)·λ/(k+1)` (whose mul+div latency is loop-carried),
//! up to four entries on each side of the mode are seeded by the direct
//! log-space formula and then four independent lanes step outward with
//! `p(k±4) = p(k)·λ⁴∕∏(consecutive factors)`. Every entry is a pure
//! function of `(λ, clamped mode, k)` — not of the window bounds — so
//! partial windows that contain the mode match full windows bit for bit.
//! The four lanes are [`crate::simd::F64x4`] values.

use crate::simd::F64x4;

/// Natural log of the Gamma function (Lanczos approximation, g = 7, 9
/// coefficients; |relative error| < 1e-13 over the positive reals).
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    if x < 0.5 {
        // Reflection formula keeps the small-argument branch accurate.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Entries in the precomputed `ln k!` table: every `k < 1024` is served
/// from memory, which removes the Lanczos [`ln_gamma`] evaluation from the
/// pmf mode-anchor recurrence for all realistic per-cell rates.
const LN_FACT_TABLE_LEN: usize = 1024;

/// The `ln k!` lookup table, built once on first use. Each entry is the
/// value [`ln_gamma`]`(k + 1)` would return, so table hits are
/// bit-identical to the direct evaluation. Stored as a fixed array, not
/// a `Vec`: the pmf anchor path (and its 4-lane gather) reads straight
/// off the static without the extra pointer hop through a heap allocation.
fn ln_fact_table() -> &'static [f64; LN_FACT_TABLE_LEN] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; LN_FACT_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0; LN_FACT_TABLE_LEN];
        for (k, v) in t.iter_mut().enumerate() {
            *v = ln_gamma(k as f64 + 1.0);
        }
        t
    })
}

/// Natural log of `k!` for integer `k`. Served from a precomputed table
/// for `k < 1024` (bit-identical to the [`ln_gamma`] evaluation it
/// replaces), falling back to Lanczos for larger arguments.
pub fn ln_factorial(k: u64) -> f64 {
    if (k as usize) < LN_FACT_TABLE_LEN {
        ln_fact_table()[k as usize]
    } else {
        ln_gamma(k as f64 + 1.0)
    }
}

/// Log of the Poisson pmf `P(X = k)` for `X ~ Pois(lambda)`.
///
/// `lambda = 0` is the degenerate point mass at zero.
pub fn poisson_ln_pmf(lambda: f64, k: u64) -> f64 {
    assert!(lambda >= 0.0, "negative Poisson mean");
    if lambda == 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    k as f64 * lambda.ln() - lambda - ln_factorial(k)
}

/// Poisson pmf `P(X = k)`.
pub fn poisson_pmf(lambda: f64, k: u64) -> f64 {
    poisson_ln_pmf(lambda, k).exp()
}

/// Poisson pmf over the inclusive range `lo..=hi`, computed stably for any
/// mean, into a reused buffer: clears `out` and fills it, reallocating
/// only when the window outgrows the buffer's capacity — the batched
/// expression-error kernel leans on that.
///
/// The fill is the stride-4 mode-anchored recurrence (see the module
/// docs): up to four entries on each side of the (clamped) mode are seeded
/// in log space, then `p(k±4) = p(k)·λ⁴∕…` fills the rest in four
/// independent lanes. Every entry is a pure function of
/// `(λ, clamped mode, k)`, so windows sharing the mode agree bitwise
/// wherever they overlap. Values that underflow far in the tails become
/// `0.0`, which is the correct limit.
pub fn poisson_pmf_into(lambda: f64, lo: u64, hi: u64, out: &mut Vec<f64>) {
    assert!(lambda >= 0.0, "negative Poisson mean");
    assert!(lo <= hi, "empty pmf range");
    let len = (hi - lo + 1) as usize;
    out.clear();
    out.resize(len, 0.0);
    if lambda == 0.0 {
        if lo == 0 {
            out[0] = 1.0;
        }
        return;
    }
    let mode = (lambda.floor() as u64).clamp(lo, hi);
    let anchor = (mode - lo) as usize;
    pmf_fill_body(lambda, lo, len, anchor, out);
}

/// One seed entry by the direct log-space formula. The expression is the
/// same association as [`poisson_ln_pmf`], so the anchor seed equals
/// [`poisson_pmf`]`(lambda, k)` bit for bit.
#[inline(always)]
fn seed1(lambda: f64, ln_lam: f64, k: u64) -> f64 {
    (k as f64 * ln_lam - lambda - ln_factorial(k)).exp()
}

/// Four consecutive seeds `k0..k0+4`: a vectorised `ln k!` table gather
/// plus lane-wise mul/sub — per lane exactly [`seed1`]'s expression. The
/// final `exp` is the scalar libm call, so seeds match [`seed1`] bitwise.
#[inline(always)]
fn seed4(lambda: f64, ln_lam: f64, k0: u64) -> F64x4 {
    let kv = F64x4([k0 as f64, (k0 + 1) as f64, (k0 + 2) as f64, (k0 + 3) as f64]);
    let lnf = if k0 + 3 < LN_FACT_TABLE_LEN as u64 {
        let i = k0 as usize;
        F64x4::gather(ln_fact_table(), [i, i + 1, i + 2, i + 3])
    } else {
        F64x4([
            ln_factorial(k0),
            ln_factorial(k0 + 1),
            ln_factorial(k0 + 2),
            ln_factorial(k0 + 3),
        ])
    };
    let ln_p = kv * F64x4::splat(ln_lam) - F64x4::splat(lambda) - lnf;
    F64x4([
        ln_p.0[0].exp(),
        ln_p.0[1].exp(),
        ln_p.0[2].exp(),
        ln_p.0[3].exp(),
    ])
}

/// The stride-4 fill over [`F64x4`] lanes. Seeds sit
/// at indices `anchor..anchor+4` and `anchor-4..anchor` (clipped); waves
/// then step four lanes at a time, `p(k+4) = (p(k)·λ⁴)∕((k+1)(k+2))((k+3)(k+4))`
/// upward and `p(k−4) = (p(k)·(k)(k−1)(k−2)(k−3))∕λ⁴` downward, with the
/// factor products associated `(a·b)·(c·d)`. Tails shorter than a wave
/// use the identical per-entry expression, so lane count never leaks into
/// the values. All `k` factors are exact integers in f64 (`k ≪ 2⁵³`).
fn pmf_fill_body(lambda: f64, lo: u64, len: usize, anchor: usize, out: &mut [f64]) {
    let ln_lam = lambda.ln();
    let lam2 = lambda * lambda;
    let lam4 = lam2 * lam2;
    let mode = lo + anchor as u64;

    // Seeds above the anchor (indices anchor..anchor+4, clipped to len).
    if anchor + 4 <= len {
        seed4(lambda, ln_lam, mode).store(&mut out[anchor..]);
    } else {
        for (i, o) in out[anchor..len].iter_mut().enumerate() {
            *o = seed1(lambda, ln_lam, lo + (anchor + i) as u64);
        }
    }
    // Seeds below the anchor (indices anchor-4..anchor, clipped to 0).
    if anchor >= 4 {
        seed4(lambda, ln_lam, mode - 4).store(&mut out[anchor - 4..]);
    } else {
        for (i, o) in out[..anchor].iter_mut().enumerate() {
            *o = seed1(lambda, ln_lam, lo + i as u64);
        }
    }

    // Upward waves: out[base+4..base+8] from out[base..base+4].
    let mut base = anchor;
    while base + 8 <= len {
        let k0 = lo + base as u64; // value at the lowest input lane
        let a = F64x4([
            (k0 + 1) as f64,
            (k0 + 2) as f64,
            (k0 + 3) as f64,
            (k0 + 4) as f64,
        ]);
        let b = F64x4([
            (k0 + 2) as f64,
            (k0 + 3) as f64,
            (k0 + 4) as f64,
            (k0 + 5) as f64,
        ]);
        let c = F64x4([
            (k0 + 3) as f64,
            (k0 + 4) as f64,
            (k0 + 5) as f64,
            (k0 + 6) as f64,
        ]);
        let d = F64x4([
            (k0 + 4) as f64,
            (k0 + 5) as f64,
            (k0 + 6) as f64,
            (k0 + 7) as f64,
        ]);
        let consec = (a * b) * (c * d);
        let p = F64x4::load(&out[base..]);
        let next = p * F64x4::splat(lam4) / consec;
        next.store(&mut out[base + 4..]);
        base += 4;
    }
    // Upward tail (< 4 entries): the same per-entry expression.
    for i in (base + 4).min(len)..len {
        let km = lo + (i - 4) as u64; // value four below entry i
        let consec =
            (((km + 1) as f64) * ((km + 2) as f64)) * (((km + 3) as f64) * ((km + 4) as f64));
        out[i] = out[i - 4] * lam4 / consec;
    }

    // Downward waves: out[ds-4..ds] from out[ds..ds+4].
    let mut ds = anchor.saturating_sub(4);
    while ds >= 4 {
        let v0 = lo + (ds - 4) as u64; // value at the lowest output lane
        let a = F64x4([
            (v0 + 4) as f64,
            (v0 + 5) as f64,
            (v0 + 6) as f64,
            (v0 + 7) as f64,
        ]);
        let b = F64x4([
            (v0 + 3) as f64,
            (v0 + 4) as f64,
            (v0 + 5) as f64,
            (v0 + 6) as f64,
        ]);
        let c = F64x4([
            (v0 + 2) as f64,
            (v0 + 3) as f64,
            (v0 + 4) as f64,
            (v0 + 5) as f64,
        ]);
        let d = F64x4([
            (v0 + 1) as f64,
            (v0 + 2) as f64,
            (v0 + 3) as f64,
            (v0 + 4) as f64,
        ]);
        let prod = (a * b) * (c * d);
        let p = F64x4::load(&out[ds..]);
        let prev = p * prod / F64x4::splat(lam4);
        prev.store(&mut out[ds - 4..]);
        ds -= 4;
    }
    // Downward tail (< 4 entries): the same per-entry expression.
    for i in (0..ds).rev() {
        let v = lo + i as u64;
        let prod = (((v + 4) as f64) * ((v + 3) as f64)) * (((v + 2) as f64) * ((v + 1) as f64));
        out[i] = out[i + 4] * prod / lam4;
    }
}

/// Closed-form mean absolute deviation of a Poisson variable,
/// `E|X − λ| = 2 λ^(⌊λ⌋+1) e^{-λ} / ⌊λ⌋!` (Crow, 1958). Used as a ground
/// truth in tests and as the irreducible-error floor of an ideal predictor.
pub fn poisson_mad(lambda: f64) -> f64 {
    assert!(lambda >= 0.0, "negative Poisson mean");
    if lambda == 0.0 {
        return 0.0;
    }
    let m = lambda.floor();
    (2.0f64.ln() + (m + 1.0) * lambda.ln() - lambda - ln_gamma(m + 2.0) + (m + 1.0).ln()).exp()
}

/// The largest Poisson mean (2⁴⁰) the expression-error paths accept. Its
/// [`mass_window`] spans `16·√λ + 17 ≈ 2²⁴` entries, 128 MiB of `f64`;
/// a larger mean would ask for a window that cannot be allocated, or one
/// whose bounds overflow `u64`. The field sweeps and
/// [`ExprWorkspace::mgrid_error`](crate::ExprWorkspace::mgrid_error)
/// reject a total rate above it as a [`CoreError::Data`](crate::CoreError::Data).
pub const MAX_POISSON_MEAN: f64 = (1u64 << 40) as f64;

/// The window `[lo, hi]` outside which the `Pois(lambda)` pmf carries less
/// than ~1e-12 of probability mass. `pad` widens the window further (useful
/// when the quantity being integrated grows with `k`).
pub fn mass_window(lambda: f64, pad: u64) -> (u64, u64) {
    if lambda == 0.0 {
        return (0, pad);
    }
    let sd = lambda.sqrt();
    let lo = (lambda - 8.0 * sd - 8.0).max(0.0) as u64;
    let hi = (lambda + 8.0 * sd + 8.0).ceil() as u64 + pad;
    (lo.saturating_sub(pad), hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-local allocating wrapper around [`poisson_pmf_into`].
    fn pmf_range(lambda: f64, lo: u64, hi: u64) -> Vec<f64> {
        let mut out = Vec::new();
        poisson_pmf_into(lambda, lo, hi, &mut out);
        out
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_factorial_matches_direct_product() {
        let mut f = 1.0f64;
        for k in 1..=20u64 {
            f *= k as f64;
            assert!(
                (ln_factorial(k) - f.ln()).abs() < 1e-9,
                "k={k}: {} vs {}",
                ln_factorial(k),
                f.ln()
            );
        }
    }

    #[test]
    fn ln_factorial_table_matches_ln_gamma_everywhere() {
        // The lookup table must agree with the Lanczos evaluation it
        // replaces at 1e-13 relative tolerance over the whole table range
        // (in fact it is built from ln_gamma, so the match is exact), and
        // the fallback must take over seamlessly at the boundary.
        for k in 0..1024u64 {
            let table = ln_factorial(k);
            let direct = ln_gamma(k as f64 + 1.0);
            let tol = 1e-13 * (1.0 + direct.abs());
            assert!(
                (table - direct).abs() <= tol,
                "k={k}: table {table} vs ln_gamma {direct}"
            );
        }
        for k in [1024u64, 1025, 5_000, 1_000_000] {
            assert_eq!(
                ln_factorial(k).to_bits(),
                ln_gamma(k as f64 + 1.0).to_bits(),
                "fallback must be the direct evaluation at k={k}"
            );
        }
    }

    #[test]
    fn pmf_into_reuses_capacity_and_matches_allocating_form() {
        let mut buf = Vec::new();
        poisson_pmf_into(40.0, 0, 120, &mut buf);
        assert_eq!(buf, pmf_range(40.0, 0, 120));
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        // A smaller window must reuse the allocation…
        poisson_pmf_into(3.0, 0, 30, &mut buf);
        assert_eq!(buf, pmf_range(3.0, 0, 30));
        assert_eq!(buf.capacity(), cap, "capacity must be reused");
        assert_eq!(buf.as_ptr(), ptr, "buffer must not be reallocated");
        // …including the degenerate λ = 0 window.
        poisson_pmf_into(0.0, 0, 3, &mut buf);
        assert_eq!(buf, vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn pmf_matches_direct_formula_small() {
        let lambda: f64 = 3.7;
        let mut fact = 1.0;
        for k in 0..15u64 {
            if k > 0 {
                fact *= k as f64;
            }
            let direct = (-lambda).exp() * lambda.powi(k as i32) / fact;
            assert!((poisson_pmf(lambda, k) - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_range_sums_to_one() {
        for &lambda in &[0.01, 0.5, 3.0, 40.0, 500.0, 5_000.0, 50_000.0] {
            let (lo, hi) = mass_window(lambda, 0);
            let total: f64 = pmf_range(lambda, lo, hi).iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "lambda={lambda}: total={total}");
        }
    }

    #[test]
    fn pmf_range_survives_extreme_means() {
        // e^{-5000} underflows, but the mode-anchored pmf must not.
        let (lo, hi) = mass_window(5_000.0, 0);
        let pmf = pmf_range(5_000.0, lo, hi);
        let max = pmf.iter().cloned().fold(0.0, f64::max);
        assert!(max > 1e-4, "mode mass lost: {max}");
    }

    #[test]
    fn pmf_range_degenerate_lambda_zero() {
        assert_eq!(pmf_range(0.0, 0, 3), vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(pmf_range(0.0, 1, 3), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn pmf_range_partial_windows_match_full() {
        // Every entry is a pure function of (λ, clamped mode, k), so two
        // windows that both contain the mode agree *bitwise* on their
        // overlap — not merely to tolerance.
        let lambda = 12.3;
        let full = pmf_range(lambda, 0, 60);
        let part = pmf_range(lambda, 5, 20);
        for (i, v) in part.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                full[i + 5].to_bits(),
                "k={}: {} vs {}",
                i + 5,
                v,
                full[i + 5]
            );
        }
    }

    #[test]
    fn stride4_recurrence_matches_serial_walk() {
        // The lane-parallel fill must agree with the classic serial
        // mode-anchored walk p(k+1) = p(k)·λ/(k+1) to tight relative
        // tolerance wherever the mass is representable.
        for &lambda in &[0.7, 3.0, 12.3, 40.0, 123.4, 5_000.0] {
            let (lo, hi) = mass_window(lambda, 0);
            let got = pmf_range(lambda, lo, hi);
            let len = (hi - lo + 1) as usize;
            let mode = (lambda.floor() as u64).clamp(lo, hi);
            let anchor = (mode - lo) as usize;
            let mut serial = vec![0.0f64; len];
            serial[anchor] = poisson_pmf(lambda, mode);
            for i in (0..anchor).rev() {
                serial[i] = serial[i + 1] * (lo + i as u64 + 1) as f64 / lambda;
            }
            for i in anchor..len - 1 {
                serial[i + 1] = serial[i] * lambda / (lo + i as u64 + 1) as f64;
            }
            for (i, (&g, &s)) in got.iter().zip(serial.iter()).enumerate() {
                if s > 1e-300 {
                    assert!(
                        ((g - s) / s).abs() < 1e-10,
                        "lambda={lambda} i={i}: stride4 {g} vs serial {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn mad_matches_series_sum() {
        for &lambda in &[0.3, 1.0, 2.5, 7.0, 31.4, 250.0] {
            let (lo, hi) = mass_window(lambda, 10);
            let series: f64 = pmf_range(lambda, lo, hi)
                .iter()
                .enumerate()
                .map(|(i, p)| ((lo + i as u64) as f64 - lambda).abs() * p)
                .sum();
            let closed = poisson_mad(lambda);
            assert!(
                (series - closed).abs() < 1e-8 * closed.max(1.0),
                "lambda={lambda}: series={series} closed={closed}"
            );
        }
    }

    #[test]
    fn mad_is_zero_at_zero_and_grows_like_sqrt() {
        assert_eq!(poisson_mad(0.0), 0.0);
        // For large λ, E|X−λ| → √(2λ/π).
        let lambda = 10_000.0;
        let expect = (2.0 * lambda / std::f64::consts::PI).sqrt();
        assert!((poisson_mad(lambda) - expect).abs() / expect < 0.01);
    }

    #[test]
    fn mass_window_contains_the_mean() {
        for &lambda in &[0.0, 1.0, 100.0, 1e6] {
            let (lo, hi) = mass_window(lambda, 0);
            assert!((lo as f64) <= lambda && lambda <= hi as f64);
        }
    }
}
