//! Search over the MGrid side for the minimum of the real-error upper
//! bound: Brute-force, Ternary Search (Algorithm 4) and the Iterative
//! Method (Algorithm 5).
//!
//! All searchers operate on the MGrid **side** `s = √n` (the paper's
//! searchable axis: `n` is kept a perfect square) through a fallible probe
//! `FnMut(u32) -> Result<f64, CoreError>`; each memoises its probes, so
//! every expensive `UpperBound` evaluation (each one retrains the
//! prediction model) runs once and the unique count is the "cost" column
//! of Table IV. An infallible [`ErrorOracle`] drives a searcher as
//! `|s| Ok(oracle.eval(s))`. An invalid side range or iterative bound is a
//! typed [`CoreError`], never a panic.

use crate::error::CoreError;
use gridtuner_obs as obs;
use std::collections::HashMap;

/// Which search algorithm a tune runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Exhaustive scan (always optimal, `O(√N)` model trainings).
    BruteForce,
    /// Algorithm 4 (`O(log √N)` model trainings).
    Ternary,
    /// Algorithm 5 with the given start point and search bound.
    Iterative {
        /// Initial MGrid side (paper default: 16 ≈ 2 km grids).
        init: u32,
        /// Search boundary `b`.
        bound: u32,
    },
}

/// Anything that can produce the upper-bound error `e(s)` for an MGrid
/// side `s` (Algorithm 3's output).
pub trait ErrorOracle {
    /// Evaluates `e(s)`.
    fn eval(&mut self, side: u32) -> f64;
}

impl<F: FnMut(u32) -> f64> ErrorOracle for F {
    fn eval(&mut self, side: u32) -> f64 {
        self(side)
    }
}

/// Memoizing wrapper: caches evaluations and counts unique oracle calls.
pub struct MemoOracle<O> {
    inner: O,
    cache: HashMap<u32, f64>,
}

impl<O: ErrorOracle> MemoOracle<O> {
    /// Wraps an oracle.
    pub fn new(inner: O) -> Self {
        MemoOracle {
            inner,
            cache: HashMap::new(),
        }
    }

    /// Number of unique (non-cached) evaluations performed so far. A thin
    /// shim over the cache size; the global `search.unique_evals` registry
    /// counter tracks the same quantity across all searches in a run.
    pub fn unique_evals(&self) -> usize {
        self.cache.len()
    }

    /// The cached probes, sorted by side.
    pub fn probes(&self) -> Vec<(u32, f64)> {
        let mut v: Vec<_> = self.cache.iter().map(|(&s, &e)| (s, e)).collect();
        v.sort_by_key(|&(s, _)| s);
        v
    }

    /// Consumes the wrapper, returning the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: ErrorOracle> ErrorOracle for MemoOracle<O> {
    fn eval(&mut self, side: u32) -> f64 {
        if let Some(&e) = self.cache.get(&side) {
            return e;
        }
        obs::counter!("search.unique_evals").inc();
        // "search.probe" (one per unique memoised probe) deliberately
        // differs from the inner oracle's "probe" span so the two layers
        // stay distinguishable in span stats.
        let _span = obs::span!("search.probe", side = side);
        let e = self.inner.eval(side);
        self.cache.insert(side, e);
        e
    }
}

/// Result of a grid-size search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The selected MGrid side `s` (so `n = s²`).
    pub side: u32,
    /// `e(s)` at the selected side.
    pub error: f64,
    /// Unique oracle evaluations spent.
    pub evals: usize,
    /// Every probed `(side, e(side))`, sorted by side.
    pub probes: Vec<(u32, f64)>,
}

/// Fallible memoising probe backing the searchers: the same span/counter
/// behaviour as [`MemoOracle`] (one `search.probe` span and one
/// `search.unique_evals` increment per unique side), over a `Result`
/// probe.
struct TryMemo<F> {
    probe: F,
    cache: HashMap<u32, f64>,
}

impl<F: FnMut(u32) -> Result<f64, CoreError>> TryMemo<F> {
    fn new(probe: F) -> Self {
        TryMemo {
            probe,
            cache: HashMap::new(),
        }
    }

    fn eval(&mut self, side: u32) -> Result<f64, CoreError> {
        if let Some(&e) = self.cache.get(&side) {
            return Ok(e);
        }
        obs::counter!("search.unique_evals").inc();
        // "search.probe" (one per unique memoised probe) deliberately
        // differs from the inner oracle's "probe" span so the two layers
        // stay distinguishable in span stats.
        let _span = obs::span!("search.probe", side = side);
        let e = (self.probe)(side)?;
        self.cache.insert(side, e);
        Ok(e)
    }

    fn outcome(&self, side: u32, error: f64) -> SearchOutcome {
        let mut probes: Vec<(u32, f64)> = self.cache.iter().map(|(&s, &e)| (s, e)).collect();
        probes.sort_by_key(|&(s, _)| s);
        SearchOutcome {
            side,
            error,
            evals: self.cache.len(),
            probes,
        }
    }
}

fn check_range(lo: u32, hi: u32) -> Result<(), CoreError> {
    if lo >= 1 && lo <= hi {
        Ok(())
    } else {
        Err(CoreError::InvalidSideRange { lo, hi })
    }
}

/// Exhaustive search over `lo..=hi`: the paper's Brute-force baseline,
/// `O(√N)` oracle calls, always optimal. Ties break toward the **smaller**
/// side (the update is strict `<`), so on plateaus the result is the
/// left-most minimiser — the canonical tie rule every other searcher is
/// measured against. A probe error aborts the search and propagates.
pub fn try_brute_force(
    probe: impl FnMut(u32) -> Result<f64, CoreError>,
    lo: u32,
    hi: u32,
) -> Result<SearchOutcome, CoreError> {
    check_range(lo, hi)?;
    let _span = obs::span!("search.brute_force", lo = lo, hi = hi);
    let mut memo = TryMemo::new(probe);
    let mut best = (lo, f64::INFINITY);
    for s in lo..=hi {
        let e = memo.eval(s)?;
        if e < best.1 {
            best = (s, e);
        }
    }
    Ok(memo.outcome(best.0, best.1))
}

/// Algorithm 4: Ternary Search over `lo..=hi`. Each round probes the two
/// third-points `m_l < m_r` and discards a third of the interval;
/// `O(log √N)` oracle calls. Finds the optimum whenever `e(s)` is
/// unimodal; on non-ideal curves it still returns a good local answer
/// (the paper's Table IV quantifies how often).
///
/// Plateaus and ties: when the two probes tie (`e(m_l) = e(m_r)`) the
/// right part of the interval is discarded, so the search drifts left. On
/// curves whose only flat region is the **minimum plateau** this still
/// returns a true minimiser (not necessarily the left-most — brute force's
/// tie rule). A flat **shoulder** away from the minimum, however, can make
/// a tie discard the interval that holds the real optimum — the testkit
/// pins a concrete example (`ternary_can_be_misled_by_shoulder_plateaus`).
///
/// A probe error aborts the search and propagates.
///
/// ```
/// use gridtuner_core::search::try_ternary_search;
/// // A U-shaped error curve with its minimum at side 20.
/// let out = try_ternary_search(|s: u32| Ok((s as f64 - 20.0).powi(2)), 1, 76).unwrap();
/// assert_eq!(out.side, 20);
/// assert!(out.evals < 20); // logarithmic, vs 76 for brute force
/// ```
pub fn try_ternary_search(
    probe: impl FnMut(u32) -> Result<f64, CoreError>,
    lo: u32,
    hi: u32,
) -> Result<SearchOutcome, CoreError> {
    check_range(lo, hi)?;
    let _span = obs::span!("search.ternary", lo = lo, hi = hi);
    let mut memo = TryMemo::new(probe);
    let (mut l, mut r) = (lo, hi);
    // Bitwise probe ties observed; each one discarded the right interval
    // and may have been a misleading shoulder plateau (see above).
    let mut plateau_ties = 0u64;
    while r - l > 1 {
        // Third-points, kept strictly inside (l, r) and distinct.
        let mut ml = l + (r - l) / 3;
        let mut mr = r - (r - l) / 3;
        if ml == l {
            ml += 1;
        }
        if mr >= r {
            mr = r - 1;
        }
        if ml >= mr {
            // Interval of width 2: probe the midpoint directly.
            ml = l + 1;
            mr = ml;
        }
        if ml == mr {
            // Single midpoint: shrink toward the better side.
            let em = memo.eval(ml)?;
            let el = memo.eval(l)?;
            let er = memo.eval(r)?;
            if em <= el && em <= er {
                l = ml;
                r = ml;
            } else if el <= er {
                r = ml;
            } else {
                l = ml;
            }
            break;
        }
        let (eml, emr) = (memo.eval(ml)?, memo.eval(mr)?);
        if eml == emr {
            plateau_ties += 1;
        }
        if eml > emr {
            l = ml;
        } else {
            r = mr;
        }
    }
    let (el, er) = (memo.eval(l)?, memo.eval(r)?);
    let (side, error) = if el > er { (r, er) } else { (l, el) };
    let outcome = memo.outcome(side, error);
    // Divergence diagnostics: a tie means a flat stretch steered the
    // search; a probe strictly below the returned error proves the result
    // is suboptimal. Both are anomalies the run report should surface.
    if plateau_ties > 0 {
        obs::warn_event!(
            "ternary.plateau_tie",
            ties = plateau_ties,
            side = side,
            error = error,
        );
    }
    let mut best_probe: Option<(u32, f64)> = None;
    for &(s, e) in &outcome.probes {
        if e < best_probe.map_or(f64::INFINITY, |(_, be)| be) {
            best_probe = Some((s, e));
        }
    }
    if let Some((better_side, better_error)) = best_probe {
        if better_error < error {
            obs::warn_event!(
                "ternary.suboptimal",
                side = side,
                error = error,
                better_side = better_side,
                better_error = better_error,
            );
        }
    }
    Ok(outcome)
}

/// Algorithm 5: the Iterative Method. Starts from `init` (the paper uses
/// the literature's default 16 ≈ 2 km MGrids) and hill-descends: probe
/// offsets `±i` for `i = bound..1`; move to the first improvement, repeat;
/// stop when no offset within `bound` improves.
///
/// (The paper's pseudocode line 13 reads `if e(p) < e(p−i)` which would
/// move *toward* a worse point; we implement the evident intent,
/// `e(p−i) < e(p)`.)
///
/// Plateaus and ties: moves require **strict** improvement, so the method
/// never walks along a flat stretch — on a curve that is flat around
/// `init` it simply returns `init` (clamped). On strictly unimodal curves
/// any `bound ≥ 1` reaches the optimum; with a minimum plateau it stops at
/// the first plateau point it touches.
///
/// A probe error aborts the search and propagates.
pub fn try_iterative_method(
    probe: impl FnMut(u32) -> Result<f64, CoreError>,
    lo: u32,
    hi: u32,
    init: u32,
    bound: u32,
) -> Result<SearchOutcome, CoreError> {
    check_range(lo, hi)?;
    if bound < 1 {
        return Err(CoreError::InvalidSearchBound);
    }
    let _span = obs::span!("search.iterative", lo = lo, hi = hi, init = init);
    let mut memo = TryMemo::new(probe);
    let mut p = init.clamp(lo, hi);
    loop {
        let ep = memo.eval(p)?;
        let mut moved = false;
        for i in (1..=bound).rev() {
            if p + i <= hi && memo.eval(p + i)? < ep {
                p += i;
                moved = true;
                break;
            }
            if p >= lo + i && memo.eval(p - i)? < ep {
                p -= i;
                moved = true;
                break;
            }
        }
        if !moved {
            break;
        }
    }
    let error = memo.eval(p)?;
    Ok(memo.outcome(p, error))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A convex "model + expression" toy curve with its minimum at `opt`,
    /// as an always-`Ok` probe.
    fn convex(opt: f64) -> impl FnMut(u32) -> Result<f64, CoreError> {
        move |s: u32| {
            let s = s as f64;
            Ok(s * 2.0 + opt * opt * 2.0 / s) // derivative zero at s = opt
        }
    }

    #[test]
    fn brute_force_finds_global_optimum() {
        let out = try_brute_force(convex(20.0), 1, 76).unwrap();
        assert_eq!(out.side, 20);
        assert_eq!(out.evals, 76);
        assert_eq!(out.probes.len(), 76);
    }

    #[test]
    fn ternary_matches_brute_on_unimodal_curves() {
        for opt in [2.0, 5.0, 13.0, 16.0, 23.0, 50.0, 75.0] {
            let want = try_brute_force(convex(opt), 1, 76).unwrap().side;
            let got = try_ternary_search(convex(opt), 1, 76).unwrap();
            assert_eq!(got.side, want, "opt={opt}");
            assert!(
                got.evals < 20,
                "ternary used {} evals (should be O(log))",
                got.evals
            );
        }
    }

    #[test]
    fn ternary_handles_tiny_ranges() {
        assert_eq!(try_ternary_search(convex(5.0), 4, 4).unwrap().side, 4);
        assert_eq!(try_ternary_search(convex(5.0), 4, 5).unwrap().side, 5);
        assert_eq!(try_ternary_search(convex(5.0), 4, 6).unwrap().side, 5);
        assert_eq!(try_ternary_search(convex(1.0), 3, 9).unwrap().side, 3);
        assert_eq!(try_ternary_search(convex(100.0), 3, 9).unwrap().side, 9);
    }

    #[test]
    fn iterative_descends_to_the_optimum() {
        for opt in [10.0, 16.0, 23.0] {
            let out = try_iterative_method(convex(opt), 1, 76, 16, 4).unwrap();
            assert_eq!(out.side, opt as u32, "opt={opt}");
        }
    }

    #[test]
    fn iterative_respects_range_clamping() {
        // Init outside the range must be clamped, not rejected.
        let out = try_iterative_method(convex(5.0), 2, 10, 50, 4).unwrap();
        assert_eq!(out.side, 5);
        let out = try_iterative_method(convex(1.0), 2, 10, 1, 4).unwrap();
        assert_eq!(out.side, 2);
    }

    #[test]
    fn iterative_with_small_bound_can_be_trapped() {
        // A curve with a local minimum at 10 separated from the global
        // minimum at 30 by a bump wider than the bound.
        let trap = |s: u32| -> Result<f64, CoreError> {
            let s = s as f64;
            // W-shaped: minima at 10 and 22, the latter deeper.
            let a = (s - 10.0).abs();
            let b = (s - 22.0).abs() - 5.0;
            Ok(a.min(b))
        };
        let stuck = try_iterative_method(trap, 1, 40, 10, 3).unwrap();
        assert_eq!(stuck.side, 10, "small bound should get trapped");
        let escaped = try_iterative_method(trap, 1, 40, 10, 15).unwrap();
        assert_eq!(escaped.side, 22, "large bound should escape");
        assert!(escaped.evals >= stuck.evals);
    }

    #[test]
    fn memoization_deduplicates_oracle_calls() {
        let count = Rc::new(Cell::new(0usize));
        let c = Rc::clone(&count);
        let oracle = move |s: u32| {
            c.set(c.get() + 1);
            (s as f64 - 7.0).powi(2)
        };
        let mut memo = MemoOracle::new(oracle);
        for _ in 0..5 {
            memo.eval(7);
            memo.eval(8);
        }
        assert_eq!(count.get(), 2);
        assert_eq!(memo.unique_evals(), 2);
        assert_eq!(memo.probes(), vec![(7, 0.0), (8, 1.0)]);
    }

    #[test]
    fn ternary_uses_logarithmically_many_evals() {
        let out = try_ternary_search(convex(300.0), 1, 1000).unwrap();
        assert!(out.evals <= 40, "evals = {}", out.evals);
        assert_eq!(out.side, 300);
    }

    #[test]
    fn searchers_report_probe_trails() {
        let out = try_iterative_method(convex(20.0), 1, 76, 16, 4).unwrap();
        assert!(out.probes.iter().any(|&(s, _)| s == out.side));
        assert!(out.probes.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out.evals, out.probes.len());
    }

    #[test]
    fn empty_range_rejected() {
        // An invalid range or bound is a typed error, not a panic.
        for err in [
            try_brute_force(convex(5.0), 10, 3).unwrap_err(),
            try_ternary_search(convex(5.0), 10, 3).unwrap_err(),
            try_iterative_method(convex(5.0), 10, 3, 16, 4).unwrap_err(),
            try_brute_force(convex(5.0), 0, 3).unwrap_err(),
        ] {
            assert!(matches!(err, CoreError::InvalidSideRange { .. }), "{err:?}");
        }
        assert!(matches!(
            try_iterative_method(convex(5.0), 1, 76, 16, 0),
            Err(CoreError::InvalidSearchBound)
        ));
    }

    #[test]
    fn probe_errors_abort_every_searcher() {
        // A failing probe aborts the search with the probe's error.
        let failing = |s: u32| -> Result<f64, CoreError> {
            if s == 10 {
                Err(CoreError::Model {
                    side: s,
                    message: "boom".into(),
                })
            } else {
                convex(20.0)(s)
            }
        };
        assert!(matches!(
            try_brute_force(failing, 1, 76),
            Err(CoreError::Model { side: 10, .. })
        ));
        assert!(matches!(
            try_iterative_method(failing, 1, 76, 10, 4),
            Err(CoreError::Model { side: 10, .. })
        ));
        assert!(matches!(
            try_ternary_search(failing, 10, 12),
            Err(CoreError::Model { side: 10, .. })
        ));
    }
}
