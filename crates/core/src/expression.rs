//! The expression error `E_e(i,j) = E|λ̄_ij − λ_ij|` (Definition 5) under
//! the paper's Poisson model, and the paper's three ways of computing it.
//!
//! With `λ_ij ~ Pois(a)` (`a = α_ij`) and the rest of the MGrid
//! `λ_{i,≠j} ~ Pois(b)` (`b = Σ_{g≠j} α_ig`), Eq. 7 gives
//!
//! ```text
//! E_e(i,j) = Σ_{k_h} Σ_{k_m} |(m−1)·k_h − k_m| / m · P_a(k_h) · P_b(k_m)
//! ```
//!
//! truncated at `k_h ≤ K`, `k_m ≤ (m−1)K` (Theorem III.2 bounds the
//! truncation error). The implementations:
//!
//! * [`expression_error_naive`] — recomputes each pmf value from scratch by
//!   repeated multiplication, `O(mK³)`: the strawman of Fig. 16;
//! * [`expression_error_alg1`] — the paper's Algorithm 1, incremental pmf
//!   recurrences, `O(mK²)`;
//! * [`expression_error_alg2`] — the paper's Algorithm 2, prefix sums over
//!   the inner series, `O(mK)`;
//! * [`expression_error_windowed`] — a production variant of Algorithm 2
//!   that replaces the fixed `K` with the Poisson mass window, so cost
//!   scales with `√α` instead of `K` and MGrid means in the thousands stay
//!   both stable and fast. This is what the field-level sweeps use.
//!
//! `naive` and `alg1` follow the paper in starting their recurrences at
//! `e^{-α}`, which underflows to zero for `α ≳ 745`; they are kept faithful
//! for the algorithmic comparison and validated only in that domain.
//! `alg2` and `windowed` anchor pmf evaluation at the mode
//! (see [`crate::poisson::poisson_pmf_into`]) and have no such limit.

use crate::error::CoreError;
use crate::expr_kernel::{ExprWorkspace, PmfMemo};
use crate::poisson::{poisson_pmf_into, MAX_POISSON_MEAN};
use gridtuner_spatial::{CellId, CountMatrix, Partition, QuadTreePartition};

/// Expression error by brute force: every `p(r_ij, k_h, k_m)` is rebuilt by
/// an `O(k_h + k_m)` multiplication loop, giving `O(mK³)` total. Subject to
/// underflow for `a + b ≳ 745`, like the paper's original.
pub fn expression_error_naive(a: f64, b: f64, m: usize, k: usize) -> f64 {
    check_args(a, b, m);
    if m == 1 {
        return 0.0;
    }
    let t1 = (m - 1) * k;
    let base = (-(a + b)).exp();
    let mut total = 0.0;
    for kh in 0..=k {
        for km in 0..=t1 {
            // p = e^{-(a+b)} a^kh/kh! · b^km/km!, built term by term.
            let mut p = base;
            for i in 1..=kh {
                p *= a / i as f64;
            }
            for j in 1..=km {
                p *= b / j as f64;
            }
            let weight = ((m - 1) as f64 * kh as f64 - km as f64).abs() / m as f64;
            total += weight * p;
        }
    }
    total
}

/// Algorithm 1 of the paper: the pmf recurrences
/// `p₁ ← p₁·a/k_h`, `p₂ ← p₂·b/(k_m+1)` make each term `O(1)`, for `O(mK²)`
/// total. (The paper's pseudocode updates `p₁` *after* the inner loop
/// starting from `k_h = 1`, which would pair weight `k_h` with probability
/// `P_a(k_h − 1)`; we keep weight and probability aligned.)
pub fn expression_error_alg1(a: f64, b: f64, m: usize, k: usize) -> f64 {
    check_args(a, b, m);
    if m == 1 {
        return 0.0;
    }
    let t1 = (m - 1) * k;
    let mut total = 0.0;
    let mut p1 = (-a).exp(); // P_a(0)
    for kh in 0..=k {
        let mut p2 = (-b).exp(); // P_b(0)
        for km in 0..=t1 {
            let weight = ((m - 1) as f64 * kh as f64 - km as f64).abs() / m as f64;
            total += weight * p1 * p2;
            p2 *= b / (km + 1) as f64;
        }
        p1 *= a / (kh + 1) as f64;
    }
    total
}

/// Algorithm 2 of the paper: split Eq. 16 into the two series `e₁`, `e₂`
/// and maintain their inner sums as prefix sums, giving `O(mK)` total:
///
/// ```text
/// m·E_e = Σ_kh (m−1)·k_h·P_a(k_h)·(2·C_b(T−1) − C_b(T₁))
///       − Σ_kh          P_a(k_h)·(2·S_b(T−1) − S_b(T₁))
/// ```
///
/// with `T = (m−1)k_h`, `T₁ = (m−1)K`, `C_b`/`S_b` the cumulative pmf and
/// first-moment sums of `Pois(b)`. pmf values come from the mode-anchored
/// recurrence, so arbitrarily large means are handled.
pub fn expression_error_alg2(a: f64, b: f64, m: usize, k: usize) -> f64 {
    check_args(a, b, m);
    if m == 1 {
        return 0.0;
    }
    let t1 = (m - 1) * k;
    let mut pa = Vec::new();
    let mut pb = Vec::new();
    poisson_pmf_into(a, 0, k as u64, &mut pa);
    poisson_pmf_into(b, 0, t1 as u64, &mut pb);
    // Prefix sums: cum[j] = Σ_{k≤j} P_b(k), mom[j] = Σ_{k≤j} k·P_b(k).
    let mut cum = vec![0.0; t1 + 1];
    let mut mom = vec![0.0; t1 + 1];
    let mut c = 0.0;
    let mut s = 0.0;
    for (j, &p) in pb.iter().enumerate() {
        c += p;
        s += j as f64 * p;
        cum[j] = c;
        mom[j] = s;
    }
    let c_tot = cum[t1];
    let s_tot = mom[t1];
    let prefix = |arr: &[f64], t: isize| -> f64 {
        if t < 0 {
            0.0
        } else {
            arr[(t as usize).min(t1)]
        }
    };
    let mut total = 0.0;
    for (kh, &p_a) in pa.iter().enumerate() {
        let t = ((m - 1) * kh) as isize - 1;
        let bracket_c = 2.0 * prefix(&cum, t) - c_tot;
        let bracket_s = 2.0 * prefix(&mom, t) - s_tot;
        total += p_a * ((m - 1) as f64 * kh as f64 * bracket_c - bracket_s);
    }
    total / m as f64
}

/// Adaptive-window Algorithm 2: instead of the fixed truncation `K`, sum
/// only over the mass windows of `Pois(a)` and `Pois(b)` (everything
/// outside carries < 1e-12 of mass). Equivalent to the `K → ∞` limit of
/// [`expression_error_alg2`] with cost `O(√a + √b)`.
///
/// ```
/// use gridtuner_core::expression::{expression_error_alg2, expression_error_windowed};
/// let (a, b, m) = (2.0, 10.0, 8);
/// let full = expression_error_windowed(a, b, m);
/// // The fixed-K series converges to the windowed value from below.
/// assert!(expression_error_alg2(a, b, m, 100) <= full + 1e-9);
/// assert!((expression_error_alg2(a, b, m, 100) - full).abs() < 1e-6);
/// ```
pub fn expression_error_windowed(a: f64, b: f64, m: usize) -> f64 {
    check_args(a, b, m);
    gridtuner_obs::counter!("expr.evals").inc();
    if m == 1 {
        return 0.0;
    }
    // Delegate to the batched kernel's table path: it *is* the canonical
    // definition of the windowed error (mass windows, stride-4 pmf fill,
    // 4-lane prefix fold), so a fresh call here and a memoised sweep
    // evaluation produce identical bits by construction.
    crate::expr_kernel::expression_error_kernel(a, b, m)
}

/// Rejects a field containing non-finite or negative rates, or whose
/// total rate exceeds [`MAX_POISSON_MEAN`], before any kernel work — once
/// per field, not once per cell. The total bounds every region's rest rate
/// `b`, so no region of any partition of the field can ask for a pmf
/// window past the cap.
fn validate_field(alpha: &CountMatrix) -> Result<(), CoreError> {
    for (i, &a) in alpha.as_slice().iter().enumerate() {
        if !a.is_finite() || a < 0.0 {
            return Err(CoreError::Data(format!(
                "α field has a non-finite or negative value {a} at cell {i}"
            )));
        }
    }
    check_total(alpha.as_slice().iter().sum())
}

/// [`CoreError::Data`] unless a total rate is within [`MAX_POISSON_MEAN`].
pub(crate) fn check_total(total: f64) -> Result<(), CoreError> {
    if total <= MAX_POISSON_MEAN {
        Ok(())
    } else {
        Err(CoreError::Data(format!(
            "α total {total} exceeds the Poisson mean cap {MAX_POISSON_MEAN}"
        )))
    }
}

/// `memo`, or a per-call memo kept in `local` when there is none: rates
/// still dedup within the call, but nothing survives it.
fn memo_or_local<'a>(memo: Option<&'a PmfMemo>, local: &'a mut Option<PmfMemo>) -> &'a PmfMemo {
    match memo {
        Some(m) => m,
        None => local.insert(PmfMemo::default()),
    }
}

/// Total expression error `Σ_r Σ_{j∈r} E_e(r, j)` of the square
/// `partition` via the batched kernel: the sum of per-MGrid expression
/// errors. A lattice-mismatched or invalid α field is a
/// [`CoreError::Data`], not a panic.
///
/// `memo` is the cross-probe pmf cache; pass `None` for a per-call cache
/// (rates still dedup across this field's MGrids, but nothing survives
/// the call). MGrids are swept in row-major order over fixed-size
/// contiguous blocks ([`gridtuner_par::par_sum_with`]) with one
/// `(workspace, cell buffer)` pair per worker; block partials are reduced
/// in block order and the blocking depends only on the MGrid count, so
/// the result is **bit-identical for every worker count** — a one-worker
/// run is the sequential run.
pub fn try_partition_expression_error(
    alpha: &CountMatrix,
    partition: &Partition,
    memo: Option<&PmfMemo>,
) -> Result<f64, CoreError> {
    if alpha.side() != partition.hgrid_spec().side() {
        return Err(CoreError::Data(format!(
            "alpha field must live on the partition's HGrid lattice \
             (field side {}, lattice side {})",
            alpha.side(),
            partition.hgrid_spec().side()
        )));
    }
    validate_field(alpha)?;
    let _span = gridtuner_obs::span!("expression_error", regions = partition.n());
    let mut local = None;
    let memo = memo_or_local(memo, &mut local);
    let mgrids: Vec<CellId> = partition.mgrid_spec().cells().collect();
    Ok(gridtuner_par::par_sum_with(
        &mgrids,
        || (ExprWorkspace::new(), Vec::new()),
        |(ws, cells): &mut (ExprWorkspace, Vec<CellId>), &mcell| {
            // Gathered first: an exact-size row lets the workspace size its
            // buffers exactly (`hgrid_iter`'s length hint is only a bound).
            cells.clear();
            cells.extend(partition.hgrid_iter(mcell));
            ws.mgrid_error_trusted(cells.iter().map(|&h| alpha.get(h)), memo)
        },
    ))
}

/// Index of quadtree node `(depth, row, col)` in the level-major layout of
/// [`try_quadtree_node_errors`]: `(4^depth − 1)/3 + row·2^depth + col`.
pub fn quadtree_node_index(depth: u32, row: usize, col: usize) -> usize {
    ((1usize << (2 * depth)) - 1) / 3 + (row << depth) + col
}

/// The expression error `E(node)` of every node of the complete quadtree
/// over `alpha`'s lattice, whose side must be a power of two: node
/// `(depth, row, col)` is the `side/2^depth`-cell block at that position,
/// stored at [`quadtree_node_index`] (level by level from the root,
/// row-major within a level).
///
/// Each value is one [`ExprWorkspace::mgrid_error_trusted`] call over the
/// block's cells in row-major order, so it is bit-equal to
/// [`ExprWorkspace::mgrid_error`] over the same rates. Every quadtree leaf
/// is one of these blocks, so [`quadtree_expression_error`] scores any
/// quadtree over the lattice from this one table. Nodes are evaluated in
/// parallel; each value depends only on its block, so the result is the
/// same at every worker count.
pub fn try_quadtree_node_errors(
    alpha: &CountMatrix,
    memo: Option<&PmfMemo>,
) -> Result<Vec<f64>, CoreError> {
    let side = alpha.side() as usize;
    if !side.is_power_of_two() {
        return Err(CoreError::Data(format!(
            "quadtree lattice side {side} is not a power of two"
        )));
    }
    validate_field(alpha)?;
    let _span = gridtuner_obs::span!("quadtree_node_errors", side = side);
    let mut local = None;
    let memo = memo_or_local(memo, &mut local);
    let spec = gridtuner_spatial::GridSpec::new(alpha.side());
    let max_depth = side.trailing_zeros();
    // Contiguous node runs of about `CELLS_PER_TASK` cells each, so one
    // workspace serves many small blocks and big blocks run alone.
    const CELLS_PER_TASK: usize = 2048;
    let mut tasks: Vec<(u32, usize, usize)> = Vec::new();
    for depth in 0..=max_depth {
        let per_side = 1usize << depth;
        let cells = (side >> depth).pow(2);
        let run = (CELLS_PER_TASK / cells).max(1);
        let n = per_side * per_side;
        tasks.extend((0..n).step_by(run).map(|i| (depth, i, (i + run).min(n))));
    }
    let parts = gridtuner_par::par_map(&tasks, |&(depth, start, end)| {
        let mut ws = ExprWorkspace::new();
        let size = side >> depth;
        (start..end)
            .map(|i| {
                let (row0, col0) = ((i >> depth) * size, (i & ((1 << depth) - 1)) * size);
                let cells = (row0..row0 + size)
                    .flat_map(|r| (col0..col0 + size).map(move |c| alpha.get(spec.cell_at(r, c))));
                ws.mgrid_error_trusted(cells, memo)
            })
            .collect::<Vec<f64>>()
    });
    Ok(parts.concat())
}

/// Total expression error of the quadtree `tree` from the node table
/// `nodes` of [`try_quadtree_node_errors`] over the same lattice: each
/// leaf's `E(node)`, folded in region order by [`gridtuner_par::par_sum`]
/// — the blocked 4-lane association the square sweep gets from
/// [`gridtuner_par::par_sum_with`], so the score is the same at every
/// worker count and equals a sweep of the tree's leaves, bit for bit. A
/// table of the wrong length for the tree's lattice is a
/// [`CoreError::Data`].
pub fn quadtree_expression_error(
    nodes: &[f64],
    tree: &QuadTreePartition,
) -> Result<f64, CoreError> {
    let lattice = tree.lattice_side() as usize;
    let levels = lattice.trailing_zeros() + 1;
    if 1usize.checked_shl(2 * levels).map(|n| (n - 1) / 3) != Some(nodes.len()) {
        return Err(CoreError::Data(format!(
            "a quadtree node table of {} entries does not fit a {lattice}-side lattice",
            nodes.len()
        )));
    }
    Ok(gridtuner_par::par_sum(tree.leaves(), |l| {
        let depth = (lattice / l.size).trailing_zeros();
        nodes[quadtree_node_index(depth, l.row0 / l.size, l.col0 / l.size)]
    }))
}

/// The pre-batching sweep, kept verbatim for comparison: one
/// [`expression_error_windowed`] call per distinct rate per MGrid (a
/// per-MGrid memo, allocated per cell row), summed in cell order on one
/// thread. `tune_bench`'s `kernel.speedup` gate measures the batched
/// kernel against this; it also serves as an
/// independent numeric cross-check (agreement to reassociation tolerance,
/// not bitwise — the batched path groups before it sums).
pub fn total_expression_error_percell(alpha: &CountMatrix, partition: &Partition) -> f64 {
    assert_eq!(
        alpha.side(),
        partition.hgrid_spec().side(),
        "alpha field must live on the partition's HGrid lattice"
    );
    partition
        .mgrid_spec()
        .cells()
        .map(|mcell| {
            let alphas: Vec<f64> = partition
                .hgrids_of(mcell)
                .into_iter()
                .map(|h| alpha.get(h))
                .collect();
            let m = alphas.len();
            if m <= 1 {
                return 0.0;
            }
            let total: f64 = alphas.iter().sum();
            let mut memo: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
            alphas
                .iter()
                .map(|&a| {
                    *memo
                        .entry(a.to_bits())
                        .or_insert_with(|| expression_error_windowed(a, (total - a).max(0.0), m))
                })
                .sum::<f64>()
        })
        .sum()
}

/// Lemma III.1's closed-form bound on the (truncated) expression error:
/// `E_e(i,j) < (1 − 2/m)·α_ij + (Σ_k α_ik)/m`.
pub fn lemma_upper_bound(a: f64, b: f64, m: usize) -> f64 {
    (1.0 - 2.0 / m as f64) * a + (a + b) / m as f64
}

fn check_args(a: f64, b: f64, m: usize) {
    // NaN fails the >= comparisons too, so the message must cover both
    // causes (the old "negative Poisson means" text blamed the wrong thing
    // for non-finite inputs).
    assert!(
        a.is_finite() && b.is_finite() && a >= 0.0 && b >= 0.0,
        "Poisson means must be finite and non-negative (a={a}, b={b})"
    );
    assert!(m >= 1, "m must be at least 1");
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_spatial::Partition;

    const CASES: &[(f64, f64, usize, usize)] = &[
        (1.0, 3.0, 4, 20),
        (0.5, 0.5, 2, 25),
        (2.0, 10.0, 9, 30),
        (0.0, 5.0, 4, 25),
        (5.0, 0.0, 4, 30),
        (3.3, 7.7, 16, 25),
    ];

    #[test]
    fn three_algorithms_agree() {
        for &(a, b, m, k) in CASES {
            let naive = expression_error_naive(a, b, m, k);
            let alg1 = expression_error_alg1(a, b, m, k);
            let alg2 = expression_error_alg2(a, b, m, k);
            assert!(
                (naive - alg1).abs() < 1e-10,
                "naive {naive} vs alg1 {alg1} at {a},{b},{m},{k}"
            );
            assert!(
                (alg1 - alg2).abs() < 1e-9,
                "alg1 {alg1} vs alg2 {alg2} at {a},{b},{m},{k}"
            );
        }
    }

    #[test]
    fn windowed_matches_large_k_alg2() {
        for &(a, b, m, _) in CASES {
            let exact = expression_error_alg2(a, b, m, 120);
            let win = expression_error_windowed(a, b, m);
            assert!(
                (exact - win).abs() < 1e-8,
                "alg2(K=120) {exact} vs windowed {win} at {a},{b},{m}"
            );
        }
    }

    #[test]
    fn windowed_survives_huge_means() {
        // n = 1 on a busy city: the MGrid mean is in the thousands. The
        // expression error must be finite, positive, and below the Lemma
        // III.1 bound.
        let (a, b, m) = (80.0, 7_920.0, 100);
        let e = expression_error_windowed(a, b, m);
        assert!(e.is_finite() && e > 0.0, "e = {e}");
        assert!(e < lemma_upper_bound(a, b, m));
    }

    #[test]
    fn m_equal_one_is_zero() {
        assert_eq!(expression_error_windowed(7.0, 0.0, 1), 0.0);
        assert_eq!(expression_error_alg2(7.0, 0.0, 1, 50), 0.0);
        assert_eq!(expression_error_naive(7.0, 0.0, 1, 10), 0.0);
    }

    #[test]
    fn zero_alpha_hgrid_reduces_to_mean_of_rest() {
        // a = 0 ⇒ λ_ij ≡ 0 and E|λ̄_ij − λ_ij| = E[λ_i/m] = b/m.
        let (b, m) = (12.0, 6);
        let e = expression_error_windowed(0.0, b, m);
        assert!((e - b / m as f64).abs() < 1e-9, "e = {e}");
    }

    #[test]
    fn uniform_mgrid_has_small_but_nonzero_error() {
        // Even a perfectly uniform mean field has expression error from
        // Poisson sampling noise; it must be far below an uneven field's.
        let m = 16;
        let uniform = expression_error_windowed(4.0, 4.0 * (m - 1) as f64, m);
        let uneven = expression_error_windowed(64.0, 0.0, m);
        assert!(uniform > 0.0);
        assert!(uneven > 3.0 * uniform, "uniform {uniform} uneven {uneven}");
    }

    #[test]
    fn truncated_series_is_monotone_in_k() {
        let (a, b, m) = (2.0, 6.0, 4);
        let mut prev = 0.0;
        for k in [1usize, 2, 4, 8, 16, 32] {
            let e = expression_error_alg2(a, b, m, k);
            assert!(e >= prev - 1e-12, "K={k}: {e} < {prev}");
            prev = e;
        }
        // And it converges to the windowed value.
        assert!((prev - expression_error_windowed(a, b, m)).abs() < 1e-6);
    }

    #[test]
    fn monte_carlo_validation() {
        // Simulate E|((m−1)X − Y)/m| with X~Pois(a), Y~Pois(b) via a tiny
        // inline Knuth sampler and compare to the analytic value.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut knuth = |lambda: f64| -> u64 {
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.gen::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        };
        let (a, b, m) = (3.0, 9.0, 4usize);
        let trials = 200_000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let x = knuth(a) as f64;
            let y = knuth(b) as f64;
            acc += ((m - 1) as f64 * x - y).abs() / m as f64;
        }
        let mc = acc / trials as f64;
        let analytic = expression_error_windowed(a, b, m);
        assert!(
            (mc - analytic).abs() < 0.02 * analytic,
            "MC {mc} vs analytic {analytic}"
        );
    }

    #[test]
    fn lemma_bound_holds_for_truncated_sums() {
        for &(a, b, m, k) in CASES {
            if m < 2 {
                continue;
            }
            let e = expression_error_alg2(a, b, m, k);
            assert!(
                e < lemma_upper_bound(a, b, m) + 1e-12,
                "bound violated at {a},{b},{m},{k}"
            );
        }
    }

    /// One MGrid's error through a fresh workspace and memo.
    fn mgrid_error(alphas: &[f64]) -> f64 {
        ExprWorkspace::new()
            .mgrid_error(alphas, &PmfMemo::default())
            .unwrap()
    }

    #[test]
    fn mgrid_error_sums_hgrid_errors() {
        let alphas = [1.0, 2.0, 3.0, 4.0];
        let total: f64 = alphas
            .iter()
            .map(|&a| expression_error_windowed(a, 10.0 - a, 4))
            .sum();
        assert!((mgrid_error(&alphas) - total).abs() < 1e-12);
        assert_eq!(mgrid_error(&[5.0]), 0.0);
        assert_eq!(mgrid_error(&[]), 0.0);
    }

    /// The square-partition sweep: `p` through the one batched path.
    fn uniform_error(alpha: &CountMatrix, p: Partition, memo: Option<&PmfMemo>) -> f64 {
        try_partition_expression_error(alpha, &p, memo).unwrap()
    }

    #[test]
    fn total_expression_error_matches_serial_sum() {
        let p = Partition::new(2, 2);
        let alpha = CountMatrix::from_vec(
            4,
            vec![
                1.0, 2.0, 0.5, 0.0, //
                3.0, 4.0, 1.5, 2.5, //
                0.0, 0.0, 8.0, 0.0, //
                0.0, 0.0, 0.0, 0.0,
            ],
        )
        .unwrap();
        let total = uniform_error(&alpha, p, None);
        let mut manual = 0.0;
        for mcell in p.mgrid_spec().cells() {
            let alphas: Vec<f64> = p
                .hgrids_of(mcell)
                .into_iter()
                .map(|h| alpha.get(h))
                .collect();
            manual += mgrid_error(&alphas);
        }
        assert!((total - manual).abs() < 1e-9);
        // The concentrated MGrid (all mass in one HGrid) dominates.
        assert!(total > 0.0);
    }

    #[test]
    #[should_panic(expected = "HGrid lattice")]
    fn total_expression_error_validates_lattice() {
        // The per-cell reference sweep asserts the lattice; the batched
        // sweep reports the same mismatch as a `CoreError::Data` (see
        // `invalid_fields_are_data_errors_on_the_fallible_path`).
        let p = Partition::new(2, 2);
        let alpha = CountMatrix::zeros(5);
        total_expression_error_percell(&alpha, &p);
    }

    fn uneven_field(side: u32) -> CountMatrix {
        let mut alpha = CountMatrix::zeros(side);
        for r in 0..side as usize {
            for c in 0..side as usize {
                // Quantised like a real estimate (count / days), with
                // plenty of repeats for the dedup path.
                alpha.as_mut_slice()[r * side as usize + c] = ((r * 13 + c * 7) % 9) as f64 / 5.0;
            }
        }
        alpha
    }

    #[test]
    fn parallel_seq_and_percell_paths_agree() {
        // 144 MGrids: the sweep's 64-item reduction blocks are crossed.
        let p = Partition::new(12, 2);
        let alpha = uneven_field(24);
        let prev = gridtuner_par::max_threads();
        let [seq, two, eight] = [1, 2, 8].map(|threads| {
            gridtuner_par::set_max_threads(threads);
            uniform_error(&alpha, p, None)
        });
        gridtuner_par::set_max_threads(prev);
        for par in [two, eight] {
            assert_eq!(par.to_bits(), seq.to_bits(), "{par} vs one worker's {seq}");
        }
        // The pre-batching per-cell loop agrees to reassociation tolerance.
        let percell = total_expression_error_percell(&alpha, &p);
        assert!(
            (seq - percell).abs() <= 1e-9 * percell.max(1.0),
            "batched {seq} vs per-cell {percell}"
        );
    }

    #[test]
    fn warm_memo_does_not_move_a_bit() {
        let p = Partition::new(3, 5);
        let alpha = uneven_field(15);
        let memo = PmfMemo::default();
        let cold = uniform_error(&alpha, p, Some(&memo));
        assert!(memo.entries() > 0, "field sweep must populate the memo");
        let warm = uniform_error(&alpha, p, Some(&memo));
        assert_eq!(cold.to_bits(), warm.to_bits());
        assert!(memo.hits() > 0, "second sweep must hit the memo");
    }

    #[test]
    fn invalid_fields_are_data_errors_on_the_fallible_path() {
        let grid = Partition::new(2, 2);
        let mut alpha = CountMatrix::zeros(4);
        alpha.as_mut_slice()[5] = f64::NAN;
        let err = try_partition_expression_error(&alpha, &grid, None).unwrap_err();
        match err {
            CoreError::Data(msg) => assert!(msg.contains("cell 5"), "{msg}"),
            other => panic!("expected Data, got {other:?}"),
        }
        // Finite rates past the Poisson mean cap, in one cell or summed
        // over two: the pmf windows they ask for are refused.
        let over_cap =
            |r: Result<_, CoreError>| matches!(r, Err(CoreError::Data(m)) if m.contains("cap"));
        for rates in [[1e300, 0.0], [0.6 * MAX_POISSON_MEAN; 2]] {
            let mut huge = CountMatrix::zeros(4);
            huge.as_mut_slice()[..2].copy_from_slice(&rates);
            assert!(over_cap(
                try_partition_expression_error(&huge, &grid, None).map(|_| ())
            ));
            assert!(over_cap(try_quadtree_node_errors(&huge, None).map(|_| ())));
        }
        let mismatched = CountMatrix::zeros(5);
        match try_partition_expression_error(&mismatched, &grid, None).unwrap_err() {
            CoreError::Data(msg) => assert!(msg.contains("HGrid lattice"), "{msg}"),
            other => panic!("expected Data, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn check_args_names_non_finite_means() {
        expression_error_windowed(f64::NAN, 1.0, 4);
    }

    /// The rates of a quadtree leaf, row-major.
    fn leaf_rates(alpha: &CountMatrix, l: &gridtuner_spatial::QuadLeaf) -> Vec<f64> {
        let spec = gridtuner_spatial::GridSpec::new(alpha.side());
        (l.row0..l.row0 + l.size)
            .flat_map(|r| (l.col0..l.col0 + l.size).map(move |c| alpha.get(spec.cell_at(r, c))))
            .collect()
    }

    #[test]
    fn quadtree_sweep_matches_manual_region_sums() {
        let alpha = uneven_field(8);
        let q = QuadTreePartition::uniform_depth(8, 1)
            .and_then(|q| q.split(0))
            .unwrap();
        let nodes = try_quadtree_node_errors(&alpha, None).unwrap();
        let folded = quadtree_expression_error(&nodes, &q).unwrap();
        let manual: f64 = q
            .leaves()
            .iter()
            .map(|l| mgrid_error(&leaf_rates(&alpha, l)))
            .sum();
        assert!(
            (folded - manual).abs() < 1e-9,
            "quadtree {folded} vs {manual}"
        );
        // A uniform-depth tree is the square partition of the same lattice:
        // same regions, same cell order, same fold.
        let square = try_partition_expression_error(&alpha, &Partition::new(2, 4), None).unwrap();
        let depth1 = QuadTreePartition::uniform_depth(8, 1).unwrap();
        let folded = quadtree_expression_error(&nodes, &depth1).unwrap();
        assert_eq!(folded.to_bits(), square.to_bits());
    }

    #[test]
    fn quadtree_node_errors_are_the_canonical_leaf_terms() {
        let alpha = uneven_field(16);
        let nodes = try_quadtree_node_errors(&alpha, None).unwrap();
        assert_eq!(nodes.len(), (4usize.pow(5) - 1) / 3);
        let memo = PmfMemo::default();
        let mut ws = ExprWorkspace::new();
        for depth in 0..=4u32 {
            let q = QuadTreePartition::uniform_depth(16, depth).unwrap();
            for leaf in q.leaves() {
                let node = quadtree_node_index(depth, leaf.row0 / leaf.size, leaf.col0 / leaf.size);
                assert_eq!(
                    nodes[node].to_bits(),
                    ws.mgrid_error(&leaf_rates(&alpha, leaf), &memo)
                        .unwrap()
                        .to_bits(),
                    "depth {depth} leaf {leaf:?}"
                );
            }
        }
        // A one-leaf tree's fold is its root term, bit for bit.
        let root = QuadTreePartition::root(16);
        let folded = quadtree_expression_error(&nodes, &root).unwrap();
        assert_eq!(folded.to_bits(), nodes[0].to_bits());
        // Single cells carry no expression error.
        assert!(nodes[quadtree_node_index(4, 0, 0)..]
            .iter()
            .all(|&e| e == 0.0));
        assert!(matches!(
            try_quadtree_node_errors(&uneven_field(12), None),
            Err(CoreError::Data(_))
        ));
    }

    #[test]
    fn partition_sweep_rejects_mismatched_lattice() {
        // A node table from another lattice does not score a quadtree; the
        // square sweep's lattice check is in the fallible-path test above.
        let nodes = try_quadtree_node_errors(&CountMatrix::zeros(4), None).unwrap();
        for q in [QuadTreePartition::root(8), QuadTreePartition::root(1 << 31)] {
            let err = quadtree_expression_error(&nodes, &q);
            assert!(
                matches!(&err, Err(CoreError::Data(m)) if m.contains("node table")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn expression_error_decreases_with_n_on_fixed_field() {
        // The paper's core monotonicity (Fig. 3): finer MGrids → smaller
        // total expression error, on the same underlying α field.
        // Build an uneven 8×8 α field, then compare partitions s=1,2,4,8.
        let side = 8u32;
        let mut alpha = CountMatrix::zeros(side);
        for r in 0..side as usize {
            for c in 0..side as usize {
                // Hotspot in one corner.
                alpha.as_mut_slice()[r * side as usize + c] = 20.0 / (1.0 + (r * r + c * c) as f64);
            }
        }
        let mut prev = f64::INFINITY;
        for s in [1u32, 2, 4, 8] {
            let e = uniform_error(&alpha, Partition::for_budget(s, side), None);
            assert!(
                e <= prev + 1e-9,
                "expression error should fall with n: s={s}, e={e}, prev={prev}"
            );
            prev = e;
        }
        // At s = 8 every MGrid is a single HGrid: error exactly zero.
        assert!(prev.abs() < 1e-12);
    }
}
