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
use crate::poisson::poisson_pmf_into;
use gridtuner_spatial::{CellId, CountMatrix, Partition, RegionId, SpatialPartition};

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

/// Sum of `E_e(i,j)` over all HGrids of one MGrid with per-HGrid means
/// `alphas` (`m = alphas.len()`). Uses the batched adaptive-window kernel:
/// identical rates are grouped and each group is evaluated once, with the
/// group results accumulated multiplicity-weighted in first-occurrence
/// order — deterministic, and bit-identical to the per-cell loop whenever
/// the rates are all distinct (group order = cell order).
///
/// One-shot convenience around [`ExprWorkspace`]: field sweeps reuse a
/// workspace and a cross-probe [`PmfMemo`] instead.
pub fn mgrid_expression_error(alphas: &[f64]) -> f64 {
    let memo = PmfMemo::default();
    match ExprWorkspace::new().mgrid_error(alphas, &memo) {
        Ok(e) => e,
        Err(e) => panic!("{e}"),
    }
}

/// Rejects a field containing non-finite or negative rates before any
/// kernel work — once per field, not once per cell.
fn validate_field(alpha: &CountMatrix) -> Result<(), CoreError> {
    for (i, &a) in alpha.as_slice().iter().enumerate() {
        if !a.is_finite() || a < 0.0 {
            return Err(CoreError::Data(format!(
                "α field has a non-finite or negative value {a} at cell {i}"
            )));
        }
    }
    Ok(())
}

/// Total expression error `Σ_r Σ_{j∈r} E_e(r, j)` for any
/// [`SpatialPartition`] via the batched kernel: the sum of per-region
/// expression errors, where each region's cell count `K` is per-call (the
/// kernel's `m` is already a per-call argument, so variable-size regions
/// need no kernel change). The paper's square `n`-MGrid partition is a
/// [`Partition`]. A lattice-mismatched
/// or invalid α field is a [`CoreError::Data`], not a panic.
///
/// `memo` is the cross-probe pmf cache; pass `None` for a per-call cache
/// (rates still dedup across this field's regions, but nothing survives
/// the call). Regions are swept in dense id order over fixed-size
/// contiguous blocks ([`gridtuner_par::par_sum_with`]) with one
/// `(workspace, cell buffer)` pair per worker; block partials are reduced
/// in block order and the blocking depends only on the region count, so
/// the result is **bit-identical for every worker count** and equals
/// [`partition_expression_error_seq`] exactly — the differential the
/// testkit pins.
pub fn try_partition_expression_error<P: SpatialPartition + Sync>(
    alpha: &CountMatrix,
    partition: &P,
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
    let _span = gridtuner_obs::span!("expression_error", regions = partition.n_regions());
    let local;
    let memo = match memo {
        Some(m) => m,
        None => {
            local = PmfMemo::default();
            &local
        }
    };
    let regions: Vec<RegionId> = (0..partition.n_regions()).map(RegionId).collect();
    Ok(gridtuner_par::par_sum_with(
        &regions,
        || (ExprWorkspace::new(), Vec::new()),
        |(ws, buf): &mut (ExprWorkspace, Vec<CellId>), &rid| {
            partition.region_cells_into(rid, buf);
            ws.mgrid_error_trusted(buf.iter().map(|&h| alpha.get(h)), memo)
        },
    ))
}

/// Sequential reference for [`try_partition_expression_error`]: the
/// batched kernel on one thread, folding regions in the same fixed
/// [`gridtuner_par::SUM_BLOCK`] association the parallel sweep uses — so
/// the parallel path must match it **bit for bit**, a property the testkit
/// pins across worker counts.
pub fn partition_expression_error_seq<P: SpatialPartition>(
    alpha: &CountMatrix,
    partition: &P,
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
    let memo = PmfMemo::default();
    let mut ws = ExprWorkspace::new();
    let mut buf = Vec::new();
    let regions: Vec<RegionId> = (0..partition.n_regions()).map(RegionId).collect();
    let mut partials = Vec::with_capacity(regions.len().div_ceil(gridtuner_par::SUM_BLOCK).max(1));
    for block in regions.chunks(gridtuner_par::SUM_BLOCK) {
        // The canonical 4-lane in-block fold `par_sum_with` uses.
        let mut lanes = [0.0f64; 4];
        for (i, &rid) in block.iter().enumerate() {
            partition.region_cells_into(rid, &mut buf);
            lanes[i % 4] += ws.mgrid_error_trusted(buf.iter().map(|&h| alpha.get(h)), &memo);
        }
        partials.push((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
    }
    Ok(partials.iter().sum())
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
/// block's cells in row-major order — the order
/// [`QuadTreePartition`](gridtuner_spatial::QuadTreePartition) enumerates a
/// leaf's cells — so it is bit-equal to that leaf's term in the canonical
/// [`try_partition_expression_error`] fold of any quadtree holding the
/// block as a leaf. Nodes are evaluated in parallel; each value depends
/// only on its block, so the result is the same at every worker count.
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
    let local;
    let memo = match memo {
        Some(m) => m,
        None => {
            local = PmfMemo::default();
            &local
        }
    };
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

/// The pre-batching sweep, kept verbatim for comparison: one
/// [`expression_error_windowed`] call per distinct rate per MGrid (a
/// per-MGrid memo, allocated per cell row), summed in cell order on one
/// thread. `tune_bench`'s kernel comparison and the CI `perf-smoke` gate
/// measure the batched kernel against this; it also serves as an
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

    #[test]
    fn mgrid_error_sums_hgrid_errors() {
        let alphas = [1.0, 2.0, 3.0, 4.0];
        let total: f64 = alphas
            .iter()
            .map(|&a| expression_error_windowed(a, 10.0 - a, 4))
            .sum();
        assert!((mgrid_expression_error(&alphas) - total).abs() < 1e-12);
        assert_eq!(mgrid_expression_error(&[5.0]), 0.0);
        assert_eq!(mgrid_expression_error(&[]), 0.0);
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
            manual += mgrid_expression_error(&alphas);
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
        let p = Partition::new(4, 6);
        let alpha = uneven_field(24);
        let par = uniform_error(&alpha, p, None);
        let seq = partition_expression_error_seq(&alpha, &p).unwrap();
        // The parallel sweep replicates the sequential association exactly.
        assert_eq!(par.to_bits(), seq.to_bits(), "par {par} vs seq {seq}");
        // The pre-batching per-cell loop agrees to reassociation tolerance.
        let percell = total_expression_error_percell(&alpha, &p);
        assert!(
            (par - percell).abs() <= 1e-9 * percell.max(1.0),
            "batched {par} vs per-cell {percell}"
        );
    }

    #[test]
    fn trait_uniform_sweep_is_bit_identical_to_legacy() {
        // The paper's square layout, swept through the trait as a
        // `Partition` and as the equal-sided `RectGrid` that tiles the
        // same lattice in the same region and cell order: one batched path,
        // so the three sums agree to the bit.
        use gridtuner_spatial::{RectGrid, SpatialPartition};
        let p = Partition::new(4, 6);
        let alpha = uneven_field(24);
        let uniform = uniform_error(&alpha, p, None);
        let rect = RectGrid::for_budget(4, 4, 24);
        assert_eq!(rect.hgrid_spec(), p.hgrid_spec());
        let square = try_partition_expression_error(&alpha, &rect, None).unwrap();
        assert_eq!(uniform.to_bits(), square.to_bits(), "{uniform} vs {square}");
        let seq = partition_expression_error_seq(&alpha, &p).unwrap();
        assert_eq!(uniform.to_bits(), seq.to_bits());
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

    #[test]
    fn quadtree_and_rect_sweeps_match_manual_region_sums() {
        use gridtuner_spatial::{QuadTreePartition, RectGrid, RegionId, SpatialPartition};
        let alpha = uneven_field(8);
        let q = QuadTreePartition::uniform_depth(8, 1)
            .and_then(|q| q.split(RegionId(0)))
            .unwrap();
        let swept = try_partition_expression_error(&alpha, &q, None).unwrap();
        let manual: f64 = (0..q.n_regions())
            .map(|r| {
                let rates: Vec<f64> = q
                    .region_cells(RegionId(r))
                    .iter()
                    .map(|&h| alpha.get(h))
                    .collect();
                mgrid_expression_error(&rates)
            })
            .sum();
        assert!(
            (swept - manual).abs() < 1e-9,
            "quadtree {swept} vs {manual}"
        );

        let r = RectGrid::for_budget(2, 4, 8);
        let alpha = uneven_field(r.hgrid_spec().side());
        let swept = try_partition_expression_error(&alpha, &r, None).unwrap();
        let manual: f64 = (0..r.n_regions())
            .map(|i| {
                let rates: Vec<f64> = r
                    .region_cells(RegionId(i))
                    .iter()
                    .map(|&h| alpha.get(h))
                    .collect();
                mgrid_expression_error(&rates)
            })
            .sum();
        assert!((swept - manual).abs() < 1e-9, "rect {swept} vs {manual}");
    }

    #[test]
    fn quadtree_node_errors_are_the_canonical_leaf_terms() {
        use gridtuner_spatial::{QuadTreePartition, RegionId, SpatialPartition};
        let alpha = uneven_field(16);
        let nodes = try_quadtree_node_errors(&alpha, None).unwrap();
        assert_eq!(nodes.len(), (4usize.pow(5) - 1) / 3);
        let memo = PmfMemo::default();
        let mut ws = ExprWorkspace::new();
        for depth in 0..=4u32 {
            let q = QuadTreePartition::uniform_depth(16, depth).unwrap();
            for (r, leaf) in q.leaves().iter().enumerate() {
                let rates: Vec<f64> = q
                    .region_cells(RegionId(r))
                    .iter()
                    .map(|&h| alpha.get(h))
                    .collect();
                let node = quadtree_node_index(depth, leaf.row0 / leaf.size, leaf.col0 / leaf.size);
                assert_eq!(
                    nodes[node].to_bits(),
                    ws.mgrid_error(&rates, &memo).unwrap().to_bits(),
                    "depth {depth} leaf {leaf:?}"
                );
            }
        }
        // A one-leaf tree's canonical fold is its root term, bit for bit.
        let root = QuadTreePartition::root(16);
        let folded = try_partition_expression_error(&alpha, &root, None).unwrap();
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
        use gridtuner_spatial::QuadTreePartition;
        let q = QuadTreePartition::root(8);
        let alpha = CountMatrix::zeros(5);
        match try_partition_expression_error(&alpha, &q, None).unwrap_err() {
            CoreError::Data(msg) => assert!(msg.contains("HGrid lattice"), "{msg}"),
            other => panic!("expected Data, got {other:?}"),
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
