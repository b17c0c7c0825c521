//! The standard oracle-pair registry.
//!
//! [`standard_checks`] returns every differential/metamorphic check the
//! workspace ships, ready to hand to a [`DiffEngine`](crate::DiffEngine).
//! Each check encodes one equivalence or bound the paper (or this
//! implementation's documentation) promises:
//!
//! | check | claim |
//! |---|---|
//! | `expr-naive-vs-alg1` | Algorithm 1 computes the naive truncated series |
//! | `expr-alg1-vs-alg2` | Algorithm 2's prefix-sum algebra matches Algorithm 1 |
//! | `expr-alg2-vs-windowed` | the adaptive window is the `K → ∞` limit of Algorithm 2 |
//! | `expr-lemma-bound` | Lemma III.1 bounds every `E_e(a, b, m)` |
//! | `alpha-cache-vs-direct` | the α cache is bit-identical to `estimate_alpha`, with one log scan |
//! | `alpha-mass-conservation` | binned α mass × window days = in-window, in-square event count |
//! | `tune-threads-1-vs-n` | a brute-force tune at one worker (the sequential run) = at 2 and 8 workers, bit for bit, with one log scan |
//! | `tune-heuristics-consistent` | ternary/iterative probe the same curve and never beat brute force |
//! | `session-vs-direct-search` | a session tune = Algorithm 3 as a plain closure (expression error from a fresh α cache + model error) driven straight through the `try_*` searcher, bit for bit |
//! | `session-incremental-vs-rebuild` | ingest + re-tune = a fresh session on the concatenated log, bit for bit |
//! | `search-ternary-unimodal` | ternary finds the brute-force optimum on strictly unimodal curves |
//! | `search-iterative-unimodal` | the iterative method does too, from any start with any bound ≥ 1 |
//! | `par-sum-determinism` | `par_sum` matches its documented fixed-block association |
//! | `par-accumulate-determinism` | `par_accumulate` matches its documented chunked association |
//! | `total-expr-par-vs-seq` | the square-partition field sweep at 2 and 8 workers = the one-worker (sequential) sweep, bit for bit, for every side |
//! | `batched-vs-seq-expression-error` | the batched sweep with a cold or warm shared pmf memo = the one-worker sweep with a per-call memo, bit for bit, and the per-cell loop to tolerance |
//! | `expr-dedup-weight-conservation` | every cell of an MGrid with `m > 1` is a kernel evaluation or a dedup hit: the workspace tallies add back to `m` |
//! | `nn-dense-vs-naive` | the tiled dense kernel matches the naive mat-vec and its documented 4-lane association bit for bit, its gradients follow their documented order bit for bit, and a batch of `B` = `B` one-sample calls, bit for bit; a random shape plus fixed shapes reaching every tile tail |
//! | `nn-conv-vs-naive` | the tap-hoisted conv kernel matches the naive convolution; a batch of `B` = `B` one-sample calls, bit for bit |
//! | `theorem-ii1-empirical` | real ≤ model + expression on arbitrary samples (and the slack bound) |
//! | `quadtree-dp-vs-exhaustive` | the quadtree refinement's bound = the minimum over every quadtree with a reachable region count on 4×4 and 8×8 lattices, and its tree attains it |
//! | `bootstrap-replicate-vs-direct` | a bootstrap replicate's tune = tuning the materialised resampled log directly, bit for bit, under brute force, ternary search and the iterative method (B = 4, so at ≥ 2 workers the replicates run as pool tasks) |
//! | `bootstrap-seed-determinism` | same seed and B = 4 → the same confidence set, run to run and at 1 (inline replicates) or 8 workers (replicates as pool tasks) |

use crate::diff::Check;
use crate::scenario::Scenario;
use gridtuner_core::alpha_cache::AlphaFieldCache;
use gridtuner_core::errors::{evaluate_errors, ErrorSample};
use gridtuner_core::estimate_alpha;
use gridtuner_core::expr_kernel::{ExprWorkspace, PmfMemo};
use gridtuner_core::expression::{
    expression_error_alg1, expression_error_alg2, expression_error_naive,
    expression_error_windowed, lemma_upper_bound, total_expression_error_percell,
    try_partition_expression_error,
};
use gridtuner_core::resample::resample_events;
use gridtuner_core::search::{
    try_brute_force, try_iterative_method, try_ternary_search, SearchOutcome,
};
use gridtuner_engine::{
    BootstrapConfig, EngineConfig, PartitionKind, PartitionLayout, SearchStrategy, TuneReport,
    TuningSession,
};
use gridtuner_nn::{Conv2d, Dense, Layer, Tensor};
use gridtuner_spatial::{CountMatrix, Event, GridSpec, Partition};
use rand::rngs::StdRng;
use rand::Rng;

/// Relative + absolute closeness with a contextual label.
fn close(label: &str, x: f64, y: f64, rel: f64, abs: f64) -> Result<(), String> {
    let tol = abs + rel * (1.0 + x.abs().max(y.abs()));
    if (x - y).abs() <= tol {
        Ok(())
    } else {
        Err(format!("{label}: {x} vs {y} (|Δ| = {})", (x - y).abs()))
    }
}

/// Bitwise f64 equality with a contextual label.
fn bit_eq(label: &str, x: f64, y: f64) -> Result<(), String> {
    if x.to_bits() == y.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{label}: {x} ({xb:#x}) vs {y} ({yb:#x})",
            xb = x.to_bits(),
            yb = y.to_bits()
        ))
    }
}

/// Sample `s` of a `[B, …]` tensor as a one-sample batch `[1, …]`.
fn one_sample(t: &Tensor, s: usize) -> Tensor {
    let n = t.len() / t.shape()[0];
    let mut shape = t.shape().to_vec();
    shape[0] = 1;
    Tensor::from_vec(&shape, t.as_slice()[s * n..(s + 1) * n].to_vec())
}

/// Bitwise `f32` slice equality with a contextual label.
fn bits_eq(label: &str, x: &[f32], y: &[f32]) -> Result<(), String> {
    match x
        .iter()
        .zip(y)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None if x.len() == y.len() => Ok(()),
        None => Err(format!("{label}: length {} vs {}", x.len(), y.len())),
        Some(i) => Err(format!("{label}[{i}]: {} vs {}", x[i], y[i])),
    }
}

/// The batch contract of a layer: one call on the `[B, …]` batch `x` with
/// output gradient `g` is bit-identical to `B` one-sample calls on a twin
/// built by `make` (same parameters), whose gradients accumulate in sample
/// order — outputs, input gradients and every parameter gradient. A third
/// twin's `backward_params` must accumulate the same parameter gradients.
fn batch_vs_single_samples<L: Layer>(
    make: impl Fn() -> L,
    x: &Tensor,
    g: &Tensor,
) -> Result<(), String> {
    let grads = |layer: &mut L| -> Vec<Vec<f32>> {
        layer
            .params_mut()
            .iter()
            .map(|p| p.grad.as_slice().to_vec())
            .collect()
    };
    let mut batched = make();
    let y = batched.forward(x);
    let dx = batched.backward(g);
    let mut single = make();
    for s in 0..x.shape()[0] {
        let ys = single.forward(&one_sample(x, s));
        bits_eq(
            &format!("output of sample {s}"),
            ys.as_slice(),
            one_sample(&y, s).as_slice(),
        )?;
        let dxs = single.backward(&one_sample(g, s));
        bits_eq(
            &format!("input gradient of sample {s}"),
            dxs.as_slice(),
            one_sample(&dx, s).as_slice(),
        )?;
    }
    let mut lean = make();
    lean.forward(x);
    lean.backward_params(g);
    let want = grads(&mut single);
    for (p, ((b, l), w)) in grads(&mut batched)
        .iter()
        .zip(grads(&mut lean))
        .zip(&want)
        .enumerate()
    {
        bits_eq(&format!("batched gradient of parameter {p}"), b, w)?;
        bits_eq(&format!("backward_params gradient of parameter {p}"), &l, w)?;
    }
    Ok(())
}

/// `w·x` in the Dense forward's documented f32 association: lane `l`
/// sums the products at indices `≡ l (mod 4)` below `n − n mod 4` in
/// ascending order, a tail sums the rest in order, and the result is
/// `((l0 + l1) + (l2 + l3)) + tail`.
fn dense_dot_reference(w: &[f32], x: &[f32]) -> f32 {
    let body = w.len() - w.len() % 4;
    let mut lanes = [0.0f32; 4];
    for i in 0..body {
        lanes[i % 4] += w[i] * x[i];
    }
    let mut tail = 0.0f32;
    for i in body..w.len() {
        tail += w[i] * x[i];
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// One `nn-dense-vs-naive` case: a `Dense` of the given shape, weights
/// and inputs drawn from `rng`. The output matches the f64 mat-vec and,
/// bit for bit, `b + w·x` in the documented association; the gradients
/// follow their documented orders bit for bit; and the batch equals `B`
/// one-sample calls.
#[allow(clippy::needless_range_loop)]
fn dense_vs_naive(
    rng: &mut StdRng,
    in_dim: usize,
    out_dim: usize,
    batch: usize,
) -> Result<(), String> {
    let init = rng.clone();
    let make = || Dense::new(&mut init.clone(), in_dim, out_dim);
    let x: Vec<f32> = (0..batch * in_dim)
        .map(|_| rng.gen_range(-1.0..1.0f64) as f32)
        .collect();
    let g: Vec<f32> = (0..batch * out_dim)
        .map(|_| rng.gen_range(-1.0..1.0f64) as f32)
        .collect();
    let mut layer = make();
    let params: Vec<Vec<f32>> = layer
        .params_mut()
        .iter()
        .map(|p| p.value.as_slice().to_vec())
        .collect();
    let (w, b) = (&params[0], &params[1]);
    let x = Tensor::from_vec(&[batch, in_dim], x);
    let y = layer.forward(&x);
    for (smp, xs) in x.as_slice().chunks_exact(in_dim).enumerate() {
        for o in 0..out_dim {
            let mut acc = b[o] as f64;
            for j in 0..in_dim {
                acc += w[o * in_dim + j] as f64 * xs[j] as f64;
            }
            let got = y.as_slice()[smp * out_dim + o];
            close(
                &format!("dense y[{smp},{o}] ({in_dim}→{out_dim})"),
                got as f64,
                acc,
                1e-4,
                1e-5,
            )?;
            let want = b[o] + dense_dot_reference(&w[o * in_dim..(o + 1) * in_dim], xs);
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "dense y[{smp},{o}] ({in_dim}→{out_dim}, batch {batch}) vs its documented \
                     order: {got} vs {want}"
                ));
            }
        }
    }
    // The gradients' documented f32 associations: dW and db add the
    // samples in order onto what they already hold, and dx[s, i] sums
    // over o ascending from 0.0. Two backward passes, so the second adds
    // onto non-zero gradients.
    let mut dw = vec![0.0f32; out_dim * in_dim];
    let mut db = vec![0.0f32; out_dim];
    let mut dx = vec![0.0f32; batch * in_dim];
    let g = Tensor::from_vec(&[batch, out_dim], g);
    for pass in 0..2 {
        dx.fill(0.0);
        for (smp, (gs, xs)) in g
            .as_slice()
            .chunks_exact(out_dim)
            .zip(x.as_slice().chunks_exact(in_dim))
            .enumerate()
        {
            for o in 0..out_dim {
                db[o] += gs[o];
                for i in 0..in_dim {
                    dw[o * in_dim + i] += gs[o] * xs[i];
                    dx[smp * in_dim + i] += gs[o] * w[o * in_dim + i];
                }
            }
        }
        bits_eq(
            &format!("dense dx vs its documented order (pass {pass})"),
            layer.backward(&g).as_slice(),
            &dx,
        )?;
        let grads = layer.params_mut();
        bits_eq(
            &format!("dense dW vs its documented order (pass {pass})"),
            grads[0].grad.as_slice(),
            &dw,
        )?;
        bits_eq(
            &format!("dense db vs its documented order (pass {pass})"),
            grads[1].grad.as_slice(),
            &db,
        )?;
    }
    batch_vs_single_samples(make, &x, &g)
}

/// Draws `(a, b, m, k)` tuples inside the naive algorithm's affordable,
/// underflow-free domain.
fn small_abmk(s: &Scenario, salt: u64, n: usize) -> Vec<(f64, f64, usize, usize)> {
    let mut rng = s.rng(salt);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0.0..8.0),
                rng.gen_range(0.0..24.0),
                rng.gen_range(1..=6usize),
                rng.gen_range(1..=12usize),
            )
        })
        .collect()
}

/// A strictly unimodal error curve over sides `1..=hi`, indexed by side.
/// Returns `(values, argmin)`; `values[0]` is unused padding.
fn unimodal_curve(s: &Scenario, salt: u64) -> (Vec<f64>, u32) {
    let mut rng = s.rng(salt);
    let hi = rng.gen_range(4..=60u32);
    let t = rng.gen_range(1..=hi);
    let mut v = vec![0.0f64; hi as usize + 1];
    v[t as usize] = rng.gen_range(0.0..10.0);
    for side in (1..t).rev() {
        v[side as usize] = v[side as usize + 1] + rng.gen_range(1e-6..1.0);
    }
    for side in t + 1..=hi {
        v[side as usize] = v[side as usize - 1] + rng.gen_range(1e-6..1.0);
    }
    (v, t)
}

fn engine_config(s: &Scenario, strategy: SearchStrategy) -> EngineConfig {
    EngineConfig {
        hgrid_budget_side: s.params.budget_side,
        side_range: s.params.side_range(),
        strategy,
        alpha_window: s.window,
        clock: s.clock,
        ..EngineConfig::default()
    }
}

/// One fresh session: ingest `events`, tune once.
fn session_tune(
    s: &Scenario,
    config: EngineConfig,
    events: &[Event],
) -> Result<TuneReport, String> {
    let mut session = TuningSession::new(config, s.model_fn())
        .map_err(|e| format!("session rejected {:?}: {e}", config.strategy))?;
    session.ingest(events).map_err(|e| e.to_string())?;
    session.tune().map_err(|e| e.to_string())
}

/// `E(block)` of the `size`-cell square block at `(row0, col0)`, through
/// a fresh workspace and pmf memo.
fn block_error(alpha: &CountMatrix, row0: usize, col0: usize, size: usize) -> Result<f64, String> {
    let spec = GridSpec::new(alpha.side());
    let rates: Vec<f64> = (row0..row0 + size)
        .flat_map(|r| (col0..col0 + size).map(move |c| (r, c)))
        .map(|(r, c)| alpha.get(spec.cell_at(r, c)))
        .collect();
    ExprWorkspace::new()
        .mgrid_error(&rates, &PmfMemo::default())
        .map_err(|e| format!("block ({row0}, {col0}) of side {size}: {e}"))
}

/// Every quadtree over the block at `(row0, col0)` of side `size`, as
/// `(leaf count, Σ leaf errors)`: the block as one leaf first, then every
/// combination of its quadrants' trees.
fn every_quadtree(
    alpha: &CountMatrix,
    row0: usize,
    col0: usize,
    size: usize,
) -> Result<Vec<(usize, f64)>, String> {
    let mut out = vec![(1, block_error(alpha, row0, col0, size)?)];
    if size == 1 {
        return Ok(out);
    }
    let h = size / 2;
    let [a, b, c, d] = [(0, 0), (0, h), (h, 0), (h, h)]
        .map(|(dr, dc)| every_quadtree(alpha, row0 + dr, col0 + dc, h));
    let (a, b, c, d) = (a?, b?, c?, d?);
    for x in &a {
        for y in &b {
            for z in &c {
                for w in &d {
                    out.push((x.0 + y.0 + z.0 + w.0, x.1 + y.1 + z.1 + w.1));
                }
            }
        }
    }
    Ok(out)
}

/// One quadtree refinement checked against the exhaustive minimum, given
/// `least[R]`, the least Σ E over every tree with `R` leaves, under the
/// model curve `model` and the 1-D side range `range`.
fn quadtree_dp_vs_exhaustive(
    s: &Scenario,
    alpha: &CountMatrix,
    least: &[f64],
    range: (u32, u32),
    model: impl Fn(u32) -> f64 + Copy,
) -> Result<(), String> {
    let lattice = alpha.side();
    let config = EngineConfig {
        hgrid_budget_side: lattice,
        side_range: range,
        strategy: SearchStrategy::BruteForce,
        alpha_window: s.window,
        clock: s.clock,
        ..EngineConfig::default()
    };
    let mut session = TuningSession::new(config, model).map_err(|e| e.to_string())?;
    session.ingest(&s.events).map_err(|e| e.to_string())?;
    let report = session
        .tune_partition(PartitionKind::QuadTree)
        .map_err(|e| e.to_string())?;
    // The model leg at R regions: exact on squares, linear in n between
    // the bracketing squares otherwise.
    let model_at = |r: usize| {
        let s1 = (1u32..)
            .take_while(|&x| (x * x) as usize <= r)
            .last()
            .unwrap_or(1);
        let n1 = (s1 * s1) as usize;
        if n1 == r {
            return model(s1);
        }
        let t = (r - n1) as f64 / ((s1 + 1) * (s1 + 1) - s1 * s1) as f64;
        model(s1) + t * (model(s1 + 1) - model(s1))
    };
    // Reachable: a uniform-depth count within the cap, or one whose
    // bracketing sides the 1-D tune (or a seed) already evaluated.
    let cap = report.region_cap;
    let seed_sides: Vec<u32> = (0..=lattice.trailing_zeros())
        .map(|d| 1u32 << d)
        .filter(|&side| (side * side) as usize <= cap)
        .collect();
    let memoised = |side: u32| (range.0..=range.1).contains(&side) || seed_sides.contains(&side);
    let reachable = |r: usize| {
        let s1 = (1u32..)
            .take_while(|&x| (x * x) as usize <= r)
            .last()
            .unwrap_or(1);
        let square = (s1 * s1) as usize == r;
        r <= cap
            && (seed_sides.iter().any(|&side| (side * side) as usize == r)
                || (memoised(s1) && (square || memoised(s1 + 1))))
    };
    let brute = (1..least.len())
        .filter(|&r| least[r].is_finite() && reachable(r))
        .map(|r| least[r] + model_at(r))
        .fold(f64::INFINITY, f64::min);
    let label = format!("{lattice}×{lattice}, sides {range:?}, cap {cap}");
    close(
        &format!("{label}: reported bound vs exhaustive minimum"),
        report.bound,
        brute,
        1e-9,
        0.0,
    )?;
    let PartitionLayout::QuadTree(q) = &report.layout else {
        return Err(format!(
            "{label}: quadtree search returned {:?}",
            report.layout
        ));
    };
    if !reachable(q.leaves().len()) {
        return Err(format!(
            "{label}: {} regions are not reachable",
            q.leaves().len()
        ));
    }
    let own: f64 = q
        .leaves()
        .iter()
        .map(|l| block_error(alpha, l.row0, l.col0, l.size))
        .sum::<Result<f64, String>>()?;
    close(
        &format!("{label}: reported tree vs exhaustive minimum"),
        own + model_at(q.leaves().len()),
        brute,
        1e-9,
        0.0,
    )
}

/// The independent reference tune: Algorithm 3 as a plain closure —
/// expression error from a fresh [`AlphaFieldCache`] plus the scenario's
/// model error — driven straight through the `try_*` searcher of
/// `strategy`. No session, no model memo.
fn direct_tune(s: &Scenario, strategy: SearchStrategy) -> Result<SearchOutcome, String> {
    let (lo, hi) = s.params.side_range();
    let budget = s.params.budget_side;
    let cache = AlphaFieldCache::new(&s.events, &s.clock, &s.window);
    let model = s.model_fn();
    let probe =
        |side: u32| Ok(cache.expression_error(&Partition::for_budget(side, budget))? + model(side));
    strategy
        .run(probe, lo, hi)
        .map_err(|e| format!("direct {strategy:?} search failed: {e}"))
}

/// Side, error and every probe of `got` must equal `want` bit for bit.
fn same_outcome(label: &str, got: &SearchOutcome, want: &SearchOutcome) -> Result<(), String> {
    if got.side != want.side {
        return Err(format!(
            "{label}: optimum side {} vs {}",
            got.side, want.side
        ));
    }
    bit_eq(&format!("{label}: optimum error"), got.error, want.error)?;
    if got.probes.len() != want.probes.len() {
        return Err(format!(
            "{label}: probe counts {} vs {}",
            got.probes.len(),
            want.probes.len()
        ));
    }
    for ((s1, e1), (s2, e2)) in got.probes.iter().zip(&want.probes) {
        if s1 != s2 {
            return Err(format!("{label}: probe order diverged: side {s1} vs {s2}"));
        }
        bit_eq(&format!("{label}: probe e({s1})"), *e1, *e2)?;
    }
    Ok(())
}

/// The heuristic strategies a scenario exercises, seed-derived so the
/// iterative start and bound vary across scenarios.
fn heuristics(s: &Scenario) -> [SearchStrategy; 2] {
    let (_, hi) = s.params.side_range();
    [
        SearchStrategy::Ternary,
        SearchStrategy::Iterative {
            init: 1 + (s.params.seed % hi as u64) as u32,
            bound: 1 + (s.params.seed % 4) as u32,
        },
    ]
}

/// Every standard check, in a deterministic order.
pub fn standard_checks() -> Vec<Check> {
    let mut checks = Vec::new();

    checks.push(Check::new("expr-naive-vs-alg1", |s| {
        for (a, b, m, k) in small_abmk(s, 0x01, 8) {
            close(
                &format!("E_e({a}, {b}, m={m}, K={k})"),
                expression_error_naive(a, b, m, k),
                expression_error_alg1(a, b, m, k),
                1e-9,
                1e-12,
            )?;
        }
        Ok(())
    }));

    checks.push(Check::new("expr-alg1-vs-alg2", |s| {
        let mut rng = s.rng(0x02);
        for _ in 0..8 {
            let (a, b) = (rng.gen_range(0.0..20.0), rng.gen_range(0.0..40.0));
            let m = rng.gen_range(1..=8usize);
            let k = rng.gen_range(1..=40usize);
            close(
                &format!("E_e({a}, {b}, m={m}, K={k})"),
                expression_error_alg1(a, b, m, k),
                expression_error_alg2(a, b, m, k),
                1e-8,
                1e-12,
            )?;
        }
        Ok(())
    }));

    checks.push(Check::new("expr-alg2-vs-windowed", |s| {
        let mut rng = s.rng(0x03);
        for _ in 0..6 {
            let (a, b) = (rng.gen_range(0.0..8.0), rng.gen_range(0.0..24.0));
            let m = rng.gen_range(2..=8usize);
            // K = 80 puts the fixed truncation far past both mass windows,
            // so the two must agree to truncation error (< 1e-6).
            close(
                &format!("E_e({a}, {b}, m={m})"),
                expression_error_alg2(a, b, m, 80),
                expression_error_windowed(a, b, m),
                1e-6,
                1e-6,
            )?;
        }
        Ok(())
    }));

    checks.push(Check::new("expr-lemma-bound", |s| {
        let mut rng = s.rng(0x04);
        for _ in 0..8 {
            let (a, b) = (rng.gen_range(0.0..50.0), rng.gen_range(0.0..100.0));
            let m = rng.gen_range(1..=16usize);
            let e = expression_error_windowed(a, b, m);
            let bound = lemma_upper_bound(a, b, m);
            if e < -1e-12 || e > bound + 1e-9 * (1.0 + bound) {
                return Err(format!(
                    "Lemma III.1: E_e({a}, {b}, m={m}) = {e} outside [0, {bound}]"
                ));
            }
        }
        Ok(())
    }));

    checks.push(Check::new("alpha-cache-vs-direct", |s| {
        let cache = AlphaFieldCache::new(&s.events, &s.clock, &s.window);
        for side in 1..=s.params.max_side {
            let part = Partition::for_budget(side, s.params.budget_side);
            let spec = part.hgrid_spec();
            let cached = cache.alpha(spec);
            let direct = estimate_alpha(&s.events, spec, &s.clock, &s.window);
            for (i, (c, d)) in cached.as_slice().iter().zip(direct.as_slice()).enumerate() {
                bit_eq(&format!("α[{i}] on side {}", spec.side()), *c, *d)?;
            }
        }
        Ok(())
    }));

    checks.push(Check::new("alpha-mass-conservation", |s| {
        let days = s.window.days(&s.clock);
        if days.is_empty() {
            return Ok(()); // all-weekend window: α is defined as zero
        }
        let matched = s
            .events
            .iter()
            .filter(|e| {
                let slot = e.slot(&s.clock);
                e.loc.in_unit_square()
                    && s.clock.slot_of_day(slot) == s.window.slot_of_day
                    && days.contains(&s.clock.day_of(slot))
            })
            .count();
        let alpha = estimate_alpha(&s.events, GridSpec::new(16), &s.clock, &s.window);
        close(
            "binned α mass × days vs matched events",
            alpha.total() * days.len() as f64,
            matched as f64,
            1e-9,
            1e-6,
        )
    }));

    checks.push(Check::new("tune-threads-1-vs-n", |s| {
        // `GRIDTUNER_THREADS=1` is the sequential run: the pool only ever
        // splits a probe's expression sweep, so a wider pool must not
        // move a bit.
        let config = engine_config(s, SearchStrategy::BruteForce);
        let prev = gridtuner_par::max_threads();
        let run = || -> Result<(), String> {
            gridtuner_par::set_max_threads(1);
            let seq = session_tune(s, config, &s.events)?;
            for threads in [2usize, 8] {
                gridtuner_par::set_max_threads(threads);
                let par = session_tune(s, config, &s.events)?;
                same_outcome(
                    &format!("{threads} workers vs 1"),
                    &par.outcome,
                    &seq.outcome,
                )?;
            }
            Ok(())
        };
        let result = run();
        gridtuner_par::set_max_threads(prev);
        result
    }));

    checks.push(Check::new("tune-heuristics-consistent", |s| {
        let brute = session_tune(s, engine_config(s, SearchStrategy::BruteForce), &s.events)?;
        let curve: std::collections::BTreeMap<u32, f64> =
            brute.outcome.probes.iter().copied().collect();
        for strat in heuristics(s) {
            let out = session_tune(s, engine_config(s, strat), &s.events)?;
            // Metamorphic: every heuristic probe must land on the brute
            // curve bit-for-bit (same oracle, deterministic) ...
            for (side, e) in &out.outcome.probes {
                let expect = curve
                    .get(side)
                    .ok_or_else(|| format!("{strat:?} probed side {side} outside the range"))?;
                bit_eq(&format!("{strat:?} probe e({side})"), *e, *expect)?;
            }
            // ... and no heuristic may claim an error below the optimum.
            if out.outcome.error < brute.outcome.error {
                return Err(format!(
                    "{strat:?} claims error {} below brute-force optimum {}",
                    out.outcome.error, brute.outcome.error
                ));
            }
        }
        Ok(())
    }));

    checks.push(Check::new("session-vs-direct-search", |s| {
        let [ternary, iterative] = heuristics(s);
        for strat in [SearchStrategy::BruteForce, ternary, iterative] {
            let direct = direct_tune(s, strat)?;
            let report = session_tune(s, engine_config(s, strat), &s.events)?;
            same_outcome(
                &format!("{strat:?} session vs direct"),
                &report.outcome,
                &direct,
            )?;
        }
        Ok(())
    }));

    checks.push(Check::new("session-incremental-vs-rebuild", |s| {
        if s.events.len() < 2 {
            return Ok(()); // nothing to split (shrunk scenarios)
        }
        let model = s.model_fn();
        let config = engine_config(s, SearchStrategy::BruteForce);
        let whole = session_tune(s, config, &s.events)?;
        // Seed-derived split point, kept off the ends so the delta is real.
        let cut = 1 + (s.params.seed as usize % (s.events.len() - 1));
        let mut inc = TuningSession::new(config, model).map_err(|e| e.to_string())?;
        inc.ingest(&s.events[..cut]).map_err(|e| e.to_string())?;
        inc.tune().map_err(|e| e.to_string())?;
        inc.ingest(&s.events[cut..]).map_err(|e| e.to_string())?;
        let delta = inc.tune().map_err(|e| e.to_string())?;
        same_outcome("incremental vs rebuild", &delta.outcome, &whole.outcome)?;
        if delta.alpha_delta_scans != 1 {
            return Err(format!(
                "{} delta scans, contract says 1",
                delta.alpha_delta_scans
            ));
        }
        Ok(())
    }));

    checks.push(Check::new("search-ternary-unimodal", |s| {
        let (curve, t) = unimodal_curve(s, 0x07);
        let hi = curve.len() as u32 - 1;
        let probe = |side: u32| Ok(curve[side as usize]);
        let brute = try_brute_force(probe, 1, hi).map_err(|e| e.to_string())?;
        if brute.side != t {
            return Err(format!("brute force found {} not argmin {t}", brute.side));
        }
        let tern = try_ternary_search(probe, 1, hi).map_err(|e| e.to_string())?;
        if tern.side != t {
            return Err(format!(
                "ternary found {} (e = {}) on a strictly unimodal curve with argmin {t} (e = {})",
                tern.side, tern.error, curve[t as usize]
            ));
        }
        bit_eq("ternary optimum error", tern.error, brute.error)
    }));

    checks.push(Check::new("search-iterative-unimodal", |s| {
        let (curve, t) = unimodal_curve(s, 0x08);
        let hi = curve.len() as u32 - 1;
        let mut rng = s.rng(0x0880);
        let init = rng.gen_range(1..=hi);
        let bound = rng.gen_range(1..=4u32);
        let out = try_iterative_method(|side: u32| Ok(curve[side as usize]), 1, hi, init, bound)
            .map_err(|e| e.to_string())?;
        if out.side != t {
            return Err(format!(
                "iterative (init {init}, bound {bound}) stopped at {} not argmin {t}",
                out.side
            ));
        }
        bit_eq("iterative optimum error", out.error, curve[t as usize])
    }));

    checks.push(Check::new("par-sum-determinism", |s| {
        let mut rng = s.rng(0x09);
        let n = rng.gen_range(0..600usize);
        let items: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let got = gridtuner_par::par_sum(&items, |x| x * x);
        // The documented contract: fold fixed 64-element blocks — each
        // with the canonical 4-lane association (item i into lane i mod 4,
        // lanes tree-folded (l₀+l₁)+(l₂+l₃)) — then sum the block partials
        // in order, independent of the worker count.
        let reference: f64 = items
            .chunks(64)
            .map(|block| {
                let mut lanes = [0.0f64; 4];
                for (i, x) in block.iter().enumerate() {
                    lanes[i % 4] += x * x;
                }
                (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
            })
            .sum();
        bit_eq("par_sum vs documented block association", got, reference)?;
        let plain: f64 = items.iter().map(|x| x * x).sum();
        close("par_sum vs sequential sum", got, plain, 1e-9, 1e-12)
    }));

    checks.push(Check::new("par-accumulate-determinism", |s| {
        let mut rng = s.rng(0x0a);
        let n = rng.gen_range(0..200usize);
        let len = rng.gen_range(1..48usize);
        let items: Vec<(usize, f32)> = (0..n)
            .map(|_| (rng.gen_range(0..len), rng.gen_range(-1.0..1.0f64) as f32))
            .collect();
        let scatter = |_i: usize, item: &(usize, f32), buf: &mut [f32]| {
            buf[item.0] += item.1;
        };
        let got = gridtuner_par::par_accumulate(&items, len, scatter);
        // The documented contract: at most 8 contiguous chunks, partial
        // buffers combined element-wise in chunk order.
        let chunk = items.len().div_ceil(8).max(1);
        let mut reference = vec![0.0f32; len];
        for piece in items.chunks(chunk) {
            let mut buf = vec![0.0f32; len];
            for (i, item) in piece.iter().enumerate() {
                scatter(i, item, &mut buf);
            }
            for (a, v) in reference.iter_mut().zip(&buf) {
                *a += v;
            }
        }
        for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
            if g.to_bits() != r.to_bits() {
                return Err(format!(
                    "par_accumulate[{i}]: {g} vs documented chunk association {r}"
                ));
            }
        }
        Ok(())
    }));

    checks.push(Check::new("total-expr-par-vs-seq", |s| {
        // The square-partition sweep at 2 and 8 workers against the
        // one-worker run, which is the sequential run: every side of the
        // range, one shared pmf memo. Task and block boundaries depend only
        // on the MGrid count, so the sums agree bit for bit.
        let cache = AlphaFieldCache::new(&s.events, &s.clock, &s.window);
        let memo = PmfMemo::default();
        let sweep = || -> Result<Vec<f64>, String> {
            (1..=s.params.max_side)
                .map(|side| {
                    let part = Partition::for_budget(side, s.params.budget_side);
                    let alpha = cache.alpha(part.hgrid_spec());
                    try_partition_expression_error(&alpha, &part, Some(&memo))
                        .map_err(|e| format!("side {side}: {e}"))
                })
                .collect()
        };
        let prev = gridtuner_par::max_threads();
        let run = || -> Result<(), String> {
            gridtuner_par::set_max_threads(1);
            let seq = sweep()?;
            for threads in [2usize, 8] {
                gridtuner_par::set_max_threads(threads);
                for (side, (par, one)) in (1..).zip(sweep()?.into_iter().zip(&seq)) {
                    bit_eq(
                        &format!("side {side} at {threads} workers vs one worker"),
                        par,
                        *one,
                    )?;
                }
            }
            Ok(())
        };
        let result = run();
        gridtuner_par::set_max_threads(prev);
        result
    }));

    checks.push(Check::new("batched-vs-seq-expression-error", |s| {
        let mut rng = s.rng(0x0f);
        let side = rng.gen_range(1..=s.params.max_side.max(1));
        let part = Partition::for_budget(side, s.params.budget_side);
        let spec = part.hgrid_spec();
        // Quantised rates, as count/days estimation produces them:
        // duplicates inside an MGrid are common, exercising the dedup path.
        let vals: Vec<f64> = (0..spec.n_cells())
            .map(|_| rng.gen_range(0..40u32) as f64 / 8.0)
            .collect();
        let alpha = CountMatrix::from_vec(spec.side(), vals).map_err(|e| format!("{e}"))?;
        // The sequential reference: one worker, a per-call pmf memo.
        let prev = gridtuner_par::max_threads();
        gridtuner_par::set_max_threads(1);
        let seq = try_partition_expression_error(&alpha, &part, None);
        gridtuner_par::set_max_threads(prev);
        let seq = seq.map_err(|e| e.to_string())?;
        let memo = PmfMemo::default();
        let sweep = || {
            try_partition_expression_error(&alpha, &part, Some(&memo)).map_err(|e| e.to_string())
        };
        let cold = sweep()?;
        bit_eq("batched (cold pmf memo) vs sequential", cold, seq)?;
        let warm = sweep()?;
        bit_eq("batched (warm pmf memo) vs sequential", warm, seq)?;
        if part.m() > 1 && memo.hits() == 0 {
            return Err("warm pass served no pmf-memo hits".into());
        }
        // The pre-batching per-cell sweep is an independent reference:
        // different association, so tolerance instead of bits.
        close(
            "batched vs per-cell reference sweep",
            cold,
            total_expression_error_percell(&alpha, &part),
            1e-9,
            1e-12,
        )
    }));

    checks.push(Check::new("expr-dedup-weight-conservation", |s| {
        // The kernel's own tallies: every cell of an MGrid with m > 1 is
        // either its rate's first occurrence (one kernel evaluation) or a
        // dedup hit, so the two deltas add back to the cell delta, m.
        let cache = AlphaFieldCache::new(&s.events, &s.clock, &s.window);
        let part = Partition::for_budget(s.params.max_side, s.params.budget_side);
        let alpha = cache.alpha(part.hgrid_spec());
        let memo = PmfMemo::default();
        let mut ws = ExprWorkspace::new();
        for mcell in part.mgrid_spec().cells() {
            let rates: Vec<f64> = part.hgrid_iter(mcell).map(|h| alpha.get(h)).collect();
            let (served, cells) = (ws.dedup_hits() + ws.kernel_evals(), ws.cells());
            ws.mgrid_error(&rates, &memo).map_err(|e| e.to_string())?;
            let (served, cells) = (
                ws.dedup_hits() + ws.kernel_evals() - served,
                ws.cells() - cells,
            );
            if cells != part.m() as u64 || (part.m() > 1 && served != cells) {
                return Err(format!(
                    "MGrid {}: {cells} cells, {served} dedup hits + kernel evaluations, m = {}",
                    mcell.index(),
                    part.m()
                ));
            }
        }
        Ok(())
    }));

    checks.push(Check::new("nn-dense-vs-naive", |s| {
        let mut rng = s.rng(0x0c);
        let in_dim = rng.gen_range(1..=24usize);
        let out_dim = rng.gen_range(1..=16usize);
        let batch = rng.gen_range(1..=5usize);
        dense_vs_naive(&mut rng, in_dim, out_dim, batch)?;
        // Fixed shapes that reach every tail of the tiled kernels: a
        // short block of rows, an odd last sample, a short or missing
        // 16-column dW segment, and a lone dW row.
        for out_dim in [3, 4, 5, 9] {
            for batch in [1, 2, 3, 16, 17] {
                for in_dim in [3, 15, 16, 17, 33] {
                    dense_vs_naive(&mut rng, in_dim, out_dim, batch)?;
                }
            }
        }
        Ok(())
    }));

    checks.push(Check::new("nn-conv-vs-naive", |s| {
        let mut rng = s.rng(0x0d);
        let ic = rng.gen_range(1..=3usize);
        let oc = rng.gen_range(1..=4usize);
        let ks = 2 * rng.gen_range(0..=2usize) + 1; // 1, 3 or 5
        let (h, w) = (rng.gen_range(3..=8usize), rng.gen_range(3..=8usize));
        let batch = rng.gen_range(1..=5usize);
        let init = rng.clone();
        let make = || Conv2d::new(&mut init.clone(), ic, oc, ks);
        let x: Vec<f32> = (0..batch * ic * h * w)
            .map(|_| rng.gen_range(-1.0..1.0f64) as f32)
            .collect();
        let g: Vec<f32> = (0..batch * oc * h * w)
            .map(|_| rng.gen_range(-1.0..1.0f64) as f32)
            .collect();
        let mut layer = make();
        let params: Vec<Vec<f32>> = layer
            .params_mut()
            .iter()
            .map(|p| p.value.as_slice().to_vec())
            .collect();
        let (kern, bias) = (&params[0], &params[1]);
        let x = Tensor::from_vec(&[batch, ic, h, w], x);
        let y = layer.forward(&x);
        let pad = ks / 2;
        for (smp, xs) in x.as_slice().chunks_exact(ic * h * w).enumerate() {
            for o in 0..oc {
                for r in 0..h {
                    for c in 0..w {
                        let mut acc = bias[o] as f64;
                        for i in 0..ic {
                            for kr in 0..ks {
                                for kc in 0..ks {
                                    let (rr, cc) = (r + kr, c + kc);
                                    if rr < pad || cc < pad || rr - pad >= h || cc - pad >= w {
                                        continue; // zero padding
                                    }
                                    let xv = xs[(i * h + (rr - pad)) * w + (cc - pad)] as f64;
                                    let kv = kern[((o * ic + i) * ks + kr) * ks + kc] as f64;
                                    acc += kv * xv;
                                }
                            }
                        }
                        close(
                            &format!("conv y[{smp},{o},{r},{c}] (ic={ic} ks={ks} {h}×{w})"),
                            y.as_slice()[((smp * oc + o) * h + r) * w + c] as f64,
                            acc,
                            1e-4,
                            1e-5,
                        )?;
                    }
                }
            }
        }
        batch_vs_single_samples(make, &x, &Tensor::from_vec(&[batch, oc, h, w], g))
    }));

    checks.push(Check::new("theorem-ii1-empirical", |s| {
        let mut rng = s.rng(0x0e);
        let side = rng.gen_range(2..=s.params.max_side.max(2));
        let part = Partition::for_budget(side, s.params.budget_side);
        let n_samples = rng.gen_range(1..=3usize);
        let samples: Vec<ErrorSample> = (0..n_samples)
            .map(|_| {
                let actual: Vec<f64> = (0..part.total_hgrids())
                    .map(|_| rng.gen_range(0..6u32) as f64)
                    .collect();
                let predicted: Vec<f64> = (0..part.n()).map(|_| rng.gen_range(0.0..20.0)).collect();
                ErrorSample {
                    predicted_mgrid: CountMatrix::from_vec(part.mgrid_side(), predicted).unwrap(),
                    actual_hgrid: CountMatrix::from_vec(part.hgrid_spec().side(), actual).unwrap(),
                }
            })
            .collect();
        let r = evaluate_errors(&samples, &part).map_err(|e| format!("{e:?}"))?;
        if r.real > r.upper_bound() + 1e-9 * (1.0 + r.upper_bound()) {
            return Err(format!("Theorem II.1 violated: {r:?}"));
        }
        let slack = r.upper_bound() - r.real;
        if slack > 2.0 * r.model.min(r.expression) + 1e-9 {
            return Err(format!("slack bound violated: {r:?}"));
        }
        Ok(())
    }));

    checks.push(Check::new("quadtree-dp-vs-exhaustive", |s| {
        // The tree DP claims the exact minimum of Σ E(leaf) + M(R) over
        // every quadtree whose region count R is reachable (≤ the cap, and
        // its model leg served by memoised sides). Enumerate every tree on
        // small lattices and check the claim under a linear and a
        // non-linear model curve, with the full and a narrowed side range.
        for lattice in [4u32, 8] {
            let alpha = estimate_alpha(&s.events, GridSpec::new(lattice), &s.clock, &s.window);
            let trees = every_quadtree(&alpha, 0, 0, lattice as usize)?;
            let expected = if lattice == 4 { 17 } else { 83_522 };
            if trees.len() != expected {
                return Err(format!(
                    "{} trees on {lattice}×{lattice}, not {expected}",
                    trees.len()
                ));
            }
            // The least Σ E over the trees of each region count.
            let mut least = vec![f64::INFINITY; (lattice * lattice) as usize + 1];
            for &(r, e) in &trees {
                least[r] = least[r].min(e);
            }
            let scale = trees[0].1.max(1.0) / 2.0;
            let l = f64::from(lattice);
            let linear = move |side: u32| scale * f64::from(side).powi(2) / (l * l);
            let cubic = move |side: u32| scale * f64::from(side).powi(3) / (l * l * l);
            for range in [(1, lattice), (lattice / 2, lattice)] {
                quadtree_dp_vs_exhaustive(s, &alpha, &least, range, linear)?;
                quadtree_dp_vs_exhaustive(s, &alpha, &least, range, cubic)?;
            }
        }
        Ok(())
    }));

    checks.push(Check::new("bootstrap-replicate-vs-direct", |s| {
        // The uncertainty stage promises each replicate tune is *exactly*
        // the tune of the materialised resampled log under the session's
        // strategy: the bootstrap perturbs the expression leg only, and
        // the shared pmf memo is bit-invisible. Materialise each resample
        // and check bitwise — for brute force, whose replicates finish in
        // one round, and for the adaptive strategies, whose replicates may
        // stall on a side the point search never probed and be re-run.
        let boot_seed = s.params.seed ^ 0xb007_57a9;
        // B = 4 is the smallest count `par_map` hands to pool workers
        // (fewer than two items per thread run inline).
        let b = 4u32;
        let [ternary, iterative] = heuristics(s);
        for strategy in [SearchStrategy::BruteForce, ternary, iterative] {
            let direct_cfg = engine_config(s, strategy);
            let config = EngineConfig {
                bootstrap: Some(BootstrapConfig::new(b, boot_seed)),
                ..direct_cfg
            };
            let report = session_tune(s, config, &s.events)?;
            let unc = report
                .uncertainty
                .ok_or("bootstrap config produced no uncertainty report")?;
            if unc.replicate_argmins.len() != b as usize || unc.replicate_errors.len() != b as usize
            {
                return Err(format!(
                    "{strategy:?}: expected {b} replicates, got {} argmins / {} errors",
                    unc.replicate_argmins.len(),
                    unc.replicate_errors.len()
                ));
            }
            for r in 0..u64::from(b) {
                let log = resample_events(&s.events, boot_seed, r);
                let d = session_tune(s, direct_cfg, &log)?;
                if d.outcome.side != unc.replicate_argmins[r as usize] {
                    return Err(format!(
                        "{strategy:?} replicate {r}: bootstrap argmin {} vs direct tune {}",
                        unc.replicate_argmins[r as usize], d.outcome.side
                    ));
                }
                bit_eq(
                    &format!("{strategy:?} replicate {r} optimum error"),
                    unc.replicate_errors[r as usize],
                    d.outcome.error,
                )?;
            }
            if !unc.confidence_set.contains(&unc.point_side) {
                return Err(format!(
                    "{strategy:?}: confidence set {:?} is missing the point estimate {}",
                    unc.confidence_set, unc.point_side
                ));
            }
        }
        Ok(())
    }));

    checks.push(Check::new("bootstrap-seed-determinism", |s| {
        // One (seed, B) must replay to the identical confidence set —
        // run to run, and whether the pool has one worker or eight.
        let boot_seed = s.params.seed.rotate_left(17) ^ 0x5eed;
        let config = EngineConfig {
            bootstrap: Some(BootstrapConfig::new(4, boot_seed)),
            ..engine_config(s, SearchStrategy::BruteForce)
        };
        let run = || -> Result<_, String> {
            let report = session_tune(s, config, &s.events)?;
            let u = report.uncertainty.ok_or("no uncertainty report")?;
            let errors: Vec<u64> = u.replicate_errors.iter().map(|e| e.to_bits()).collect();
            Ok((u.confidence_set, u.replicate_argmins, errors, u.verdict))
        };
        let prev = gridtuner_par::max_threads();
        let result = (|| {
            let reference = run()?;
            for (threads, label) in [(prev, "rerun"), (1, "1 worker"), (8, "8 workers")] {
                gridtuner_par::set_max_threads(threads);
                let got = run()?;
                if got != reference {
                    return Err(format!(
                        "{label} diverged: {got:?} vs reference {reference:?}"
                    ));
                }
            }
            Ok(())
        })();
        gridtuner_par::set_max_threads(prev);
        result
    }));

    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let checks = standard_checks();
        assert!(checks.len() >= 23, "registry shrank to {}", checks.len());
        let mut names: Vec<&str> = checks.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate check names");
    }

    #[test]
    fn every_check_passes_on_one_scenario() {
        let scenario = Scenario::generate(0);
        for check in standard_checks() {
            (check.run)(&scenario).unwrap_or_else(|e| panic!("{}: {e}", check.name));
        }
    }
}
