//! Partition-trait integration tests.
//!
//! Three promises of the `SpatialPartition` refactor, checked end to end:
//!
//! 1. the uniform path is *bit-identical* to its sequential oracle per
//!    probed side, and it and the full `tune_partition(Uniform)` report
//!    replay bit for bit across the `GRIDTUNER_THREADS` matrix
//!    (1 / 2 / 8), like every other parallel kernel here;
//! 2. quadtree refinement never increases the Theorem II.1 upper bound:
//!    with a zero model leg the bound *is* the expression leg, and a
//!    split must not increase it (fuzzed over random α fields and random
//!    split sequences);
//! 3. the quadtree tree DP is exact: its bound is ≤ the canonical bound of
//!    every random split-sequence quadtree within its region cap;
//! 4. the rect hill-climb and the tree-DP quadtree search replay
//!    bit-for-bit on the three preset cities (golden snapshots,
//!    `tests/goldens/<city>_partition.json`), and on NYC the quadtree
//!    meets the acceptance bar: bound ≤ the best uniform `n` at equal or
//!    fewer regions.

use gridtuner_core::alpha::AlphaWindow;
use gridtuner_core::alpha_cache::AlphaFieldCache;
use gridtuner_core::expr_kernel::PmfMemo;
use gridtuner_core::expression::{partition_expression_error_seq, try_partition_expression_error};
use gridtuner_datagen::City;
use gridtuner_engine::{
    EngineConfig, PartitionKind, PartitionLayout, SearchStrategy, TuningSession,
};
use gridtuner_obs::json::Val;
use gridtuner_spatial::{CountMatrix, Partition, QuadTreePartition, RegionId, SpatialPartition};
use gridtuner_testkit::{check_golden, Scenario};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn engine_config(s: &Scenario) -> EngineConfig {
    EngineConfig {
        hgrid_budget_side: s.params.budget_side,
        side_range: s.params.side_range(),
        strategy: SearchStrategy::BruteForce,
        alpha_window: s.window,
        clock: s.clock,
        ..EngineConfig::default()
    }
}

/// Everything the refined search decides, as exactly comparable bits:
/// bound legs, baseline, geometry and step counters.
#[derive(Debug, PartialEq, Eq)]
struct QuadFingerprint {
    bound: u64,
    expression: u64,
    model: u64,
    uniform_bound: u64,
    uniform_side: u32,
    n_regions: usize,
    splits: usize,
    merges: usize,
    evals: usize,
    leaves: Vec<(usize, usize, usize)>,
}

fn quadtree_fingerprint(s: &Scenario) -> QuadFingerprint {
    let mut session = TuningSession::new(engine_config(s), s.model_fn()).unwrap();
    session.ingest(&s.events).unwrap();
    let pr = session.tune_partition(PartitionKind::QuadTree).unwrap();
    let leaves = match &pr.layout {
        PartitionLayout::QuadTree(q) => q
            .leaves()
            .iter()
            .map(|l| (l.row0, l.col0, l.size))
            .collect(),
        other => panic!("quadtree search returned a {other:?} layout"),
    };
    QuadFingerprint {
        bound: pr.bound.to_bits(),
        expression: pr.expression_error.to_bits(),
        model: pr.model_error.to_bits(),
        uniform_bound: pr.uniform.outcome.error.to_bits(),
        uniform_side: pr.uniform.outcome.side,
        n_regions: pr.n_regions,
        splits: pr.splits,
        merges: pr.merges,
        evals: pr.evals,
        leaves,
    }
}

/// The parallel uniform sweep per side, as bits, each checked against the
/// sequential oracle.
fn uniform_sweep(s: &Scenario) -> Vec<u64> {
    let cache = AlphaFieldCache::new(&s.events, &s.clock, &s.window);
    let memo = PmfMemo::default();
    let (lo, hi) = s.params.side_range();
    (lo..=hi)
        .map(|side| {
            let part = Partition::for_budget(side, s.params.budget_side);
            let alpha = cache.alpha(part.hgrid_spec());
            let seq = partition_expression_error_seq(&alpha, &part).unwrap();
            let par = try_partition_expression_error(&alpha, &part, Some(&memo)).unwrap();
            assert_eq!(
                par.to_bits(),
                seq.to_bits(),
                "side {side}: parallel sweep {par} != sequential {seq}"
            );
            par.to_bits()
        })
        .collect()
}

/// The uniform `tune_partition` must mirror the plain 1-D `tune` bit for
/// bit (same optimum, same bound), at any worker count.
fn uniform_report_bits(s: &Scenario) -> (u32, u64) {
    let mut plain = TuningSession::new(engine_config(s), s.model_fn()).unwrap();
    plain.ingest(&s.events).unwrap();
    let tune = plain.tune().unwrap();

    let mut traited = TuningSession::new(engine_config(s), s.model_fn()).unwrap();
    traited.ingest(&s.events).unwrap();
    let pr = traited.tune_partition(PartitionKind::Uniform).unwrap();
    assert_eq!(pr.uniform.outcome.side, tune.outcome.side, "optimum side");
    assert_eq!(
        pr.bound.to_bits(),
        tune.outcome.error.to_bits(),
        "uniform trait bound {} != 1-D tune bound {}",
        pr.bound,
        tune.outcome.error
    );
    (tune.outcome.side, tune.outcome.error.to_bits())
}

#[test]
fn partition_paths_are_bit_identical_across_thread_counts() {
    let scenarios: Vec<Scenario> = [7u64, 99].iter().map(|&s| Scenario::generate(s)).collect();
    let baseline: Vec<_> = scenarios
        .iter()
        .map(|s| {
            (
                uniform_sweep(s),
                uniform_report_bits(s),
                quadtree_fingerprint(s),
            )
        })
        .collect();
    for threads in [1usize, 2, 8] {
        gridtuner_par::set_max_threads(threads);
        for (s, expect) in scenarios.iter().zip(&baseline) {
            let got = (
                uniform_sweep(s),
                uniform_report_bits(s),
                quadtree_fingerprint(s),
            );
            assert_eq!(
                &got, expect,
                "partition paths diverged at GRIDTUNER_THREADS={threads} (seed {})",
                s.params.seed
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem II.1 monotonicity under refinement: with a zero model leg
    /// the upper bound is the partition's expression error, and splitting
    /// any leaf (guided or not — this fuzzes *random* split sequences)
    /// must never increase it.
    #[test]
    fn quadtree_splits_never_increase_the_theorem_bound(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let budget = [4u32, 8, 12][(seed % 3) as usize];
        let mut part = QuadTreePartition::root(budget);
        let spec = part.hgrid_spec();
        // Quantised rates, as count/days estimation produces them.
        let vals: Vec<f64> = (0..spec.n_cells())
            .map(|_| rng.gen_range(0..48u32) as f64 / 8.0)
            .collect();
        let alpha = CountMatrix::from_vec(spec.side(), vals).unwrap();
        let memo = PmfMemo::default();
        let mut bound = try_partition_expression_error(&alpha, &part, Some(&memo)).unwrap();
        for step in 0..12 {
            let splittable: Vec<usize> = (0..part.n_regions())
                .filter(|&r| part.leaf(RegionId(r)).size > 1)
                .collect();
            if splittable.is_empty() {
                break;
            }
            let pick = splittable[rng.gen_range(0..splittable.len())];
            part = part.split(RegionId(pick)).expect("leaf of size > 1 splits");
            let next = try_partition_expression_error(&alpha, &part, Some(&memo)).unwrap();
            prop_assert!(
                next <= bound + 1e-9 * (1.0 + bound),
                "split {step} raised the bound: {bound} -> {next} ({} leaves)",
                part.n_regions()
            );
            bound = next;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tree DP's optimality, checked from outside: grow random
    /// split-sequence quadtrees from the root and compare the refinement's
    /// reported bound with each tree's canonical bound while the tree fits
    /// the region cap. With the full side range every side up to the
    /// lattice is memoised, so every count within the cap is reachable,
    /// and the `coef·s²` model leg is exactly `coef·R` at any count.
    #[test]
    fn quadtree_dp_bound_beats_every_reachable_split_sequence(seed in 0u64..10_000) {
        let s = Scenario::generate(seed);
        let lattice = [4u32, 8, 16][(seed % 3) as usize];
        // A model leg on the scale of the one-region expression error, so
        // the optimum sits strictly inside the cap.
        let root = QuadTreePartition::root(lattice);
        let root_error = AlphaFieldCache::new(&s.events, &s.clock, &s.window)
            .partition_expression_error(&root)
            .unwrap();
        let coef = (0.1 + s.params.model_coef) * root_error.max(1.0) / f64::from(lattice * lattice);
        let config = EngineConfig {
            hgrid_budget_side: lattice,
            side_range: (1, lattice),
            strategy: SearchStrategy::BruteForce,
            alpha_window: s.window,
            clock: s.clock,
            ..EngineConfig::default()
        };
        let mut session =
            TuningSession::new(config, move |side: u32| coef * f64::from(side * side)).unwrap();
        session.ingest(&s.events).unwrap();
        let report = session.tune_partition(PartitionKind::QuadTree).unwrap();
        let cache = session.alpha_cache().unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0d9b_7ee5);
        let mut part = root;
        while part.n_regions() <= report.region_cap {
            let expr = cache.partition_expression_error(&part).unwrap();
            let bound = expr + coef * part.n_regions() as f64;
            prop_assert!(
                report.bound <= bound + 1e-9 * (1.0 + bound),
                "DP bound {} above a {}-region tree's {bound}",
                report.bound,
                part.n_regions()
            );
            let splittable: Vec<usize> = (0..part.n_regions())
                .filter(|&r| part.leaf(RegionId(r)).size > 1)
                .collect();
            if splittable.is_empty() {
                break;
            }
            let pick = splittable[rng.gen_range(0..splittable.len())];
            part = part.split(RegionId(pick)).expect("leaf of size > 1 splits");
        }
    }
}

// ---------------------------------------------------------------------------
// Partition goldens: same constants as `goldens.rs`, refined searches on top.
// ---------------------------------------------------------------------------

const SCALE: f64 = 0.002;
const BUDGET_SIDE: u32 = 32;
const SIDE_RANGE: (u32, u32) = (2, 24);
const HISTORY_DAYS: u32 = 14;
const MODEL_COEF: f64 = 0.05;

fn partition_golden_for_city(city: City, seed: u64) -> (Val, bool) {
    let city = city.scaled(SCALE);
    let window = AlphaWindow {
        slot_of_day: 16,
        day_start: 0,
        day_end: HISTORY_DAYS,
        weekdays_only: true,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let events = city.sample_history_events(window.slot_of_day, 0..HISTORY_DAYS, &mut rng);
    let model = |s: u32| MODEL_COEF * (s * s) as f64;
    let config = EngineConfig {
        hgrid_budget_side: BUDGET_SIDE,
        side_range: SIDE_RANGE,
        strategy: SearchStrategy::BruteForce,
        alpha_window: window,
        clock: *city.clock(),
        ..EngineConfig::default()
    };
    let mut session = TuningSession::new(config, model).expect("golden config is valid");
    session
        .ingest(&events)
        .expect("synthetic events are finite");
    let rect = session
        .tune_partition(PartitionKind::Rect)
        .expect("analytic model leg");
    let (rect_nx, rect_ny) = match &rect.layout {
        PartitionLayout::Rect { nx, ny } => (*nx, *ny),
        other => panic!("rect search returned a {other:?} layout"),
    };
    let pr = session
        .tune_partition(PartitionKind::QuadTree)
        .expect("analytic model leg");
    let leaves = match &pr.layout {
        PartitionLayout::QuadTree(q) => q.leaves().to_vec(),
        other => panic!("quadtree search returned a {other:?} layout"),
    };
    let json = Val::obj(vec![
        ("city", Val::from(city.name())),
        ("scale", Val::F64(SCALE)),
        ("history_events", Val::F64(events.len() as f64)),
        (
            "uniform_baseline",
            Val::obj(vec![
                ("optimal_side", Val::F64(pr.uniform.outcome.side as f64)),
                ("upper_bound", Val::F64(pr.uniform.outcome.error)),
                ("regions", Val::F64(pr.uniform_regions() as f64)),
            ]),
        ),
        (
            "rect",
            Val::obj(vec![
                ("nx", Val::F64(rect_nx as f64)),
                ("ny", Val::F64(rect_ny as f64)),
                ("n_regions", Val::F64(rect.n_regions as f64)),
                ("upper_bound", Val::F64(rect.bound)),
                ("expression_error", Val::F64(rect.expression_error)),
                ("model_error", Val::F64(rect.model_error)),
                ("evals", Val::F64(rect.evals as f64)),
            ]),
        ),
        (
            "quadtree",
            Val::obj(vec![
                ("n_regions", Val::F64(pr.n_regions as f64)),
                ("region_cap", Val::F64(pr.region_cap as f64)),
                ("upper_bound", Val::F64(pr.bound)),
                ("expression_error", Val::F64(pr.expression_error)),
                ("model_error", Val::F64(pr.model_error)),
                ("splits", Val::F64(pr.splits as f64)),
                ("merges", Val::F64(pr.merges as f64)),
                ("evals", Val::F64(pr.evals as f64)),
                (
                    "leaves",
                    Val::Arr(
                        leaves
                            .iter()
                            .map(|l| {
                                Val::Arr(vec![
                                    Val::F64(l.row0 as f64),
                                    Val::F64(l.col0 as f64),
                                    Val::F64(l.size as f64),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "improves_on_uniform",
                    Val::F64(pr.improves_on_uniform() as u8 as f64),
                ),
            ]),
        ),
    ]);
    (json, pr.improves_on_uniform())
}

fn check_city(city: City, seed: u64, name: &str) -> bool {
    let (computed, improves) = partition_golden_for_city(city, seed);
    check_golden(
        name,
        &computed,
        gridtuner_testkit::golden::DEFAULT_TOLERANCE,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    improves
}

#[test]
fn nyc_partition_golden() {
    // The acceptance bar: on NYC the refined quadtree must reach a bound
    // no worse than the best uniform `n`, at equal or fewer regions.
    assert!(
        check_city(City::nyc(), 0x6e7963, "nyc_partition"),
        "quadtree refinement on NYC lost to the uniform baseline"
    );
}

#[test]
fn chengdu_partition_golden() {
    check_city(City::chengdu(), 0x636475, "chengdu_partition");
}

#[test]
fn xian_partition_golden() {
    check_city(City::xian(), 0x7869616e, "xian_partition");
}
