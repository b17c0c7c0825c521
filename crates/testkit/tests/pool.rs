//! Persistent-pool determinism matrix: every `par_*` primitive and the
//! engine tune must be **bit-identical** to the single-threaded inline
//! path under `GRIDTUNER_THREADS` = 1, 2 and 8.
//!
//! Two claims are pinned here, on top of the thread matrix in
//! `determinism.rs`:
//!
//! 1. the pooled dispatch path (persistent parked workers, oversubscribed
//!    task queue, dynamic claiming) recombines results in exactly the
//!    inline order for all five primitives — `par_map`, `par_sum`,
//!    `par_accumulate`, `par_chunks_mut` and `par_chunks_mut_pair`;
//! 2. a tune whose probes fan their expression sweeps out over the pool
//!    selects the same side with the same error bits and the same probe
//!    decomposition as the one-worker tune;
//! 3. a dispatch that finds the workers parked — idle for far longer than
//!    the pool's spin window, so they left the spin for the condvar —
//!    completes with the same bits as one that finds them spinning.
//!
//! This file holds exactly one `#[test]` on purpose:
//! [`gridtuner_par::set_max_threads`] is a global override, and a second
//! concurrently-running test in the same binary would observe it
//! mid-sweep.

use gridtuner_engine::{EngineConfig, SearchStrategy, TuningSession};
use gridtuner_testkit::Scenario;

/// All five primitives over the same inputs, results reduced to bits.
fn run_primitives(values: &[f64]) -> (Vec<u64>, u64, Vec<u32>, Vec<u64>, Vec<u64>) {
    let mapped: Vec<u64> = gridtuner_par::par_map(values, |x| (x * 1.7).tanh().to_bits());
    let sum = gridtuner_par::par_sum(values, |x| (x * 0.999_983).sin()).to_bits();
    let acc: Vec<u32> = gridtuner_par::par_accumulate(values, 17, |i, x, buf| {
        buf[i % 17] += *x as f32;
    })
    .iter()
    .map(|v| v.to_bits())
    .collect();
    let mut chunks = vec![0.0f64; values.len()];
    gridtuner_par::par_chunks_mut(&mut chunks, 9, |c, slice| {
        for (i, v) in slice.iter_mut().enumerate() {
            *v = ((c * 9 + i) as f64).sqrt() * values[(c * 9 + i) % values.len()];
        }
    });
    let chunk_bits = chunks.iter().map(|v| v.to_bits()).collect();
    let (mut left, mut right) = (vec![0.0f64; 100], vec![0u64; values.len()]);
    gridtuner_par::par_chunks_mut_pair(
        &mut left,
        7,
        |c, slice| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v = values[c + i].exp();
            }
        },
        &mut right,
        64,
        |c, slice| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v = (values[c + i] * 3.1).cos().to_bits();
            }
        },
    );
    right.extend(left.iter().map(|v| v.to_bits()));
    (mapped, sum, acc, chunk_bits, right)
}

/// One engine tune, reduced to bits.
fn run_tune(scenario: &Scenario) -> (u32, u64, Vec<(u32, u64)>) {
    let (lo, hi) = scenario.params.side_range();
    let cfg = EngineConfig::builder()
        .hgrid_budget_side(scenario.params.budget_side)
        .side_range(lo, hi)
        .strategy(SearchStrategy::BruteForce)
        .alpha_window(scenario.window)
        .clock(scenario.clock)
        .build()
        .expect("scenario config is valid");
    let model = scenario.model_fn();
    let mut session = TuningSession::new(cfg, model).expect("validated above");
    session
        .ingest(&scenario.events)
        .expect("scenario events are finite");
    let report = session.tune().expect("infallible model leg");
    let probes = report
        .outcome
        .probes
        .iter()
        .map(|&(s, e)| (s, e.to_bits()))
        .collect();
    (report.outcome.side, report.outcome.error.to_bits(), probes)
}

#[test]
fn pool_matches_inline_bit_for_bit() {
    let scenario = Scenario::generate(77);
    let values: Vec<f64> = (0..1777).map(|i| (i as f64 * 0.173).cos() + 1.5).collect();

    // Baseline: pure inline path.
    gridtuner_par::set_max_threads(1);
    let prim_ref = run_primitives(&values);
    let tune_ref = run_tune(&scenario);

    for threads in [1usize, 2, 8] {
        gridtuner_par::set_max_threads(threads);
        assert_eq!(
            run_primitives(&values),
            prim_ref,
            "a par_* primitive diverged from inline at {threads} threads"
        );
        assert_eq!(
            run_tune(&scenario),
            tune_ref,
            "tune diverged at {threads} threads"
        );
        // 2 ms is forty spin windows: every worker has parked.
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(
            run_primitives(&values),
            prim_ref,
            "a dispatch to parked workers diverged at {threads} threads"
        );
    }
}
