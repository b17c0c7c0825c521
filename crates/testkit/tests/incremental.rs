//! Incremental-vs-rebuild differential: appending events to a live
//! [`TuningSession`] and re-tuning must be **bit-identical** to rebuilding
//! a fresh session from the concatenated log — across delta granularities
//! and under `GRIDTUNER_THREADS` = 1, 2 and 8.
//!
//! The worker count is swept in-process via
//! [`gridtuner_par::set_max_threads`] (the env var is read once and
//! cached). This file holds exactly one `#[test]` on purpose: the override
//! is global, and a second concurrently-running test in the same binary
//! would observe it mid-sweep. See `TESTING.md`.

use gridtuner_engine::{EngineConfig, SearchStrategy, TuneReport, TuningSession};
use gridtuner_testkit::Scenario;

fn config_for(sc: &Scenario) -> EngineConfig {
    EngineConfig {
        hgrid_budget_side: sc.params.budget_side,
        side_range: sc.params.side_range(),
        strategy: SearchStrategy::BruteForce,
        alpha_window: sc.window,
        clock: sc.clock,
        ..EngineConfig::default()
    }
}

/// Everything a tune decides, with floats as bits: the selected side, its
/// error, and the full probe trajectory.
fn fingerprint(r: &TuneReport) -> (u32, u64, Vec<(u32, u64)>) {
    (
        r.outcome.side,
        r.outcome.error.to_bits(),
        r.outcome
            .probes
            .iter()
            .map(|&(s, e)| (s, e.to_bits()))
            .collect(),
    )
}

/// One from-scratch run: the whole log in a single ingest.
fn run_rebuild(sc: &Scenario) -> (u32, u64, Vec<(u32, u64)>) {
    let mut session = TuningSession::new(config_for(sc), sc.model_fn()).unwrap();
    session.ingest(&sc.events).unwrap();
    fingerprint(&session.tune().unwrap())
}

/// The same log fed in `chunks` slices, re-tuning after every slice (a
/// mid-stream tune must not disturb the next delta).
fn run_incremental(sc: &Scenario, chunks: usize) -> (u32, u64, Vec<(u32, u64)>) {
    let mut session = TuningSession::new(config_for(sc), sc.model_fn()).unwrap();
    let n = sc.events.len();
    assert!(n >= chunks, "scenario too small to slice");
    let mut report = None;
    let mut start = 0;
    for i in 0..chunks {
        let end = if i + 1 == chunks {
            n
        } else {
            n * (i + 1) / chunks
        };
        session.ingest(&sc.events[start..end]).unwrap();
        report = Some(session.tune().unwrap());
        start = end;
    }
    let report = report.unwrap();
    assert_eq!(
        report.alpha_delta_scans as usize,
        chunks - 1,
        "each append is one delta scan, never a rebuild"
    );
    fingerprint(&report)
}

#[test]
fn incremental_retune_is_bit_identical_to_rebuild_across_thread_counts() {
    let scenarios: Vec<Scenario> = [5u64, 77, 2024]
        .iter()
        .map(|&s| Scenario::generate(s))
        .collect();
    for sc in &scenarios {
        let seed = sc.params.seed;
        gridtuner_par::set_max_threads(1);
        let expect = run_rebuild(sc);
        for chunks in [2usize, 3, 5] {
            assert_eq!(
                run_incremental(sc, chunks),
                expect,
                "sequential incremental diverged (seed {seed}, {chunks} chunks)"
            );
        }
        for threads in [2usize, 8] {
            gridtuner_par::set_max_threads(threads);
            assert_eq!(
                run_rebuild(sc),
                expect,
                "parallel rebuild diverged (seed {seed}, {threads} threads)"
            );
            assert_eq!(
                run_incremental(sc, 3),
                expect,
                "parallel incremental diverged (seed {seed}, {threads} threads)"
            );
        }
    }
}
