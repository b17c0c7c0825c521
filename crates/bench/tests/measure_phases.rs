//! The span stats a [`TuneBench::measure`] reports cover the measured tune
//! alone: they are read after the tune and before the kernel isolation, so
//! `BENCH_tune.json`'s `phases` time one cached sweep, not every tune the
//! process ran.
//!
//! Its own test binary: the measurement zeroes the process-global `obs`
//! registry.

use gridtuner_bench::measure::TuneBench;
use gridtuner_engine::TuningSession;

fn count(phases: &[(&'static str, gridtuner_obs::span::SpanStat)], name: &str) -> u64 {
    phases
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, s)| s.count)
}

#[test]
fn phases_cover_exactly_the_measured_tune() {
    let mut bench = TuneBench::new(0.01);
    bench.config.hgrid_budget_side = 32;
    bench.config.side_range = (4, 12);
    let m = bench.measure();
    assert_eq!(count(&m.phases, "tune"), 1);
    assert_eq!(count(&m.phases, "ingest"), 1);
    assert_eq!(count(&m.phases, "search.probe"), m.probes);
    assert_eq!(m.probes, 9, "brute force probes every side of 4..=12");

    // A later tune in the same process adds to the registry but not to
    // the measurement already taken.
    let mut again = TuningSession::new(bench.config, gridtuner_bench::measure::model).unwrap();
    again.ingest(&bench.events).unwrap();
    again.tune().unwrap();
    assert_eq!(count(&gridtuner_obs::span::span_stats(), "tune"), 2);
    assert_eq!(count(&m.phases, "tune"), 1);
}
