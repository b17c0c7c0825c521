//! The profile a [`TuneBench::measure`] reports covers the measured tune
//! alone: its capture closes after the tune and before the kernel
//! isolation, so `BENCH_tune.json`'s `phases` time one cached sweep, not
//! every tune the process ran.
//!
//! Its own test binary: the measurement zeroes the process-global `obs`
//! registry and swaps the trace sink.

use gridtuner_bench::measure::TuneBench;
use gridtuner_obs::profile::Profile;

fn count(profile: &Profile, name: &str) -> u64 {
    profile
        .self_times()
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.count)
}

#[test]
fn phases_cover_exactly_the_measured_tune() {
    let mut bench = TuneBench::new(0.01);
    bench.config.hgrid_budget_side = 32;
    bench.config.side_range = (4, 12);
    let m = bench.measure();
    assert_eq!(count(&m.profile, "tune"), 1);
    assert_eq!(count(&m.profile, "ingest"), 1);
    assert_eq!(count(&m.profile, "search.probe"), m.probes);
    assert_eq!(m.probes, 9, "brute force probes every side of 4..=12");
    // The capture ends with the counters of the ingest + tune.
    let probes = m.profile.counters.iter().find(|(n, _)| n == "tune.probes");
    assert_eq!(probes, Some(&("tune.probes".to_string(), 9)));

    // A second measurement in the same process starts from a zeroed
    // registry and a fresh capture: it sees its own tune only.
    let again = bench.measure();
    assert_eq!(count(&again.profile, "tune"), 1);
    assert_eq!(count(&again.profile, "search.probe"), again.probes);
    assert_eq!(again.profile.counters, m.profile.counters);
}
