//! The oversubscription-imbalance detector end to end: a dispatch whose
//! busy time lands almost entirely on one worker must raise the
//! `par.imbalance_warnings` counter and leave per-worker `par.task`
//! records in the trace.
//!
//! Lives in its own integration-test process because it flips the
//! process-global obs recording flag, installs the trace sink and reads
//! process-global counters.

use gridtuner_obs as obs;
use gridtuner_par::{par_map, set_max_threads};
use std::time::Duration;

#[test]
fn skewed_dispatch_warns_and_records_worker_timelines() {
    set_max_threads(4);
    let buffer = obs::trace::capture_to_buffer();
    obs::enable();
    let warnings_before = obs::counter!("par.imbalance_warnings").get();

    // 16 tasks: one sleeps well past the 10 ms judging threshold, the
    // rest are nearly free. Whichever participant claims the sleeper ends
    // up with a busy-time ratio far beyond the 3x threshold (and everyone
    // else idles past the idle-fraction threshold while it sleeps).
    let items: Vec<u64> = (0..16).collect();
    let out = par_map(&items, |&i| {
        if i == 0 {
            std::thread::sleep(Duration::from_millis(40));
        }
        i * 2
    });
    assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());

    obs::disable();
    obs::trace::clear_sink();
    assert!(
        obs::counter!("par.imbalance_warnings").get() > warnings_before,
        "a 40 ms single-task skew across 4 workers must raise the imbalance warning"
    );
    let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let tasks = obs::profile::Profile::from_jsonl(&text)
        .expect("captured trace parses")
        .tasks;
    assert!(
        !tasks.is_empty(),
        "recording was on: claimed tasks must leave par.task records"
    );
    let workers: std::collections::BTreeSet<u64> = tasks.iter().map(|t| t.worker).collect();
    assert!(
        workers.len() >= 2,
        "a 4-way dispatch must involve at least two participants (saw {workers:?})"
    );
    for t in &tasks {
        assert!(t.finish_ns >= t.claim_ns, "task interval must be ordered");
        assert!(t.generation >= 1, "generations are 1-based");
    }
}
