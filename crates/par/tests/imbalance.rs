//! Load imbalance is judged from the trace alone: a dispatch whose busy
//! time lands almost entirely on one worker must leave per-worker
//! `par.task` records from which the profile reads a large max/min busy
//! ratio and prints its imbalance line.
//!
//! Lives in its own integration-test process because it flips the
//! process-global obs recording flag and installs the trace sink.

use gridtuner_obs as obs;
use gridtuner_obs::profile::Profile;
use gridtuner_par::{par_map, set_max_threads};
use std::time::Duration;

#[test]
fn skewed_dispatch_shows_in_the_profile_worker_table() {
    set_max_threads(4);
    let buffer = obs::trace::capture_to_buffer();
    obs::enable();

    // 16 tasks: one sleeps 40 ms, the rest are nearly free. Whichever
    // participant claims the sleeper ends up with a busy time far beyond
    // 3x that of any other participant.
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
    let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let profile = Profile::from_jsonl(&text).expect("captured trace parses");
    let tasks = &profile.tasks;
    assert!(
        !tasks.is_empty(),
        "recording was on: claimed tasks must leave par.task records"
    );
    let workers: std::collections::BTreeSet<u64> = tasks.iter().map(|t| t.worker).collect();
    assert!(
        workers.len() >= 2,
        "a 4-way dispatch must involve at least two participants (saw {workers:?})"
    );
    for t in tasks {
        assert!(t.finish_ns >= t.claim_ns, "task interval must be ordered");
        assert!(t.generation >= 1, "generations are 1-based");
    }
    let ratio = profile
        .worker_imbalance()
        .expect("two or more participants give a ratio");
    assert!(
        ratio >= 3.0,
        "a 40 ms single-task skew across 4 workers must read as imbalanced (max/min {ratio:.2}x)"
    );
    let rendered = profile.render(10);
    assert!(
        rendered.contains("busy imbalance (max/min)"),
        "the worker table must print the imbalance line:\n{rendered}"
    );
}
