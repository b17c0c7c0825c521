//! Worker-panic containment: a panic on a pool worker must surface as a
//! typed [`EngineError::Internal`] (exit code 4) on the dispatching
//! thread — never a hang, never a poisoned pool.
//!
//! Before the persistent pool, a panicking scoped worker unwound through
//! `std::thread::scope` and aborted the whole tune with a raw panic; a
//! panicking *parked* worker is worse — naive pools deadlock waiting for
//! the dead worker's tasks. The pool jams the task cursor on panic and
//! re-raises the payload at the dispatch site, where the engine converts
//! it into its error taxonomy. The same pool must then keep serving
//! later jobs: a panic kills one job, not the pool. That holds too when
//! the panic lands while the dispatcher, its own share done, spins on
//! the job's runner count instead of parking on the condvar.
//!
//! This file holds exactly one `#[test]` on purpose:
//! [`gridtuner_par::set_max_threads`] is a global override shared by every
//! test in a binary.

use gridtuner_engine::{EngineConfig, EngineError, SearchStrategy, TuningSession};
use gridtuner_testkit::Scenario;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Spins until `flag` is set; panics after a generous deadline instead of
/// hanging the suite.
fn await_flag(flag: &AtomicBool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !flag.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::hint::spin_loop();
    }
}

/// A two-task dispatch whose pool worker panics just after the
/// dispatching thread has finished its own task and gone on to wait for
/// the job's runners — inside the spin window on a host with two CPUs or
/// more. The flags force that order: the dispatcher's task holds until a
/// worker has claimed the other task, and the worker's task panics only
/// once the dispatcher's task has returned.
fn panic_while_dispatcher_waits() {
    let dispatcher = std::thread::current().id();
    let (worker_in, dispatcher_done) = (AtomicBool::new(false), AtomicBool::new(false));
    let mut out = [0u8; 2];
    gridtuner_par::par_chunks_mut(&mut out, 1, |_, _| {
        if std::thread::current().id() == dispatcher {
            await_flag(&worker_in, "a worker to claim a task");
            dispatcher_done.store(true, Ordering::SeqCst);
        } else {
            worker_in.store(true, Ordering::SeqCst);
            await_flag(&dispatcher_done, "the dispatcher's task to return");
            panic!("synthetic panic while the dispatcher waits");
        }
    });
}

fn session_for(
    scenario: &Scenario,
    model: impl FnMut(u32) -> f64,
) -> TuningSession<impl FnMut(u32) -> f64> {
    let (lo, hi) = scenario.params.side_range();
    let cfg = EngineConfig::builder()
        .hgrid_budget_side(scenario.params.budget_side)
        .side_range(lo, hi)
        .strategy(SearchStrategy::BruteForce)
        .alpha_window(scenario.window)
        .clock(scenario.clock)
        .build()
        .expect("scenario config is valid");
    let mut session = TuningSession::new(cfg, model).expect("validated above");
    session
        .ingest(&scenario.events)
        .expect("scenario events are finite");
    session
}

#[test]
fn worker_panic_becomes_internal_error_and_pool_survives() {
    let scenario = Scenario::generate(9);
    gridtuner_par::set_max_threads(8);

    // A raw primitive panic propagates to the caller (and only once).
    let data: Vec<f64> = (0..500).map(|i| i as f64).collect();
    let unwound = std::panic::catch_unwind(|| {
        gridtuner_par::par_map(&data, |x| {
            if *x == 250.0 {
                panic!("synthetic primitive panic");
            }
            x * 2.0
        })
    });
    assert!(unwound.is_err(), "par_map swallowed a worker panic");

    // The same, with the panic landing while the dispatcher waits for the
    // last runner: the payload is the worker's, re-raised on this thread.
    // The default hook's report on stderr alone outlasts the spin window,
    // so it is silenced for this one dispatch.
    gridtuner_par::set_max_threads(2);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let payload = std::panic::catch_unwind(panic_while_dispatcher_waits);
    std::panic::set_hook(hook);
    let payload = payload.expect_err("a worker panic during the dispatcher's wait was swallowed");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"synthetic panic while the dispatcher waits")
    );
    gridtuner_par::set_max_threads(8);

    // A model that panics mid-sweep surfaces as EngineError::Internal
    // (exit 4) instead of unwinding or hanging the dispatch loop.
    let mut session = session_for(&scenario, |side: u32| -> f64 {
        if side > scenario.params.side_range().0 {
            panic!("synthetic model panic at side {side}");
        }
        side as f64
    });
    let err = session
        .tune()
        .expect_err("a panicking model must not produce a report");
    assert!(
        matches!(err, EngineError::Internal(_)),
        "expected Internal, got {err:?}"
    );
    assert_eq!(err.exit_code(), 4);
    assert!(err.to_string().contains("panic"), "{err}");

    // The pool is still alive and still deterministic after the panic.
    let doubled = gridtuner_par::par_map(&data, |x| x * 2.0);
    assert_eq!(doubled[499], 998.0);
    let mut healthy = session_for(&scenario, scenario.model_fn());
    let report = healthy.tune().expect("healthy model tune");
    gridtuner_par::set_max_threads(1);
    let mut inline = session_for(&scenario, scenario.model_fn());
    let inline_report = inline.tune().expect("inline tune");
    assert_eq!(report.outcome.side, inline_report.outcome.side);
    assert_eq!(
        report.outcome.error.to_bits(),
        inline_report.outcome.error.to_bits()
    );
}
