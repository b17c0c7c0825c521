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
//! later jobs: a panic kills one job, not the pool.
//!
//! This file holds exactly one `#[test]` on purpose:
//! [`gridtuner_par::set_max_threads`] is a global override shared by every
//! test in a binary.

use gridtuner_engine::{EngineConfig, EngineError, SearchStrategy, TuningSession};
use gridtuner_testkit::Scenario;

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
