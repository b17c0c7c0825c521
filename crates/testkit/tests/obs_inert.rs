//! Tracing must be inert: enabling the observability layer (spans, events,
//! a live JSON-lines sink) must not move any computed result by a single
//! bit. This is the differential check the obs crate's docs promise — the
//! full golden pipeline (tune → decompose → dispatch) runs once with
//! recording off and once with a trace streaming to a buffer, and every
//! float in the two summaries must be bit-identical. The captured stream
//! itself must also pass the strict trace reader, cover the pipeline's
//! spans and convert to a well-formed Chrome trace.
//!
//! Everything lives in ONE `#[test]` because the enabled flag and the
//! trace sink are process-global: parallel test threads would interleave.

use gridtuner_core::alpha::AlphaWindow;
use gridtuner_datagen::{City, TripGenerator};
use gridtuner_dispatch::{DemandView, FleetConfig, Order, Polar, SimConfig, Simulator};
use gridtuner_engine::{EngineConfig, SearchStrategy, TuneReport, TuningSession};
use gridtuner_obs as obs;
use gridtuner_obs::json::Val;
use gridtuner_obs::profile::{to_chrome, Profile};
use gridtuner_spatial::{Event, Partition, SlotClock};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;

const SCALE: f64 = 0.002;
const BUDGET_SIDE: u32 = 32;
const SIDE_RANGE: (u32, u32) = (2, 24);
const HISTORY_DAYS: u32 = 14;
const MODEL_COEF: f64 = 0.05;

/// The goldens' brute-force session over `events`.
fn session(
    events: &[Event],
    clock: SlotClock,
    window: AlphaWindow,
) -> TuningSession<fn(u32) -> f64> {
    let config = EngineConfig {
        hgrid_budget_side: BUDGET_SIDE,
        side_range: SIDE_RANGE,
        strategy: SearchStrategy::BruteForce,
        alpha_window: window,
        clock,
        ..EngineConfig::default()
    };
    let mut session =
        TuningSession::new(config, model as fn(u32) -> f64).expect("golden config is valid");
    session.ingest(events).expect("synthetic events are finite");
    session
}

/// The goldens' brute-force session tune of `events`.
fn tune(events: &[Event], clock: SlotClock, window: AlphaWindow) -> TuneReport {
    session(events, clock, window)
        .tune()
        .expect("analytic model leg")
}

fn model(s: u32) -> f64 {
    MODEL_COEF * (s * s) as f64
}

/// The goldens' end-to-end pipeline (same constants as `goldens.rs`):
/// brute-force tune, error decomposition at the optimum, Polar dispatch
/// case study. Returns the same summary `Val` the goldens pin.
fn pipeline(city: City, seed: u64) -> Val {
    let city = city.scaled(SCALE);
    let window = AlphaWindow {
        slot_of_day: 16,
        day_start: 0,
        day_end: HISTORY_DAYS,
        weekdays_only: true,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let events = city.sample_history_events(window.slot_of_day, 0..HISTORY_DAYS, &mut rng);
    let mut session = session(&events, *city.clock(), window);
    let result = session.tune().expect("analytic model leg");
    let side = result.outcome.side;
    // Error decomposition at the optimum, served from the session's own
    // α cache (no second log scan), as the goldens do it.
    let expression = session
        .expression_error(side)
        .expect("analytic expression leg");

    let partition = Partition::for_budget(side, BUDGET_SIDE);
    let trips = TripGenerator::default().trips_for_day(&city, HISTORY_DAYS, &mut rng);
    let orders = Order::from_trips(&trips);
    let sim = Simulator::new(SimConfig {
        fleet: FleetConfig {
            n_drivers: 60,
            ..FleetConfig::default()
        },
        ..SimConfig::for_geo(*city.geo())
    });
    let mspec = partition.mgrid_spec();
    let mut demand = |slot| {
        let pred = city.mean_field(mspec, slot);
        DemandView::from_mgrid(&pred, &partition)
    };
    let outcome = sim.run(&orders, &mut Polar::new(), &mut demand);

    Val::obj(vec![
        ("optimal_side", Val::F64(side as f64)),
        ("upper_bound", Val::F64(result.outcome.error)),
        ("expression_error", Val::F64(expression)),
        ("evals", Val::F64(result.outcome.evals as f64)),
        ("served", Val::F64(outcome.served as f64)),
        ("revenue", Val::F64(outcome.revenue)),
        ("travel_km", Val::F64(outcome.travel_km)),
        ("unified_cost", Val::F64(outcome.unified_cost)),
    ])
}

/// One brute-force tune's full bit-compared signature: selected side,
/// error bits, and the per-probe (side, error-bits) decomposition.
type TuneSignature = (u32, u64, Vec<(u32, u64)>);

fn tune_signature(city: &City, seed: u64) -> TuneSignature {
    let window = AlphaWindow {
        slot_of_day: 16,
        day_start: 0,
        day_end: HISTORY_DAYS,
        weekdays_only: true,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let events = city.sample_history_events(window.slot_of_day, 0..HISTORY_DAYS, &mut rng);
    let r = tune(&events, *city.clock(), window);
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

/// Spans the traced pipeline run must have recorded: alpha scan,
/// expression-error evaluation, each search probe, dispatch simulation
/// (predictor training is exercised by the predict crate's own tests —
/// this pipeline uses the goldens' analytic model leg).
const REQUIRED_SPANS: &[&str] = &[
    "tune",
    "alpha.scan",
    "expression_error",
    "probe",
    "simulate",
    "simulate.slot",
];

/// Checks `to_chrome` of `records`: one closed array opening with the
/// `process_name` record, `B`/`E` events that pair LIFO and by name on
/// every `(pid, tid)` lane with nothing left open, a numeric `dur` on
/// every `X`, and one `X` per `par.task` record.
fn check_chrome(records: &[Val]) {
    let Val::Arr(events) = Val::parse(&to_chrome(records)).expect("one JSON array") else {
        panic!("the Chrome trace is not a JSON array");
    };
    let str_of = |e: &Val, key: &str| e.get(key).and_then(Val::as_str).map(str::to_string);
    let num = |e: &Val, key: &str| e.get(key).and_then(Val::as_f64);
    assert_eq!(str_of(&events[0], "ph").as_deref(), Some("M"));
    assert_eq!(str_of(&events[0], "name").as_deref(), Some("process_name"));
    let mut lanes: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut complete = 0usize;
    for (i, e) in events.iter().enumerate() {
        let lane = || {
            let (pid, tid) = (num(e, "pid"), num(e, "tid"));
            (
                pid.unwrap_or_else(|| panic!("event {i}: no numeric pid")) as u64,
                tid.unwrap_or_else(|| panic!("event {i}: no numeric tid")) as u64,
            )
        };
        match str_of(e, "ph").as_deref() {
            Some("B") => lanes
                .entry(lane())
                .or_default()
                .push(str_of(e, "name").expect("a named B")),
            Some("E") => {
                let opened = lanes.entry(lane()).or_default().pop();
                assert_eq!(opened, str_of(e, "name"), "event {i}: E closes the wrong B");
            }
            Some("X") => {
                assert!(
                    num(e, "dur").is_some(),
                    "event {i}: X without a numeric dur"
                );
                complete += 1;
            }
            _ => {}
        }
    }
    assert!(
        lanes.values().all(Vec::is_empty),
        "unclosed B events: {lanes:?}"
    );
    let tasks = records
        .iter()
        .filter(|r| r.get("name").and_then(Val::as_str) == Some("par.task"))
        .count();
    assert_eq!(complete, tasks, "one X per par.task record");
}

#[test]
fn tracing_is_bit_for_bit_inert() {
    // 1. Baseline: recording off.
    obs::disable();
    let baseline = pipeline(City::nyc(), 0x6e7963);

    // 2. Same run, recording on with a live JSONL sink.
    let buf = obs::trace::capture_to_buffer();
    obs::enable();
    obs::metrics::reset();
    let traced = pipeline(City::nyc(), 0x6e7963);
    obs::disable();
    obs::trace::flush();
    let stream = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    obs::trace::clear_sink();

    // 3. Bit-for-bit identical summaries: `render` prints floats with
    // `{:?}` (shortest round-trip), so equal strings ⇔ equal bit patterns.
    assert_eq!(
        baseline.render(),
        traced.render(),
        "enabling tracing changed a computed result"
    );

    // 4. The traced run still matches the checked-in golden exactly.
    let golden = Val::parse(
        &std::fs::read_to_string(gridtuner_testkit::goldens_dir().join("nyc.json"))
            .expect("nyc golden must exist (run the goldens suite first)"),
    )
    .expect("golden parses");
    for (key, tol) in [
        ("upper_bound", 0.0),
        ("expression_error", 0.0),
        ("optimal_side", 0.0),
    ] {
        let pinned = golden
            .get("tuning")
            .and_then(|t| t.get(key))
            .and_then(Val::as_f64)
            .unwrap_or_else(|| panic!("golden missing tuning.{key}"));
        let got = traced.get(key).and_then(Val::as_f64).unwrap();
        assert!(
            (pinned - got).abs() <= tol,
            "tuning.{key}: golden {pinned} vs traced {got}"
        );
    }
    // 5. The captured stream passes the strict reader and covers the
    // pipeline, and its Chrome conversion is well formed.
    Profile::from_jsonl(&stream)
        .and_then(|p| p.require(REQUIRED_SPANS))
        .unwrap_or_else(|e| panic!("the traced pipeline's stream: {e}"));
    let records = obs::json::parse_jsonl(&stream).expect("the reader parsed it above");
    check_chrome(&records);
    // Counters corroborate the streamed spans: every probe event has a
    // matching tune.probes increment.
    let probes = obs::metrics::snapshot()
        .into_iter()
        .find(|(n, _)| n == "tune.probes")
        .map_or(0, |(_, v)| v);
    assert!(probes > 0, "probe counter must have advanced");

    // 6. Profiling must stay inert across thread counts: at 1, 2 and 8
    // workers the same tune, run with recording off and then with a live
    // sink (worker timelines, par.task records and all), must produce a
    // bit-identical signature — and every thread count must agree with
    // every other. Whenever the pool actually dispatched under recording,
    // the captured stream must carry the per-worker `par.task` timeline.
    let scaled = City::nyc().scaled(SCALE);
    let prev_threads = gridtuner_par::max_threads();
    let mut reference: Option<TuneSignature> = None;
    for threads in [1usize, 2, 8] {
        gridtuner_par::set_max_threads(threads);
        obs::disable();
        let off = tune_signature(&scaled, 0x6e7963);
        let buf = obs::trace::capture_to_buffer();
        obs::enable();
        let dispatches_before = obs::counter!("par.dispatches").get();
        let on = tune_signature(&scaled, 0x6e7963);
        let dispatched = obs::counter!("par.dispatches").get() > dispatches_before;
        obs::disable();
        obs::trace::flush();
        let stream = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        obs::trace::clear_sink();
        assert_eq!(
            off, on,
            "profiling changed the tune result at {threads} threads"
        );
        match &reference {
            None => reference = Some(off),
            Some(r) => assert_eq!(&off, r, "thread count {threads} changed the tune result"),
        }
        let profile = Profile::from_jsonl(&stream)
            .unwrap_or_else(|e| panic!("the stream at {threads} threads: {e}"));
        if dispatched {
            assert!(
                !profile.tasks.is_empty(),
                "pool dispatched at {threads} threads but the stream has no par.task records"
            );
        }
    }
    gridtuner_par::set_max_threads(prev_threads);
    obs::metrics::reset();
}
