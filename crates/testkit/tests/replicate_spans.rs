//! Replicate spans keep their place in the trace tree: the uncertainty
//! stage runs its replicates on pool workers, whose own span stack is
//! empty, so each `uncertainty.replicate` span must name the stage's
//! `uncertainty` span as its parent explicitly — and the spans a replicate
//! opens on its worker (such as `alpha.replicate`) must nest under a
//! replicate span rather than becoming trace roots.
//!
//! One `#[test]`: the trace sink, the recording flag and the worker
//! budget are process-global.

use gridtuner_core::alpha::AlphaWindow;
use gridtuner_datagen::City;
use gridtuner_engine::{EngineConfig, SearchStrategy, TuningSession};
use gridtuner_obs as obs;
use gridtuner_obs::json::Val;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const REPLICATES: u32 = 4;
const SEED: u64 = 0x6e7963;

fn model(side: u32) -> f64 {
    0.05 * (side * side) as f64
}

fn field(rec: &Val, key: &str) -> Option<u64> {
    rec.get(key).and_then(Val::as_f64).map(|v| v as u64)
}

#[test]
fn replicate_spans_are_children_of_the_stage_span() {
    let city = City::nyc().scaled(0.002);
    let window = AlphaWindow {
        slot_of_day: 16,
        day_start: 0,
        day_end: 14,
        weekdays_only: true,
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let events = city.sample_history_events(window.slot_of_day, 0..14, &mut rng);
    let cfg = EngineConfig::builder()
        .hgrid_budget_side(32)
        .side_range(2, 24)
        .strategy(SearchStrategy::BruteForce)
        .alpha_window(window)
        .clock(*city.clock())
        .bootstrap(REPLICATES, SEED)
        .build()
        .expect("valid config");
    let mut session = TuningSession::new(cfg, model).expect("validated above");
    session
        .ingest(&events)
        .expect("synthetic events are finite");

    gridtuner_par::set_max_threads(2);
    let buf = obs::trace::capture_to_buffer();
    obs::enable();
    session.tune().expect("analytic model leg");
    obs::disable();
    obs::trace::flush();
    let stream = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    obs::trace::clear_sink();

    let records = obs::json::parse_jsonl(&stream).expect("valid JSONL");
    let starts: Vec<&Val> = records
        .iter()
        .filter(|r| r.get("t").and_then(Val::as_str) == Some("span_start"))
        .collect();
    let parent_of: BTreeMap<u64, u64> = starts
        .iter()
        .filter_map(|r| Some((field(r, "id")?, field(r, "parent")?)))
        .collect();
    let named = |name: &str| -> Vec<&Val> {
        starts
            .iter()
            .copied()
            .filter(|r| r.get("name").and_then(Val::as_str) == Some(name))
            .collect()
    };

    let stage = named("uncertainty");
    assert_eq!(stage.len(), 1, "one uncertainty stage span");
    let stage_id = field(stage[0], "id").expect("span id");
    let replicates = named("uncertainty.replicate");
    assert_eq!(
        replicates.len(),
        REPLICATES as usize,
        "brute force finishes every replicate in one round"
    );
    let mut indices = BTreeSet::new();
    let mut replicate_ids = BTreeSet::new();
    for rep in &replicates {
        assert_eq!(
            field(rep, "parent"),
            Some(stage_id),
            "replicate span {rep:?} is not a child of the stage span"
        );
        indices.insert(rep.get("f").and_then(|f| field(f, "index")));
        replicate_ids.insert(field(rep, "id").expect("span id"));
    }
    assert_eq!(indices.len(), REPLICATES as usize, "one span per replicate");
    let draws = named("alpha.replicate");
    assert_eq!(draws.len(), REPLICATES as usize, "one draw per replicate");
    for draw in draws {
        // The draw happens inside the replicate's search, on its worker:
        // walking up its parents must reach a replicate span.
        let mut id = field(draw, "id").expect("span id");
        while !replicate_ids.contains(&id) {
            id = *parent_of
                .get(&id)
                .unwrap_or_else(|| panic!("alpha.replicate {draw:?} has no replicate ancestor"));
        }
    }
}
