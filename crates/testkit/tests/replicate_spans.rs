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
use gridtuner_obs::profile::{Profile, SpanRec};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const REPLICATES: u32 = 4;
const SEED: u64 = 0x6e7963;

fn model(side: u32) -> f64 {
    0.05 * (side * side) as f64
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

    // The strict reader rejects a parent that is not open when its child
    // starts, so reading the stream checks every cross-thread parent.
    let spans = Profile::from_jsonl(&stream)
        .unwrap_or_else(|e| panic!("the bootstrap tune's stream: {e}"))
        .spans;
    let parent_of: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let named = |name: &str| -> Vec<&SpanRec> { spans.iter().filter(|s| s.name == name).collect() };

    let stage = named("uncertainty");
    assert_eq!(stage.len(), 1, "one uncertainty stage span");
    let replicates = named("uncertainty.replicate");
    assert_eq!(
        replicates.len(),
        REPLICATES as usize,
        "brute force finishes every replicate in one round"
    );
    let mut indices = BTreeSet::new();
    for rep in &replicates {
        assert_eq!(
            rep.parent, stage[0].id,
            "replicate span {rep:?} is not a child of the stage span"
        );
        indices.insert(
            rep.fields
                .iter()
                .find(|(k, _)| k == "index")
                .map(|(_, v)| v.render()),
        );
    }
    assert_eq!(indices.len(), REPLICATES as usize, "one span per replicate");
    let replicate_ids: BTreeSet<u64> = replicates.iter().map(|r| r.id).collect();
    let draws = named("alpha.replicate");
    assert_eq!(draws.len(), REPLICATES as usize, "one draw per replicate");
    for draw in draws {
        // The draw happens inside the replicate's search, on its worker:
        // walking up its parents must reach a replicate span.
        let mut id = draw.id;
        while !replicate_ids.contains(&id) {
            id = parent_of[&id];
            assert_ne!(id, 0, "alpha.replicate {draw:?} has no replicate ancestor");
        }
    }
}
