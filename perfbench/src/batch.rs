//! The workloads, `search-mlp` and `refine-boot`: one decision per fresh
//! session, repeated for the run's seconds.

use crate::check;
use crate::layers::{Counters, TimedModel};
use crate::replay;
use crate::stats::{cpu_seconds, mean, median, net_of_steal, peak_rss_mib, steal_seconds, timed};
use crate::trace::Tracer;
use crate::workloads::{self, Analytic, CityLeg};
use crate::Report;
use gridtuner_core::AlphaFieldCache;
use gridtuner_engine::{
    EngineConfig, IngestReport, ModelErrorSource, PartitionKind, PartitionReport, SearchOutcome,
    TuningSession,
};
use gridtuner_spatial::{Event, SlotId};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Set-up-only sessions opened before the first decision; with one more
/// per decision, `setup_s` is the median of all of them.
const SETUP_REPS: usize = 5;

struct Batch<M> {
    config: EngineConfig,
    log: Vec<Event>,
    model: Box<dyn Fn() -> TimedModel<M>>,
    /// `tune_partition(QuadTree)` instead of `tune()`.
    refine: bool,
    /// Day from which the traced run streams the log's slots into a
    /// session loaded with the days before it; `None` where the write
    /// path is not replayed.
    stream_from: Option<u32>,
}

struct Opened<M> {
    session: TuningSession<TimedModel<M>>,
    setup_s: f64,
    ingest_s: f64,
    ingest: IngestReport,
}

struct Decided {
    point: SearchOutcome,
    bound: f64,
    refined: Option<PartitionReport>,
}

impl<M: ModelErrorSource> Batch<M> {
    /// Set-up: session construction plus ingest of the whole log.
    fn open(&self) -> Opened<M> {
        let t = Instant::now();
        let mut session =
            TuningSession::new(self.config, (self.model)()).expect("benchmark config is valid");
        let (ingest, ingest_s) = timed(|| session.ingest(&self.log));
        let ingest = ingest.expect("generated events are finite");
        Opened {
            session,
            setup_s: t.elapsed().as_secs_f64(),
            ingest_s,
            ingest,
        }
    }

    fn decide(&self, s: &mut TuningSession<TimedModel<M>>) -> Result<Decided, String> {
        if self.refine {
            let r = s
                .tune_partition(PartitionKind::QuadTree)
                .map_err(|e| e.to_string())?;
            Ok(Decided {
                point: r.uniform.outcome.clone(),
                bound: r.bound,
                refined: Some(r),
            })
        } else {
            let r = s.tune().map_err(|e| e.to_string())?;
            Ok(Decided {
                bound: r.outcome.error,
                point: r.outcome,
                refined: None,
            })
        }
    }

    fn check(s: &TuningSession<TimedModel<M>>, d: &Decided) -> Result<(), String> {
        let model = s.model().value(d.point.side);
        check::uniform(s.events(), s.config(), &d.point, model)?;
        if let Some(r) = &d.refined {
            check::refined(r)?;
        }
        Ok(())
    }
}

pub fn search_mlp(seed: u64, seconds: f64, traced: bool, tracer: &Rc<Tracer>) -> Report {
    let (city, log) = workloads::chengdu_month(seed);
    let sample_epochs = Rc::new(Cell::new(0u64));
    let (t, se, c) = (Rc::clone(tracer), Rc::clone(&sample_epochs), city.clone());
    let batch: Batch<CityLeg> = Batch {
        config: workloads::search_mlp_config(&city),
        log,
        model: Box::new(move || workloads::mlp_leg(&c, &t, &se)),
        refine: false,
        stream_from: None,
    };
    run(&batch, seconds, traced, tracer, &sample_epochs)
}

pub fn refine_boot(seed: u64, seconds: f64, traced: bool, tracer: &Rc<Tracer>) -> Report {
    let (city, log) = workloads::chengdu_month(seed);
    let t = Rc::clone(tracer);
    let batch: Batch<Analytic> = Batch {
        config: workloads::refine_boot_config(&city, seed),
        log,
        model: Box::new(move || TimedModel::new(workloads::analytic as Analytic, Rc::clone(&t))),
        refine: true,
        stream_from: Some(workloads::STREAM_FROM_DAY),
    };
    run(&batch, seconds, traced, tracer, &Rc::new(Cell::new(0)))
}

/// One measured decision.
struct Sample {
    run: u32,
    traced: bool,
    wall_s: f64,
    /// `wall_s` less the steal the host took during the decision.
    net_s: f64,
    cpu_s: f64,
    counters: Counters,
    sample_epochs: u64,
    /// Traced refine decisions: fresh-session tunes with and without the
    /// bootstrap, timed right after the decision.
    split: Option<(f64, f64)>,
}

fn run<M: ModelErrorSource>(
    b: &Batch<M>,
    seconds: f64,
    traced: bool,
    tracer: &Tracer,
    sample_epochs: &Cell<u64>,
) -> Report {
    let mut rep = Report::default();
    let mut setups = Vec::new();
    let mut ingests = Vec::new();
    for _ in 0..SETUP_REPS {
        let o = b.open();
        setups.push(o.setup_s);
        ingests.push(o.ingest_s);
    }

    // Untraced runs take at least two decisions, so the median has two
    // samples. The traced run alternates untraced and traced decisions, so
    // the tracing overhead is measured under the same conditions. A
    // decision starts only while at least half of it fits in the run's
    // seconds, which keeps a run on a slow host close to its length.
    let min_decisions = 2;
    let mut samples: Vec<Sample> = Vec::new();
    let mut last = None;
    let mut peak_rss = None;
    let mut measured = 0.0;
    while samples.len() < min_decisions
        || measured + samples.last().map_or(0.0, |s| s.wall_s) / 2.0 < seconds
    {
        let trace_this = traced && samples.len() % 2 == 1;
        let mut o = b.open();
        setups.push(o.setup_s);
        ingests.push(o.ingest_s);
        tracer.set_on(trace_this);
        let run = tracer.next_run();
        let (se0, c0, cpu0) = (sample_epochs.get(), Counters::now(), cpu_seconds());
        let steal0 = steal_seconds();
        let (decided, wall_s) = timed(|| {
            let _d = tracer.span("decision");
            b.decide(&mut o.session)
        });
        let net_s = net_of_steal(wall_s, steal0);
        let cpu_s = cpu_seconds() - cpu0;
        let counters = Counters::since(c0);
        tracer.set_on(false);
        // Peak memory of set-up plus one decision, before any check runs.
        peak_rss.get_or_insert_with(peak_rss_mib);
        measured += o.setup_s + wall_s;
        samples.push(Sample {
            run,
            traced: trace_this,
            wall_s,
            net_s,
            cpu_s,
            counters,
            sample_epochs: sample_epochs.get() - se0,
            split: (trace_this && b.refine).then(|| tune_split(b, tracer)),
        });
        match decided {
            Ok(d) => {
                rep.record(Batch::check(&o.session, &d));
                last = Some((d, o.session.model().calls(), o.ingest));
            }
            Err(e) => rep.record(Err(e)),
        }
    }
    let Some((decided, trainings, ingest)) = last else {
        panic!("no decision succeeded: {:?}", rep.failures);
    };

    rep.facts = vec![
        ("events", b.log.len().to_string()),
        ("decisions", samples.len().to_string()),
        ("setups", setups.len().to_string()),
        ("selected_side", decided.point.side.to_string()),
    ];
    let plain: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let walls: Vec<f64> = plain.iter().map(|s| s.wall_s).collect();
    let nets: Vec<f64> = plain.iter().map(|s| s.net_s).collect();
    let cpus: Vec<f64> = plain.iter().map(|s| s.cpu_s).collect();
    rep.facts
        .push(("decision_wall_s", format!("{:.4}", median(&walls))));
    if !traced {
        rep.set("setup_s", median(&setups));
        rep.set("decision_s", median(&nets));
        rep.set("cpu_s", median(&cpus));
        rep.set(
            "peak_rss_mb",
            peak_rss.expect("measured after the first decision"),
        );
        rep.set("model_trainings", trainings as f64);
        rep.set("bound", decided.bound);
        rep.set(
            "success_rate",
            (rep.attempted - rep.failed) as f64 / rep.attempted as f64,
        );
        return rep;
    }

    // Per-layer metrics: in-decision spans from the traced decisions,
    // replays for the layers `tune()` calls internally.
    let traced_samples: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
    let per_run = |name: &str| {
        mean(
            &traced_samples
                .iter()
                .map(|s| tracer.total(s.run, name))
                .collect::<Vec<_>>(),
        )
    };
    let decision_s = per_run("decision");
    let model_leg = per_run("model_leg");
    let fit = per_run("predict.fit");
    let eval = per_run("predict.eval");
    let c = traced_samples[0].counters;
    let epochs = traced_samples[0].sample_epochs;

    tracer.set_on(true);
    tracer.next_run();
    let sides: Vec<u32> = decided.point.probes.iter().map(|p| p.0).collect();
    let k = replay::kernel(&b.log, &b.config, &sides, tracer);

    rep.set("session.ingest_s", median(&ingests));
    rep.set("session.ingest_matched", ingest.matched as f64);
    match b.stream_from {
        Some(day) => {
            let w = write_path(b, day, tracer);
            rep.set("session.delta_ingest_s", w.delta_ingest_s);
            rep.set("alpha_cache.append_s", w.append_s);
            rep.set("session.invalidations", w.invalidations as f64);
            rep.record(w.check);
        }
        None => rep.set_zero(&[
            "session.delta_ingest_s",
            "alpha_cache.append_s",
            "session.invalidations",
        ]),
    }
    k.report(&c, &mut rep);
    rep.set("par.cpu_per_wall", mean(&cpus) / mean(&walls));
    rep.set("search.probes", decided.point.probes.len() as f64);
    rep.set("search.non_model_s", decision_s - model_leg);
    rep.set("model_leg.s", model_leg);
    rep.set("predict.fit_s", fit);
    rep.set("predict.eval_s", eval);
    rep.set(
        "datagen.sample_s",
        if fit > 0.0 {
            model_leg - fit - eval
        } else {
            0.0
        },
    );
    rep.set("nn.sample_epochs", epochs as f64);
    rep.set(
        "nn.us_per_sample_epoch",
        if epochs > 0 {
            1e6 * fit / epochs as f64
        } else {
            0.0
        },
    );
    rep.set(
        "obs.trace_overhead_pct",
        100.0 * (decision_s / mean(&walls) - 1.0),
    );

    let rows: &[&str] = match &decided.refined {
        Some(r) => {
            // Refine decision = point tune + uncertainty + partition search.
            let split = |f: fn(f64, f64, f64) -> f64| {
                let parts = traced_samples.iter().filter_map(|s| {
                    let decision = tracer.total(s.run, "decision");
                    s.split.map(|(with, without)| f(decision, with, without))
                });
                mean(&parts.collect::<Vec<_>>())
            };
            rep.set("uncertainty.s", split(|_, with, without| with - without));
            rep.set(
                "partition_search.s",
                split(|decision, with, _| decision - with),
            );
            rep.set("uncertainty.resample_s", resample_s(b, tracer));
            let replicates = r.uniform.uncertainty.as_ref().map_or(0, |u| u.replicates);
            rep.set("uncertainty.replicates", f64::from(replicates));
            rep.set("partition_search.evals", r.evals as f64);
            rep.set("partition_search.splits", r.splits as f64);
            rep.set("partition_search.merges", r.merges as f64);
            rep.set("partition_search.regions", r.n_regions as f64);
            &[
                "alpha_cache.derive_s",
                "expr_kernel.sweep_cold_s",
                "model_leg.s",
                "uncertainty.s",
                "partition_search.s",
            ]
        }
        None => {
            rep.set_zero(&[
                "uncertainty.s",
                "uncertainty.resample_s",
                "uncertainty.replicates",
                "partition_search.s",
                "partition_search.evals",
                "partition_search.splits",
                "partition_search.merges",
                "partition_search.regions",
            ]);
            &[
                "predict.fit_s",
                "predict.eval_s",
                "datagen.sample_s",
                "alpha_cache.derive_s",
                "expr_kernel.sweep_cold_s",
            ]
        }
    };
    tracer.set_on(false);
    rep.set_ledger(decision_s, rows);
    rep
}

/// Times fresh-session tunes with and without the bootstrap, the two
/// calls whose differences split a refine decision into point tune,
/// uncertainty stage and partition search.
fn tune_split<M: ModelErrorSource>(b: &Batch<M>, tracer: &Tracer) -> (f64, f64) {
    let tune_s = |config: EngineConfig, name: &'static str| {
        let mut s = TuningSession::new(config, (b.model)()).expect("benchmark config is valid");
        s.ingest(&b.log).expect("generated events are finite");
        let _span = tracer.span(name);
        timed(|| s.tune().expect("replayed tune succeeds")).1
    };
    let with = tune_s(b.config, "tune.bootstrap");
    let without = tune_s(
        EngineConfig {
            bootstrap: None,
            ..b.config
        },
        "tune.point",
    );
    (with, without)
}

/// Σ `resample_events` over the bootstrap's replicates.
fn resample_s<M>(b: &Batch<M>, tracer: &Tracer) -> f64 {
    let boot = b.config.bootstrap.expect("refine-boot bootstraps");
    let _span = tracer.span("uncertainty.resample");
    let ((), s) = timed(|| {
        for r in 0..u64::from(boot.replicates) {
            std::hint::black_box(gridtuner_core::resample_events(&b.log, boot.seed, r));
        }
    });
    s
}

/// The write path of a live session, replayed after the decisions.
struct WritePath {
    /// Median `TuningSession::ingest` of one delta into a session that
    /// has tuned, so each ingest appends to its α cache.
    delta_ingest_s: f64,
    /// Median `AlphaFieldCache::append` of one delta to a bare cache.
    append_s: f64,
    /// Deltas whose ingest invalidated α.
    invalidations: usize,
    /// The re-tune after the deltas equals a fresh session's tune of the
    /// concatenated log, bit for bit.
    check: Result<(), String>,
}

/// Splits the log at `from_day`: the days before it load a bare α cache
/// and a session that then tunes (point tune, no bootstrap); the rest
/// streams into both one 30-minute slot at a time, and the session
/// re-tunes.
fn write_path<M: ModelErrorSource>(b: &Batch<M>, from_day: u32, tracer: &Tracer) -> WritePath {
    let cfg = &b.config;
    let clock = cfg.clock;
    let slot = |e: &Event| clock.slot_of_minute(e.minute);
    let (base, tail): (Vec<Event>, Vec<Event>) =
        b.log.iter().partition(|e| clock.day_of(slot(e)) < from_day);
    let mut by_slot: BTreeMap<SlotId, Vec<Event>> = BTreeMap::new();
    for e in tail {
        by_slot.entry(slot(&e)).or_default().push(e);
    }
    let deltas: Vec<Vec<Event>> = by_slot.into_values().collect();

    let mut cache = AlphaFieldCache::new(&base, &cfg.clock, &cfg.alpha_window);
    let appends: Vec<f64> = deltas
        .iter()
        .map(|d| {
            let _s = tracer.span("alpha_cache.append");
            timed(|| cache.append(d, &cfg.clock, &cfg.alpha_window)).1
        })
        .collect();
    drop(cache);

    let config = EngineConfig {
        bootstrap: None,
        ..b.config
    };
    let session = || TuningSession::new(config, (b.model)()).expect("benchmark config is valid");
    let mut live = session();
    live.ingest(&base).expect("generated events are finite");
    let tuned = live.tune().map_err(|e| e.to_string());
    let mut invalidations = 0;
    let ingests: Vec<f64> = deltas
        .iter()
        .map(|d| {
            let _s = tracer.span("session.delta_ingest");
            let (r, t) = timed(|| live.ingest(d));
            invalidations += usize::from(r.expect("generated events are finite").invalidated);
            t
        })
        .collect();
    let check = tuned.and_then(|_| {
        let streamed = live.tune().map_err(|e| e.to_string())?.outcome;
        check::argmin(&streamed)?;
        drop(live);
        // A session that never tuned has no α cache to append to, so it
        // scans the concatenated log when it tunes.
        let mut fresh = session();
        fresh.ingest(&base).map_err(|e| e.to_string())?;
        fresh
            .ingest(&deltas.concat())
            .map_err(|e| e.to_string())?;
        let fresh = fresh.tune().map_err(|e| e.to_string())?.outcome;
        if fresh != streamed {
            return Err(format!(
                "streamed decision (side {}, error {}) differs from a fresh tune (side {}, error {})",
                streamed.side, streamed.error, fresh.side, fresh.error
            ));
        }
        Ok(())
    });
    WritePath {
        delta_ingest_s: median(&ingests),
        append_s: median(&appends),
        invalidations,
        check,
    }
}
