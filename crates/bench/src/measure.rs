//! The one tune measurement behind `BENCH_tune.json`.
//!
//! `tune_bench` calls [`TuneBench::measure`] once per run, and both the
//! committed baseline and the fresh numbers it judges against it come from
//! this code: the paper-default NYC history, a brute-force
//! [`TuningSession::tune`] with the analytic [`model`] leg on one worker,
//! then the kernel isolation (the pre-batching per-cell sweep vs the
//! batched workspace + pmf-memo path over the probed sides, see
//! [`KernelTiming`]). The counters are read from the `obs` registry, which
//! the measurement zeroes first, so nothing else may run in the process
//! while it measures — `tune_bench` runs it on its main thread alone.
//! The ingest + tune is captured as a trace in memory (replacing any
//! installed sink) and summarised as a [`Profile`]; the capture closes
//! before the kernel isolation, which runs with recording on and no sink.

use gridtuner_core::alpha::AlphaWindow;
use gridtuner_core::alpha_cache::AlphaFieldCache;
use gridtuner_core::expression::total_expression_error_percell;
use gridtuner_datagen::City;
use gridtuner_engine::{EngineConfig, SearchStrategy, TuningSession};
use gridtuner_obs as obs;
use gridtuner_obs::profile::Profile;
use gridtuner_spatial::{Event, Partition};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

/// Worker budget of the measurement: one worker makes every counter a
/// function of the input alone.
pub const WORKERS: usize = 1;

/// The bench's analytic model leg, `0.05·s²`.
pub fn model(s: u32) -> f64 {
    (s * s) as f64 * 0.05
}

/// The bench's inputs: the event history and the engine config.
pub struct TuneBench {
    /// NYC history of the default α window (slot 16, one month of
    /// workdays), sampled with seed 7.
    pub events: Vec<Event>,
    /// Paper defaults (`√N = 128`, sides 4..=76) with brute-force search.
    pub config: EngineConfig,
}

/// What one [`TuneBench::measure`] saw.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Events in the history.
    pub events: u64,
    /// Unique probe evaluations of the tune.
    pub probes: u64,
    /// The selected MGrid side.
    pub selected_side: u32,
    /// Its Theorem II.1 bound.
    pub error: f64,
    /// Full event-log scans (`alpha.rescans`); the one-scan rule says 1.
    pub alpha_rescans: u64,
    /// HGrid cells fed through the batched kernel (`expr.cell_evals`).
    pub expr_cell_evals: u64,
    /// Cells that reused an earlier cell's rate (`expr.dedup_hits`).
    pub expr_dedup_hits: u64,
    /// Pmf tables served from the cross-probe memo (`expr.pmf_memo_hits`).
    pub expr_pmf_memo_hits: u64,
    /// Workspace scratch (re)allocated (`expr.workspace_bytes`).
    pub expr_workspace_bytes: u64,
    /// Wall time of session open + ingest + tune.
    pub wall_ms: f64,
    /// The profile of the ingest and the tune alone (`tune` closes once),
    /// its `report` record holding the registry's counters after the
    /// tune.
    pub profile: Profile,
    /// Per-cell vs batched kernel timing over the probed sides.
    pub kernel: KernelTiming,
}

impl TuneBench {
    /// The inputs at city volume `scale` (1.0 = the paper's full volume,
    /// the committed baseline's).
    pub fn new(scale: f64) -> Self {
        let city = City::nyc().scaled(scale);
        let window = AlphaWindow::default();
        let mut rng = StdRng::seed_from_u64(7);
        let events = city.sample_history_events(
            window.slot_of_day,
            window.day_start..window.day_end,
            &mut rng,
        );
        let config = EngineConfig {
            strategy: SearchStrategy::BruteForce,
            alpha_window: window,
            clock: *city.clock(),
            ..EngineConfig::default()
        };
        TuneBench { events, config }
    }

    /// Enables recording, zeroes the registry, then runs ingest + tune and
    /// the kernel isolation on [`WORKERS`] worker, reading the counters and
    /// closing the trace capture between the two. Panics if the two
    /// kernels disagree.
    pub fn measure(&self) -> Measurement {
        obs::enable();
        obs::metrics::reset();
        let capture = obs::trace::capture_to_buffer();
        let prev_threads = gridtuner_par::max_threads();
        gridtuner_par::set_max_threads(WORKERS);
        let t = Instant::now();
        let mut session = TuningSession::new(self.config, model).expect("valid bench config");
        session
            .ingest(&self.events)
            .expect("finite synthetic events");
        let report = session.tune().expect("infallible model leg");
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        obs::trace::write_report();
        obs::trace::clear_sink();
        let trace = String::from_utf8_lossy(&capture.lock().unwrap_or_else(|p| p.into_inner()))
            .into_owned();
        let counted = Measurement {
            events: self.events.len() as u64,
            probes: report.outcome.evals as u64,
            selected_side: report.outcome.side,
            error: report.outcome.error,
            alpha_rescans: obs::counter!("alpha.rescans").get(),
            expr_cell_evals: obs::counter!("expr.cell_evals").get(),
            expr_dedup_hits: obs::counter!("expr.dedup_hits").get(),
            expr_pmf_memo_hits: obs::counter!("expr.pmf_memo_hits").get(),
            expr_workspace_bytes: obs::counter!("expr.workspace_bytes").get(),
            wall_ms,
            profile: Profile::from_jsonl(&trace).expect("the captured trace parses"),
            kernel: KernelTiming::default(),
        };

        let cache = session.alpha_cache().expect("tune built the α cache");
        let probed: Vec<u32> = report.outcome.probes.iter().map(|&(s, _)| s).collect();
        let kernel = time_kernels(cache, &probed, self.config.hgrid_budget_side, 3);
        gridtuner_par::set_max_threads(prev_threads);
        assert!(
            (kernel.percell_total - kernel.batched_total).abs()
                <= 1e-9 * (1.0 + kernel.percell_total.abs()),
            "kernels disagree on total expression error: {} vs {}",
            kernel.percell_total,
            kernel.batched_total
        );
        Measurement { kernel, ..counted }
    }
}

/// Robust timing of the expression-error kernel pair: minima over `reps`
/// interleaved passes, plus the (bit-compared in [`TuneBench::measure`])
/// totals each kernel produced.
///
/// The ratio between two long, separately-timed blocks wobbles
/// double-digit percent on a busy host, which is useless for a gate with
/// an 18% tolerance. So the two kernels are interleaved *per side* (≈ms
/// granularity, so machine-speed drift lands on both sides of the ratio
/// equally) and the per-kernel minimum across passes is kept — the
/// classic robust timing statistic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTiming {
    pub percell_ms: f64,
    pub batched_ms: f64,
    pub percell_total: f64,
    pub batched_total: f64,
}

impl KernelTiming {
    pub fn speedup(&self) -> f64 {
        self.percell_ms / self.batched_ms.max(1e-9)
    }
}

/// Times both kernels over `probed` sides against a warm `cache`.
///
/// Each pass walks the sides once, timing the per-cell and the batched
/// evaluation of the *same* partition back-to-back; per-kernel pass
/// totals are accumulated and the minimum across passes is kept.
fn time_kernels(cache: &AlphaFieldCache, probed: &[u32], budget: u32, reps: usize) -> KernelTiming {
    let mut out = KernelTiming {
        percell_ms: f64::INFINITY,
        batched_ms: f64::INFINITY,
        percell_total: 0.0,
        batched_total: 0.0,
    };
    for _ in 0..reps.max(1) {
        let mut percell_ms = 0.0f64;
        let mut batched_ms = 0.0f64;
        let mut percell_total = 0.0f64;
        let mut batched_total = 0.0f64;
        for &s in probed {
            let part = Partition::for_budget(s, budget);
            let t = Instant::now();
            percell_total += total_expression_error_percell(&cache.alpha(part.hgrid_spec()), &part);
            percell_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            batched_total += cache
                .expression_error(&part)
                .expect("α field from finite synthetic events");
            batched_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        if percell_ms < out.percell_ms {
            out.percell_ms = percell_ms;
            out.percell_total = percell_total;
        }
        if batched_ms < out.batched_ms {
            out.batched_ms = batched_ms;
            out.batched_total = batched_total;
        }
    }
    out
}
