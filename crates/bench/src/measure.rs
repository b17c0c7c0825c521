//! The one tune measurement behind `BENCH_tune.json`.
//!
//! `tune_bench` (which writes the committed baseline) and `bench_check`
//! (which gates against it) both call [`TuneBench::measure`], so the
//! numbers they compare come from the same code: the paper-default NYC
//! history, a brute-force [`TuningSession::tune`] with the analytic
//! [`model`] leg on one worker, then the kernel isolation of
//! [`time_kernels`]. The counters and span stats are read from the `obs`
//! registry, which the measurement zeroes first, so nothing else may run
//! in the process while it measures — both binaries run it on their main
//! thread alone.

use crate::kernel_timing::{time_kernels, KernelTiming};
use gridtuner_core::alpha::AlphaWindow;
use gridtuner_datagen::City;
use gridtuner_engine::{EngineConfig, SearchStrategy, TuningSession};
use gridtuner_obs as obs;
use gridtuner_obs::span::SpanStat;
use gridtuner_spatial::Event;
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Span stats of the ingest and the tune alone, read before the
    /// kernel isolation runs (`tune` closes once).
    pub phases: Vec<(&'static str, SpanStat)>,
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
    /// span stats between the two. Panics if the two kernels disagree.
    pub fn measure(&self) -> Measurement {
        obs::enable();
        obs::reset();
        let prev_threads = gridtuner_par::max_threads();
        gridtuner_par::set_max_threads(WORKERS);
        let t = Instant::now();
        let mut session = TuningSession::new(self.config, model).expect("valid bench config");
        session
            .ingest(&self.events)
            .expect("finite synthetic events");
        let report = session.tune().expect("infallible model leg");
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
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
            phases: obs::span::span_stats(),
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
