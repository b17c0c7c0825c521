//! Outside-in replays of the α-cache and expression-kernel layers.
//!
//! The engine calls these layers inside `tune()`, where the benchmark
//! cannot wrap them, so the traced run replays the same calls through
//! their public functions on the same log and probed sides, and times
//! each call as a span.

use crate::layers::Counters;
use crate::stats::{median, timed};
use crate::trace::Tracer;
use crate::Report;
use gridtuner_core::AlphaFieldCache;
use gridtuner_engine::EngineConfig;
use gridtuner_spatial::{Event, Partition};

pub struct KernelReplay {
    /// `AlphaFieldCache::new` over the log (median of a few).
    pub scan_s: f64,
    /// Σ `alpha(spec)` over the probed sides on a fresh cache.
    pub derive_s: f64,
    /// Σ `expression_error` over the probed sides, α derived, pmf memo cold.
    pub sweep_cold_s: f64,
    /// The same sweep again on the now warm cache.
    pub sweep_warm_s: f64,
    /// Cold sweep at one thread over cold sweep at the pinned thread count.
    pub sweep_speedup: f64,
}

const SCAN_REPS: usize = 3;

pub fn kernel(log: &[Event], cfg: &EngineConfig, sides: &[u32], tracer: &Tracer) -> KernelReplay {
    let parts: Vec<Partition> = sides
        .iter()
        .map(|&s| Partition::for_budget(s, cfg.hgrid_budget_side))
        .collect();
    let scan = || {
        let _s = tracer.span("alpha_cache.scan");
        AlphaFieldCache::new(log, &cfg.clock, &cfg.alpha_window)
    };
    let scans: Vec<f64> = (0..SCAN_REPS).map(|_| timed(scan).1).collect();
    let derive = |cache: &AlphaFieldCache| {
        let _s = tracer.span("alpha_cache.derive");
        for p in &parts {
            std::hint::black_box(cache.alpha(p.hgrid_spec()));
        }
    };
    let sweep = |cache: &AlphaFieldCache, name: &'static str| {
        let _s = tracer.span(name);
        for p in &parts {
            std::hint::black_box(
                cache
                    .expression_error(p)
                    .expect("replayed fields are valid"),
            );
        }
    };
    let cache = scan();
    let ((), derive_s) = timed(|| derive(&cache));
    let ((), sweep_cold_s) = timed(|| sweep(&cache, "expr_kernel.sweep_cold"));
    let ((), sweep_warm_s) = timed(|| sweep(&cache, "expr_kernel.sweep_warm"));
    drop(cache);

    let threads = gridtuner_par::max_threads();
    let cache = scan();
    derive(&cache);
    gridtuner_par::set_max_threads(1);
    let ((), one_thread_s) = timed(|| sweep(&cache, "expr_kernel.sweep_cold_1t"));
    gridtuner_par::set_max_threads(threads);
    KernelReplay {
        scan_s: median(&scans),
        derive_s,
        sweep_cold_s,
        sweep_warm_s,
        sweep_speedup: one_thread_s / sweep_cold_s,
    }
}

impl KernelReplay {
    /// Sets the α-cache, kernel and pool metrics from this replay and
    /// from the counters `c` read over the measured decision.
    pub fn report(&self, c: &Counters, rep: &mut Report) {
        rep.set("alpha_cache.scan_s", self.scan_s);
        rep.set("alpha_cache.derive_s", self.derive_s);
        rep.set("expr_kernel.sweep_cold_s", self.sweep_cold_s);
        rep.set("expr_kernel.sweep_warm_s", self.sweep_warm_s);
        rep.set("par.sweep_speedup", self.sweep_speedup);
        rep.set("expr_kernel.cell_evals", c.cell_evals as f64);
        rep.set("expr_kernel.dedup_hits", c.dedup_hits as f64);
        rep.set(
            "expr_kernel.pmf_memo_hit_ratio",
            c.pmf_memo_hits as f64 / c.cell_evals.max(1) as f64,
        );
        rep.set("par.dispatches", c.dispatches as f64);
        rep.set("par.lock_waits", c.lock_waits as f64);
    }
}
