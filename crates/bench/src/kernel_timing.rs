//! Robust timing of the expression-error kernel pair.
//!
//! The shared tune measurement ([`crate::measure`]) behind `tune_bench`
//! (which writes the committed `BENCH_tune.json` baseline) and
//! `bench_check` (which gates against it) times two sweeps — the
//! pre-batching per-cell hot loop vs the batched workspace + pmf-memo
//! path — over the same probed sides and the same warm α cache. The ratio between two long, separately-timed blocks
//! wobbles double-digit percent on a busy host, which is useless for a
//! sentinel with a 15% tolerance; this helper interleaves the two
//! kernels *per side* (≈ms granularity, so machine-speed drift lands on
//! both sides of the ratio equally) and keeps the per-kernel minimum
//! across `reps` passes — the classic robust timing statistic.

use gridtuner_core::alpha_cache::AlphaFieldCache;
use gridtuner_core::expression::total_expression_error_percell;
use gridtuner_spatial::Partition;
use std::time::Instant;

/// Minima over `reps` interleaved passes, plus the (bit-compared
/// elsewhere) totals each kernel produced.
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
pub fn time_kernels(
    cache: &AlphaFieldCache,
    probed: &[u32],
    budget: u32,
    reps: usize,
) -> KernelTiming {
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
            percell_total += cache.with_alpha(part.hgrid_spec(), |alpha| {
                total_expression_error_percell(alpha, &part)
            });
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
