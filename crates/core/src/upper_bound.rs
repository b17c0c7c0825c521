//! Algorithm 3: `UpperBound(n, N, X, Model)` — the quantity the search
//! algorithms minimise.
//!
//! For an MGrid side `s` (`n = s²`), the upper bound of the total real
//! error is
//!
//! ```text
//! e(s) = n·MAE(f)  +  Σ_i Σ_j E_e(i, j)
//! ```
//!
//! The first term is supplied by a [`ModelErrorSource`] (training a
//! prediction model for side `s` and measuring its MGrid-level MAE —
//! Eq. 20); the second is computed analytically from the α field estimated
//! on the partition's HGrid lattice (Sec. III-B), served by
//! [`AlphaFieldCache::expression_error`](crate::alpha_cache::AlphaFieldCache::expression_error)
//! over `Partition::for_budget(s, √N)`. The engine's `TuningSession` sums
//! the two legs in its probe — the one Algorithm-3 path.

use crate::error::CoreError;

/// The model-error leg of Algorithm 3: everything that knows how to train
/// and evaluate a prediction model at a given MGrid side.
/// `HistoricalAverage`-backed city models, the nn predictors, and
/// testkit's synthetic oracles all plug in through this one trait, and any
/// `FnMut(u32) -> f64` closure is an analytic source; failures surface as
/// [`CoreError::Model`] instead of panicking mid-search.
pub trait ModelErrorSource {
    /// Total model error `Σ_i E|λ̂_i − λ_i| ≈ n·MAE(f)` at MGrid side `s`,
    /// or a typed failure.
    fn model_error(&mut self, mgrid_side: u32) -> Result<f64, CoreError>;

    /// Whether the source reads the ingested event log. When true, a data
    /// delta invalidates the session's per-side model-error memo; analytic
    /// sources (the default) keep their memo across ingests.
    fn data_dependent(&self) -> bool {
        false
    }
}

impl<F: FnMut(u32) -> f64> ModelErrorSource for F {
    fn model_error(&mut self, mgrid_side: u32) -> Result<f64, CoreError> {
        Ok(self(mgrid_side))
    }
}

#[cfg(test)]
mod tests {
    use gridtuner_spatial::Partition;

    #[test]
    fn partition_for_respects_budget() {
        // The partition Algorithm 3 probes at side `s` covers the whole
        // HGrid budget (`nm ≥ N`, Definition 6) with `s` MGrids a side.
        for side in [1u32, 4, 16, 24, 76] {
            let p = Partition::for_budget(side, 128);
            assert!(p.total_hgrids() >= 128 * 128, "side {side}");
            assert_eq!(p.mgrid_side(), side);
        }
    }
}
