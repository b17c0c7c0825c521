//! The unified, validated engine configuration.
//!
//! One struct holds the search knobs, the [`AlphaWindow`], the slot clock
//! and the optional [`SimConfig`] (with its `FleetConfig`): a session is
//! constructed from a single [`EngineConfig`], and every cross-field
//! invariant is checked once, up front, by the builder — returning a
//! typed [`EngineError::Config`] instead of panicking mid-pipeline.

use crate::error::EngineError;
use crate::uncertainty::BootstrapConfig;
use gridtuner_core::alpha::AlphaWindow;
use gridtuner_core::search::SearchStrategy;
use gridtuner_dispatch::SimConfig;
use gridtuner_spatial::SlotClock;

/// Largest HGrid lattice side a configuration may reach: side `s` runs on
/// a lattice of side `s·⌈√N/s⌉ ≤ √N + s − 1`, and a 4096² lattice's α
/// field is 128 MiB of `f64`s. Every budget in use is 128 or less.
pub const MAX_LATTICE_SIDE: u32 = 4096;

/// Everything a [`TuningSession`](crate::TuningSession) needs to know.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// `√N`: side of the HGrid budget lattice (paper: 128).
    pub hgrid_budget_side: u32,
    /// Inclusive range of MGrid sides to search (paper: 4..=76).
    pub side_range: (u32, u32),
    /// Search algorithm.
    pub strategy: SearchStrategy,
    /// α-estimation window.
    pub alpha_window: AlphaWindow,
    /// The slot clock events are binned with.
    pub clock: SlotClock,
    /// Dispatch-simulation parameters, when the session drives the
    /// downstream case study (fleet config included).
    pub sim: Option<SimConfig>,
    /// Bootstrap uncertainty: when set, every tune follows its search
    /// with B seeded replicate tunes and reports a confidence set over
    /// the side plus a stability verdict.
    pub bootstrap: Option<BootstrapConfig>,
}

/// The paper's setup: `√N = 128`, sides 4..=76, Algorithm 5 from side 16
/// with bound 4, the default α window and slot clock, no dispatch, no
/// bootstrap.
impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            hgrid_budget_side: 128,
            side_range: (4, 76),
            strategy: SearchStrategy::Iterative { init: 16, bound: 4 },
            alpha_window: AlphaWindow::default(),
            clock: SlotClock::default(),
            sim: None,
            bootstrap: None,
        }
    }
}

impl EngineConfig {
    /// Starts a builder pre-loaded with the paper's defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
        }
    }

    /// Checks every cross-field invariant. Sessions call this once at
    /// construction; the builder calls it on `build`.
    pub fn validate(&self) -> Result<(), EngineError> {
        let (lo, hi) = self.side_range;
        if lo < 1 || lo > hi {
            return Err(EngineError::Config(format!(
                "invalid side range [{lo}, {hi}]"
            )));
        }
        if self.hgrid_budget_side == 0 {
            return Err(EngineError::Config(
                "HGrid budget side must be positive".into(),
            ));
        }
        let widest = u64::from(self.hgrid_budget_side) + u64::from(hi) - 1;
        if widest > u64::from(MAX_LATTICE_SIDE) {
            return Err(EngineError::Config(format!(
                "HGrid budget side {} with sides up to {hi} reaches a lattice of side {widest}, \
                 over the limit of {MAX_LATTICE_SIDE}",
                self.hgrid_budget_side
            )));
        }
        // Iterative's `init` is deliberately NOT range-checked: Algorithm 5
        // clamps it into [lo, hi] (its documented contract), so an
        // out-of-range start is a valid way to say "start at the edge".
        if let SearchStrategy::Iterative { bound, .. } = self.strategy {
            if bound < 1 {
                return Err(EngineError::Config(
                    "iterative search bound must be at least 1".into(),
                ));
            }
        }
        let w = &self.alpha_window;
        if w.day_start > w.day_end {
            return Err(EngineError::Config(format!(
                "α window days reversed: [{}, {})",
                w.day_start, w.day_end
            )));
        }
        if w.slot_of_day >= self.clock.slots_per_day() {
            return Err(EngineError::Config(format!(
                "α window slot-of-day {} outside the clock's {} slots",
                w.slot_of_day,
                self.clock.slots_per_day()
            )));
        }
        if let Some(boot) = &self.bootstrap {
            if boot.replicates < 1 {
                return Err(EngineError::Config(
                    "bootstrap must run at least one replicate".into(),
                ));
            }
        }
        if let Some(sim) = &self.sim {
            if sim.fleet.n_drivers == 0 {
                return Err(EngineError::Config(
                    "fleet must have at least one driver".into(),
                ));
            }
            if sim.fleet.speed_km_per_min.is_nan() || sim.fleet.speed_km_per_min <= 0.0 {
                return Err(EngineError::Config(format!(
                    "driving speed must be positive, got {}",
                    sim.fleet.speed_km_per_min
                )));
            }
            if sim.fleet.max_wait_min.is_nan() || sim.fleet.max_wait_min < 0.0 {
                return Err(EngineError::Config(format!(
                    "wait cap must be non-negative, got {}",
                    sim.fleet.max_wait_min
                )));
            }
            if sim.unserved_penalty_km.is_nan() || sim.unserved_penalty_km < 0.0 {
                return Err(EngineError::Config(format!(
                    "unserved-order penalty must be non-negative, got {}",
                    sim.unserved_penalty_km
                )));
            }
        }
        Ok(())
    }
}

/// Builder for [`EngineConfig`]; `build` validates.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// `√N`: side of the HGrid budget lattice.
    pub fn hgrid_budget_side(mut self, side: u32) -> Self {
        self.cfg.hgrid_budget_side = side;
        self
    }

    /// Inclusive MGrid side range to search.
    pub fn side_range(mut self, lo: u32, hi: u32) -> Self {
        self.cfg.side_range = (lo, hi);
        self
    }

    /// Search algorithm.
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// α-estimation window.
    pub fn alpha_window(mut self, window: AlphaWindow) -> Self {
        self.cfg.alpha_window = window;
        self
    }

    /// Slot clock.
    pub fn clock(mut self, clock: SlotClock) -> Self {
        self.cfg.clock = clock;
        self
    }

    /// Dispatch-simulation parameters (fleet travels inside).
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.cfg.sim = Some(sim);
        self
    }

    /// Enables bootstrap uncertainty: `replicates` seeded replicate
    /// tunes after every search, reported as a confidence set.
    pub fn bootstrap(mut self, replicates: u32, seed: u64) -> Self {
        self.cfg.bootstrap = Some(BootstrapConfig::new(replicates, seed));
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<EngineConfig, EngineError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_dispatch::FleetConfig;
    use gridtuner_spatial::GeoBounds;

    #[test]
    fn default_mirrors_the_paper() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.hgrid_budget_side, 128);
        assert_eq!(cfg.side_range, (4, 76));
        assert_eq!(
            cfg.strategy,
            SearchStrategy::Iterative { init: 16, bound: 4 }
        );
        assert_eq!(cfg.alpha_window, AlphaWindow::default());
    }

    #[test]
    fn default_is_valid_without_sim_or_bootstrap() {
        let cfg = EngineConfig::default();
        assert!(cfg.sim.is_none());
        assert!(cfg.bootstrap.is_none());
        cfg.validate().unwrap();
    }

    #[test]
    fn builder_rejects_reversed_ranges() {
        let err = EngineConfig::builder()
            .side_range(10, 2)
            .build()
            .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("side range"), "{err}");
    }

    #[test]
    fn builder_accepts_out_of_range_iterative_start_but_rejects_zero_bound() {
        // Algorithm 5 clamps `init` into the range, so this is valid...
        EngineConfig::builder()
            .side_range(2, 8)
            .strategy(SearchStrategy::Iterative { init: 16, bound: 4 })
            .build()
            .unwrap();
        // ...while a zero bound can never terminate a comparison step.
        let err = EngineConfig::builder()
            .side_range(2, 8)
            .strategy(SearchStrategy::Iterative { init: 4, bound: 0 })
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("bound"), "{err}");
    }

    #[test]
    fn builder_rejects_bad_fleet() {
        let err = EngineConfig::builder()
            .side_range(2, 24)
            .strategy(SearchStrategy::BruteForce)
            .sim(SimConfig {
                fleet: FleetConfig {
                    n_drivers: 0,
                    ..FleetConfig::default()
                },
                geo: GeoBounds::xian(),
                unserved_penalty_km: 10.0,
            })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("driver"), "{err}");
    }

    #[test]
    fn builder_rejects_zero_bootstrap_replicates() {
        let err = EngineConfig {
            bootstrap: Some(BootstrapConfig::new(0, 1)),
            ..EngineConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("replicate"), "{err}");
        let ok = EngineConfig::builder().bootstrap(32, 2022).build().unwrap();
        assert_eq!(ok.bootstrap, Some(BootstrapConfig::new(32, 2022)));
    }

    #[test]
    fn validate_rejects_a_lattice_too_large_to_allocate() {
        for (budget, hi) in [(100_000, 24), (64, 100_000), (u32::MAX, u32::MAX)] {
            let err = EngineConfig::builder()
                .hgrid_budget_side(budget)
                .side_range(2, hi)
                .build()
                .unwrap_err();
            assert_eq!(err.exit_code(), 2);
            assert!(err.to_string().contains("lattice"), "{err}");
        }
        // The largest lattice the limit allows is still valid.
        EngineConfig::builder()
            .hgrid_budget_side(MAX_LATTICE_SIDE - 23)
            .side_range(2, 24)
            .build()
            .unwrap();
    }

    #[test]
    fn builder_accepts_the_paper_setup() {
        let cfg = EngineConfig::builder()
            .hgrid_budget_side(128)
            .side_range(4, 76)
            .strategy(SearchStrategy::Iterative { init: 16, bound: 4 })
            .build()
            .unwrap();
        assert_eq!(cfg.side_range, (4, 76));
    }
}
