//! The stage-based tuning engine: the workspace's stateful front door.
//!
//! Everything above the algorithm layer routes through a
//! [`TuningSession`]: it owns the ingested event log, the one-pass α-field
//! cache and the per-side model-error memo, and it drives the pipeline
//! **ingest → alpha → search → report** (plus an optional dispatch stage
//! for the case study). The `ingest`, `tune`, `uncertainty` and
//! `partition_search` spans mark the phases in a trace.
//!
//! * [`config`] — [`EngineConfig`]: one validated struct holding the
//!   search, α-window, simulator and fleet knobs, with a builder that
//!   rejects invalid setups up front;
//! * [`error`] — [`EngineError`]: the workspace error taxonomy
//!   (config / data / internal / env), each kind with a distinct process
//!   exit code;
//! * [`session`] — [`TuningSession`]: ingest events (incrementally — a
//!   delta append does one partial scan, not a pipeline rebuild), tune
//!   (Algorithm 3 probes driven by the configured search — the one tuning
//!   path; parallelism lives inside each probe's expression sweep, and
//!   `GRIDTUNER_THREADS=1` is the sequential run), re-tune after a data
//!   delta with memoised work served from the caches;
//! * [`uncertainty`] — the optional bootstrap stage: B seeded replicate
//!   tunes over resampled logs producing a confidence set over the side,
//!   per-probe dispersion and a stable/plateau/unstable verdict;
//! * [`partition_search`] — the `PartitionSearch` stage: Theorem II.1's
//!   bound minimised over [`QuadTreePartition`]s (an exact tree DP under a
//!   region cap, each candidate scored from one table of per-block
//!   expression errors), with the 1-D uniform tune as the comparison
//!   baseline.
//!
//! [`QuadTreePartition`]: gridtuner_spatial::QuadTreePartition
//!
//! Model-error legs plug in through
//! [`gridtuner_core::upper_bound::ModelErrorSource`]; it need not be
//! `Sync` (a model trained per probe lives on the tuning thread), and any
//! `FnMut(u32) -> f64` closure is an analytic source as it stands.

// Library code must not panic on fallible paths; tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod error;
pub mod partition_search;
pub mod session;
pub mod uncertainty;

pub use config::{EngineConfig, EngineConfigBuilder, MAX_LATTICE_SIDE};
pub use error::{simd_diagnostics, thread_diagnostics, thread_override, EngineError};
pub use partition_search::{PartitionKind, PartitionLayout, PartitionReport};
pub use session::{IngestReport, TuneReport, TuningSession};
pub use uncertainty::{
    classify, BootstrapConfig, ProbeDispersion, StabilityVerdict, UncertaintyReport,
    PLATEAU_REL_TOL,
};

// The traits and types sessions are used with, re-exported so front ends
// need only this crate.
pub use gridtuner_core::alpha::AlphaWindow;
pub use gridtuner_core::search::{SearchOutcome, SearchStrategy};
pub use gridtuner_core::upper_bound::ModelErrorSource;
