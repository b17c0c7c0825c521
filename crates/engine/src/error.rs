//! The workspace-wide error taxonomy.
//!
//! Every failure a session can surface collapses into four kinds, each
//! with a stable process exit code so scripts can branch on *why* a run
//! failed without parsing messages:
//!
//! | kind       | exit code | meaning                                        |
//! |------------|-----------|------------------------------------------------|
//! | `Config`   | 2         | invalid configuration or arguments             |
//! | `Data`     | 3         | the ingested data or its spatial shape is unusable |
//! | `Internal` | 4         | a model failure or broken pipeline invariant   |
//! | `Env`      | 5         | a malformed environment variable               |
//!
//! The per-crate typed errors ([`CoreError`], [`SpatialError`],
//! [`DispatchError`], [`UnknownCity`], [`EnvParseError`]) convert in via
//! `From`, carrying their messages along.

use gridtuner_core::CoreError;
use gridtuner_datagen::UnknownCity;
use gridtuner_dispatch::DispatchError;
use gridtuner_par::EnvParseError;
use gridtuner_spatial::SpatialError;

/// A failure anywhere in the tuning pipeline, classified for exit codes.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Invalid configuration: bad side range, unknown city preset,
    /// malformed arguments. Exit code 2.
    Config(String),
    /// The ingested data or its spatial shape is unusable (e.g.
    /// non-finite coordinates, a zero or non-divisible coarsen/spread
    /// factor, a mismatched lattice). Exit code 3.
    Data(String),
    /// An unexpected failure inside the pipeline: model training, a
    /// broken invariant. Exit code 4.
    Internal(String),
    /// A malformed environment variable (`GRIDTUNER_THREADS`,
    /// `GRIDTUNER_TESTKIT_SEED`, ...). Exit code 5.
    Env(EnvParseError),
}

impl EngineError {
    /// The process exit code for this kind of failure.
    pub fn exit_code(&self) -> i32 {
        match self {
            EngineError::Config(_) => 2,
            EngineError::Data(_) => 3,
            EngineError::Internal(_) => 4,
            EngineError::Env(_) => 5,
        }
    }

    /// The kind as a short label (for logs and stage records).
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::Config(_) => "config",
            EngineError::Data(_) => "data",
            EngineError::Internal(_) => "internal",
            EngineError::Env(_) => "env",
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Config(m) | EngineError::Data(m) | EngineError::Internal(m) => {
                write!(f, "{m}")
            }
            EngineError::Env(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        match &e {
            CoreError::InvalidSideRange { .. }
            | CoreError::InvalidSearchBound
            | CoreError::ZeroHgridBudget => EngineError::Config(e.to_string()),
            // Spatial failures describe the data's shape (zero or
            // non-divisible factors, mismatched lattices), not a pipeline
            // bug: exit 3, like the rest of the unusable-data class.
            CoreError::Data(_) | CoreError::Spatial(_) => EngineError::Data(e.to_string()),
            CoreError::Model { .. } => EngineError::Internal(e.to_string()),
        }
    }
}

impl From<SpatialError> for EngineError {
    fn from(e: SpatialError) -> Self {
        EngineError::Data(e.to_string())
    }
}

impl From<DispatchError> for EngineError {
    fn from(e: DispatchError) -> Self {
        EngineError::Internal(e.to_string())
    }
}

impl From<UnknownCity> for EngineError {
    fn from(e: UnknownCity) -> Self {
        EngineError::Config(e.to_string())
    }
}

impl From<EnvParseError> for EngineError {
    fn from(e: EnvParseError) -> Self {
        EngineError::Env(e)
    }
}

/// Validated `GRIDTUNER_THREADS` override, as an engine error: front doors
/// call this once at startup so a malformed value is a diagnostic (exit
/// code 5) instead of a silent fallback.
pub fn thread_override() -> Result<Option<usize>, EngineError> {
    gridtuner_par::env_thread_override().map_err(EngineError::from)
}

/// Thread diagnostics for front doors: `(ceiling, live)` — the effective
/// worker ceiling (`GRIDTUNER_THREADS` or detected parallelism) and the
/// number of pool workers actually parked right now. The live count is
/// what an operator should trust: the pool spawns lazily, so `live`
/// stays 0 until the first parallel dispatch and never exceeds
/// `ceiling - 1` (the dispatching thread participates itself).
pub fn thread_diagnostics() -> (usize, usize) {
    (gridtuner_par::max_threads(), gridtuner_par::pool_workers())
}

/// The label the benchmark records for the expression kernel: always
/// `"scalar"`, the one safe 4-lane path (see `gridtuner_core::simd`). Kept
/// only as a provenance field for the repository benchmark, which still
/// reads it; it carries no runtime choice.
pub fn simd_diagnostics() -> &'static str {
    "scalar"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_kind() {
        let errors = [
            EngineError::Config("c".into()),
            EngineError::Data("d".into()),
            EngineError::Internal("i".into()),
            EngineError::Env(EnvParseError {
                var: "GRIDTUNER_THREADS",
                value: "lots".into(),
                expected: "a positive integer",
            }),
        ];
        let codes: Vec<i32> = errors.iter().map(|e| e.exit_code()).collect();
        assert_eq!(codes, vec![2, 3, 4, 5]);
        let mut unique = codes.clone();
        unique.dedup();
        assert_eq!(unique.len(), codes.len());
    }

    #[test]
    fn core_errors_classify_by_variant() {
        let cfg: EngineError = CoreError::InvalidSideRange { lo: 9, hi: 2 }.into();
        assert_eq!(cfg.exit_code(), 2);
        let internal: EngineError = CoreError::Model {
            side: 4,
            message: "no evaluable slots".into(),
        }
        .into();
        assert_eq!(internal.exit_code(), 4);
        // Unusable α values surface as a data failure (exit 3), not a
        // panic or an internal error.
        let data: EngineError =
            CoreError::Data("α value NaN at local HGrid 3 is non-finite or negative".into()).into();
        assert_eq!(data.exit_code(), 3);
        assert_eq!(data.kind(), "data");
    }

    #[test]
    fn spatial_errors_route_to_data_exit_3() {
        use gridtuner_spatial::CountMatrix;
        // The concrete failures the routing exists for: coarsen/spread
        // with a zero or non-divisible factor return SpatialError, which
        // must surface as unusable data (exit 3), not Internal.
        let m = CountMatrix::zeros(6);
        let zero: EngineError = m.coarsen(0).unwrap_err().into();
        assert_eq!(zero.exit_code(), 3, "{zero}");
        assert_eq!(zero.kind(), "data");
        let nondiv: EngineError = m.coarsen(4).unwrap_err().into();
        assert_eq!(nondiv.exit_code(), 3, "{nondiv}");
        assert!(nondiv.to_string().contains("mismatch"), "{nondiv}");
        let spread_zero: EngineError = m.spread(0).unwrap_err().into();
        assert_eq!(spread_zero.exit_code(), 3, "{spread_zero}");
        // And the wrapped form takes the same route.
        let wrapped: EngineError = CoreError::Spatial(m.coarsen(0).unwrap_err()).into();
        assert_eq!(wrapped.exit_code(), 3, "{wrapped}");
    }

    #[test]
    fn unknown_city_is_a_config_error() {
        let e: EngineError = gridtuner_datagen::City::by_name("gotham")
            .unwrap_err()
            .into();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("xian"), "{e}");
    }
}
