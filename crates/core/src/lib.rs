//! The paper's primary contribution: grid-size selection for spatiotemporal
//! prediction models.
//!
//! The crate decomposes the **real error** of a prediction model evaluated
//! on homogeneous grids (HGrids) into a **model error** and an
//! **expression error** (Theorem II.1):
//!
//! ```text
//! E_r(i,j) ≤ E_m(i,j) + E_e(i,j)
//! ```
//!
//! and provides everything needed to minimise the right-hand side over the
//! number of model grids `n`:
//!
//! * [`poisson`] — numerically-stable Poisson machinery (log-space pmf,
//!   closed-form mean absolute deviation, exact sampling);
//! * [`simd`] — the 4-lane `f64` value type the hot kernels are written
//!   over, with the canonical lane association that fixes their bits;
//! * [`expression`] — the expression error `E_e(i,j) = E|λ̄_ij − λ_ij|`
//!   under the Poisson model: the naive `O(mK³)` computation, the paper's
//!   Algorithm 1 (`O(mK²)`), Algorithm 2 (`O(mK)`), and an adaptive-window
//!   variant for production field sweeps;
//! * [`alpha`] — estimation of the per-HGrid mean `α_ij` from historical
//!   events;
//! * [`alpha_cache`] — the one-pass α-field cache that keeps the tuning
//!   hot path off the raw event log;
//! * [`dalpha`] — the unevenness metric `D_α(N)` (Eq. 2) and the rule for
//!   picking the HGrid budget `N` (Theorem III.1);
//! * [`errors`] — empirical estimators of real/model/expression error from
//!   prediction–actual pairs (Definitions 3–5);
//! * [`resample`] — seeded splitmix64 bootstrap resampling of the event
//!   log, feeding the engine's uncertainty stage;
//! * [`upper_bound`] — Algorithm 3 (`UpperBound(n, N, X, Model)`): its
//!   model leg, the [`ModelErrorSource`] trait;
//! * [`search`] — Brute-force, Ternary Search (Algorithm 4) and the
//!   Iterative Method (Algorithm 5) over the upper bound, selected by
//!   [`SearchStrategy`]. The engine's `TuningSession` wires all of the
//!   above into one tune.

// Library code must not panic on fallible paths; tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod alpha;
pub mod alpha_cache;
pub mod dalpha;
pub mod error;
pub mod errors;
pub mod expr_kernel;
pub mod expression;
pub mod kselect;
pub mod poisson;
pub mod resample;
pub mod search;
pub mod simd;
pub mod upper_bound;

pub use alpha::estimate_alpha;
pub use alpha_cache::AlphaFieldCache;
pub use dalpha::{d_alpha, region_d_alpha, select_hgrid_side};
pub use error::CoreError;
pub use errors::ErrorReport;
pub use expr_kernel::{ExprWorkspace, PmfMemo, PmfTable};
pub use expression::{
    expression_error_alg1, expression_error_alg2, expression_error_naive,
    expression_error_windowed, quadtree_expression_error, total_expression_error_percell,
    try_partition_expression_error, try_quadtree_node_errors,
};
pub use kselect::{recommended_k, truncation_error_bound};
pub use resample::{replicate_draws, replicate_seed, resample_events, splitmix64, ReplicateRng};
pub use search::{
    try_brute_force, try_iterative_method, try_ternary_search, SearchOutcome, SearchStrategy,
};
pub use upper_bound::ModelErrorSource;
