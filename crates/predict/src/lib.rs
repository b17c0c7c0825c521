//! Spatiotemporal prediction models.
//!
//! The paper evaluates three predictors of increasing capacity — MLP,
//! DeepST and DMVST-Net — plus implicitly the historical average. This
//! crate re-creates that ladder on top of [`gridtuner_nn`]:
//!
//! * [`models::HistoricalAverage`] — per-(cell, slot-of-day) mean; the
//!   cheap statistical baseline used by fast search experiments;
//! * [`models::Mlp`] — the paper's MLP: flattened closeness window through
//!   a dense stack (widths are configurable; the paper's 1024…256 sizing
//!   is available via [`models::MlpConfig::paper_sized`]);
//! * [`models::DeepStLike`] — DeepST's idea: closeness/period/trend
//!   channel stacks through a residual convolutional network;
//! * [`models::DmvstLike`] — DMVST-Net's idea: the spatial view plus a
//!   learned temporal weighting of the closeness window.
//!
//! [`features`] builds the closeness/period/trend tensors from a
//! [`gridtuner_spatial::CountSeries`]; [`trainer`] holds the one
//! minibatch step every neural predictor trains with; [`eval`] measures
//! the total model error `Σ_i |λ̂_i − λ_i| ≈ n·MAE(f)` (Eq. 20) and adapts
//! any predictor to [`gridtuner_core::upper_bound::ModelErrorSource`] so it
//! can drive the OGSS search.

// Library code must not panic on fallible paths; tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod eval;
pub mod features;
pub mod models;
pub mod trainer;

pub use error::PredictError;
pub use eval::{try_total_model_error, CityModelError};
pub use features::{FeatureConfig, Sample};
pub use models::{
    DeepStLike, DmvstLike, HistoricalAverage, Mlp, MlpConfig, Predictor, TrainConfig,
};
pub use trainer::minibatch_step;
