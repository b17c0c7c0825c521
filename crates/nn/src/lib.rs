//! A minimal, from-scratch neural-network library.
//!
//! The paper trains its predictors (MLP, DeepST, DMVST-Net) in PyTorch on a
//! GPU; this workspace cannot assume either, so `gridtuner-nn` provides the
//! smallest substrate that preserves what the paper's evaluation actually
//! needs: trainable models of *increasing capacity* over gridded count
//! tensors. It is a real (if small) deep-learning library:
//!
//! * [`tensor::Tensor`] — dense `f32` tensors with shape tracking;
//! * [`layers`] — `Dense`, `Conv2d` (same-padding, stride 1), `ReLU`,
//!   `Flatten`, and `Residual` blocks over batch-major `[B, …]` tensors,
//!   each with hand-derived backward passes (gradient-checked in tests);
//! * [`net::Sequential`] — layer composition with forward/backward;
//! * [`loss`] — MSE / Huber with analytic gradients;
//! * [`optim`] — Adam;
//! * [`init`] — He initialisation;
//! * [`wide`] — which compilation of the training kernels runs: the
//!   build target's, or an AVX2 copy of the same source with the same bits.
//!
//! Everything is CPU and deterministic given the RNG seed. A minibatch is
//! one batched pass: each `Dense` and `Conv2d` op splits its rows or
//! channels over the `gridtuner-par` worker pool in one dispatch per batch,
//! Adam's fused scale → update step splits the parameters in one
//! more, and the result is bit-identical at every worker count and to
//! running the batch's samples one at a time.

pub mod init;
pub mod layers;
pub mod loss;
pub mod net;
pub mod optim;
pub mod tensor;
pub mod wide;

pub use layers::{Conv2d, Dense, Flatten, Layer, Param, ReLU, Residual};
pub use loss::{huber_loss, mse_loss};
pub use net::Sequential;
pub use optim::{Adam, Optimizer};
pub use tensor::Tensor;
