//! Differential & metamorphic verification harness for the GridTuner
//! workspace.
//!
//! The paper's central claims are *equivalence* claims: three algorithms
//! for the expression error must compute the same series (Sec. IV), the
//! cached α field must be bit-identical to the direct estimate, the search
//! heuristics must land on the brute-force optimum on unimodal curves
//! (Theorem II.1's U-shape), and the parallel reductions must not depend
//! on the worker count. This crate turns each of those claims into a
//! machine-checked *oracle pair* and fuzzes all of them from one seeded
//! scenario stream:
//!
//! * [`scenario`] — a deterministic generator of random cities, event
//!   logs, α-window configs and predictor outputs, parameterised by a
//!   single `u64` seed, with structural shrinking on failure;
//! * [`diff`] — the differential engine: register named checks, run them
//!   over a seed range, and get back the **first divergence with a shrunk
//!   reproducer** instead of a bare panic;
//! * [`pairs`] — the standard registry wiring every oracle pair in the
//!   workspace (expression-error trio, α cache, search strategies,
//!   reductions, nn kernels, Theorem II.1) into the engine;
//! * [`nn_reference`] — the per-sample training loop and two-pass Adam,
//!   the reference the batched minibatch step must match bit for bit;
//! * [`golden`] — a dependency-free JSON layer that pins end-to-end
//!   results (tuning optimum, error decomposition, dispatch metrics) as
//!   checked-in snapshots under `tests/goldens/`, regenerated with
//!   `UPDATE_GOLDENS=1`.
//!
//! Reproducing a failure is always `GRIDTUNER_TESTKIT_SEED=<seed> cargo
//! test -p gridtuner-testkit <check-name>`; see `TESTING.md` at the repo
//! root for the full workflow.
//!
//! Like the workspace's `rand`/`proptest` shims, the crate is
//! crates.io-free: everything here builds offline.

pub mod diff;
pub mod golden;
pub mod nn_reference;
pub mod pairs;
pub mod scenario;

pub use diff::{seed_budget, try_seed_budget, Check, DiffEngine, Divergence, Report};
pub use golden::{check_golden, goldens_dir, Json};
pub use pairs::standard_checks;
pub use scenario::{Scenario, ScenarioParams};
