//! Spatial substrate for the GridTuner reproduction.
//!
//! This crate provides the geometric and temporal primitives that every other
//! crate in the workspace builds on:
//!
//! * [`geom`] — points, bounding boxes and the mapping between geographic
//!   (lon/lat) space and the normalized unit square all grids live in;
//! * [`time`] — the 30-minute slot clock used throughout the paper
//!   (48 slots per day) and helpers to navigate days/weeks of history;
//! * [`grid`] — uniform square grids ([`grid::GridSpec`]) and the paper's
//!   two-level *MGrid/HGrid* partition ([`grid::Partition`], Definitions 1–2);
//! * [`events`] — spatial events and trip records (the unit of the taxi
//!   datasets);
//! * [`counts`] — per-slot count matrices and series, with the
//!   coarsen/spread operations that connect MGrid predictions to HGrid
//!   estimates (`λ̄_ij = λ̂_i / m`);
//! * [`partition`] — [`QuadTreePartition`], the quadtree partitions the
//!   refinement search picks, whose leaves are aligned power-of-two blocks
//!   of one HGrid lattice.
//!
//! Everything is deterministic and allocation-conscious: count series are
//! stored as flat `Vec<f64>` in row-major `(slot, row, col)` order.

// Library code must not panic on fallible paths; tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod counts;
pub mod events;
pub mod geom;
pub mod grid;
pub mod index;
pub mod io;
pub mod partition;
pub mod time;

pub use counts::{CountMatrix, CountSeries};
pub use events::{Event, TripRecord};
pub use geom::{BBox, GeoBounds, Point};
pub use grid::{CellId, GridSpec, Partition};
pub use index::GridIndex;
pub use partition::{QuadLeaf, QuadTreePartition};
pub use time::{SlotClock, SlotId, SLOTS_PER_DAY, SLOT_MINUTES};

/// Errors produced by the spatial substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpatialError {
    /// A grid side of zero was requested.
    ZeroSide,
    /// A point outside the unit square was passed to an operation that
    /// requires an interior point.
    OutOfBounds,
    /// Two grids/series with incompatible shapes were combined.
    ShapeMismatch {
        /// Expected shape (human-readable).
        expected: String,
        /// Shape actually received.
        got: String,
    },
}

impl std::fmt::Display for SpatialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpatialError::ZeroSide => write!(f, "grid side must be positive"),
            SpatialError::OutOfBounds => write!(f, "point outside the unit square"),
            SpatialError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for SpatialError {}
