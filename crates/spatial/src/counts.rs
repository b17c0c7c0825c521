//! Per-slot event counts on a grid, and the resolution-change operators.
//!
//! [`CountMatrix`] is the count field for one time slot on one grid;
//! [`CountSeries`] stacks matrices over consecutive slots. The two
//! resolution operators implement the paper's estimation chain:
//!
//! * [`CountMatrix::coarsen`] — sum-pool an HGrid-lattice field to the MGrid
//!   lattice (`λ_i = Σ_j λ_ij`, Definition 2);
//! * [`CountMatrix::spread`] — uniformly divide an MGrid field over its
//!   HGrids (`λ̄_ij = λ_i / m`, the maximum-entropy estimate of Sec. II-A).

use crate::events::Event;
use crate::grid::{CellId, GridSpec, Partition};
use crate::time::{SlotClock, SlotId};
use crate::SpatialError;

/// Event counts (or any per-cell scalar field) for one slot on a
/// `side × side` grid, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct CountMatrix {
    side: u32,
    data: Vec<f64>,
}

impl CountMatrix {
    /// All-zero matrix.
    pub fn zeros(side: u32) -> Self {
        assert!(side > 0, "grid side must be positive");
        CountMatrix {
            side,
            data: vec![0.0; (side as usize).pow(2)],
        }
    }

    /// Builds a matrix from raw row-major data. Errors when the length is
    /// not `side²`.
    pub fn from_vec(side: u32, data: Vec<f64>) -> Result<Self, SpatialError> {
        if side == 0 {
            return Err(SpatialError::ZeroSide);
        }
        if data.len() != (side as usize).pow(2) {
            return Err(SpatialError::ShapeMismatch {
                expected: format!("{}x{} = {}", side, side, (side as usize).pow(2)),
                got: format!("{}", data.len()),
            });
        }
        Ok(CountMatrix { side, data })
    }

    /// Grid side.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// The grid this field lives on.
    pub fn spec(&self) -> GridSpec {
        GridSpec::new(self.side)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the grid has zero cells (never, by construction, but kept
    /// for clippy-idiomatic pairing with `len`).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Value at a cell.
    pub fn get(&self, cell: CellId) -> f64 {
        self.data[cell.index()]
    }

    /// Mutable value at a cell.
    pub fn get_mut(&mut self, cell: CellId) -> &mut f64 {
        &mut self.data[cell.index()]
    }

    /// Raw row-major slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sum over all cells.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean over all cells.
    pub fn mean(&self) -> f64 {
        self.total() / self.len() as f64
    }

    /// Sum of |a - b| over cells — the "order count bias" the paper uses as
    /// its error metric. Errors on shape mismatch.
    pub fn l1_distance(&self, other: &CountMatrix) -> Result<f64, SpatialError> {
        if self.side != other.side {
            return Err(SpatialError::ShapeMismatch {
                expected: format!("side {}", self.side),
                got: format!("side {}", other.side),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .sum())
    }

    /// Element-wise in-place addition. Errors on shape mismatch.
    pub fn add_assign(&mut self, other: &CountMatrix) -> Result<(), SpatialError> {
        if self.side != other.side {
            return Err(SpatialError::ShapeMismatch {
                expected: format!("side {}", self.side),
                got: format!("side {}", other.side),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Scales every cell by `k`.
    pub fn scale(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Sum-pools this field down by an integer `factor`: cell `(r, c)` of
    /// the result is the sum of the `factor × factor` block it covers.
    /// Errors unless `factor` divides the side.
    pub fn coarsen(&self, factor: u32) -> Result<CountMatrix, SpatialError> {
        if factor == 0 {
            return Err(SpatialError::ZeroSide);
        }
        if !self.side.is_multiple_of(factor) {
            return Err(SpatialError::ShapeMismatch {
                expected: format!("side divisible by {factor}"),
                got: format!("side {}", self.side),
            });
        }
        let out_side = self.side / factor;
        let mut out = CountMatrix::zeros(out_side);
        let s = self.side as usize;
        let f = factor as usize;
        for r in 0..s {
            for c in 0..s {
                out.data[(r / f) * out_side as usize + c / f] += self.data[r * s + c];
            }
        }
        Ok(out)
    }

    /// Uniformly spreads this field up by an integer `factor`: every cell's
    /// value is divided equally over the `factor × factor` cells that
    /// replace it. `spread` is the right inverse of [`CountMatrix::coarsen`].
    pub fn spread(&self, factor: u32) -> Result<CountMatrix, SpatialError> {
        if factor == 0 {
            return Err(SpatialError::ZeroSide);
        }
        let out_side = self
            .side
            .checked_mul(factor)
            .ok_or(SpatialError::ZeroSide)?;
        let mut out = CountMatrix::zeros(out_side);
        let s = self.side as usize;
        let f = factor as usize;
        let share = 1.0 / (f * f) as f64;
        for r in 0..out_side as usize {
            for c in 0..out_side as usize {
                out.data[r * out_side as usize + c] = self.data[(r / f) * s + c / f] * share;
            }
        }
        Ok(out)
    }

    /// Coarsens an HGrid-lattice field to the MGrid lattice of `partition`.
    /// The field must live on `partition.hgrid_spec()`.
    pub fn to_mgrid(&self, partition: &Partition) -> Result<CountMatrix, SpatialError> {
        if self.side != partition.hgrid_spec().side() {
            return Err(SpatialError::ShapeMismatch {
                expected: format!("hgrid side {}", partition.hgrid_spec().side()),
                got: format!("side {}", self.side),
            });
        }
        self.coarsen(partition.sub_side())
    }

    /// Spreads an MGrid-lattice field to the HGrid lattice of `partition`
    /// (`λ̄_ij = λ_i / m`). The field must live on `partition.mgrid_spec()`.
    pub fn to_hgrid(&self, partition: &Partition) -> Result<CountMatrix, SpatialError> {
        if self.side != partition.mgrid_spec().side() {
            return Err(SpatialError::ShapeMismatch {
                expected: format!("mgrid side {}", partition.mgrid_spec().side()),
                got: format!("side {}", self.side),
            });
        }
        self.spread(partition.sub_side())
    }
}

/// A stack of [`CountMatrix`] over consecutive global slots `0..n_slots`.
#[derive(Debug, Clone, PartialEq)]
pub struct CountSeries {
    side: u32,
    n_slots: usize,
    data: Vec<f64>,
}

impl CountSeries {
    /// All-zero series.
    pub fn zeros(side: u32, n_slots: usize) -> Self {
        assert!(side > 0, "grid side must be positive");
        CountSeries {
            side,
            n_slots,
            data: vec![0.0; n_slots * (side as usize).pow(2)],
        }
    }

    /// Counts `events` onto a `spec` grid over slots `0..n_slots`.
    /// Events outside the unit square or past the horizon are dropped.
    pub fn from_events(
        events: &[Event],
        spec: GridSpec,
        clock: &SlotClock,
        n_slots: usize,
    ) -> Self {
        let mut s = CountSeries::zeros(spec.side(), n_slots);
        let cells = s.cells_per_slot();
        for e in events {
            let slot = e.slot(clock);
            if slot.index() >= n_slots {
                continue;
            }
            if let Some(cell) = spec.cell_of(&e.loc) {
                s.data[slot.index() * cells + cell.index()] += 1.0;
            }
        }
        s
    }

    /// Grid side.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// The grid this series lives on.
    pub fn spec(&self) -> GridSpec {
        GridSpec::new(self.side)
    }

    /// Number of slots.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    fn cells_per_slot(&self) -> usize {
        (self.side as usize).pow(2)
    }

    /// Read-only view of one slot's counts.
    pub fn slot(&self, slot: SlotId) -> &[f64] {
        let c = self.cells_per_slot();
        &self.data[slot.index() * c..(slot.index() + 1) * c]
    }

    /// One slot's counts as an owned matrix.
    pub fn slot_matrix(&self, slot: SlotId) -> CountMatrix {
        CountMatrix {
            side: self.side,
            data: self.slot(slot).to_vec(),
        }
    }

    /// Mutable view of one slot's counts.
    pub fn slot_mut(&mut self, slot: SlotId) -> &mut [f64] {
        let c = self.cells_per_slot();
        &mut self.data[slot.index() * c..(slot.index() + 1) * c]
    }

    /// Total events in one slot.
    pub fn slot_total(&self, slot: SlotId) -> f64 {
        self.slot(slot).iter().sum()
    }

    /// Coarsens every slot by `factor` (see [`CountMatrix::coarsen`]).
    pub fn coarsen(&self, factor: u32) -> Result<CountSeries, SpatialError> {
        if factor == 0 || !self.side.is_multiple_of(factor) {
            return Err(SpatialError::ShapeMismatch {
                expected: format!("side divisible by {factor}"),
                got: format!("side {}", self.side),
            });
        }
        let out_side = self.side / factor;
        let mut out = CountSeries::zeros(out_side, self.n_slots);
        for t in 0..self.n_slots {
            let m = self.slot_matrix(SlotId(t as u32)).coarsen(factor)?;
            out.slot_mut(SlotId(t as u32)).copy_from_slice(m.as_slice());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;

    fn mat(side: u32, v: &[f64]) -> CountMatrix {
        CountMatrix::from_vec(side, v.to_vec()).unwrap()
    }

    #[test]
    fn from_vec_rejects_bad_shapes() {
        assert!(CountMatrix::from_vec(2, vec![1.0; 3]).is_err());
        assert!(CountMatrix::from_vec(0, vec![]).is_err());
        assert!(CountMatrix::from_vec(2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn coarsen_sums_blocks() {
        // 4x4 -> 2x2 with factor 2.
        let m = mat(
            4,
            &[
                1., 2., 3., 4., //
                5., 6., 7., 8., //
                1., 1., 1., 1., //
                2., 2., 2., 2.,
            ],
        );
        let c = m.coarsen(2).unwrap();
        assert_eq!(c.as_slice(), &[14., 22., 6., 6.]);
        assert!((c.total() - m.total()).abs() < 1e-12);
    }

    #[test]
    fn coarsen_rejects_non_divisor() {
        let m = CountMatrix::zeros(4);
        assert!(m.coarsen(3).is_err());
        assert!(m.coarsen(0).is_err());
    }

    #[test]
    fn spread_divides_uniformly_and_preserves_mass() {
        let m = mat(2, &[4., 8., 0., 12.]);
        let s = m.spread(2).unwrap();
        assert_eq!(s.side(), 4);
        assert_eq!(s.get(CellId(0)), 1.0);
        assert_eq!(s.get(CellId(1)), 1.0);
        assert_eq!(s.get(CellId(2)), 2.0);
        assert!((s.total() - m.total()).abs() < 1e-12);
    }

    #[test]
    fn spread_then_coarsen_is_identity() {
        let m = mat(3, &[1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        let back = m.spread(4).unwrap().coarsen(4).unwrap();
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn partition_roundtrip_mgrid_hgrid() {
        let p = Partition::new(2, 3);
        let mut h = CountMatrix::zeros(p.hgrid_spec().side());
        for (i, v) in h.as_mut_slice().iter_mut().enumerate() {
            *v = i as f64;
        }
        let m = h.to_mgrid(&p).unwrap();
        assert_eq!(m.side(), 2);
        assert!((m.total() - h.total()).abs() < 1e-9);
        let spread = m.to_hgrid(&p).unwrap();
        assert_eq!(spread.side(), 6);
        assert!((spread.total() - h.total()).abs() < 1e-9);
    }

    #[test]
    fn to_mgrid_validates_side() {
        let p = Partition::new(2, 3);
        let wrong = CountMatrix::zeros(5);
        assert!(wrong.to_mgrid(&p).is_err());
        assert!(wrong.to_hgrid(&p).is_err());
    }

    #[test]
    fn l1_distance_is_order_count_bias() {
        // Example 1 of the paper: model-grid error 3 vs small-grid error 10.
        let pred = mat(2, &[8., 2., 4., 4.]);
        let actual = mat(2, &[9., 1., 4., 5.]);
        assert!((pred.l1_distance(&actual).unwrap() - 3.0).abs() < 1e-12);
        assert!(pred.l1_distance(&CountMatrix::zeros(3)).is_err());
    }

    #[test]
    fn series_counts_events_per_slot_and_cell() {
        let clock = SlotClock::default();
        let events = vec![
            Event::new(Point::new(0.1, 0.1), 0),       // slot 0, cell 0
            Event::new(Point::new(0.9, 0.9), 10),      // slot 0, cell 3
            Event::new(Point::new(0.1, 0.9), 31),      // slot 1, cell 2
            Event::new(Point::new(0.1, 0.1), 999_999), // beyond horizon
        ];
        let s = CountSeries::from_events(&events, GridSpec::new(2), &clock, 2);
        assert_eq!(s.slot(SlotId(0)), &[1., 0., 0., 1.]);
        assert_eq!(s.slot(SlotId(1)), &[0., 0., 1., 0.]);
        assert_eq!(s.slot_total(SlotId(0)), 2.0);
    }

    #[test]
    fn series_coarsen_matches_matrix_coarsen() {
        let clock = SlotClock::default();
        let events: Vec<Event> = (0..100)
            .map(|i| {
                Event::new(
                    Point::new((i as f64 * 0.01) % 1.0, (i as f64 * 0.037) % 1.0),
                    i * 3,
                )
            })
            .collect();
        let fine = CountSeries::from_events(&events, GridSpec::new(8), &clock, 8);
        let coarse = fine.coarsen(4).unwrap();
        for t in 0..8u32 {
            let want = fine.slot_matrix(SlotId(t)).coarsen(4).unwrap();
            assert_eq!(coarse.slot(SlotId(t)), want.as_slice());
        }
    }
}
