//! Uniform grids and the two-level MGrid/HGrid partition.
//!
//! Definitions 1–2 of the paper: the whole space is divided into `n = s²`
//! same-sized **model grids** (MGrids); each MGrid is further divided into
//! `m = q²` **homogeneous grids** (HGrids), with `n·m > N` where `N` is the
//! minimum number of HGrids that makes each one internally uniform
//! (`N = 128²` in the paper's experiments). Given the MGrid side `s` and the
//! HGrid budget side `√N`, the paper picks `m = ⌈√(N/n)⌉²`, i.e.
//! `q = ⌈√N / s⌉`.

use crate::geom::{BBox, Point};

/// Identifier of a cell in a [`GridSpec`]: row-major index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub usize);

impl CellId {
    /// The raw row-major index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A uniform `side × side` grid over the unit square.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpec {
    side: u32,
}

impl GridSpec {
    /// Creates a grid with the given side. Panics on zero.
    pub fn new(side: u32) -> Self {
        assert!(side > 0, "grid side must be positive");
        GridSpec { side }
    }

    /// Cells per side.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Total number of cells (`side²`).
    pub fn n_cells(&self) -> usize {
        (self.side as usize) * (self.side as usize)
    }

    /// Width/height of one cell in unit coordinates.
    pub fn cell_size(&self) -> f64 {
        1.0 / self.side as f64
    }

    /// Cell containing a unit-square point, or `None` if the point is
    /// outside the unit square.
    pub fn cell_of(&self, p: &Point) -> Option<CellId> {
        if !p.in_unit_square() {
            return None;
        }
        let col = (p.x * self.side as f64) as usize;
        let row = (p.y * self.side as f64) as usize;
        // Guard against p.x == 0.999999999... rounding to `side`.
        let col = col.min(self.side as usize - 1);
        let row = row.min(self.side as usize - 1);
        Some(self.cell_at(row, col))
    }

    /// Cell at a (row, col) pair.
    pub fn cell_at(&self, row: usize, col: usize) -> CellId {
        debug_assert!(row < self.side as usize && col < self.side as usize);
        CellId(row * self.side as usize + col)
    }

    /// (row, col) of a cell.
    pub fn row_col(&self, cell: CellId) -> (usize, usize) {
        let s = self.side as usize;
        (cell.0 / s, cell.0 % s)
    }

    /// Bounding box of a cell.
    pub fn cell_bounds(&self, cell: CellId) -> BBox {
        let (row, col) = self.row_col(cell);
        let sz = self.cell_size();
        BBox::new(
            Point::new(col as f64 * sz, row as f64 * sz),
            Point::new((col + 1) as f64 * sz, (row + 1) as f64 * sz),
        )
    }

    /// Center point of a cell.
    pub fn cell_center(&self, cell: CellId) -> Point {
        self.cell_bounds(cell).center()
    }

    /// Iterator over all cells in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.n_cells()).map(CellId)
    }
}

/// The paper's two-level partition: `n = mgrid_side²` MGrids, each divided
/// into `m = sub_side²` HGrids. The joint HGrid lattice is a uniform grid of
/// side `mgrid_side · sub_side`.
///
/// ```
/// use gridtuner_spatial::Partition;
/// // The paper's case-study setting: n = 16×16 MGrids under an
/// // N = 128² HGrid budget gives m = 8×8 HGrids per MGrid.
/// let p = Partition::for_budget(16, 128);
/// assert_eq!(p.n(), 256);
/// assert_eq!(p.m(), 64);
/// assert!(p.total_hgrids() >= 128 * 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    mgrid_side: u32,
    sub_side: u32,
}

impl Partition {
    /// Creates a partition from the MGrid side `s` (so `n = s²`) and the
    /// per-MGrid subdivision side `q` (so `m = q²`).
    pub fn new(mgrid_side: u32, sub_side: u32) -> Self {
        assert!(mgrid_side > 0 && sub_side > 0, "sides must be positive");
        Partition {
            mgrid_side,
            sub_side,
        }
    }

    /// The paper's rule: given the MGrid side `s` and the HGrid budget side
    /// `√N`, pick the smallest `q` with `(s·q)² ≥ N`, i.e. `q = ⌈√N / s⌉`
    /// (`m = ⌈√(N/n)⌉²`, Algorithm 3 line 1).
    pub fn for_budget(mgrid_side: u32, hgrid_budget_side: u32) -> Self {
        assert!(mgrid_side > 0 && hgrid_budget_side > 0);
        let q = hgrid_budget_side.div_ceil(mgrid_side);
        Partition::new(mgrid_side, q.max(1))
    }

    /// MGrid side `s`.
    pub fn mgrid_side(&self) -> u32 {
        self.mgrid_side
    }

    /// Subdivision side `q` (HGrids per MGrid side).
    pub fn sub_side(&self) -> u32 {
        self.sub_side
    }

    /// Number of MGrids `n = s²`.
    pub fn n(&self) -> usize {
        (self.mgrid_side as usize).pow(2)
    }

    /// HGrids per MGrid `m = q²`.
    pub fn m(&self) -> usize {
        (self.sub_side as usize).pow(2)
    }

    /// Total number of HGrids `n·m`.
    pub fn total_hgrids(&self) -> usize {
        self.n() * self.m()
    }

    /// The MGrid lattice as a [`GridSpec`].
    pub fn mgrid_spec(&self) -> GridSpec {
        GridSpec::new(self.mgrid_side)
    }

    /// The joint HGrid lattice as a [`GridSpec`] of side `s·q`.
    pub fn hgrid_spec(&self) -> GridSpec {
        GridSpec::new(self.mgrid_side * self.sub_side)
    }

    /// All HGrid-lattice cells inside a given MGrid, row-major by local
    /// index (so `hgrids_of(r)[j]` is the paper's `r_{ij}` with `j` 0-based).
    pub fn hgrids_of(&self, mcell: CellId) -> Vec<CellId> {
        let mut out = Vec::with_capacity(self.m());
        out.extend(self.hgrid_iter(mcell));
        out
    }

    /// Iterator form of [`hgrids_of`](Self::hgrids_of): the same cells in
    /// the same row-major local order, without the `Vec` — the batched
    /// expression-error sweep walks one MGrid per kernel call and must not
    /// allocate per cell.
    pub fn hgrid_iter(&self, mcell: CellId) -> impl Iterator<Item = CellId> {
        let (mr, mc) = self.mgrid_spec().row_col(mcell);
        let q = self.sub_side as usize;
        let h = self.hgrid_spec();
        (0..q).flat_map(move |dr| (0..q).map(move |dc| h.cell_at(mr * q + dr, mc * q + dc)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_cell_lookup_corners() {
        let g = GridSpec::new(4);
        assert_eq!(g.cell_of(&Point::new(0.0, 0.0)), Some(CellId(0)));
        assert_eq!(g.cell_of(&Point::new(0.999, 0.999)), Some(CellId(15)));
        assert_eq!(g.cell_of(&Point::new(0.26, 0.0)), Some(CellId(1)));
        assert_eq!(g.cell_of(&Point::new(0.0, 0.26)), Some(CellId(4)));
        assert_eq!(g.cell_of(&Point::new(1.0, 0.5)), None);
    }

    #[test]
    fn grid_row_col_roundtrip() {
        let g = GridSpec::new(7);
        for cell in g.cells() {
            let (r, c) = g.row_col(cell);
            assert_eq!(g.cell_at(r, c), cell);
        }
    }

    #[test]
    fn cell_bounds_tile_the_unit_square() {
        let g = GridSpec::new(3);
        let total: f64 = g.cells().map(|c| g.cell_bounds(c).area()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Centers land back in their own cell.
        for cell in g.cells() {
            assert_eq!(g.cell_of(&g.cell_center(cell)), Some(cell));
        }
    }

    #[test]
    fn partition_budget_rule_matches_paper() {
        // N = 128², s = 16 → q = 8, m = 64 (the paper's default case study
        // setting: n = 16×16, m = 8×8).
        let p = Partition::for_budget(16, 128);
        assert_eq!(p.sub_side(), 8);
        assert_eq!(p.n(), 256);
        assert_eq!(p.m(), 64);
        assert_eq!(p.total_hgrids(), 128 * 128);
    }

    #[test]
    fn partition_budget_rounds_up_on_non_dividing_sides() {
        // s = 24 does not divide 128: q = ⌈128/24⌉ = 6 → lattice 144 ≥ 128,
        // so nm > N holds (Definition 6's constraint).
        let p = Partition::for_budget(24, 128);
        assert_eq!(p.sub_side(), 6);
        assert!(p.total_hgrids() >= 128 * 128);
    }

    #[test]
    fn partition_budget_caps_at_q_one() {
        // s larger than √N still yields one HGrid per MGrid.
        let p = Partition::for_budget(200, 128);
        assert_eq!(p.sub_side(), 1);
        assert_eq!(p.m(), 1);
    }

    #[test]
    fn hgrids_of_is_row_major_within_its_mgrid() {
        let p = Partition::new(3, 4);
        let (h, q) = (p.hgrid_spec(), 4);
        assert_eq!(h.side(), 12);
        for mcell in p.mgrid_spec().cells() {
            let (mr, mc) = p.mgrid_spec().row_col(mcell);
            for (j, hcell) in p.hgrids_of(mcell).into_iter().enumerate() {
                assert_eq!(h.row_col(hcell), (mr * q + j / q, mc * q + j % q));
            }
        }
    }

    #[test]
    fn hgrid_iter_matches_hgrids_of() {
        let p = Partition::new(3, 5);
        for mcell in p.mgrid_spec().cells() {
            let from_iter: Vec<CellId> = p.hgrid_iter(mcell).collect();
            assert_eq!(from_iter, p.hgrids_of(mcell));
            assert_eq!(from_iter.len(), p.m());
        }
    }

    #[test]
    fn hgrids_of_partitions_all_cells() {
        let p = Partition::new(4, 3);
        let mut seen = vec![false; p.hgrid_spec().n_cells()];
        for mcell in p.mgrid_spec().cells() {
            for hcell in p.hgrids_of(mcell) {
                assert!(!seen[hcell.index()], "cell assigned twice");
                seen[hcell.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn geometric_nesting_holds() {
        // Every HGrid's bounds lie inside its MGrid's bounds.
        let p = Partition::new(5, 2);
        let hs = p.hgrid_spec();
        let ms = p.mgrid_spec();
        for mcell in ms.cells() {
            let mb = ms.cell_bounds(mcell);
            for hcell in p.hgrids_of(mcell) {
                let hb = hs.cell_bounds(hcell);
                assert!(hb.min.x >= mb.min.x - 1e-12 && hb.max.x <= mb.max.x + 1e-12);
                assert!(hb.min.y >= mb.min.y - 1e-12 && hb.max.y <= mb.max.y + 1e-12);
            }
        }
    }
}
