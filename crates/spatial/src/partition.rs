//! Partitions of the service area as a first-class abstraction.
//!
//! The paper's Theorem II.1 error decomposition does not actually require
//! the square `n = s²` MGrid layout of [`Partition`]:
//! it holds for *any* partition of the unit square into regions, as long as
//! every region is a union of HGrid-lattice cells (so the α field derived on
//! the lattice can be aggregated per region). This module captures that
//! generalisation as the [`SpatialPartition`] trait plus three
//! implementations:
//!
//! * [`Partition`] — the paper's square layout (regions are MGrid cells
//!   in row-major order; cells inside a region follow
//!   [`Partition::hgrid_iter`] order);
//! * [`RectGrid`] — independent x/y region counts `nx × ny` over a shared
//!   square HGrid lattice;
//! * [`QuadTreePartition`] — an adaptively refined quadtree over a
//!   power-of-two lattice, whose leaves the engine's refinement search
//!   picks by an exact tree DP.
//!
//! # The HGrid-aligned region invariant
//!
//! Every implementation shares one square HGrid lattice ([`GridSpec`]) and
//! every region is an axis-aligned union of whole lattice cells. This is the
//! invariant that lets the rest of the stack stay unchanged: α derivation is
//! keyed purely by the lattice side (`AlphaFieldCache` memoisation), and the
//! batched expression kernel only ever sees a per-region list of lattice-cell
//! rates — the region's cell count `K` is per-call, so variable-size regions
//! slot into the existing batched design without touching the kernel.
//!
//! # Region-id layout
//!
//! Region ids are dense `0..n_regions()` and deterministic: regions are
//! ordered row-major by their top-left lattice cell (for the quadtree,
//! leaves are kept sorted by `(row0, col0)`). Cells inside a region are
//! enumerated row-major. Determinism of both orders is what makes the
//! parallel sweep bit-identical across worker counts.

use crate::geom::Point;
use crate::grid::{CellId, GridSpec, Partition};

/// Identifier of a region in a [`SpatialPartition`]: dense index in
/// `0..n_regions()`, ordered row-major by the region's top-left lattice
/// cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub usize);

impl RegionId {
    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A partition of the unit square into regions, each a union of whole
/// HGrid-lattice cells (the HGrid-aligned region invariant — see the module
/// docs).
///
/// Implementations must be deterministic: `region_cells_into` must yield
/// cells in a fixed order (row-major), and region ids must be dense and
/// stable for a given partition value.
pub trait SpatialPartition {
    /// The shared square HGrid lattice all regions are unions of.
    fn hgrid_spec(&self) -> GridSpec;

    /// Number of regions.
    fn n_regions(&self) -> usize;

    /// Region containing an HGrid-lattice cell.
    fn region_of(&self, hcell: CellId) -> RegionId;

    /// Number of lattice cells in a region (`K` in the per-region kernel
    /// call).
    fn region_len(&self, region: RegionId) -> usize;

    /// Collects the lattice cells of a region into `out` (cleared first),
    /// row-major. The buffer is caller-owned so the hot expression sweep can
    /// reuse one allocation per worker.
    fn region_cells_into(&self, region: RegionId, out: &mut Vec<CellId>);

    /// Short stable label for reports ("uniform", "rect", "quadtree").
    fn kind(&self) -> &'static str;

    /// Region containing a unit-square point, or `None` outside.
    fn region_of_point(&self, p: &Point) -> Option<RegionId> {
        self.hgrid_spec().cell_of(p).map(|h| self.region_of(h))
    }

    /// The lattice cells of a region as a fresh `Vec` (convenience wrapper
    /// over [`region_cells_into`](Self::region_cells_into)).
    fn region_cells(&self, region: RegionId) -> Vec<CellId> {
        let mut out = Vec::with_capacity(self.region_len(region));
        self.region_cells_into(region, &mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// Partition (the uniform grid)
// ---------------------------------------------------------------------------

/// The paper's square MGrid layout through the trait: regions are the
/// `n = s²` MGrid cells in row-major order, and each region's cells follow
/// [`Partition::hgrid_iter`] order.
impl SpatialPartition for Partition {
    fn hgrid_spec(&self) -> GridSpec {
        Partition::hgrid_spec(self)
    }

    fn n_regions(&self) -> usize {
        self.n()
    }

    fn region_of(&self, hcell: CellId) -> RegionId {
        RegionId(self.mgrid_of(hcell).index())
    }

    fn region_len(&self, _region: RegionId) -> usize {
        self.m()
    }

    fn region_cells_into(&self, region: RegionId, out: &mut Vec<CellId>) {
        out.clear();
        out.extend(self.hgrid_iter(CellId(region.0)));
    }

    fn kind(&self) -> &'static str {
        "uniform"
    }
}

// ---------------------------------------------------------------------------
// RectGrid
// ---------------------------------------------------------------------------

fn gcd(a: u32, b: u32) -> u32 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn lcm(a: u32, b: u32) -> u32 {
    a / gcd(a, b) * b
}

/// A rectangular `nx × ny` region layout: `nx` region columns and `ny`
/// region rows over a shared square lattice. The lattice side is the
/// smallest multiple of `lcm(nx, ny)` that meets the HGrid budget, so every
/// region is an exact `(L/ny) × (L/nx)` block of lattice cells (the
/// HGrid-aligned invariant) and the budget `L² ≥ N` holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RectGrid {
    nx: u32,
    ny: u32,
    lattice: u32,
}

impl RectGrid {
    /// Builds an `nx × ny` rectangular layout under an HGrid budget side.
    /// Panics on zero counts (mirrors [`GridSpec::new`]).
    pub fn for_budget(nx: u32, ny: u32, hgrid_budget_side: u32) -> Self {
        assert!(
            nx > 0 && ny > 0 && hgrid_budget_side > 0,
            "sides must be positive"
        );
        let base = lcm(nx, ny);
        let lattice = base * hgrid_budget_side.div_ceil(base);
        RectGrid { nx, ny, lattice }
    }

    /// Region columns.
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Region rows.
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Lattice cells per region row (block height).
    fn block_rows(&self) -> usize {
        (self.lattice / self.ny) as usize
    }

    /// Lattice cells per region column (block width).
    fn block_cols(&self) -> usize {
        (self.lattice / self.nx) as usize
    }
}

impl SpatialPartition for RectGrid {
    fn hgrid_spec(&self) -> GridSpec {
        GridSpec::new(self.lattice)
    }

    fn n_regions(&self) -> usize {
        (self.nx as usize) * (self.ny as usize)
    }

    fn region_of(&self, hcell: CellId) -> RegionId {
        let (hr, hc) = self.hgrid_spec().row_col(hcell);
        let ry = hr / self.block_rows();
        let rx = hc / self.block_cols();
        RegionId(ry * self.nx as usize + rx)
    }

    fn region_len(&self, _region: RegionId) -> usize {
        self.block_rows() * self.block_cols()
    }

    fn region_cells_into(&self, region: RegionId, out: &mut Vec<CellId>) {
        out.clear();
        let ry = region.0 / self.nx as usize;
        let rx = region.0 % self.nx as usize;
        let (br, bc) = (self.block_rows(), self.block_cols());
        let h = self.hgrid_spec();
        for dr in 0..br {
            for dc in 0..bc {
                out.push(h.cell_at(ry * br + dr, rx * bc + dc));
            }
        }
    }

    fn kind(&self) -> &'static str {
        "rect"
    }
}

// ---------------------------------------------------------------------------
// QuadTreePartition
// ---------------------------------------------------------------------------

/// One quadtree leaf: a `size × size` block of lattice cells with top-left
/// corner `(row0, col0)`. `size` is always a power of two dividing the
/// lattice side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadLeaf {
    /// Top-left lattice row of the block.
    pub row0: usize,
    /// Top-left lattice column of the block.
    pub col0: usize,
    /// Block side in lattice cells (power of two).
    pub size: usize,
}

/// An adaptively refined quadtree over a power-of-two lattice. The lattice
/// side is `hgrid_budget_side.next_power_of_two()` so every split stays
/// HGrid-aligned. Leaves are kept sorted by `(row0, col0)` — region ids are
/// the sorted leaf indices — and a dense cell→leaf lookup makes
/// `region_of` O(1).
///
/// The partition is a value: [`split`](Self::split) returns a *new*
/// partition, and [`from_leaves`](Self::from_leaves) builds one from a leaf
/// list chosen elsewhere (the engine's tree DP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuadTreePartition {
    lattice: u32,
    leaves: Vec<QuadLeaf>,
    /// Dense lattice-cell → leaf-index lookup, rebuilt on every mutation.
    leaf_of: Vec<u32>,
}

impl QuadTreePartition {
    /// The root partition: a single region covering the whole lattice of
    /// side `hgrid_budget_side.next_power_of_two()`. Panics on zero budget.
    pub fn root(hgrid_budget_side: u32) -> Self {
        assert!(hgrid_budget_side > 0, "budget side must be positive");
        let lattice = hgrid_budget_side.next_power_of_two();
        let leaves = vec![QuadLeaf {
            row0: 0,
            col0: 0,
            size: lattice as usize,
        }];
        let mut p = QuadTreePartition {
            lattice,
            leaves,
            leaf_of: Vec::new(),
        };
        p.rebuild_lookup();
        p
    }

    /// A uniform quadtree of depth `depth` (every leaf has side
    /// `lattice / 2^depth`), or `None` if the lattice cannot be split that
    /// far.
    pub fn uniform_depth(hgrid_budget_side: u32, depth: u32) -> Option<Self> {
        let lattice = hgrid_budget_side.next_power_of_two();
        let div = 1u32.checked_shl(depth)?;
        if div > lattice {
            return None;
        }
        let size = (lattice / div) as usize;
        let per_side = div as usize;
        let mut leaves = Vec::with_capacity(per_side * per_side);
        for r in 0..per_side {
            for c in 0..per_side {
                leaves.push(QuadLeaf {
                    row0: r * size,
                    col0: c * size,
                    size,
                });
            }
        }
        let mut p = QuadTreePartition {
            lattice,
            leaves,
            leaf_of: Vec::new(),
        };
        p.rebuild_lookup();
        Some(p)
    }

    /// Lattice side (power of two).
    pub fn lattice_side(&self) -> u32 {
        self.lattice
    }

    /// The leaves in region-id order (sorted by `(row0, col0)`).
    pub fn leaves(&self) -> &[QuadLeaf] {
        &self.leaves
    }

    /// The leaf for a region id.
    pub fn leaf(&self, region: RegionId) -> QuadLeaf {
        self.leaves[region.0]
    }

    /// Splits a region's leaf into its four quadrants, returning the new
    /// partition, or `None` if the leaf is already a single lattice cell.
    /// Region ids are re-derived from the sorted leaf order, so the result
    /// is deterministic.
    pub fn split(&self, region: RegionId) -> Option<Self> {
        let leaf = *self.leaves.get(region.0)?;
        if leaf.size <= 1 {
            return None;
        }
        let half = leaf.size / 2;
        let mut leaves = Vec::with_capacity(self.leaves.len() + 3);
        for (i, l) in self.leaves.iter().enumerate() {
            if i == region.0 {
                for (dr, dc) in [(0, 0), (0, half), (half, 0), (half, half)] {
                    leaves.push(QuadLeaf {
                        row0: leaf.row0 + dr,
                        col0: leaf.col0 + dc,
                        size: half,
                    });
                }
            } else {
                leaves.push(*l);
            }
        }
        Some(Self::sorted(self.lattice, leaves))
    }

    /// The quadtree with exactly these leaves over the lattice of side
    /// `hgrid_budget_side.next_power_of_two()`, in any order, or `None`
    /// unless every leaf is an aligned power-of-two block and together they
    /// tile the lattice exactly once — the shape of every quadtree, and the
    /// way a search that picked its leaves elsewhere builds the partition.
    pub fn from_leaves(hgrid_budget_side: u32, leaves: Vec<QuadLeaf>) -> Option<Self> {
        if hgrid_budget_side == 0 {
            return None;
        }
        let lattice = hgrid_budget_side.next_power_of_two();
        let side = lattice as usize;
        let mut covered = 0usize;
        for l in &leaves {
            let aligned = l.size.is_power_of_two() && l.row0 % l.size == 0 && l.col0 % l.size == 0;
            if !aligned || l.row0 + l.size > side || l.col0 + l.size > side {
                return None;
            }
            covered += l.size * l.size;
        }
        // A total area of `side²` with no cell covered twice covers every
        // cell exactly once.
        if covered != side * side {
            return None;
        }
        let mut seen = vec![false; side * side];
        for l in &leaves {
            for r in l.row0..l.row0 + l.size {
                for c in l.col0..l.col0 + l.size {
                    if std::mem::replace(&mut seen[r * side + c], true) {
                        return None;
                    }
                }
            }
        }
        Some(Self::sorted(lattice, leaves))
    }

    fn sorted(lattice: u32, mut leaves: Vec<QuadLeaf>) -> Self {
        leaves.sort_unstable_by_key(|l| (l.row0, l.col0));
        let mut p = QuadTreePartition {
            lattice,
            leaves,
            leaf_of: Vec::new(),
        };
        p.rebuild_lookup();
        p
    }

    fn rebuild_lookup(&mut self) {
        let side = self.lattice as usize;
        self.leaf_of = vec![u32::MAX; side * side];
        for (i, l) in self.leaves.iter().enumerate() {
            for dr in 0..l.size {
                for dc in 0..l.size {
                    self.leaf_of[(l.row0 + dr) * side + (l.col0 + dc)] = i as u32;
                }
            }
        }
        debug_assert!(
            self.leaf_of.iter().all(|&x| x != u32::MAX),
            "quadtree leaves must tile the lattice"
        );
    }
}

impl SpatialPartition for QuadTreePartition {
    fn hgrid_spec(&self) -> GridSpec {
        GridSpec::new(self.lattice)
    }

    fn n_regions(&self) -> usize {
        self.leaves.len()
    }

    fn region_of(&self, hcell: CellId) -> RegionId {
        RegionId(self.leaf_of[hcell.index()] as usize)
    }

    fn region_len(&self, region: RegionId) -> usize {
        let s = self.leaves[region.0].size;
        s * s
    }

    fn region_cells_into(&self, region: RegionId, out: &mut Vec<CellId>) {
        out.clear();
        let l = self.leaves[region.0];
        let h = self.hgrid_spec();
        for dr in 0..l.size {
            for dc in 0..l.size {
                out.push(h.cell_at(l.row0 + dr, l.col0 + dc));
            }
        }
    }

    fn kind(&self) -> &'static str {
        "quadtree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_tiles<P: SpatialPartition>(p: &P) {
        let mut seen = vec![false; p.hgrid_spec().n_cells()];
        let mut buf = Vec::new();
        for r in 0..p.n_regions() {
            let rid = RegionId(r);
            p.region_cells_into(rid, &mut buf);
            assert_eq!(buf.len(), p.region_len(rid));
            for &h in &buf {
                assert!(!seen[h.index()], "cell {h:?} assigned twice");
                seen[h.index()] = true;
                assert_eq!(p.region_of(h), rid, "region_of must invert cells");
            }
        }
        assert!(seen.iter().all(|&s| s), "cells left uncovered");
    }

    #[test]
    fn uniform_matches_legacy_enumeration() {
        let part = Partition::for_budget(5, 32);
        assert_eq!(part.n_regions(), part.n());
        assert_eq!(SpatialPartition::hgrid_spec(&part), part.hgrid_spec());
        assert_eq!(part.kind(), "uniform");
        for mcell in part.mgrid_spec().cells() {
            let rid = RegionId(mcell.index());
            assert_eq!(part.region_cells(rid), part.hgrids_of(mcell));
            assert_eq!(part.region_len(rid), part.m());
        }
        assert_tiles(&part);
    }

    #[test]
    fn uniform_region_of_point_matches_mgrid() {
        let part = Partition::for_budget(4, 16);
        let p = Point::new(0.61, 0.27);
        let hcell = part.hgrid_spec().cell_of(&p).unwrap();
        assert_eq!(
            part.region_of_point(&p),
            Some(RegionId(part.mgrid_of(hcell).index()))
        );
        assert_eq!(part.region_of_point(&Point::new(1.5, 0.2)), None);
    }

    #[test]
    fn rect_blocks_tile_and_meet_budget() {
        let r = RectGrid::for_budget(3, 5, 32);
        // lcm(3,5)=15 → lattice 45 ≥ 32.
        assert_eq!(r.hgrid_spec().side(), 45);
        assert_eq!(r.n_regions(), 15);
        assert_tiles(&r);
        // Region 0 is the top-left 9×15 block (block_rows=9, block_cols=15).
        let cells = r.region_cells(RegionId(0));
        assert_eq!(cells.len(), 9 * 15);
        assert_eq!(cells[0], r.hgrid_spec().cell_at(0, 0));
    }

    #[test]
    fn rect_square_counts_reduce_to_uniform_shape() {
        let r = RectGrid::for_budget(4, 4, 32);
        let u = Partition::for_budget(4, 32);
        assert_eq!(r.n_regions(), u.n_regions());
        assert_eq!(r.hgrid_spec(), u.hgrid_spec());
        for i in 0..r.n_regions() {
            let mut a = r.region_cells(RegionId(i));
            let mut b = u.region_cells(RegionId(i));
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "same blocks as uniform up to cell order");
        }
    }

    #[test]
    fn quadtree_root_split_merge_roundtrip() {
        let q = QuadTreePartition::root(32);
        assert_eq!(q.lattice_side(), 32);
        assert_eq!(q.n_regions(), 1);
        assert_tiles(&q);

        let split = q.split(RegionId(0)).unwrap();
        assert_eq!(split.n_regions(), 4);
        assert_tiles(&split);
        // Leaves sorted by (row0, col0).
        let corners: Vec<_> = split.leaves().iter().map(|l| (l.row0, l.col0)).collect();
        assert_eq!(corners, vec![(0, 0), (0, 16), (16, 0), (16, 16)]);

        let merged = QuadTreePartition::from_leaves(32, q.leaves().to_vec()).unwrap();
        assert_eq!(merged, q, "rebuilding the unsplit leaves undoes the split");
        let shuffled: Vec<QuadLeaf> = split.leaves().iter().rev().copied().collect();
        assert_eq!(QuadTreePartition::from_leaves(32, shuffled).unwrap(), split);
    }

    #[test]
    fn quadtree_from_leaves_rejects_non_tilings() {
        let leaf = |row0, col0, size| QuadLeaf { row0, col0, size };
        // Gap, overlap, misaligned block, non-power-of-two size, overhang.
        assert!(QuadTreePartition::from_leaves(4, vec![leaf(0, 0, 2)]).is_none());
        let overlap = vec![leaf(0, 0, 4), leaf(0, 0, 2), leaf(0, 2, 2), leaf(2, 0, 2)];
        assert!(QuadTreePartition::from_leaves(4, overlap).is_none());
        let misaligned = vec![leaf(0, 1, 2), leaf(0, 0, 2), leaf(2, 0, 2), leaf(2, 2, 2)];
        assert!(QuadTreePartition::from_leaves(4, misaligned).is_none());
        assert!(QuadTreePartition::from_leaves(3, vec![leaf(0, 0, 3)]).is_none());
        assert!(QuadTreePartition::from_leaves(4, vec![leaf(0, 0, 8)]).is_none());
        let q = QuadTreePartition::from_leaves(3, vec![leaf(0, 0, 4)]).unwrap();
        assert_eq!(q, QuadTreePartition::root(3));
    }

    #[test]
    fn quadtree_unit_leaf_refuses_split() {
        let q = QuadTreePartition::uniform_depth(4, 2).unwrap();
        assert_eq!(q.n_regions(), 16);
        assert!(q.leaves().iter().all(|l| l.size == 1));
        assert!(q.split(RegionId(0)).is_none());
    }

    #[test]
    fn quadtree_uniform_depth_tiles() {
        for depth in 0..=3 {
            let q = QuadTreePartition::uniform_depth(32, depth).unwrap();
            assert_eq!(q.n_regions(), 4usize.pow(depth));
            assert_tiles(&q);
        }
        assert!(QuadTreePartition::uniform_depth(32, 6).is_none());
    }

    #[test]
    fn quadtree_non_power_budget_rounds_up() {
        let q = QuadTreePartition::root(24);
        assert_eq!(q.lattice_side(), 32);
        assert!(q.hgrid_spec().n_cells() >= 24 * 24);
    }

    #[test]
    fn region_ids_are_row_major_by_corner() {
        let q = QuadTreePartition::uniform_depth(8, 2).unwrap();
        let mut prev = (0usize, 0usize);
        for (i, l) in q.leaves().iter().enumerate() {
            if i > 0 {
                assert!((l.row0, l.col0) > prev, "leaves must be sorted");
            }
            prev = (l.row0, l.col0);
        }
    }
}
