//! Quadtree partitions of the service area.
//!
//! The paper's Theorem II.1 error decomposition does not actually require
//! the square `n = s²` MGrid layout of [`Partition`](crate::Partition): it
//! holds for *any* partition of the unit square into regions, as long as
//! every region is a union of HGrid-lattice cells (so the α field derived
//! on the lattice can be aggregated per region). [`QuadTreePartition`] is
//! the one non-square family the engine searches: an adaptively refined
//! quadtree over a power-of-two lattice, whose leaves the engine's
//! refinement search picks by an exact tree DP.
//!
//! Every leaf is an aligned power-of-two block of whole lattice cells, so
//! each one is a node of the complete quadtree over the lattice. That is
//! what lets a quadtree be scored from a per-node table of expression
//! errors instead of a sweep over its cells. Leaves are kept sorted by
//! their top-left lattice cell `(row0, col0)`; that order is the tree's
//! region order, and folding leaf terms in it is what makes the score
//! reproducible.

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
/// HGrid-aligned. Leaves are kept sorted by `(row0, col0)`: that order is
/// the region order.
///
/// The partition is a value: [`split`](Self::split) returns a *new*
/// partition, and [`from_leaves`](Self::from_leaves) builds one from a leaf
/// list chosen elsewhere (the engine's tree DP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuadTreePartition {
    lattice: u32,
    leaves: Vec<QuadLeaf>,
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
        QuadTreePartition { lattice, leaves }
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
        Some(QuadTreePartition { lattice, leaves })
    }

    /// Lattice side (power of two).
    pub fn lattice_side(&self) -> u32 {
        self.lattice
    }

    /// The leaves in region order (sorted by `(row0, col0)`).
    pub fn leaves(&self) -> &[QuadLeaf] {
        &self.leaves
    }

    /// Number of leaves (regions).
    pub fn n_regions(&self) -> usize {
        self.leaves.len()
    }

    /// Splits leaf `leaf` (an index into [`leaves`](Self::leaves)) into
    /// its four quadrants, returning the new partition, or `None` if the
    /// index is out of range or the leaf is already a single lattice cell.
    /// The new leaves are re-sorted, so the result is deterministic.
    pub fn split(&self, leaf: usize) -> Option<Self> {
        let l = *self.leaves.get(leaf)?;
        if l.size <= 1 {
            return None;
        }
        let half = l.size / 2;
        let mut leaves = self.leaves.clone();
        leaves.swap_remove(leaf);
        leaves.extend(
            [(0, 0), (0, half), (half, 0), (half, half)].map(|(dr, dc)| QuadLeaf {
                row0: l.row0 + dr,
                col0: l.col0 + dc,
                size: half,
            }),
        );
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
        QuadTreePartition { lattice, leaves }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_tiles(q: &QuadTreePartition) {
        let side = q.lattice_side() as usize;
        let mut seen = vec![false; side * side];
        for l in q.leaves() {
            for r in l.row0..l.row0 + l.size {
                for c in l.col0..l.col0 + l.size {
                    assert!(!seen[r * side + c], "cell ({r}, {c}) covered twice");
                    seen[r * side + c] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "cells left uncovered");
    }

    #[test]
    fn quadtree_root_split_merge_roundtrip() {
        let q = QuadTreePartition::root(32);
        assert_eq!(q.lattice_side(), 32);
        assert_eq!(q.n_regions(), 1);
        assert_tiles(&q);

        let split = q.split(0).unwrap();
        assert_eq!(split.n_regions(), 4);
        assert_tiles(&split);
        // Leaves sorted by (row0, col0).
        let corners: Vec<_> = split.leaves().iter().map(|l| (l.row0, l.col0)).collect();
        assert_eq!(corners, vec![(0, 0), (0, 16), (16, 0), (16, 16)]);
        assert!(split.split(4).is_none(), "no leaf 4 to split");

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
        assert!(q.split(0).is_none());
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
