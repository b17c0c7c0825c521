//! The 4-lane `f64` value type the expression kernel is written over.
//!
//! The hot kernels (the stride-4 pmf recurrence in [`crate::poisson`], the
//! checkpoint folds in [`crate::expr_kernel`]) work on four independent
//! lanes at a time. [`F64x4`] names that shape: plain safe Rust over
//! `[f64; 4]`, one IEEE 754 binary64 operation per lane, which the
//! compiler is free to lower to packed SSE2 instructions.
//!
//! **The determinism argument.** The kernels' bits are fixed by the lane
//! *association*, not by the instruction set: entry `j` of a fold lands in
//! lane `j mod 4`, every lane op is one correctly-rounded IEEE 754
//! operation (no fused multiply-add — it rounds once instead of twice),
//! and every horizontal reduction goes through the canonical
//! [`F64x4::hsum`] tree `(l0 + l1) + (l2 + l3)`. Packed and scalar
//! lowerings of that association produce the same bits, so the result is
//! a function of the inputs alone, on every target.

use std::ops::{Add, Div, Mul, Sub};

/// A 4-lane vector of `f64`, `repr(transparent)` over `[f64; 4]`. Lane
/// order is memory order: [`load`](Self::load) from a slice puts
/// `slice[0]` in lane 0.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All lanes zero.
    pub const ZERO: F64x4 = F64x4([0.0; 4]);

    /// Broadcast `x` into all lanes.
    #[inline(always)]
    pub fn splat(x: f64) -> F64x4 {
        F64x4([x; 4])
    }

    /// Load lanes from `src[0..4]`. Panics if `src` is shorter.
    #[inline(always)]
    pub fn load(src: &[f64]) -> F64x4 {
        F64x4([src[0], src[1], src[2], src[3]])
    }

    /// Store lanes to `dst[0..4]`. Panics if `dst` is shorter.
    #[inline(always)]
    pub fn store(self, dst: &mut [f64]) {
        dst[..4].copy_from_slice(&self.0);
    }

    /// Gather `table[idx[j]]` into lane `j`. Panics if an index is out of
    /// bounds.
    #[inline(always)]
    pub fn gather(table: &[f64], idx: [usize; 4]) -> F64x4 {
        F64x4([table[idx[0]], table[idx[1]], table[idx[2]], table[idx[3]]])
    }

    /// Lane-wise `f(self[j], rhs[j])`.
    #[inline(always)]
    fn zip(self, rhs: F64x4, f: impl Fn(f64, f64) -> f64) -> F64x4 {
        let (a, b) = (self.0, rhs.0);
        F64x4([f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2]), f(a[3], b[3])])
    }

    /// The canonical horizontal sum: the balanced tree
    /// `(l0 + l1) + (l2 + l3)`. Every lane-folded value in the kernels
    /// (checkpoint states, block partials, prefix reads) reduces through
    /// this exact association.
    #[inline(always)]
    pub fn hsum(self) -> f64 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }
}

impl Add for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn add(self, rhs: F64x4) -> F64x4 {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn sub(self, rhs: F64x4) -> F64x4 {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn mul(self, rhs: F64x4) -> F64x4 {
        self.zip(rhs, |a, b| a * b)
    }
}

impl Div for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn div(self, rhs: F64x4) -> F64x4 {
        self.zip(rhs, |a, b| a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ops_are_one_ieee_op_per_lane() {
        // Awkward values on purpose: results that round, a subnormal,
        // lanes that differ in magnitude by ~1e300.
        let a = F64x4([0.1, 1.0e300, 5e-324, -7.25]);
        let b = F64x4([0.3, 3.0, 1.0000000000000002, 1.0e-300]);
        let table: Vec<f64> = (0..64).map(|k| (k as f64).ln_1p()).collect();
        let idx = [0usize, 7, 63, 31];
        let mut stored = [0.0; 4];
        F64x4::load(&b.0).store(&mut stored);
        for lane in 0..4 {
            let (x, y) = (a.0[lane], b.0[lane]);
            let got = [
                (a + b).0[lane],
                (a - b).0[lane],
                (a * b).0[lane],
                (a / b).0[lane],
                F64x4::splat(x).0[lane],
                F64x4::gather(&table, idx).0[lane],
                stored[lane],
            ];
            let want = [x + y, x - y, x * y, x / y, x, table[idx[lane]], y];
            for (op, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "op {op} lane {lane}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn hsum_uses_the_canonical_tree() {
        let v = F64x4([1.0e16, 1.0, -1.0e16, 1.0]);
        // (1e16 + 1) + (-1e16 + 1) — the flat left-to-right fold would
        // give a different answer; the tree is the canonical one.
        assert_eq!(
            v.hsum().to_bits(),
            ((1.0e16f64 + 1.0) + (-1.0e16 + 1.0)).to_bits()
        );
    }
}
