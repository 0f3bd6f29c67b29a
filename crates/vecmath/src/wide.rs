//! Wide batched lanes for the shared physics-once evaluation path
//! (DESIGN.md §17).
//!
//! The types here are **host** execution lanes, not models of a device's
//! register file: the batched evaluator the shared kernel uses to compute
//! each device's physics once per step. [`F64x4`] carries four f64 pair-distances at a time (the
//! Opteron/MTA double-precision flavor); [`F32x8`] carries eight f32
//! pair-distances (the Cell/GPU single-precision flavor).
//!
//! Every operation is per-lane IEEE arithmetic with no cross-lane
//! reassociation, so a batched distance pass followed by a serial in-order
//! accumulate of the pairs it kept is *bitwise* the scalar loop — the
//! property the replay memos rely on. On x86-64 hosts with AVX2 and FMA the
//! shared kernels bypass these portable lanes for hand-written intrinsics
//! (same bits); elsewhere these types are the evaluator itself and LLVM is
//! free to vectorize them.

use std::ops::{Add, Mul, Sub};

/// Four f64 lanes, batched. Plain per-lane IEEE ops only.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct F64x4(pub [f64; 4]);

/// Comparison result for [`F64x4`], one bool per lane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mask4(pub [bool; 4]);

impl Mask4 {
    /// Lane-wise AND (mask combine, e.g. `r2 < cutoff² && r2 > 0`).
    #[inline]
    pub fn and(self, o: Self) -> Self {
        Self([
            self.0[0] & o.0[0],
            self.0[1] & o.0[1],
            self.0[2] & o.0[2],
            self.0[3] & o.0[3],
        ])
    }
}

impl F64x4 {
    pub const ZERO: Self = Self([0.0; 4]);

    #[inline]
    pub fn splat(v: f64) -> Self {
        Self([v; 4])
    }

    /// Load four consecutive lanes starting at `slice[0]`.
    #[inline]
    pub fn from_slice(slice: &[f64]) -> Self {
        Self([slice[0], slice[1], slice[2], slice[3]])
    }

    #[inline]
    pub fn cmp_gt(self, o: Self) -> Mask4 {
        Mask4([
            self.0[0] > o.0[0],
            self.0[1] > o.0[1],
            self.0[2] > o.0[2],
            self.0[3] > o.0[3],
        ])
    }

    #[inline]
    pub fn cmp_lt(self, o: Self) -> Mask4 {
        Mask4([
            self.0[0] < o.0[0],
            self.0[1] < o.0[1],
            self.0[2] < o.0[2],
            self.0[3] < o.0[3],
        ])
    }

    /// Per-lane `if mask { a } else { b }`.
    #[inline]
    pub fn select(mask: Mask4, a: Self, b: Self) -> Self {
        let pick = |k: usize| if mask.0[k] { a.0[k] } else { b.0[k] };
        Self([pick(0), pick(1), pick(2), pick(3)])
    }
}

impl Sub for F64x4 {
    type Output = Self;

    #[inline]
    fn sub(self, o: Self) -> Self {
        Self(std::array::from_fn(|k| self.0[k] - o.0[k]))
    }
}

impl Add for F64x4 {
    type Output = Self;

    #[inline]
    fn add(self, o: Self) -> Self {
        Self(std::array::from_fn(|k| self.0[k] + o.0[k]))
    }
}

impl Mul for F64x4 {
    type Output = Self;

    #[inline]
    fn mul(self, o: Self) -> Self {
        Self(std::array::from_fn(|k| self.0[k] * o.0[k]))
    }
}

/// Eight f32 lanes, batched (the single-precision device-kernel flavor).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct F32x8(pub [f32; 8]);

/// Comparison result for [`F32x8`], one bool per lane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mask8(pub [bool; 8]);

impl Mask8 {
    #[inline]
    pub fn and(self, o: Self) -> Self {
        Self(std::array::from_fn(|k| self.0[k] & o.0[k]))
    }
}

impl F32x8 {
    pub const ZERO: Self = Self([0.0; 8]);

    #[inline]
    pub fn splat(v: f32) -> Self {
        Self([v; 8])
    }

    /// Load eight consecutive lanes starting at `slice[0]`.
    #[inline]
    pub fn from_slice(slice: &[f32]) -> Self {
        let mut v = [0.0f32; 8];
        v.copy_from_slice(&slice[..8]);
        Self(v)
    }

    #[inline]
    pub fn cmp_gt(self, o: Self) -> Mask8 {
        Mask8(std::array::from_fn(|k| self.0[k] > o.0[k]))
    }

    #[inline]
    pub fn cmp_lt(self, o: Self) -> Mask8 {
        Mask8(std::array::from_fn(|k| self.0[k] < o.0[k]))
    }

    /// Per-lane `if mask { a } else { b }`.
    #[inline]
    pub fn select(mask: Mask8, a: Self, b: Self) -> Self {
        Self(std::array::from_fn(
            |k| {
                if mask.0[k] {
                    a.0[k]
                } else {
                    b.0[k]
                }
            },
        ))
    }
}

impl Sub for F32x8 {
    type Output = Self;

    #[inline]
    fn sub(self, o: Self) -> Self {
        Self(std::array::from_fn(|k| self.0[k] - o.0[k]))
    }
}

impl Add for F32x8 {
    type Output = Self;

    #[inline]
    fn add(self, o: Self) -> Self {
        Self(std::array::from_fn(|k| self.0[k] + o.0[k]))
    }
}

impl Mul for F32x8 {
    type Output = Self;

    #[inline]
    fn mul(self, o: Self) -> Self {
        Self(std::array::from_fn(|k| self.0[k] * o.0[k]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Sub;

    #[test]
    fn f64x4_ops_are_per_lane_ieee() {
        let a = F64x4([1.0, -2.5, 0.0, f64::MAX]);
        let b = F64x4([0.5, -2.5, -0.0, f64::MAX]);
        let s = a.sub(b);
        for k in 0..4 {
            assert_eq!(s.0[k].to_bits(), (a.0[k] - b.0[k]).to_bits());
        }
        let m = a.cmp_gt(b);
        assert_eq!(m, Mask4([true, false, false, false]));
        let sel = F64x4::select(m, a, b);
        assert_eq!(sel.0[0], 1.0);
        assert_eq!(sel.0[1], -2.5);
    }

    #[test]
    fn f32x8_select_matches_scalar_branch() {
        let a = F32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(0.0);
        let m = a.cmp_gt(F32x8::splat(4.5));
        let sel = F32x8::select(m, a, b);
        for k in 0..8 {
            let want = if a.0[k] > 4.5 { a.0[k] } else { 0.0 };
            assert_eq!(sel.0[k], want);
        }
    }

    #[test]
    fn mask_and_combines_lanewise() {
        let lo = F64x4([0.5, 1.5, 2.5, 3.5]).cmp_gt(F64x4::splat(1.0));
        let hi = F64x4([0.5, 1.5, 2.5, 3.5]).cmp_lt(F64x4::splat(3.0));
        assert_eq!(lo.and(hi), Mask4([false, true, true, false]));
    }
}
