//! Software model of a 128-bit, 4-lane single-precision SIMD register.
//!
//! Both devices the paper "SIMDizes" for — the Cell SPE and the GPU pixel
//! pipeline — operate on 4-component `f32` vectors. The paper's natural
//! mapping stores the x, y, z components of each physical vector in the first
//! three lanes (the fourth lane carries the potential-energy contribution on
//! the GPU, and is unused padding on the SPE).
//!
//! This type executes the arithmetic for real (so device results can be
//! validated against the reference kernel) while remaining a single nameable
//! "instruction set" that the device cost models can meter: every SPE-kernel
//! SIMD operation in `cell-be` maps to exactly one `F32x4` method.

/// A 4-lane single-precision SIMD value.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C, align(16))]
pub struct F32x4(pub [f32; 4]);

// The `add`/`sub`/`mul`/`neg` *methods* (rather than operator impls) are
// deliberate: each call site corresponds to one SPE/GPU SIMD instruction, and
// keeping them as named methods makes the device cost accounting auditable.
#[allow(clippy::should_implement_trait)]
impl F32x4 {
    pub const ZERO: Self = Self([0.0; 4]);

    #[inline(always)]
    pub fn new(a: f32, b: f32, c: f32, d: f32) -> Self {
        Self([a, b, c, d])
    }

    /// Broadcast a scalar to all four lanes.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; 4])
    }

    /// Pack an xyz triple with a free fourth lane (SPE/GPU layout).
    #[inline(always)]
    pub fn from_xyz(x: f32, y: f32, z: f32) -> Self {
        Self([x, y, z, 0.0])
    }

    #[inline(always)]
    pub fn lane(self, i: usize) -> f32 {
        self.0[i]
    }

    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        Self([
            self.0[0] + o.0[0],
            self.0[1] + o.0[1],
            self.0[2] + o.0[2],
            self.0[3] + o.0[3],
        ])
    }

    #[inline(always)]
    pub fn sub(self, o: Self) -> Self {
        Self([
            self.0[0] - o.0[0],
            self.0[1] - o.0[1],
            self.0[2] - o.0[2],
            self.0[3] - o.0[3],
        ])
    }

    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        Self([
            self.0[0] * o.0[0],
            self.0[1] * o.0[1],
            self.0[2] * o.0[2],
            self.0[3] * o.0[3],
        ])
    }

    /// Per-lane reciprocal estimate (modelled as exact; the SPE refines its
    /// estimate with a Newton-Raphson step that we fold in).
    #[inline(always)]
    pub fn recip(self) -> Self {
        Self(self.0.map(|v| v.recip()))
    }

    /// Per-lane reciprocal square root.
    #[inline(always)]
    pub fn rsqrt(self) -> Self {
        Self(self.0.map(|v| 1.0 / v.sqrt()))
    }

    #[inline(always)]
    pub fn sqrt(self) -> Self {
        Self(self.0.map(f32::sqrt))
    }

    #[inline(always)]
    pub fn abs(self) -> Self {
        Self(self.0.map(f32::abs))
    }

    #[inline(always)]
    pub fn neg(self) -> Self {
        Self(self.0.map(|v| -v))
    }

    /// Per-lane copysign: magnitude of `self`, sign of `sign`.
    #[inline(always)]
    pub fn copysign(self, sign: Self) -> Self {
        Self([
            self.0[0].copysign(sign.0[0]),
            self.0[1].copysign(sign.0[1]),
            self.0[2].copysign(sign.0[2]),
            self.0[3].copysign(sign.0[3]),
        ])
    }

    /// Per-lane `round` (to nearest, ties away from zero — adequate for the
    /// minimum-image computation where ties do not occur for physical data).
    #[inline(always)]
    pub fn round(self) -> Self {
        Self(self.0.map(f32::round))
    }

    /// Per-lane compare-greater-than producing an all-ones/all-zeros style
    /// mask (represented as 1.0/0.0 for arithmetic selects).
    #[inline(always)]
    pub fn cmp_gt(self, o: Self) -> Self {
        Self([
            if self.0[0] > o.0[0] { 1.0 } else { 0.0 },
            if self.0[1] > o.0[1] { 1.0 } else { 0.0 },
            if self.0[2] > o.0[2] { 1.0 } else { 0.0 },
            if self.0[3] > o.0[3] { 1.0 } else { 0.0 },
        ])
    }

    /// Per-lane compare-less-than mask (1.0 where `self < o`).
    #[inline(always)]
    pub fn cmp_lt(self, o: Self) -> Self {
        Self([
            if self.0[0] < o.0[0] { 1.0 } else { 0.0 },
            if self.0[1] < o.0[1] { 1.0 } else { 0.0 },
            if self.0[2] < o.0[2] { 1.0 } else { 0.0 },
            if self.0[3] < o.0[3] { 1.0 } else { 0.0 },
        ])
    }

    /// Branch-free select: where `mask` lane is non-zero take `a`, else `b`.
    /// This is the SPE `selb` instruction.
    #[inline(always)]
    pub fn select(mask: Self, a: Self, b: Self) -> Self {
        Self([
            if mask.0[0] != 0.0 { a.0[0] } else { b.0[0] },
            if mask.0[1] != 0.0 { a.0[1] } else { b.0[1] },
            if mask.0[2] != 0.0 { a.0[2] } else { b.0[2] },
            if mask.0[3] != 0.0 { a.0[3] } else { b.0[3] },
        ])
    }

    #[inline(always)]
    pub fn min(self, o: Self) -> Self {
        Self([
            self.0[0].min(o.0[0]),
            self.0[1].min(o.0[1]),
            self.0[2].min(o.0[2]),
            self.0[3].min(o.0[3]),
        ])
    }

    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        Self([
            self.0[0].max(o.0[0]),
            self.0[1].max(o.0[1]),
            self.0[2].max(o.0[2]),
            self.0[3].max(o.0[3]),
        ])
    }

    /// Horizontal sum of the first three lanes (dot products on xyz data).
    #[inline(always)]
    pub fn hsum3(self) -> f32 {
        self.0[0] + self.0[1] + self.0[2]
    }

    /// Horizontal sum of all four lanes.
    #[inline(always)]
    pub fn hsum4(self) -> f32 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }

    /// 3-lane dot product (`self . o` over x,y,z) — compiled on the SPE as a
    /// multiply plus two adds after a shuffle; we count it as one composite op.
    #[inline(always)]
    pub fn dot3(self, o: Self) -> f32 {
        self.mul(o).hsum3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lane_layout() {
        let v = F32x4::from_xyz(1.0, 2.0, 3.0);
        assert_eq!(v.lane(0), 1.0);
        assert_eq!(v.lane(1), 2.0);
        assert_eq!(v.lane(2), 3.0);
        assert_eq!(v.lane(3), 0.0);
    }

    #[test]
    fn splat_and_arith() {
        let a = F32x4::splat(2.0);
        let b = F32x4::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.mul(b), F32x4::new(2.0, 4.0, 6.0, 8.0));
        assert_eq!(a.add(b), F32x4::new(3.0, 4.0, 5.0, 6.0));
        assert_eq!(b.sub(a), F32x4::new(-1.0, 0.0, 1.0, 2.0));
    }

    #[test]
    fn select_is_branch_free_if() {
        let mask = F32x4::new(1.0, 0.0, 1.0, 0.0);
        let a = F32x4::splat(7.0);
        let b = F32x4::splat(-7.0);
        assert_eq!(F32x4::select(mask, a, b), F32x4::new(7.0, -7.0, 7.0, -7.0));
    }

    #[test]
    fn cmp_masks() {
        let a = F32x4::new(1.0, 5.0, -2.0, 0.0);
        let b = F32x4::splat(0.0);
        assert_eq!(a.cmp_gt(b), F32x4::new(1.0, 1.0, 0.0, 0.0));
        assert_eq!(a.cmp_lt(b), F32x4::new(0.0, 0.0, 1.0, 0.0));
    }

    #[test]
    fn horizontal_ops() {
        let v = F32x4::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(v.hsum3(), 6.0);
        assert_eq!(v.hsum4(), 10.0);
        assert_eq!(v.dot3(F32x4::splat(2.0)), 12.0);
    }

    proptest! {
        #[test]
        fn rsqrt_matches_scalar(v in proptest::array::uniform4(1e-3f32..1e6)) {
            let r = F32x4(v).rsqrt();
            for (i, &vi) in v.iter().enumerate() {
                let expect = 1.0 / vi.sqrt();
                prop_assert!((r.lane(i) - expect).abs() <= 1e-6 * expect.abs());
            }
        }

        #[test]
        fn copysign_lanewise(v in proptest::array::uniform4(-1e3f32..1e3),
                             s in proptest::array::uniform4(-1e3f32..1e3)) {
            let r = F32x4(v).copysign(F32x4(s));
            for i in 0..4 {
                prop_assert_eq!(r.lane(i), v[i].copysign(s[i]));
            }
        }

        #[test]
        fn min_max_bracket(v in proptest::array::uniform4(-1e3f32..1e3),
                           w in proptest::array::uniform4(-1e3f32..1e3)) {
            let lo = F32x4(v).min(F32x4(w));
            let hi = F32x4(v).max(F32x4(w));
            for i in 0..4 {
                prop_assert!(lo.lane(i) <= hi.lane(i));
            }
        }
    }
}
