//! A plain 3-component vector, generic over precision.

use crate::Real;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 3-component vector of `T` (position, velocity, acceleration, force...).
///
/// Deliberately a transparent POD struct: device simulators copy these through
/// byte-level local stores and textures.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Vec3<T> {
    pub x: T,
    pub y: T,
    pub z: T,
}

impl<T: Real> Vec3<T> {
    pub const fn new(x: T, y: T, z: T) -> Self {
        Self { x, y, z }
    }

    pub fn zero() -> Self {
        Self::new(T::ZERO, T::ZERO, T::ZERO)
    }

    pub fn splat(v: T) -> Self {
        Self::new(v, v, v)
    }

    #[inline(always)]
    pub fn dot(self, other: Self) -> T {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Squared Euclidean norm.
    #[inline(always)]
    pub fn norm2(self) -> T {
        self.dot(self)
    }

    #[inline(always)]
    pub fn norm(self) -> T {
        self.norm2().sqrt()
    }

    pub fn cross(self, other: Self) -> Self {
        Self::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    pub fn map(self, mut f: impl FnMut(T) -> T) -> Self {
        Self::new(f(self.x), f(self.y), f(self.z))
    }

    /// Widen to f64 for diagnostics/accumulation.
    pub fn to_f64(self) -> Vec3<f64> {
        Vec3::new(self.x.to_f64(), self.y.to_f64(), self.z.to_f64())
    }

    /// Narrow (or keep) from f64.
    pub fn from_f64(v: Vec3<f64>) -> Self {
        Self::new(T::from_f64(v.x), T::from_f64(v.y), T::from_f64(v.z))
    }

    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    pub fn to_array(self) -> [T; 3] {
        [self.x, self.y, self.z]
    }

    pub fn from_array(a: [T; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }
}

impl<T: Real> Add for Vec3<T> {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Self::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl<T: Real> Sub for Vec3<T> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Self::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl<T: Real> Mul<T> for Vec3<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, s: T) -> Self {
        Self::new(self.x * s, self.y * s, self.z * s)
    }
}

impl<T: Real> Div<T> for Vec3<T> {
    type Output = Self;
    #[inline(always)]
    fn div(self, s: T) -> Self {
        Self::new(self.x / s, self.y / s, self.z / s)
    }
}

impl<T: Real> Neg for Vec3<T> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

impl<T: Real> AddAssign for Vec3<T> {
    #[inline(always)]
    fn add_assign(&mut self, o: Self) {
        self.x += o.x;
        self.y += o.y;
        self.z += o.z;
    }
}

impl<T: Real> SubAssign for Vec3<T> {
    #[inline(always)]
    fn sub_assign(&mut self, o: Self) {
        self.x -= o.x;
        self.y -= o.y;
        self.z -= o.z;
    }
}

impl<T: Real> Index<usize> for Vec3<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl<T: Real> IndexMut<usize> for Vec3<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_arithmetic() {
        let a = Vec3::new(1.0f64, 2.0, 3.0);
        let b = Vec3::new(4.0f64, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, Vec3::new(2.0, 2.5, 3.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a.dot(b), 32.0);
    }

    #[test]
    fn norm_of_unit_axes() {
        for i in 0..3 {
            let mut v = Vec3::<f64>::zero();
            v[i] = 1.0;
            assert_eq!(v.norm(), 1.0);
            assert_eq!(v.norm2(), 1.0);
        }
    }

    #[test]
    fn cross_right_handed() {
        let x = Vec3::new(1.0f64, 0.0, 0.0);
        let y = Vec3::new(0.0f64, 1.0, 0.0);
        let z = Vec3::new(0.0f64, 0.0, 1.0);
        assert_eq!(x.cross(y), z);
        assert_eq!(y.cross(z), x);
        assert_eq!(z.cross(x), y);
    }

    #[test]
    fn index_roundtrip() {
        let mut v = Vec3::new(1.0f32, 2.0, 3.0);
        for i in 0..3 {
            v[i] *= 10.0;
        }
        assert_eq!(v.to_array(), [10.0, 20.0, 30.0]);
        assert_eq!(Vec3::from_array([10.0f32, 20.0, 30.0]), v);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let v = Vec3::new(1.0f32, 2.0, 3.0);
        let _ = v[3];
    }

    proptest! {
        #[test]
        fn dot_is_commutative(ax in -1e3f64..1e3, ay in -1e3f64..1e3, az in -1e3f64..1e3,
                              bx in -1e3f64..1e3, by in -1e3f64..1e3, bz in -1e3f64..1e3) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            prop_assert_eq!(a.dot(b), b.dot(a));
        }

        #[test]
        fn cross_is_orthogonal(ax in -1e2f64..1e2, ay in -1e2f64..1e2, az in -1e2f64..1e2,
                               bx in -1e2f64..1e2, by in -1e2f64..1e2, bz in -1e2f64..1e2) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            let c = a.cross(b);
            // |a.dot(c)| should be tiny relative to magnitudes involved.
            let scale = (a.norm() * b.norm()).max(1.0);
            prop_assert!(a.dot(c).abs() <= 1e-9 * scale * scale);
            prop_assert!(b.dot(c).abs() <= 1e-9 * scale * scale);
        }

        #[test]
        fn norm2_nonnegative(ax in -1e3f64..1e3, ay in -1e3f64..1e3, az in -1e3f64..1e3) {
            prop_assert!(Vec3::new(ax, ay, az).norm2() >= 0.0);
        }
    }
}
