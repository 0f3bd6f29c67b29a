//! Periodic-boundary-condition (PBC) helpers.
//!
//! The paper's kernel works in a cubic box of side `L` with periodic images.
//! It describes the minimum-image step as "searching the 27 neighboring unit
//! cells for the instances of each atom pair which are closest", and the first
//! two SPE optimizations in Figure 5 are precisely transformations of this
//! step (replace the `if` with copysign math, then search all three axes
//! simultaneously with SIMD). We therefore provide all three algorithmically
//! equivalent forms, which the device kernels pick between:
//!
//! - [`min_image_branchy`]: the `if`-based original,
//! - [`min_image_copysign`]: the branch-free scalar replacement,
//! - [`min_image_search27`]: the explicit 27-image search.
//!
//! All three agree for separations within one box length of each other (the
//! invariant the property tests pin down).

use crate::{Real, Vec3};

/// Wrap a coordinate into the primary box `[0, l)`.
#[inline(always)]
pub fn wrap_coord<T: Real>(x: T, l: T) -> T {
    let w = x - (x / l).floor() * l;
    // Guard against w == l from floating-point rounding when x is a tiny
    // negative value.
    if w >= l {
        w - l
    } else {
        w
    }
}

/// Wrap a position vector into the primary box.
#[inline(always)]
pub fn wrap_position<T: Real>(p: Vec3<T>, l: T) -> Vec3<T> {
    Vec3::new(wrap_coord(p.x, l), wrap_coord(p.y, l), wrap_coord(p.z, l))
}

/// Minimum-image correction for a single coordinate: the scalar core of
/// [`min_image_branchy`], exposed so structure-of-arrays kernels can apply
/// it axis by axis with bit-identical results to the vector form.
#[inline(always)]
pub fn min_image_coord<T: Real>(mut c: T, l: T) -> T {
    let half = l * T::HALF;
    if c > half {
        c -= l;
    } else if c < -half {
        c += l;
    }
    c
}

/// [`min_image_coord`] in select form: both corrections are computed and the
/// result is chosen with comparisons instead of taken branches. Bitwise
/// identical to the branchy form in every case (the two conditions are
/// mutually exclusive, and the chosen expression is the same `c - l` / `c + l`
/// / `c`), but the straight-line shape lets LLVM turn it into cmov/blend and
/// vectorize loops over packed coordinates.
#[inline(always)]
pub fn min_image_coord_select<T: Real>(c: T, l: T) -> T {
    let half = l * T::HALF;
    let down = c - l;
    let up = c + l;
    let folded = if c > half { down } else { c };
    if c < -half {
        up
    } else {
        folded
    }
}

/// Minimum-image displacement, branchy form: `if d > L/2 {d -= L} ...` per axis.
///
/// Assumes both positions lie in the primary box (so each raw component is in
/// `(-L, L)` and one conditional correction per side suffices).
#[inline(always)]
pub fn min_image_branchy<T: Real>(d: Vec3<T>, l: T) -> Vec3<T> {
    Vec3::new(
        min_image_coord(d.x, l),
        min_image_coord(d.y, l),
        min_image_coord(d.z, l),
    )
}

/// Minimum-image displacement, branch-free form using round/copysign math.
///
/// `d - L * round(d / L)` maps any displacement to the nearest image, which is
/// the transformation the paper's "replace if with copysign" optimization
/// implements on the SPE.
#[inline(always)]
pub fn min_image_copysign<T: Real>(d: Vec3<T>, l: T) -> Vec3<T> {
    let fix = |c: T| {
        // round(c/L) computed as trunc(|c|/L + 1/2) with the sign of c —
        // i.e. floor-free, matching the copysign idiom used on hardware
        // without a branch.
        let n = (c.abs() / l + T::HALF).floor().copysign(c);
        c - l * n
    };
    Vec3::new(fix(d.x), fix(d.y), fix(d.z))
}

/// Minimum-image displacement by explicitly searching the 27 neighboring unit
/// cells (offsets in {-1, 0, +1}^3) for the closest image, as described in the
/// paper's SPE section. Correct for any displacement with components in
/// `(-L, L)`.
pub fn min_image_search27<T: Real>(d: Vec3<T>, l: T) -> Vec3<T> {
    let mut best = d;
    let mut best2 = d.norm2();
    for ix in -1i32..=1 {
        for iy in -1i32..=1 {
            for iz in -1i32..=1 {
                let cand = Vec3::new(
                    d.x + l * T::from_f64(ix as f64),
                    d.y + l * T::from_f64(iy as f64),
                    d.z + l * T::from_f64(iz as f64),
                );
                let c2 = cand.norm2();
                if c2 < best2 {
                    best2 = c2;
                    best = cand;
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wrap_into_box() {
        let l = 10.0f64;
        assert_eq!(wrap_coord(3.0, l), 3.0);
        assert_eq!(wrap_coord(13.0, l), 3.0);
        assert_eq!(wrap_coord(-2.0, l), 8.0);
        assert_eq!(wrap_coord(0.0, l), 0.0);
        let w = wrap_coord(-1e-18, l);
        assert!((0.0..l).contains(&w), "tiny negative wraps into box: {w}");
    }

    #[test]
    fn branchy_basic() {
        let l = 10.0f64;
        let d = Vec3::new(6.0, -6.0, 2.0);
        assert_eq!(min_image_branchy(d, l), Vec3::new(-4.0, 4.0, 2.0));
    }

    #[test]
    fn scalar_coord_matches_vector_form_bitwise() {
        let l = 7.5f64;
        let mut c = -7.4;
        while c < 7.4 {
            let d = Vec3::new(c, -c, c / 3.0);
            let v = min_image_branchy(d, l);
            assert_eq!(v.x, min_image_coord(d.x, l));
            assert_eq!(v.y, min_image_coord(d.y, l));
            assert_eq!(v.z, min_image_coord(d.z, l));
            c += 0.211;
        }
    }

    #[test]
    fn select_form_matches_branchy_bitwise() {
        for l in [7.5f64, 10.0, 0.1] {
            let mut c = -2.0 * l;
            while c < 2.0 * l {
                assert_eq!(
                    min_image_coord(c, l).to_bits(),
                    min_image_coord_select(c, l).to_bits(),
                    "c={c} l={l}"
                );
                c += l * 0.0137;
            }
            for edge in [l / 2.0, -l / 2.0, 0.0, -0.0] {
                assert_eq!(
                    min_image_coord(edge, l).to_bits(),
                    min_image_coord_select(edge, l).to_bits()
                );
            }
        }
    }

    #[test]
    fn copysign_matches_branchy_on_grid() {
        let l = 7.5f64;
        let mut c = -7.4;
        while c < 7.4 {
            let d = Vec3::new(c, -c, c / 2.0);
            let a = min_image_branchy(d, l);
            let b = min_image_copysign(d, l);
            assert!(
                (a - b).norm() < 1e-12,
                "mismatch at {c}: branchy={a:?} copysign={b:?}"
            );
            c += 0.173;
        }
    }

    #[test]
    fn search27_finds_nearest_image() {
        let l = 10.0f64;
        // A displacement of 9 along x should fold to -1.
        let d = Vec3::new(9.0, 0.1, -9.5);
        let m = min_image_search27(d, l);
        assert!((m.x - (-1.0)).abs() < 1e-12);
        assert!((m.y - 0.1).abs() < 1e-12);
        assert!((m.z - 0.5).abs() < 1e-12);
    }

    proptest! {
        /// For positions wrapped to the primary box, all three minimum-image
        /// formulations produce the same displacement.
        #[test]
        fn all_forms_agree(ax in 0.0f64..10.0, ay in 0.0f64..10.0, az in 0.0f64..10.0,
                           bx in 0.0f64..10.0, by in 0.0f64..10.0, bz in 0.0f64..10.0) {
            let l = 10.0f64;
            let d = Vec3::new(ax - bx, ay - by, az - bz);
            let m1 = min_image_branchy(d, l);
            let m2 = min_image_copysign(d, l);
            let m3 = min_image_search27(d, l);
            prop_assert!((m1 - m2).norm() < 1e-9, "branchy={m1:?} copysign={m2:?}");
            prop_assert!((m1.norm() - m3.norm()).abs() < 1e-9, "branchy={m1:?} search27={m3:?}");
        }

        /// The minimum-image distance is bounded by sqrt(3)/2 * L.
        #[test]
        fn min_image_distance_bounded(ax in 0.0f64..10.0, ay in 0.0f64..10.0, az in 0.0f64..10.0,
                                      bx in 0.0f64..10.0, by in 0.0f64..10.0, bz in 0.0f64..10.0) {
            let l = 10.0f64;
            let d = Vec3::new(ax - bx, ay - by, az - bz);
            let m = min_image_branchy(d, l);
            prop_assert!(m.norm() <= l * 3.0f64.sqrt() / 2.0 + 1e-9);
        }

        /// search27 never returns a longer vector than the input.
        #[test]
        fn search27_never_lengthens(dx in -9.9f64..9.9, dy in -9.9f64..9.9, dz in -9.9f64..9.9) {
            let l = 10.0f64;
            let d = Vec3::new(dx, dy, dz);
            prop_assert!(min_image_search27(d, l).norm2() <= d.norm2() + 1e-12);
        }

        /// Wrapping is idempotent.
        #[test]
        fn wrap_idempotent(x in -100.0f64..100.0) {
            let l = 7.3f64;
            let w = wrap_coord(x, l);
            prop_assert!((0.0..l).contains(&w));
            prop_assert!((wrap_coord(w, l) - w).abs() < 1e-12);
        }
    }
}
