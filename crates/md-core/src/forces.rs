//! Force evaluation kernels.
//!
//! Step 2 of the paper's kernel (Figure 4) and the target of every port:
//!
//! ```text
//! 2. calculate forces on each of the N atoms
//!        compute distance with all other N−1 atoms
//!        if (distance within cutoff limits) compute forces
//! ```
//!
//! Two sequential formulations are provided:
//!
//! - [`AllPairsFullKernel`]: each atom scans *all* other atoms — exactly the
//!   O(N²) per-atom gather the paper runs on every device (it parallelizes
//!   trivially because each atom's result is independent). Each pair is
//!   visited twice, so the accumulated potential energy is halved.
//! - [`AllPairsHalfKernel`]: the classic `i < j` loop using Newton's third
//!   law, doing half the work — the natural sequential CPU formulation.
//!
//! Both compute distances on the fly with the minimum-image convention; no
//! neighbor structures (those live in [`crate::neighbor`]/[`crate::celllist`]
//! as the extensions the paper names but does not use).

use crate::cull::BlockCull;
use crate::scenario::Substrate;
use crate::system::ParticleSystem;
use vecmath::{pbc, Real, Vec3};

/// A force evaluator: fills `sys.accelerations` and returns the total
/// potential energy.
///
/// Kernels evaluate pairs against a resolved [`Substrate`] — potential,
/// evaluation precision, accumulation policy — rather than a hard-coded LJ
/// parameter struct, so every kernel serves every scenario (DESIGN.md §16).
pub trait ForceKernel<T: Real> {
    fn compute(&mut self, sys: &mut ParticleSystem<T>, sub: &Substrate<T>) -> T;

    /// Human-readable kernel name for reports.
    fn name(&self) -> &'static str;
}

/// Visit every interacting pair (i < j, within cutoff) with its squared
/// minimum-image distance. Shared plumbing for diagnostics (RDF, pair counts)
/// and tests.
pub fn for_each_pair<T: Real>(
    sys: &ParticleSystem<T>,
    cutoff2: T,
    mut visit: impl FnMut(usize, usize, T),
) {
    let n = sys.n();
    for i in 0..n {
        for j in (i + 1)..n {
            let r2 = sys.distance2(i, j);
            if r2 < cutoff2 {
                visit(i, j, r2);
            }
        }
    }
}

/// Count pairs within the cutoff (diagnostic; the paper remarks that "so few
/// of the tested atoms interact").
pub fn interacting_pair_count<T: Real>(sys: &ParticleSystem<T>, cutoff: T) -> usize {
    let mut count = 0;
    for_each_pair(sys, cutoff * cutoff, |_, _, _| count += 1);
    count
}

/// Positions in structure-of-arrays layout: one contiguous array per
/// coordinate axis. The tiled gather ([`gather_row`]) streams each axis
/// independently, which is the layout every device port models (SPE quadword
/// lanes, GPU texture channels, MTA stream vectors) and the one the host
/// vectorizes well.
///
/// The coordinates are read-only after construction, so the shared
/// evaluator's lazily built j-block index (`md_core::cull`) can never go
/// stale.
#[derive(Clone, Debug)]
pub struct SoaPositions<T> {
    pub(crate) x: Vec<T>,
    pub(crate) y: Vec<T>,
    pub(crate) z: Vec<T>,
    pub(crate) cull: BlockCull,
}

impl<T: Real> SoaPositions<T> {
    /// Transpose an array-of-structures position list.
    pub fn from_positions(positions: &[Vec3<T>]) -> Self {
        Self {
            x: positions.iter().map(|p| p.x).collect(),
            y: positions.iter().map(|p| p.y).collect(),
            z: positions.iter().map(|p| p.z).collect(),
            cull: BlockCull::default(),
        }
    }

    pub fn x(&self) -> &[T] {
        &self.x
    }

    pub fn y(&self) -> &[T] {
        &self.y
    }

    pub fn z(&self) -> &[T] {
        &self.z
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// j-tile width of the structure-of-arrays gather: the j loop is blocked in
/// tiles of this many atoms so one tile of three coordinate arrays stays hot
/// in L1 while every i-row streams over it. Blocking only regroups the loop;
/// within a row the j order is unchanged, so results are bit-identical to
/// the unblocked scan.
pub const GATHER_TILE: usize = 128;

/// One atom's gather result: its acceleration row, its (unhalved) PE
/// contribution, and how many neighbors fell inside the cutoff.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GatherRow<T> {
    pub acc: Vec3<T>,
    pub pe: T,
    pub interactions: u64,
}

/// Compute atom `i`'s full gather row over all other atoms: the tiled SoA
/// core every device kernel and the host-parallel path share. Accumulation
/// runs in ascending-j order (tiling does not reorder it), so per-row results
/// are bitwise identical regardless of tile width or host thread count.
///
/// When the substrate requests mixed precision (`accumulate_f64`), the row
/// sums run in f64 and narrow once at the end; otherwise the accumulators
/// are native `T`, exactly the seed arithmetic.
#[inline]
pub fn gather_row<T: Real>(
    soa: &SoaPositions<T>,
    i: usize,
    box_len: T,
    sub: &Substrate<T>,
    inv_mass: T,
) -> GatherRow<T> {
    if sub.accumulate_f64 {
        return gather_row_mixed(soa, i, box_len, sub, inv_mass);
    }
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let (xi, yi, zi) = (soa.x[i], soa.y[i], soa.z[i]);
    let mut acc = Vec3::zero();
    let mut pe = T::ZERO;
    let mut interactions = 0u64;
    let mut dx_buf = [T::ZERO; GATHER_TILE];
    let mut dy_buf = [T::ZERO; GATHER_TILE];
    let mut dz_buf = [T::ZERO; GATHER_TILE];
    let mut r2_buf = [T::ZERO; GATHER_TILE];
    let mut t0 = 0;
    while t0 < n {
        let t1 = (t0 + GATHER_TILE).min(n);
        let w = t1 - t0;
        // Distance pass: straight-line per-pair arithmetic (select-form
        // min-image, no early-outs), which LLVM vectorizes. Each pair's ops
        // and rounding are exactly those of the scalar formulation; the
        // `j == i` self-pair is kept and yields r2 == 0, excluded below just
        // as `energy_force`'s guard excludes it.
        for k in 0..w {
            let j = t0 + k;
            let dx = pbc::min_image_coord_select(xi - soa.x[j], box_len);
            let dy = pbc::min_image_coord_select(yi - soa.y[j], box_len);
            let dz = pbc::min_image_coord_select(zi - soa.z[j], box_len);
            dx_buf[k] = dx;
            dy_buf[k] = dy;
            dz_buf[k] = dz;
            r2_buf[k] = dx * dx + dy * dy + dz * dz;
        }
        // Accumulate pass: serial in ascending-j order — bitwise the scalar
        // loop. The cutoff test rejects ~97% of pairs, so the expensive LJ
        // terms stay scalar and rare.
        for k in 0..w {
            let r2 = r2_buf[k];
            if r2 < cutoff2 && r2 != T::ZERO {
                let (e, f_over_r) = sub.energy_force(r2);
                pe += e;
                let s = f_over_r * inv_mass;
                acc.x += dx_buf[k] * s;
                acc.y += dy_buf[k] * s;
                acc.z += dz_buf[k] * s;
                interactions += 1;
            }
        }
        t0 = t1;
    }
    GatherRow {
        acc,
        pe,
        interactions,
    }
}

/// The mixed-precision row: same tiled distance pass and ascending-j
/// accumulation order as [`gather_row`], but the per-row sums are carried in
/// f64 and narrowed to `T` once at the end. Pair terms are still evaluated
/// through the substrate (native precision unless the policy forces one).
fn gather_row_mixed<T: Real>(
    soa: &SoaPositions<T>,
    i: usize,
    box_len: T,
    sub: &Substrate<T>,
    inv_mass: T,
) -> GatherRow<T> {
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let (xi, yi, zi) = (soa.x[i], soa.y[i], soa.z[i]);
    let mut acc = Vec3::<f64>::zero();
    let mut pe = 0.0f64;
    let mut interactions = 0u64;
    let mut dx_buf = [T::ZERO; GATHER_TILE];
    let mut dy_buf = [T::ZERO; GATHER_TILE];
    let mut dz_buf = [T::ZERO; GATHER_TILE];
    let mut r2_buf = [T::ZERO; GATHER_TILE];
    let mut t0 = 0;
    while t0 < n {
        let t1 = (t0 + GATHER_TILE).min(n);
        let w = t1 - t0;
        for k in 0..w {
            let j = t0 + k;
            let dx = pbc::min_image_coord_select(xi - soa.x[j], box_len);
            let dy = pbc::min_image_coord_select(yi - soa.y[j], box_len);
            let dz = pbc::min_image_coord_select(zi - soa.z[j], box_len);
            dx_buf[k] = dx;
            dy_buf[k] = dy;
            dz_buf[k] = dz;
            r2_buf[k] = dx * dx + dy * dy + dz * dz;
        }
        for k in 0..w {
            let r2 = r2_buf[k];
            if r2 < cutoff2 && r2 != T::ZERO {
                let (e, f_over_r) = sub.energy_force(r2);
                pe += e.to_f64();
                let s = f_over_r * inv_mass;
                acc.x += (dx_buf[k] * s).to_f64();
                acc.y += (dy_buf[k] * s).to_f64();
                acc.z += (dz_buf[k] * s).to_f64();
                interactions += 1;
            }
        }
        t0 = t1;
    }
    GatherRow {
        acc: Vec3::new(T::from_f64(acc.x), T::from_f64(acc.y), T::from_f64(acc.z)),
        pe: T::from_f64(pe),
        interactions,
    }
}

/// Device-style kernel: for each atom, gather over all other atoms, via the
/// shared tiled SoA row ([`gather_row`]) plus a serial in-order PE fold —
/// the same map-then-fold structure the device ports and the host-parallel
/// [`crate::parallel::RayonKernel`] use, so all of them agree bit for bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllPairsFullKernel;

impl<T: Real> ForceKernel<T> for AllPairsFullKernel {
    fn compute(&mut self, sys: &mut ParticleSystem<T>, sub: &Substrate<T>) -> T {
        let n = sys.n();
        let l = sys.box_len;
        let inv_m = sys.mass.recip();
        let soa = SoaPositions::from_positions(&sys.positions);
        let mut pe_twice = T::ZERO;
        for i in 0..n {
            let row = gather_row(&soa, i, l, sub, inv_m);
            sys.accelerations[i] = row.acc;
            pe_twice += row.pe;
        }
        pe_twice * T::HALF
    }

    fn name(&self) -> &'static str {
        "all-pairs-full"
    }
}

/// Sequential CPU kernel using Newton's third law (`i < j`).
#[derive(Clone, Copy, Debug, Default)]
pub struct AllPairsHalfKernel;

impl<T: Real> ForceKernel<T> for AllPairsHalfKernel {
    fn compute(&mut self, sys: &mut ParticleSystem<T>, sub: &Substrate<T>) -> T {
        let n = sys.n();
        let l = sys.box_len;
        let cutoff2 = sub.cutoff2();
        let inv_m = sys.mass.recip();
        let mut pe = T::ZERO;
        for a in sys.accelerations.iter_mut() {
            *a = Vec3::zero();
        }
        for i in 0..n {
            let pi = sys.positions[i];
            for j in (i + 1)..n {
                let d = pbc::min_image_branchy(pi - sys.positions[j], l);
                let r2 = d.norm2();
                if r2 < cutoff2 {
                    let (e, f_over_r) = sub.energy_force(r2);
                    pe += e;
                    let da = d * (f_over_r * inv_m);
                    sys.accelerations[i] += da;
                    sys.accelerations[j] -= da;
                }
            }
        }
        pe
    }

    fn name(&self) -> &'static str {
        "all-pairs-half"
    }
}

/// A [`PairVisitor`] receives each interacting pair once; used by external
/// instrumented kernels (e.g. the Opteron cache-traced replay) to stay in
/// lock-step with the reference implementation.
pub trait PairVisitor<T: Real> {
    fn pair(&mut self, i: usize, j: usize, r2: T);
}

impl<T: Real, F: FnMut(usize, usize, T)> PairVisitor<T> for F {
    fn pair(&mut self, i: usize, j: usize, r2: T) {
        self(i, j, r2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::initialize;
    use crate::lj::LjParams;
    use crate::params::SimConfig;
    use proptest::prelude::*;

    fn small_sys() -> (ParticleSystem<f64>, Substrate<f64>) {
        let cfg = SimConfig::reduced_lj(108);
        (initialize(&cfg), cfg.substrate())
    }

    #[test]
    fn two_body_force_direction_and_magnitude() {
        // Two atoms at separation 1.2σ inside a huge box: attractive force
        // along the axis, magnitude = |force_over_r| * r.
        let mut sys = ParticleSystem::<f64>::new(2, 100.0);
        sys.positions[0] = Vec3::new(10.0, 10.0, 10.0);
        sys.positions[1] = Vec3::new(11.2, 10.0, 10.0);
        let params = LjParams::reduced(2.5);
        let pe = AllPairsHalfKernel.compute(&mut sys, &Substrate::from_lj(params));
        assert!((pe - params.energy(1.2 * 1.2)).abs() < 1e-12);
        let f_over_r = params.force_over_r(1.2 * 1.2);
        assert!(f_over_r < 0.0, "attractive at 1.2σ");
        // Atom 0 is pulled toward +x with |a| = r·|F/r| (m = 1).
        assert!(sys.accelerations[0].x > 0.0);
        assert!((sys.accelerations[0].x - 1.2 * f_over_r.abs()).abs() < 1e-9);
        assert_eq!(sys.accelerations[0].y, 0.0);
        // Equal and opposite.
        assert!((sys.accelerations[0] + sys.accelerations[1]).norm() < 1e-14);
    }

    #[test]
    fn full_and_half_kernels_agree() {
        let (sys0, sub) = small_sys();
        let mut s1 = sys0.clone();
        let mut s2 = sys0;
        let pe1 = AllPairsFullKernel.compute(&mut s1, &sub);
        let pe2 = AllPairsHalfKernel.compute(&mut s2, &sub);
        assert!(
            (pe1 - pe2).abs() < 1e-9 * pe2.abs().max(1.0),
            "PE mismatch: {pe1} vs {pe2}"
        );
        for (a1, a2) in s1.accelerations.iter().zip(&s2.accelerations) {
            assert!((*a1 - *a2).norm() < 1e-9, "{a1:?} vs {a2:?}");
        }
    }

    #[test]
    fn newtons_third_law_net_force_zero() {
        let (mut sys, sub) = small_sys();
        AllPairsFullKernel.compute(&mut sys, &sub);
        let mut net = Vec3::zero();
        for a in &sys.accelerations {
            net += *a;
        }
        assert!(net.norm() < 1e-9, "net force {net:?}");
    }

    #[test]
    fn liquid_density_pe_is_negative() {
        let (mut sys, sub) = small_sys();
        let pe = AllPairsHalfKernel.compute(&mut sys, &sub);
        assert!(pe < 0.0, "cohesive LJ liquid should have negative PE: {pe}");
        // Classic LJ liquid near triple point: PE/N ≈ −6 (loose bound).
        let per_atom = pe / sys.n() as f64;
        assert!((-8.0..-3.0).contains(&per_atom), "PE/N = {per_atom}");
    }

    #[test]
    fn pair_count_matches_for_each_pair() {
        let (sys, sub) = small_sys();
        let count = interacting_pair_count(&sys, sub.cutoff());
        let mut manual = 0;
        for i in 0..sys.n() {
            for j in (i + 1)..sys.n() {
                if sys.distance2(i, j) < sub.cutoff2() {
                    manual += 1;
                }
            }
        }
        assert_eq!(count, manual);
        assert!(count > 0);
        // At ρ*=0.8442, r_c=2.5: expected neighbors/atom ≈ ρ·(4/3)πr³ ≈ 55,
        // so pairs ≈ N·55/2. Sanity-band it.
        let per_atom = 2.0 * count as f64 / sys.n() as f64;
        assert!(
            (30.0..80.0).contains(&per_atom),
            "neighbors/atom {per_atom}"
        );
    }

    #[test]
    fn isolated_atoms_no_force() {
        let mut sys = ParticleSystem::<f64>::new(3, 100.0);
        sys.positions[0] = Vec3::new(10.0, 10.0, 10.0);
        sys.positions[1] = Vec3::new(50.0, 50.0, 50.0);
        sys.positions[2] = Vec3::new(90.0, 10.0, 50.0);
        let pe = AllPairsFullKernel.compute(&mut sys, &Substrate::from_lj(LjParams::reduced(2.5)));
        assert_eq!(pe, 0.0);
        for a in &sys.accelerations {
            assert_eq!(*a, Vec3::zero());
        }
    }

    proptest! {
        /// On random (non-overlapping) configurations the two kernels agree
        /// and obey Newton's third law.
        #[test]
        fn kernels_agree_on_random_configs(seed in 0u64..500) {
            let cfg = SimConfig::reduced_lj(64)
                .with_density(0.3) // lower density so box/2 > cutoff
                .with_seed(seed);
            let mut s1: ParticleSystem<f64> = initialize(&cfg);
            // Randomize positions away from the lattice with a short "shake".
            let sub = cfg.substrate::<f64>();
            let mut s2 = s1.clone();
            let pe1 = AllPairsFullKernel.compute(&mut s1, &sub);
            let pe2 = AllPairsHalfKernel.compute(&mut s2, &sub);
            prop_assert!((pe1 - pe2).abs() < 1e-9 * pe2.abs().max(1.0));
            let mut net = Vec3::zero();
            for a in &s1.accelerations { net += *a; }
            prop_assert!(net.norm() < 1e-9);
        }
    }
}
