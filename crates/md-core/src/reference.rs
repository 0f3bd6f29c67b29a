//! The scalar all-pairs reference: the oracle every device port and the
//! shared evaluator are checked against.
//!
//! Step 2 of the paper's kernel (Figure 4), written as plainly as possible:
//!
//! ```text
//! 2. calculate forces on each of the N atoms
//!        compute distance with all other N−1 atoms
//!        if (distance within cutoff limits) compute forces
//! ```
//!
//! Each atom scans *all* other atoms ([`gather_row`]) — the O(N²) per-atom
//! gather the paper runs on every device, with distances computed on the fly
//! under the minimum-image convention and no pairlists. Each pair is visited
//! twice, so the folded potential energy is halved. Everything is generic
//! over [`Real`], so the same oracle runs in `f32` (the Cell and GPU
//! precision) and `f64` (the MTA-2 and Opteron precision).
//!
//! Production runs never come through here: [`crate::sim::Simulation`] and
//! the Opteron evaluate with [`crate::shared_eval::host_forces`], which is
//! bitwise [`forces`] for `f64` (pinned by unit tests there).

use crate::forces::{GatherRow, SoaPositions};
use crate::init;
use crate::observables::EnergyReport;
use crate::params::SimConfig;
use crate::scenario::Substrate;
use crate::system::ParticleSystem;
use crate::verlet::VelocityVerlet;
use vecmath::{pbc, Real, Vec3};

/// j-tile width of the gather: the j loop is blocked in tiles of this many
/// atoms so one tile of three coordinate arrays stays hot in L1 while every
/// i-row streams over it. Blocking only regroups the loop; within a row the
/// j order is unchanged, so results are bit-identical to the unblocked scan.
const GATHER_TILE: usize = 128;

/// Compute atom `i`'s full gather row over all other atoms. Accumulation
/// runs in ascending-j order (tiling does not reorder it).
#[inline]
pub fn gather_row<T: Real>(
    soa: &SoaPositions<T>,
    i: usize,
    box_len: T,
    sub: &Substrate<T>,
    inv_mass: T,
) -> GatherRow<T> {
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
        // loop. The cutoff test rejects ~97% of pairs, so the expensive pair
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

/// One reference force evaluation: every atom's [`gather_row`], folded
/// serially in atom order. Overwrites `sys.accelerations`; returns the
/// potential energy.
pub fn forces<T: Real>(sys: &mut ParticleSystem<T>, sub: &Substrate<T>) -> T {
    let l = sys.box_len;
    let inv_m = sys.mass.recip();
    let soa = SoaPositions::from_positions(&sys.positions);
    let mut pe_twice = T::ZERO;
    for i in 0..sys.n() {
        let row = gather_row(&soa, i, l, sub, inv_m);
        sys.accelerations[i] = row.acc;
        pe_twice += row.pe;
    }
    pe_twice * T::HALF
}

/// Run `sim` for `steps` velocity-Verlet steps in precision `T` from its
/// initial lattice; returns the final energies.
pub fn run<T: Real>(sim: &SimConfig, steps: usize) -> EnergyReport {
    run_from(&mut init::initialize::<T>(sim), sim, steps)
}

/// [`run`] from caller-owned state: prime the accelerations, advance
/// `steps` steps in place and measure.
pub fn run_from<T: Real>(
    sys: &mut ParticleSystem<T>,
    sim: &SimConfig,
    steps: usize,
) -> EnergyReport {
    let sub = sim.substrate::<T>();
    let vv = VelocityVerlet::new(T::from_f64(sim.dt));
    let mut pe = forces(sys, &sub);
    for _ in 0..steps {
        pe = vv.step(sys, &sub, |s| forces(s, &sub));
    }
    EnergyReport::measure(sys, pe.to_f64())
}

/// The classic sequential `i < j` loop using Newton's third law: half the
/// pair work of [`forces`], with scatter instead of gather. Kept only as an
/// independent formulation to check the oracle against.
#[cfg(test)]
pub(crate) fn half_forces<T: Real>(sys: &mut ParticleSystem<T>, sub: &Substrate<T>) -> T {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::initialize;
    use crate::lj::LjParams;
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
        let pe = forces(&mut sys, &Substrate::from_lj(params));
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
        let pe1 = forces(&mut s1, &sub);
        let pe2 = half_forces(&mut s2, &sub);
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
        forces(&mut sys, &sub);
        let mut net = Vec3::zero();
        for a in &sys.accelerations {
            net += *a;
        }
        assert!(net.norm() < 1e-9, "net force {net:?}");
    }

    #[test]
    fn liquid_density_pe_is_negative() {
        let (mut sys, sub) = small_sys();
        let pe = forces(&mut sys, &sub);
        assert!(pe < 0.0, "cohesive LJ liquid should have negative PE: {pe}");
        // Classic LJ liquid near triple point: PE/N ≈ −6 (loose bound).
        let per_atom = pe / sys.n() as f64;
        assert!((-8.0..-3.0).contains(&per_atom), "PE/N = {per_atom}");
    }

    #[test]
    fn isolated_atoms_no_force() {
        let mut sys = ParticleSystem::<f64>::new(3, 100.0);
        sys.positions[0] = Vec3::new(10.0, 10.0, 10.0);
        sys.positions[1] = Vec3::new(50.0, 50.0, 50.0);
        sys.positions[2] = Vec3::new(90.0, 10.0, 50.0);
        let pe = forces(&mut sys, &Substrate::from_lj(LjParams::reduced(2.5)));
        assert_eq!(pe, 0.0);
        for a in &sys.accelerations {
            assert_eq!(*a, Vec3::zero());
        }
    }

    #[test]
    fn f32_reference_close_to_f64() {
        let cfg = SimConfig::reduced_lj(108);
        let mut s64: ParticleSystem<f64> = initialize(&cfg);
        let mut s32: ParticleSystem<f32> = s64.convert();
        let pe64 = forces(&mut s64, &cfg.substrate());
        let pe32 = forces(&mut s32, &cfg.substrate());
        assert!(
            (pe64 - pe32 as f64).abs() < 2e-3 * pe64.abs(),
            "{pe64} vs {pe32}"
        );
    }

    #[test]
    fn run_from_continues_run_bit_for_bit() {
        let cfg = SimConfig::reduced_lj(108);
        let whole = run::<f64>(&cfg, 6);
        let mut sys = initialize::<f64>(&cfg);
        run_from(&mut sys, &cfg, 3);
        assert_eq!(run_from(&mut sys, &cfg, 3), whole);
    }

    proptest! {
        /// On random (non-overlapping) configurations the two formulations
        /// agree and obey Newton's third law.
        #[test]
        fn kernels_agree_on_random_configs(seed in 0u64..500) {
            let cfg = SimConfig::reduced_lj(64)
                .with_density(0.3) // lower density so box/2 > cutoff
                .with_seed(seed);
            let mut s1: ParticleSystem<f64> = initialize(&cfg);
            let sub = cfg.substrate::<f64>();
            let mut s2 = s1.clone();
            let pe1 = forces(&mut s1, &sub);
            let pe2 = half_forces(&mut s2, &sub);
            prop_assert!((pe1 - pe2).abs() < 1e-9 * pe2.abs().max(1.0));
            let mut net = Vec3::zero();
            for a in &s1.accelerations { net += *a; }
            prop_assert!(net.norm() < 1e-9);
        }
    }
}
