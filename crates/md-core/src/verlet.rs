//! Velocity-Verlet integration (paper section 3.5 / Figure 4).
//!
//! The paper's pseudo-code per time step:
//!
//! ```text
//! 1. advance velocities
//! 2. calculate forces on each of the N atoms
//! 3. move atoms based on their position, velocities & forces
//! 4. update positions
//! 5. calculate new kinetic and total energies
//! ```
//!
//! which is the standard velocity-Verlet splitting: a half-kick with the old
//! accelerations, a drift, a force recomputation, and a second half-kick.
//! Implemented here in exactly that shape so the device ports (which offload
//! only step 2) share the surrounding integrator code path.

use crate::scenario::Substrate;
use crate::system::ParticleSystem;
use vecmath::Real;

/// The velocity-Verlet integrator. Stateless apart from the timestep; the
/// force evaluation is the caller's, physics selection the [`Substrate`]'s.
///
/// ```
/// use md_core::prelude::*;
/// use md_core::reference;
///
/// let cfg = SimConfig::reduced_lj(108);
/// let mut sys: ParticleSystem<f64> = md_core::init::initialize(&cfg);
/// let sub = cfg.substrate::<f64>();
/// let vv = VelocityVerlet::new(cfg.dt);
/// reference::forces(&mut sys, &sub); // prime accelerations
/// let pe = vv.step(&mut sys, &sub, |s| reference::forces(s, &sub));
/// assert!(pe.is_finite());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct VelocityVerlet<T> {
    pub dt: T,
}

impl<T: Real> VelocityVerlet<T> {
    pub fn new(dt: T) -> Self {
        assert!(dt > T::ZERO, "timestep must be positive");
        Self { dt }
    }

    /// Step 1 + 4 of Figure 4 for the first half: v += a·dt/2, r += v·dt.
    /// Positions are wrapped back into the periodic box after the drift.
    pub fn kick_drift(&self, sys: &mut ParticleSystem<T>) {
        let half_dt = self.dt * T::HALF;
        for i in 0..sys.n() {
            let a = sys.accelerations[i];
            sys.velocities[i] += a * half_dt;
            let v = sys.velocities[i];
            sys.positions[i] += v * self.dt;
        }
        sys.wrap_positions();
    }

    /// Second half-kick with the freshly computed accelerations.
    pub fn kick(&self, sys: &mut ParticleSystem<T>) {
        let half_dt = self.dt * T::HALF;
        for i in 0..sys.n() {
            let a = sys.accelerations[i];
            sys.velocities[i] += a * half_dt;
        }
    }

    /// One full time step: `forces` fills the accelerations at the drifted
    /// positions and returns their potential energy, which this returns
    /// (step 5 computes energies from it). The substrate's thermostat, if
    /// any, is applied after the final kick — a no-op under NVE, so the
    /// paper's integration path is untouched.
    pub fn step(
        &self,
        sys: &mut ParticleSystem<T>,
        sub: &Substrate<T>,
        forces: impl FnOnce(&mut ParticleSystem<T>) -> T,
    ) -> T {
        self.kick_drift(sys);
        let pe = forces(sys);
        self.kick(sys);
        sub.apply_thermostat(sys);
        pe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::initialize;
    use crate::params::SimConfig;
    use crate::reference::forces;

    fn setup(n: usize) -> (ParticleSystem<f64>, Substrate<f64>, VelocityVerlet<f64>) {
        let cfg = SimConfig::reduced_lj(n);
        let sys = initialize(&cfg);
        (sys, cfg.substrate(), VelocityVerlet::new(cfg.dt))
    }

    #[test]
    fn energy_conserved_over_many_steps() {
        let (mut sys, sub, vv) = setup(108);
        // Prime accelerations for the first half-kick.
        let pe0 = forces(&mut sys, &sub);
        let e0 = pe0 + sys.kinetic_energy();
        let mut pe = pe0;
        for _ in 0..200 {
            pe = vv.step(&mut sys, &sub, |s| forces(s, &sub));
        }
        let e1 = pe + sys.kinetic_energy();
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 5e-3, "relative energy drift {drift:.2e} too large");
        assert!(sys.is_finite());
    }

    #[test]
    fn momentum_conserved() {
        let (mut sys, sub, vv) = setup(108);
        forces(&mut sys, &sub);
        for _ in 0..100 {
            vv.step(&mut sys, &sub, |s| forces(s, &sub));
        }
        assert!(sys.total_momentum().norm() < 1e-8);
    }

    #[test]
    fn smaller_timestep_conserves_better() {
        let drift_for = |dt: f64| {
            let cfg = SimConfig::reduced_lj(108).with_dt(dt);
            let mut sys: ParticleSystem<f64> = initialize(&cfg);
            // Shifted potential: energy continuous at the cutoff, so drift is
            // the integrator's O(dt²) error rather than truncation jumps.
            let sub = Substrate::from_lj(cfg.lj_params::<f64>().shifted());
            let vv = VelocityVerlet::new(dt);
            let pe0 = forces(&mut sys, &sub);
            let e0 = pe0 + sys.kinetic_energy();
            let mut pe = pe0;
            // Same physical time: steps ∝ 1/dt.
            let steps = (0.5 / dt) as usize;
            for _ in 0..steps {
                pe = vv.step(&mut sys, &sub, |s| forces(s, &sub));
            }
            ((pe + sys.kinetic_energy() - e0) / e0).abs()
        };
        let coarse = drift_for(0.005);
        let fine = drift_for(0.00125);
        // Verlet is O(dt²) in energy error; 4x smaller dt ≈ 16x less drift.
        // Assert a conservative factor.
        assert!(
            fine < coarse / 2.0 || fine < 1e-7,
            "fine {fine:.2e} vs coarse {coarse:.2e}"
        );
    }

    #[test]
    fn positions_stay_wrapped() {
        let (mut sys, sub, vv) = setup(108);
        forces(&mut sys, &sub);
        for _ in 0..50 {
            vv.step(&mut sys, &sub, |s| forces(s, &sub));
        }
        let l = sys.box_len;
        for p in &sys.positions {
            for k in 0..3 {
                assert!((0.0..l).contains(&p[k]));
            }
        }
    }

    #[test]
    fn reversibility_one_step() {
        // Take a step, negate velocities, take another: back to the start
        // (velocity Verlet is time-reversible up to roundoff).
        let (mut sys, sub, vv) = setup(108);
        forces(&mut sys, &sub);
        let start = sys.positions.clone();
        vv.step(&mut sys, &sub, |s| forces(s, &sub));
        for v in &mut sys.velocities {
            *v = -*v;
        }
        vv.step(&mut sys, &sub, |s| forces(s, &sub));
        for (p, q) in sys.positions.iter().zip(&start) {
            let d = vecmath::pbc::min_image_branchy(*p - *q, sys.box_len);
            assert!(d.norm() < 1e-10, "did not return: {:?}", d);
        }
    }

    #[test]
    #[should_panic(expected = "timestep")]
    fn zero_dt_rejected() {
        VelocityVerlet::<f64>::new(0.0);
    }
}
