//! High-level simulation driver: the one-stop API the examples and `mdea run`
//! use.

use crate::bonded::BondedTopology;
use crate::device::HostParallelism;
use crate::init;
use crate::observables::EnergyReport;
use crate::params::SimConfig;
use crate::scenario::Substrate;
use crate::system::ParticleSystem;
use crate::trajectory::HostStepper;
use crate::verlet::VelocityVerlet;

/// A ready-to-run f64 MD simulation: system state + integrator, stepped
/// through the f64 devices' own stepping path (`HostStepper`, forces from
/// [`crate::shared_eval::host_forces`]), optionally with a bonded topology
/// layered on top of the non-bonded interactions (the paper's force field
/// split, §3.5).
pub struct Simulation {
    pub system: ParticleSystem<f64>,
    pub substrate: Substrate<f64>,
    pub integrator: VelocityVerlet<f64>,
    topology: BondedTopology,
    par: HostParallelism,
    /// Potential energy at the current positions.
    last_pe: f64,
    steps_done: usize,
}

impl Simulation {
    /// Initialize from a config and prime the accelerations (so the first
    /// Verlet half-kick is correct). Forces run serially until
    /// [`Self::with_host_parallelism`] says otherwise.
    pub fn prepare(config: SimConfig) -> Self {
        let mut sim = Self {
            system: init::initialize(&config),
            substrate: config.substrate(),
            integrator: VelocityVerlet::new(config.dt),
            topology: BondedTopology::new(),
            par: HostParallelism::Serial,
            last_pe: 0.0,
            steps_done: 0,
        };
        sim.evaluate();
        sim
    }

    /// The stepping path over this simulation's substrate, topology and
    /// host parallelism, and the system it advances.
    fn stepper(&mut self) -> (HostStepper<'_>, &mut ParticleSystem<f64>) {
        let stepper = HostStepper {
            sub: &self.substrate,
            topology: &self.topology,
            par: self.par,
        };
        (stepper, &mut self.system)
    }

    /// Recompute the forces at the current positions.
    fn evaluate(&mut self) {
        let (stepper, system) = self.stepper();
        self.last_pe = stepper.evaluate(system).pe;
    }

    /// Evaluate forces on `par` host threads. Results are bitwise identical
    /// at any setting; only host wall-clock changes.
    #[must_use]
    pub fn with_host_parallelism(mut self, par: HostParallelism) -> Self {
        self.par = par;
        self
    }

    /// Attach a bonded topology (harmonic bonds/angles evaluated on top of
    /// the non-bonded forces each step). Recomputes forces.
    pub fn set_topology(&mut self, topology: BondedTopology) {
        topology.validate(self.system.n());
        self.topology = topology;
        self.evaluate();
    }

    pub fn topology(&self) -> &BondedTopology {
        &self.topology
    }

    /// Advance one time step; returns the post-step energies.
    pub fn step(&mut self) -> EnergyReport {
        let vv = self.integrator;
        let (stepper, system) = self.stepper();
        self.last_pe = stepper.step(&vv, system).pe;
        self.steps_done += 1;
        self.energies()
    }

    /// Advance `n` steps; returns the final energies.
    pub fn run(&mut self, n: usize) -> EnergyReport {
        let mut report = self.energies();
        for _ in 0..n {
            report = self.step();
        }
        report
    }

    /// Current energies without advancing.
    pub fn energies(&self) -> EnergyReport {
        EnergyReport::measure(&self.system, self.last_pe)
    }

    pub fn total_energy(&self) -> f64 {
        self.energies().total
    }

    pub fn potential_energy(&self) -> f64 {
        self.last_pe
    }

    pub fn steps_done(&self) -> usize {
        self.steps_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_primes_accelerations() {
        let sim = Simulation::prepare(SimConfig::reduced_lj(108));
        assert!(
            sim.system.accelerations.iter().any(|a| a.norm2() > 0.0),
            "forces computed at init"
        );
        assert!(sim.potential_energy() < 0.0);
    }

    #[test]
    fn run_counts_steps_and_conserves() {
        let mut sim = Simulation::prepare(SimConfig::reduced_lj(108));
        let e0 = sim.total_energy();
        let report = sim.run(50);
        assert_eq!(sim.steps_done(), 50);
        assert!((report.total - e0).abs() / e0.abs() < 1e-2);
    }

    #[test]
    fn run_zero_steps_is_noop() {
        let mut sim = Simulation::prepare(SimConfig::reduced_lj(108));
        let before = sim.energies();
        let after = sim.run(0);
        assert_eq!(before, after);
        assert_eq!(sim.steps_done(), 0);
    }

    #[test]
    fn bonded_topology_participates_in_dynamics() {
        let cfg = SimConfig::reduced_lj(108);
        let mut plain = Simulation::prepare(cfg);
        let mut bonded = Simulation::prepare(cfg);
        // Bond atoms 0-1 with a stiff spring at their current separation so
        // the trajectory diverges from the unbonded run once they move.
        let r01 = bonded.system.distance2(0, 1).sqrt();
        bonded.set_topology(BondedTopology::new().with_bond(0, 1, 200.0, r01 * 0.8));
        assert!(!bonded.topology().is_empty());

        let e0 = bonded.total_energy();
        plain.run(20);
        bonded.run(20);
        assert_ne!(
            plain.system.positions[0], bonded.system.positions[0],
            "the bond must alter the trajectory"
        );
        // NVE still conserves with the bonded term included.
        let drift = ((bonded.total_energy() - e0) / e0).abs();
        assert!(drift < 1e-2, "bonded NVE drift {drift:.2e}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn topology_validated_against_system() {
        let mut sim = Simulation::prepare(SimConfig::reduced_lj(108));
        sim.set_topology(BondedTopology::new().with_bond(0, 500, 1.0, 1.0));
    }
}
