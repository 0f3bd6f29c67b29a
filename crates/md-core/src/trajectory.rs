//! The f64 trajectory driver (DESIGN.md §11): the physics of every device
//! whose datapath is the host flavor, the Opteron and both MTA-2 modes.
//!
//! A device's physics is fixed by its datapath flavor, not by the device.
//! Each of these devices evaluates forces with [`host_forces`] inside the
//! same velocity-Verlet step, so their states and energies agree bit for
//! bit. [`HostTrajectory::drive`] integrates such a run once and keeps what
//! the cost models read of it, a [`TrajectoryRecord`]: each evaluation's
//! potential energy and interaction count and the final energies, per
//! evaluation, not per atom. A device prices that record
//! ([`crate::device::HostPricer`]), so a sweep that holds several points of
//! one workload drives it once and prices every point from it, and can keep
//! the record without the state.
//!
//! `HostStepper` is the one f64 stepping path: the driver and
//! [`crate::sim::Simulation`] (`mdea run`, the examples) both advance
//! through it.

use crate::bonded::BondedTopology;
use crate::checkpoint::SystemCheckpoint;
use crate::device::HostParallelism;
use crate::init;
use crate::observables::EnergyReport;
use crate::params::SimConfig;
use crate::scenario::Substrate;
use crate::shared_eval::host_forces;
use crate::system::ParticleSystem;
use crate::verlet::VelocityVerlet;
use vecmath::Vec3;

/// One force evaluation, as the cost models read it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalRecord {
    /// Potential energy at the evaluated positions.
    pub pe: f64,
    /// In-cutoff pairs the evaluation found, each counted from both atoms.
    pub interactions: u64,
}

/// One f64 force evaluation and velocity-Verlet step: [`host_forces`] on
/// `par` host threads (bitwise identical at any setting), with the bonded
/// terms of `topology` added on top when it has any.
pub(crate) struct HostStepper<'a> {
    pub sub: &'a Substrate<f64>,
    pub topology: &'a BondedTopology,
    pub par: HostParallelism,
}

impl HostStepper<'_> {
    /// Fill `sys`'s accelerations at its current positions.
    pub fn evaluate(&self, sys: &mut ParticleSystem<f64>) -> EvalRecord {
        let (mut pe, interactions) = host_forces(sys, self.sub, self.par);
        if !self.topology.is_empty() {
            pe += self.topology.accumulate_forces(sys);
        }
        EvalRecord { pe, interactions }
    }

    /// One `vv` step of `sys`: one evaluation, then the substrate's
    /// thermostat after the second half-kick.
    pub fn step(&self, vv: &VelocityVerlet<f64>, sys: &mut ParticleSystem<f64>) -> EvalRecord {
        let mut interactions = 0;
        let pe = vv.step(sys, self.sub, |s| {
            let eval = self.evaluate(s);
            interactions = eval.interactions;
            eval.pe
        });
        EvalRecord { pe, interactions }
    }
}

/// What the cost models read of one f64 run: the config, the atom count,
/// every force evaluation and the energies of the final state. It holds no
/// per-atom state, so a sweep can keep one per workload for as long as it
/// runs.
#[derive(Clone, Debug)]
pub struct TrajectoryRecord {
    sim: SimConfig,
    n: usize,
    /// The priming evaluation, then one per step; never empty.
    evals: Vec<EvalRecord>,
    energies: EnergyReport,
}

impl TrajectoryRecord {
    /// The config the run integrated.
    pub fn sim(&self) -> &SimConfig {
        &self.sim
    }

    /// Atoms in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Every force evaluation in order: the priming one, then one per step.
    pub fn evals(&self) -> &[EvalRecord] {
        &self.evals
    }

    /// Steps the run integrated.
    pub fn steps(&self) -> usize {
        self.evals.len() - 1
    }

    /// The last force evaluation: the priming one when no step ran.
    pub fn last_eval(&self) -> EvalRecord {
        self.evals[self.evals.len() - 1]
    }

    /// Energies of the final state, measured once when the run ended.
    pub fn energies(&self) -> EnergyReport {
        self.energies
    }
}

/// One f64 run: its [`TrajectoryRecord`] and the state the run ended in.
///
/// It is also the resume record of the run that follows it. [`host_forces`]
/// is a pure function of the positions, box, mass and the config's
/// substrate, and its bits do not depend on the host thread count. A
/// supervised run resumes each segment from the checkpoint the previous
/// segment ended in, so the next segment's priming evaluation would
/// recompute exactly this run's last one. [`HostTrajectory::drive`] takes
/// it from here when the inputs match bit for bit
/// ([`HostTrajectory::resumes`]); every cost the devices charge for it is
/// unchanged.
#[derive(Clone, Debug)]
pub struct HostTrajectory {
    record: TrajectoryRecord,
    /// The state after the last step, accelerations from the last
    /// evaluation.
    system: ParticleSystem<f64>,
    end_step: u64,
}

impl HostTrajectory {
    /// Integrate `steps` velocity-Verlet steps of `sim` from `start`, or
    /// from the standard lattice when `start` is `None`, through
    /// `HostStepper` with no bonded terms.
    ///
    /// `resume` is the trajectory the caller drove last, if any. When
    /// `start` is the state it ended in, the priming evaluation is taken
    /// from it instead of recomputed.
    pub fn drive(
        sim: &SimConfig,
        start: Option<&SystemCheckpoint>,
        steps: usize,
        par: HostParallelism,
        resume: Option<&HostTrajectory>,
    ) -> Self {
        let (mut system, start_step): (ParticleSystem<f64>, u64) = match start {
            Some(cp) => (cp.restore(), cp.step),
            None => (init::initialize(sim), 0),
        };
        let stepper = HostStepper {
            sub: &sim.substrate(),
            topology: &BondedTopology::new(),
            par,
        };
        let mut evals = Vec::with_capacity(steps + 1);
        evals.push(match resume {
            Some(last) if last.resumes(&system, sim) => {
                system
                    .accelerations
                    .copy_from_slice(&last.system.accelerations);
                last.record.last_eval()
            }
            _ => stepper.evaluate(&mut system),
        });
        let vv = VelocityVerlet::new(sim.dt);
        for _ in 0..steps {
            evals.push(stepper.step(&vv, &mut system));
        }
        let last_pe = evals[evals.len() - 1].pe;
        Self {
            record: TrajectoryRecord {
                sim: *sim,
                n: system.n(),
                evals,
                energies: EnergyReport::measure(&system, last_pe),
            },
            system,
            end_step: start_step + steps as u64,
        }
    }

    /// What the cost models read of the run.
    pub fn record(&self) -> &TrajectoryRecord {
        &self.record
    }

    /// The record without the final state.
    pub fn into_record(self) -> TrajectoryRecord {
        self.record
    }

    /// The final state, stamped with the step the run ended at.
    pub fn checkpoint(&self) -> SystemCheckpoint {
        SystemCheckpoint::capture(&self.system, self.end_step)
    }

    /// Whether a run of `sim` that starts from `sys` would recompute this
    /// run's last evaluation: bitwise equality of every input of
    /// [`host_forces`], so `-0.0` and NaN miss. The config compares with
    /// `==` (NaN fields miss) and by its `Debug` text, whose shortest
    /// round-trip float printing tells `-0.0` from `0.0`.
    pub fn resumes(&self, sys: &ParticleSystem<f64>, sim: &SimConfig) -> bool {
        let bits = |v: &Vec3<f64>| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        let own = &self.system;
        own.box_len.to_bits() == sys.box_len.to_bits()
            && own.mass.to_bits() == sys.mass.to_bits()
            && own.n() == sys.n()
            && own
                .positions
                .iter()
                .zip(&sys.positions)
                .all(|(a, b)| bits(a) == bits(b))
            && self.record.sim == *sim
            && format!("{:?}", self.record.sim) == format!("{sim:?}")
    }
}

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn drive(sim: &SimConfig, start: Option<&SystemCheckpoint>, steps: usize) -> HostTrajectory {
        HostTrajectory::drive(sim, start, steps, HostParallelism::Serial, None)
    }

    #[test]
    fn physics_matches_the_reference() {
        let sim = SimConfig::reduced_lj(108);
        let run = drive(&sim, None, 5);
        let reference = crate::reference::run::<f64>(&sim, 5);
        let total = run.record().energies().total;
        assert!(
            (total - reference.total).abs() < 1e-9 * reference.total.abs(),
            "driver diverged: {total} vs {}",
            reference.total
        );
        assert_eq!(run.record().evals().len(), 6, "prime + one per step");
        assert_eq!(run.checkpoint().step, 5);
    }

    #[test]
    fn segmented_run_matches_unsegmented_run_bitwise() {
        let sim = SimConfig::reduced_lj(108);
        let whole = drive(&sim, None, 10);
        let first = drive(&sim, None, 5);
        let second = drive(&sim, Some(&first.checkpoint()), 5);
        assert_eq!(second.checkpoint(), whole.checkpoint());
        assert_eq!(second.record().evals(), &whole.record().evals()[5..]);
    }

    #[test]
    fn evaluations_do_not_depend_on_host_threads() {
        let sim = SimConfig::reduced_lj(256);
        let serial = drive(&sim, None, 2);
        let par = HostTrajectory::drive(&sim, None, 2, HostParallelism::Threads(3), None);
        assert_eq!(par.record().evals(), serial.record().evals());
        assert_eq!(par.checkpoint(), serial.checkpoint());
    }

    #[test]
    fn a_resume_from_the_runs_checkpoint_takes_its_last_evaluation() {
        let sim = SimConfig::reduced_lj(108);
        let first = drive(&sim, None, 3);
        let cp = first.checkpoint();
        assert!(first.resumes(&cp.restore(), &sim));
        let warm = HostTrajectory::drive(&sim, Some(&cp), 0, HostParallelism::Serial, Some(&first));
        let cold = drive(&sim, Some(&cp), 0);
        assert_eq!(warm.record().evals(), &[first.record().last_eval()]);
        assert_eq!(warm.record().evals(), cold.record().evals());
        assert_eq!(warm.checkpoint(), cold.checkpoint());
    }

    #[test]
    fn the_record_matches_by_bits() {
        let cfg = SimConfig::reduced_lj(108);
        let mut sys: ParticleSystem<f64> = ParticleSystem::new(4, 10.0);
        let record = |sim: SimConfig| {
            let system = ParticleSystem::new(4, 10.0);
            HostTrajectory {
                record: TrajectoryRecord {
                    sim,
                    n: 4,
                    evals: vec![EvalRecord {
                        pe: 0.0,
                        interactions: 0,
                    }],
                    energies: EnergyReport::measure(&system, 0.0),
                },
                system,
                end_step: 0,
            }
        };
        assert!(record(cfg).resumes(&sys, &cfg));
        // `==` holds for -0.0 and 0.0, the bits differ.
        let signed = SimConfig {
            cutoff: -0.0,
            ..cfg
        };
        let zero = SimConfig { cutoff: 0.0, ..cfg };
        assert!(!record(zero).resumes(&sys, &signed));
        sys.positions[1].y = -0.0;
        assert!(!record(cfg).resumes(&sys, &cfg));
        sys.positions[1].y = 0.0;
        // NaN never matches, not even itself.
        let nan = SimConfig {
            dt: f64::NAN,
            ..cfg
        };
        assert!(!record(nan).resumes(&sys, &nan));
    }
}
