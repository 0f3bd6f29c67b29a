//! The trajectory driver (DESIGN.md §11): the physics of every device
//! whose host integrates and whose device only evaluates forces, the
//! Opteron, both MTA-2 modes, the GPU and the Cell's PPE-only baseline.
//!
//! A device's physics is fixed by its datapath [`Flavor`], not by the
//! device. [`Trajectory::drive`] integrates a run of one flavor once, in
//! the flavor's native precision, and keeps what the cost models read of
//! it, a [`TrajectoryRecord`]: each evaluation's potential energy and
//! interaction count and the final energies, per evaluation, not per atom.
//! A device prices that record ([`crate::device::Pricer`]), so a sweep that
//! holds several points of one workload and flavor drives it once and
//! prices every point from it, and can keep the record without the state.
//! The Cell's SPE offload is the one device that still integrates itself.
//!
//! `HostStepper` is the one f64 stepping path: the host flavor and
//! [`crate::sim::Simulation`] (`mdea run`, the examples) both advance
//! through it.

use crate::bonded::BondedTopology;
use crate::checkpoint::SystemCheckpoint;
use crate::device::HostParallelism;
use crate::init;
use crate::observables::EnergyReport;
use crate::parallel::map_indexed;
use crate::params::SimConfig;
use crate::scenario::Substrate;
use crate::shared_eval::{cell_stage_row, gpu_texel, host_forces, CellStage, SoaPositionsF32};
use crate::system::ParticleSystem;
use crate::verlet::VelocityVerlet;
use vecmath::{Real, Vec3};

/// The closed set of datapaths a trajectory evaluates its forces through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// [`host_forces`] in f64: the Opteron and both MTA-2 modes.
    Host,
    /// [`gpu_texel`] rows in f32, in fragment batches, the PE the texels' w
    /// lanes summed in f64 and halved. The GPU.
    Gpu,
    /// [`cell_stage_row`] in f32 at the `Original` SPE-kernel stage (reflect
    /// at `L/2`, unfused accumulate), the row PEs summed in row order in
    /// f32, then halved. The PPE-only baseline.
    Cell,
}

/// One force evaluation, as the cost models read it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalRecord {
    /// Potential energy at the evaluated positions.
    pub pe: f64,
    /// In-cutoff pairs the evaluation found, each counted from both atoms;
    /// 0 in the GPU flavor, whose predicated shader counts none.
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
        step(vv, self.sub, sys, |s| self.evaluate(s))
    }
}

/// One velocity-Verlet step of `sys` whose force evaluation is `evaluate`.
fn step<T: Real>(
    vv: &VelocityVerlet<T>,
    sub: &Substrate<T>,
    sys: &mut ParticleSystem<T>,
    mut evaluate: impl FnMut(&mut ParticleSystem<T>) -> EvalRecord,
) -> EvalRecord {
    let mut eval = EvalRecord::default();
    vv.step(sys, sub, |s| {
        eval = evaluate(s);
        T::from_f64(eval.pe)
    });
    eval
}

/// What the cost models read of one run: its flavor, the config, the atom
/// count, every force evaluation and the energies of the final state. It
/// holds no per-atom state, so a sweep can keep one per workload for as
/// long as it runs.
#[derive(Clone, Debug)]
pub struct TrajectoryRecord {
    flavor: Flavor,
    sim: SimConfig,
    n: usize,
    /// The priming evaluation, then one per step; never empty.
    evals: Vec<EvalRecord>,
    energies: EnergyReport,
}

impl TrajectoryRecord {
    /// The datapath the run evaluated its forces through.
    pub fn flavor(&self) -> Flavor {
        self.flavor
    }

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

/// One run: its [`TrajectoryRecord`] and the state the run ended in, kept
/// in the flavor's precision; [`Trajectory::checkpoint`] is the one copy of
/// it a run makes, and [`Trajectory::into_record`] drops it uncopied.
///
/// It is also the resume record of the run that follows it. Each flavor's
/// force evaluation is a pure function of the positions, box, mass and the
/// config's substrate, and its bits do not depend on the host thread count.
/// A supervised run resumes each segment from the checkpoint the previous
/// segment ended in, so the next segment's priming evaluation would
/// recompute exactly this run's last one. [`Trajectory::drive`] takes it
/// from here when the inputs match bit for bit in the flavor's precision
/// ([`Trajectory::resumes`]); every cost the devices charge for it is
/// unchanged.
#[derive(Clone, Debug)]
pub struct Trajectory {
    record: TrajectoryRecord,
    end: End,
    /// The step the run ended at.
    end_step: u64,
}

/// The state after a run's last step, in its flavor's precision,
/// accelerations from the last evaluation.
#[derive(Clone, Debug)]
enum End {
    F64(ParticleSystem<f64>),
    F32(ParticleSystem<f32>),
}

/// A flavor's precision: how an [`End`] holds a state in it.
trait Native: Real {
    fn end(sys: ParticleSystem<Self>) -> End;
    fn state(end: &End) -> Option<&ParticleSystem<Self>>;
}

impl Native for f64 {
    fn end(sys: ParticleSystem<Self>) -> End {
        End::F64(sys)
    }
    fn state(end: &End) -> Option<&ParticleSystem<Self>> {
        match end {
            End::F64(sys) => Some(sys),
            End::F32(_) => None,
        }
    }
}

impl Native for f32 {
    fn end(sys: ParticleSystem<Self>) -> End {
        End::F32(sys)
    }
    fn state(end: &End) -> Option<&ParticleSystem<Self>> {
        match end {
            End::F32(sys) => Some(sys),
            End::F64(_) => None,
        }
    }
}

impl Trajectory {
    /// Integrate `steps` velocity-Verlet steps of `sim` through `flavor`, in
    /// its precision, from `start`, or from the standard lattice when
    /// `start` is `None`, on `par` host threads (bitwise identical at any
    /// setting).
    ///
    /// `resume` is the trajectory the caller drove last, if any. When
    /// `start` is the state it ended in, the priming evaluation is taken
    /// from it instead of recomputed.
    pub fn drive(
        flavor: Flavor,
        sim: &SimConfig,
        start: Option<&SystemCheckpoint>,
        steps: usize,
        par: HostParallelism,
        resume: Option<&Trajectory>,
    ) -> Self {
        let resume = resume.filter(|last| last.record.flavor == flavor);
        match flavor {
            Flavor::Host => {
                let stepper = HostStepper {
                    sub: &sim.substrate(),
                    topology: &BondedTopology::new(),
                    par,
                };
                integrate(flavor, sim, start, steps, resume, |sys| {
                    stepper.evaluate(sys)
                })
            }
            Flavor::Gpu => {
                let sub = sim.substrate();
                integrate(flavor, sim, start, steps, resume, |sys| EvalRecord {
                    pe: gpu_forces(sys, &sub, par),
                    interactions: 0,
                })
            }
            Flavor::Cell => {
                let sub = sim.substrate();
                integrate(flavor, sim, start, steps, resume, |sys| {
                    let (pe, interactions) = cell_forces(sys, &sub, par);
                    EvalRecord {
                        pe: f64::from(pe * 0.5),
                        interactions,
                    }
                })
            }
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

    /// The final state, stamped with the step the run ended at (exact for
    /// an f32 state).
    pub fn checkpoint(&self) -> SystemCheckpoint {
        match &self.end {
            End::F64(sys) => SystemCheckpoint::capture(sys, self.end_step),
            End::F32(sys) => SystemCheckpoint::capture(sys, self.end_step),
        }
    }

    /// Whether a run of `sim` through this run's flavor from `cp` would
    /// take its priming evaluation from this run.
    pub fn resumes(&self, cp: &SystemCheckpoint, sim: &SimConfig) -> bool {
        match self.end {
            End::F64(_) => self.resumes_state::<f64>(&cp.restore(), sim),
            End::F32(_) => self.resumes_state::<f32>(&cp.restore(), sim),
        }
    }

    /// Whether a run of `sim` through this run's flavor, whose precision is
    /// `T`, that starts from `sys` would recompute this run's last
    /// evaluation: bitwise equality of every input of its force evaluation
    /// (widened to f64, which is exact), so `-0.0` and NaN miss. The config
    /// compares with `==` (NaN fields miss) and by its `Debug` text, whose
    /// shortest round-trip float printing tells `-0.0` from `0.0`.
    fn resumes_state<T: Native>(&self, sys: &ParticleSystem<T>, sim: &SimConfig) -> bool {
        let bits = |v: Vec3<T>| [v.x, v.y, v.z].map(|x| x.to_f64().to_bits());
        let Some(own) = T::state(&self.end) else {
            return false;
        };
        own.box_len.to_f64().to_bits() == sys.box_len.to_f64().to_bits()
            && own.mass.to_f64().to_bits() == sys.mass.to_f64().to_bits()
            && own.n() == sys.n()
            && own
                .positions
                .iter()
                .zip(&sys.positions)
                .all(|(&a, &b)| bits(a) == bits(b))
            && self.record.sim == *sim
            && format!("{:?}", self.record.sim) == format!("{sim:?}")
    }
}

/// [`Trajectory::drive`] in `flavor`'s precision `T`, whose force
/// evaluation is `evaluate`; `resume` is of the same flavor.
fn integrate<T: Native>(
    flavor: Flavor,
    sim: &SimConfig,
    start: Option<&SystemCheckpoint>,
    steps: usize,
    resume: Option<&Trajectory>,
    mut evaluate: impl FnMut(&mut ParticleSystem<T>) -> EvalRecord,
) -> Trajectory {
    let (mut system, start_step): (ParticleSystem<T>, u64) = match start {
        Some(cp) => (cp.restore(), cp.step),
        None => (init::initialize(sim), 0),
    };
    let mut evals = Vec::with_capacity(steps + 1);
    evals.push(
        match resume.filter(|last| last.resumes_state(&system, sim)) {
            Some(last) => {
                if let Some(own) = T::state(&last.end) {
                    system.accelerations.copy_from_slice(&own.accelerations);
                }
                last.record.last_eval()
            }
            None => evaluate(&mut system),
        },
    );
    let vv = VelocityVerlet::new(T::from_f64(sim.dt));
    let sub = sim.substrate::<T>();
    for _ in 0..steps {
        evals.push(step(&vv, &sub, &mut system, &mut evaluate));
    }
    let last_pe = evals[evals.len() - 1].pe;
    Trajectory {
        record: TrajectoryRecord {
            flavor,
            sim: *sim,
            n: system.n(),
            evals,
            energies: EnergyReport::measure(&system, last_pe),
        },
        end: T::end(system),
        end_step: start_step + steps as u64,
    }
}

/// Host-parallel dispatch granularity of the GPU flavor: output texels are
/// evaluated in fixed batches of this many fragments. The batches depend
/// only on the output length, never on the thread count, so every batch
/// computes the same texels no matter how they are scheduled.
const FRAGMENT_BATCH: usize = 256;

/// The f32 SoA of a system's positions, as both f32 flavors read them.
fn soa(sys: &ParticleSystem<f32>) -> SoaPositionsF32 {
    SoaPositionsF32::from_quads(sys.positions.iter().map(|p| [p.x, p.y, p.z, 0.0]))
}

/// One GPU-flavor force evaluation: each atom's [`gpu_texel`], in
/// [`FRAGMENT_BATCH`] batches on `par`, committed in batch order. Sets the
/// accelerations to the texels' xyz and returns the PE as the host sums the
/// readback: the w lanes added in f64, in atom order, then halved.
fn gpu_forces(sys: &mut ParticleSystem<f32>, sub: &Substrate<f32>, par: HostParallelism) -> f64 {
    let (l, inv_mass, soa) = (sys.box_len, 1.0 / sys.mass, soa(sys));
    let n = sys.n();
    let batches = map_indexed(par, n.div_ceil(FRAGMENT_BATCH), |b| {
        let lo = b * FRAGMENT_BATCH;
        let hi = (lo + FRAGMENT_BATCH).min(n);
        (lo..hi)
            .map(|i| gpu_texel(&soa, i, l, sub, inv_mass))
            .collect::<Vec<_>>()
    });
    let texels = batches.concat();
    for (a, t) in sys.accelerations.iter_mut().zip(&texels) {
        *a = Vec3::new(t[0], t[1], t[2]);
    }
    texels.iter().map(|t| t[3] as f64).sum::<f64>() * 0.5
}

/// One Cell-flavor force evaluation: each atom's [`cell_stage_row`] at the
/// `Original` stage on `par`, folded in row order. Sets the accelerations
/// and returns the row PEs summed in f32 (each pair sits in both of its
/// atoms' rows) and the in-cutoff (ordered) pair count.
fn cell_forces(
    sys: &mut ParticleSystem<f32>,
    sub: &Substrate<f32>,
    par: HostParallelism,
) -> (f32, u64) {
    let (l, inv_mass, soa) = (sys.box_len, 1.0 / sys.mass, soa(sys));
    let stage = CellStage {
        reflect_above: 0.5 * l,
        fused: false,
    };
    let rows = map_indexed(par, sys.n(), |i| {
        cell_stage_row(&soa, i, l, sub, inv_mass, stage)
    });
    let mut pe = 0.0f32;
    let mut interactions = 0u64;
    for (a, row) in sys.accelerations.iter_mut().zip(rows) {
        *a = Vec3::new(row.acc[0], row.acc[1], row.acc[2]);
        pe += row.pe;
        interactions += row.interactions;
    }
    (pe, interactions)
}

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    const FLAVORS: [Flavor; 3] = [Flavor::Host, Flavor::Gpu, Flavor::Cell];

    fn drive(sim: &SimConfig, start: Option<&SystemCheckpoint>, steps: usize) -> Trajectory {
        drive_flavor(Flavor::Host, sim, start, steps)
    }

    fn drive_flavor(
        flavor: Flavor,
        sim: &SimConfig,
        start: Option<&SystemCheckpoint>,
        steps: usize,
    ) -> Trajectory {
        Trajectory::drive(flavor, sim, start, steps, HostParallelism::Serial, None)
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
    fn the_f32_flavors_track_the_f32_reference() {
        let sim = SimConfig::reduced_lj(256);
        let reference = crate::reference::run::<f32>(&sim, 3);
        for flavor in [Flavor::Gpu, Flavor::Cell] {
            let total = drive_flavor(flavor, &sim, None, 3)
                .record()
                .energies()
                .total;
            assert!(
                (total - reference.total).abs() < 1e-3 * reference.total.abs(),
                "{flavor:?}: {total} vs {}",
                reference.total
            );
        }
    }

    #[test]
    fn segmented_run_matches_unsegmented_run_bitwise() {
        let sim = SimConfig::reduced_lj(108);
        for flavor in FLAVORS {
            let whole = drive_flavor(flavor, &sim, None, 10);
            let first = drive_flavor(flavor, &sim, None, 5);
            let second = drive_flavor(flavor, &sim, Some(&first.checkpoint()), 5);
            assert_eq!(second.checkpoint(), whole.checkpoint(), "{flavor:?}");
            assert_eq!(
                second.record().evals(),
                &whole.record().evals()[5..],
                "{flavor:?}"
            );
        }
    }

    #[test]
    fn evaluations_do_not_depend_on_host_threads() {
        let sim = SimConfig::reduced_lj(300);
        for flavor in FLAVORS {
            let serial = drive_flavor(flavor, &sim, None, 2);
            let par = Trajectory::drive(flavor, &sim, None, 2, HostParallelism::Threads(3), None);
            assert_eq!(par.record().evals(), serial.record().evals(), "{flavor:?}");
            assert_eq!(par.checkpoint(), serial.checkpoint(), "{flavor:?}");
        }
    }

    #[test]
    fn a_resume_from_the_runs_checkpoint_takes_its_last_evaluation() {
        let sim = SimConfig::reduced_lj(108);
        for flavor in FLAVORS {
            let first = drive_flavor(flavor, &sim, None, 3);
            let cp = first.checkpoint();
            assert!(first.resumes(&cp, &sim), "{flavor:?}");
            let warm = Trajectory::drive(
                flavor,
                &sim,
                Some(&cp),
                0,
                HostParallelism::Serial,
                Some(&first),
            );
            let cold = drive_flavor(flavor, &sim, Some(&cp), 0);
            assert_eq!(warm.record().evals(), &[first.record().last_eval()]);
            assert_eq!(warm.record().evals(), cold.record().evals(), "{flavor:?}");
            assert_eq!(warm.checkpoint(), cold.checkpoint(), "{flavor:?}");
        }
    }

    #[test]
    fn another_flavor_never_resumes() {
        let sim = SimConfig::reduced_lj(108);
        let gpu = drive_flavor(Flavor::Gpu, &sim, None, 2);
        let cp = gpu.checkpoint();
        let cell = Flavor::Cell;
        let cold = drive_flavor(cell, &sim, Some(&cp), 0);
        let warm = Trajectory::drive(
            cell,
            &sim,
            Some(&cp),
            0,
            HostParallelism::Serial,
            Some(&gpu),
        );
        assert_ne!(cold.record().last_eval(), gpu.record().last_eval());
        assert_eq!(warm.record().evals(), cold.record().evals());
        assert_eq!(warm.checkpoint(), cold.checkpoint());
        // The f64 state a host run would start from is not the f32 one.
        let host = Trajectory::drive(
            Flavor::Host,
            &sim,
            Some(&cp),
            0,
            HostParallelism::Serial,
            Some(&gpu),
        );
        assert_eq!(
            host.record().evals(),
            drive(&sim, Some(&cp), 0).record().evals()
        );
    }

    #[test]
    fn the_record_matches_by_bits() {
        let cfg = SimConfig::reduced_lj(108);
        let mut sys: ParticleSystem<f64> = ParticleSystem::new(4, 10.0);
        let record = |sim: SimConfig| {
            let system: ParticleSystem<f64> = ParticleSystem::new(4, 10.0);
            Trajectory {
                record: TrajectoryRecord {
                    flavor: Flavor::Host,
                    sim,
                    n: 4,
                    evals: vec![EvalRecord::default()],
                    energies: EnergyReport::measure(&system, 0.0),
                },
                end: End::F64(system),
                end_step: 0,
            }
        };
        let resumes = |run: Trajectory, sys: &ParticleSystem<f64>, sim: &SimConfig| {
            run.resumes_state(sys, sim)
        };
        assert!(resumes(record(cfg), &sys, &cfg));
        // `==` holds for -0.0 and 0.0, the bits differ.
        let signed = SimConfig {
            cutoff: -0.0,
            ..cfg
        };
        let zero = SimConfig { cutoff: 0.0, ..cfg };
        assert!(!resumes(record(zero), &sys, &signed));
        sys.positions[1].y = -0.0;
        assert!(!resumes(record(cfg), &sys, &cfg));
        sys.positions[1].y = 0.0;
        // NaN never matches, not even itself.
        let nan = SimConfig {
            dt: f64::NAN,
            ..cfg
        };
        assert!(!resumes(record(nan), &sys, &nan));
    }
}
