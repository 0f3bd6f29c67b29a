//! Devices that price a trajectory resume from their own last one
//! (DESIGN.md §9.3).
//!
//! The Opteron and the MTA-2 price md-core's host-flavor trajectory, the
//! GPU its GPU flavor and the PPE-only baseline its Cell flavor; each keeps
//! its last run, in the flavor's native precision, as its resume record. A
//! run that starts from the state the device's previous run ended in takes
//! its priming force evaluation from that record instead of recomputing it;
//! the prime's charge is unchanged. A freshly built device has no record,
//! so it is the oracle: a warm and a cold device resumed from the same
//! checkpoint must report the same bits — simulated seconds, energies, the
//! checkpoint (accelerations included), attribution, ops, bytes moved and
//! every perf counter — on the hit and on every kind of miss, on all four
//! devices. Each miss case also checks that the prime it forces really
//! differs from the recorded one, so a wrong hit could not pass unseen, and
//! every run must leave its own trajectory behind as the record. On the f32
//! devices a one-ulp miss moves a position by one f32 ulp; one f64 ulp
//! narrows to the same f32 state, which is a hit.

use md_core::checkpoint::SystemCheckpoint;
use md_core::device::{DeviceRun, MdDevice, PerfMonitor, RunOptions};
use md_core::params::SimConfig;
use md_core::scenario::ScenarioSpec;
use mta::{MtaMd, ThreadingMode};
use opteron::OpteronCpu;

/// A freshly built device that prices a trajectory.
type Build = fn() -> Box<dyn MdDevice>;

/// A device that resumes from its last trajectory, and whether that
/// trajectory's native precision is f32.
struct Device {
    label: &'static str,
    build: Build,
    f32: bool,
}

/// Every device that resumes from its last trajectory.
const DEVICES: [Device; 4] = [
    Device {
        label: "opteron",
        build: || Box::new(OpteronCpu::paper_reference()),
        f32: false,
    },
    Device {
        label: "mta2-full-mt",
        build: || Box::new(MtaMd::paper_mta2(ThreadingMode::FullyMultithreaded)),
        f32: false,
    },
    Device {
        label: "gpu-7900gtx",
        build: || Box::new(gpu::GpuMdSimulation::geforce_7900gtx()),
        f32: true,
    },
    Device {
        label: "cell-ppe",
        build: || Box::new(cell_be::CellPpeMd::paper_blade()),
        f32: true,
    },
];

const ATOMS: usize = 256;
/// Steps of the run that leaves the device's record.
const WARMUP_STEPS: usize = 3;

/// A perf counter's name, value bits and `(time, value)` sample bits.
type CounterBits = (String, u64, Vec<(u64, u64)>);

/// Every observable of a run as exact bits: the [`DeviceRun`] fields and
/// each perf counter's value and sample series.
#[derive(Debug, PartialEq, Eq)]
struct Bits {
    sim_seconds: u64,
    energies: [u64; 4],
    checkpoint: Vec<u8>,
    attribution: Vec<(&'static str, u64)>,
    derived: Vec<(&'static str, u64)>,
    ops: u64,
    bytes_moved: u64,
    counters: Vec<CounterBits>,
}

impl Bits {
    fn of(run: &DeviceRun, perf: &PerfMonitor) -> Self {
        let e = &run.energies;
        let labelled =
            |v: &[(&'static str, f64)]| v.iter().map(|&(k, x)| (k, x.to_bits())).collect();
        Self {
            sim_seconds: run.sim_seconds.to_bits(),
            energies: [e.kinetic, e.potential, e.total, e.temperature].map(f64::to_bits),
            checkpoint: run.checkpoint.encode(),
            attribution: labelled(&run.attribution),
            derived: labelled(&run.derived),
            ops: run.ops.to_bits(),
            bytes_moved: run.bytes_moved.to_bits(),
            counters: perf
                .counters()
                .iter()
                .map(|c| {
                    let samples = c
                        .samples()
                        .iter()
                        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
                        .collect();
                    (c.name.clone(), c.value().to_bits(), samples)
                })
                .collect(),
        }
    }
}

fn resume(dev: &mut dyn MdDevice, sim: &SimConfig, cp: &SystemCheckpoint, steps: usize) -> Bits {
    let mut perf = PerfMonitor::new();
    let run = dev
        .run(
            sim,
            RunOptions::steps(steps)
                .from_checkpoint(cp)
                .with_perf(&mut perf),
        )
        .expect("the device runs");
    Bits::of(&run, &perf)
}

/// A device whose last run was `WARMUP_STEPS` of `sim` from the lattice,
/// and the checkpoint that run ended in.
fn warm(build: Build, sim: &SimConfig) -> (Box<dyn MdDevice>, SystemCheckpoint) {
    let mut dev = build();
    let run = dev
        .run(sim, RunOptions::steps(WARMUP_STEPS))
        .expect("the device runs");
    (dev, run.checkpoint)
}

/// The primed accelerations a cold device computes for `cp` under `sim`.
fn cold_prime(build: Build, sim: &SimConfig, cp: &SystemCheckpoint) -> SystemCheckpoint {
    build()
        .run(sim, RunOptions::steps(0).from_checkpoint(cp))
        .expect("the device runs")
        .checkpoint
}

/// Resume a device warmed on `recorded` and a fresh one from `cp` under
/// `sim`, for 0 steps (the prime alone) and for 2, and require equal bits.
fn assert_warm_equals_cold(
    dev: &Device,
    recorded: &SimConfig,
    sim: &SimConfig,
    cp: &SystemCheckpoint,
    ctx: &str,
) {
    for steps in [0, 2] {
        let (mut warmed, _) = warm(dev.build, recorded);
        let warm = resume(warmed.as_mut(), sim, cp, steps);
        let cold = resume((dev.build)().as_mut(), sim, cp, steps);
        assert_eq!(
            warm, cold,
            "{}, {ctx}, {steps} steps: warm device differs from a cold one",
            dev.label
        );
    }
}

/// A miss must force a prime that differs from the recorded one; otherwise
/// the warm/cold comparison could not catch a wrong hit.
fn assert_prime_differs(
    dev: &Device,
    recorded: &SystemCheckpoint,
    sim: &SimConfig,
    cp: &SystemCheckpoint,
    ctx: &str,
) {
    assert_ne!(
        cold_prime(dev.build, sim, cp).accelerations,
        recorded.accelerations,
        "{}, {ctx}: the case leaves the prime unchanged, so it tests nothing",
        dev.label
    );
}

/// Whether `dev`, warmed on `sim`, would take the prime of a run of `sim`
/// from `cp` from its last trajectory.
fn hits(dev: &Device, sim: &SimConfig, cp: &SystemCheckpoint) -> bool {
    let (mut warmed, _) = warm(dev.build, sim);
    let pricer = warmed.as_pricer().expect("the device prices a trajectory");
    let last = pricer
        .last_trajectory()
        .as_ref()
        .expect("the run left a record");
    last.resumes(cp, sim)
}

/// `x` moved one ulp up in the native precision of `dev`.
fn one_ulp_up(dev: &Device, x: f64) -> f64 {
    if dev.f32 {
        f64::from(f32::from_bits((x as f32).to_bits() + 1))
    } else {
        f64::from_bits(x.to_bits() + 1)
    }
}

#[test]
fn every_run_leaves_its_trajectory_as_the_record() {
    let sim = SimConfig::reduced_lj(ATOMS);
    for dev in &DEVICES {
        let mut built = (dev.build)();
        let run = built
            .run(&sim, RunOptions::steps(WARMUP_STEPS))
            .expect("the device runs");
        let record = built
            .as_pricer()
            .expect("the device prices a trajectory")
            .last_trajectory()
            .as_ref()
            .unwrap_or_else(|| panic!("{}: the run left no record", dev.label));
        assert!(
            record.resumes(&run.checkpoint, &sim),
            "{}: the record does not resume the run's own checkpoint",
            dev.label
        );
        assert_eq!(
            record.checkpoint(),
            run.checkpoint,
            "{}: the record is not the run's final state",
            dev.label
        );
    }
}

#[test]
fn resuming_from_the_devices_own_checkpoint_equals_a_cold_device() {
    let sim = SimConfig::reduced_lj(ATOMS);
    let [opteron, mta, ..] = &DEVICES;
    assert_eq!(
        warm(opteron.build, &sim).1,
        warm(mta.build, &sim).1,
        "the f64 devices share one trajectory"
    );
    for dev in &DEVICES {
        let cp = warm(dev.build, &sim).1;
        assert!(hits(dev, &sim, &cp), "{}: own checkpoint misses", dev.label);
        assert_warm_equals_cold(dev, &sim, &sim, &cp, "own checkpoint");
    }
}

#[test]
fn a_position_one_ulp_away_misses() {
    let sim = SimConfig::reduced_lj(ATOMS);
    for dev in &DEVICES {
        let cp = warm(dev.build, &sim).1;
        let mut nudged = cp.clone();
        // One coordinate of one atom in the middle of the array, one ulp of
        // the device's precision up.
        let p = &mut nudged.positions[ATOMS / 2];
        p.x = one_ulp_up(dev, p.x);
        assert!(
            !hits(dev, &sim, &nudged),
            "{}: one-ulp nudge hits",
            dev.label
        );
        assert_prime_differs(dev, &cp, &sim, &nudged, "one-ulp nudge");
        assert_warm_equals_cold(dev, &sim, &sim, &nudged, "one-ulp nudge");
        if dev.f32 {
            // One f64 ulp narrows to the same f32 state: a correct hit.
            let mut widened = cp.clone();
            let p = &mut widened.positions[ATOMS / 2];
            p.x = f64::from_bits(p.x.to_bits() + 1);
            assert!(
                hits(dev, &sim, &widened),
                "{}: one f64 ulp misses",
                dev.label
            );
            assert_warm_equals_cold(dev, &sim, &sim, &widened, "one f64 ulp");
        }
    }
}

#[test]
fn the_same_positions_under_another_scenario_or_cutoff_miss() {
    let sim = SimConfig::reduced_lj(ATOMS);
    let others = [
        ("morse/nvt", sim.with_scenario(ScenarioSpec::morse_nvt())),
        ("coulomb", sim.with_scenario(ScenarioSpec::coulomb_cutoff())),
        ("cutoff 2.4", SimConfig { cutoff: 2.4, ..sim }),
    ];
    for dev in &DEVICES {
        let cp = warm(dev.build, &sim).1;
        for (ctx, other) in &others {
            assert_prime_differs(dev, &cp, other, &cp, ctx);
            assert_warm_equals_cold(dev, &sim, other, &cp, ctx);
        }
    }
}

#[test]
fn another_atom_count_misses() {
    let sim = SimConfig::reduced_lj(ATOMS);
    let small = SimConfig::reduced_lj(108);
    for dev in &DEVICES {
        let cp = warm(dev.build, &small).1;
        assert_warm_equals_cold(dev, &sim, &small, &cp, "108 atoms after 256");
    }
}
