//! The Opteron resumes from its own last evaluation (DESIGN.md §9.3).
//!
//! A run that starts from the state the device's previous run ended in
//! takes its priming force evaluation from the device's record of that
//! run's final evaluation instead of recomputing it; the prime's charge is
//! unchanged. A freshly built device has no record, so it is the oracle: a
//! warm and a cold device resumed from the same checkpoint must report the
//! same bits — simulated seconds, energies, the checkpoint (accelerations
//! included), attribution, ops, bytes moved and every perf counter — on the
//! hit and on every kind of miss. Each miss case also checks that the prime
//! it forces really differs from the recorded one, so a wrong hit could not
//! pass unseen.

use md_core::checkpoint::SystemCheckpoint;
use md_core::device::{DeviceRun, MdDevice, PerfMonitor, RunOptions};
use md_core::params::SimConfig;
use md_core::scenario::ScenarioSpec;
use opteron::OpteronCpu;

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

fn resume(dev: &mut OpteronCpu, sim: &SimConfig, cp: &SystemCheckpoint, steps: usize) -> Bits {
    let mut perf = PerfMonitor::new();
    let run = dev
        .run(
            sim,
            RunOptions::steps(steps)
                .from_checkpoint(cp)
                .with_perf(&mut perf),
        )
        .expect("the Opteron runs");
    Bits::of(&run, &perf)
}

/// A device whose last run was `WARMUP_STEPS` of `sim` from the lattice,
/// and the checkpoint that run ended in.
fn warm(sim: &SimConfig) -> (OpteronCpu, SystemCheckpoint) {
    let mut dev = OpteronCpu::paper_reference();
    let run = dev
        .run(sim, RunOptions::steps(WARMUP_STEPS))
        .expect("the Opteron runs");
    (dev, run.checkpoint)
}

/// The primed accelerations a cold device computes for `cp` under `sim`.
fn cold_prime(sim: &SimConfig, cp: &SystemCheckpoint) -> SystemCheckpoint {
    OpteronCpu::paper_reference()
        .run(sim, RunOptions::steps(0).from_checkpoint(cp))
        .expect("the Opteron runs")
        .checkpoint
}

/// Resume a device warmed on `recorded` and a fresh one from `cp` under
/// `sim`, for 0 steps (the prime alone) and for 2, and require equal bits.
fn assert_warm_equals_cold(
    recorded: &SimConfig,
    sim: &SimConfig,
    cp: &SystemCheckpoint,
    ctx: &str,
) {
    for steps in [0, 2] {
        let (mut dev, _) = warm(recorded);
        let warm = resume(&mut dev, sim, cp, steps);
        let cold = resume(&mut OpteronCpu::paper_reference(), sim, cp, steps);
        assert_eq!(
            warm, cold,
            "{ctx}, {steps} steps: warm device differs from a cold one"
        );
    }
}

/// A miss must force a prime that differs from the recorded one; otherwise
/// the warm/cold comparison could not catch a wrong hit.
fn assert_prime_differs(
    recorded: &SystemCheckpoint,
    sim: &SimConfig,
    cp: &SystemCheckpoint,
    ctx: &str,
) {
    assert_ne!(
        cold_prime(sim, cp).accelerations,
        recorded.accelerations,
        "{ctx}: the case leaves the prime unchanged, so it tests nothing"
    );
}

#[test]
fn resuming_from_the_devices_own_checkpoint_equals_a_cold_device() {
    let sim = SimConfig::reduced_lj(ATOMS);
    let (_, cp) = warm(&sim);
    assert_warm_equals_cold(&sim, &sim, &cp, "own checkpoint");
}

#[test]
fn a_position_one_ulp_away_misses() {
    let sim = SimConfig::reduced_lj(ATOMS);
    let (_, cp) = warm(&sim);
    let mut nudged = cp.clone();
    // One coordinate of one atom in the middle of the array, one ulp up.
    let p = &mut nudged.positions[ATOMS / 2];
    p.x = f64::from_bits(p.x.to_bits() + 1);
    assert_prime_differs(&cp, &sim, &nudged, "one-ulp nudge");
    assert_warm_equals_cold(&sim, &sim, &nudged, "one-ulp nudge");
}

#[test]
fn the_same_positions_under_another_scenario_or_cutoff_miss() {
    let sim = SimConfig::reduced_lj(ATOMS);
    let (_, cp) = warm(&sim);
    let others = [
        ("morse/nvt", sim.with_scenario(ScenarioSpec::morse_nvt())),
        ("coulomb", sim.with_scenario(ScenarioSpec::coulomb_cutoff())),
        ("cutoff 2.4", SimConfig { cutoff: 2.4, ..sim }),
    ];
    for (ctx, other) in others {
        assert_prime_differs(&cp, &other, &cp, ctx);
        assert_warm_equals_cold(&sim, &other, &cp, ctx);
    }
}

#[test]
fn another_atom_count_misses() {
    let sim = SimConfig::reduced_lj(ATOMS);
    let small = SimConfig::reduced_lj(108);
    let (_, cp) = warm(&small);
    assert_warm_equals_cold(&sim, &small, &cp, "108 atoms after 256");
}
