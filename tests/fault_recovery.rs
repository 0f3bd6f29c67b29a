//! Fault-injection + recovery invariants at paper scale (2048 atoms, 10
//! steps). Every build compiles the device fault sites; these tests arm
//! them with seeded plans at construction.
//!
//! The contract under test (DESIGN.md §9): injected faults may only add
//! *simulated* recovery time. Trajectories — positions, velocities,
//! accelerations, energies — must be bit-identical to the fault-free run on
//! the same device, and every paper experiment must complete under faults
//! via retry/checkpoint/fallback without panicking.
//!
//! Every device is constructed through [`DeviceKind`] and driven through the
//! unified [`MdDevice`](md_core::device::MdDevice) run API; trajectory
//! equality is asserted on the returned [`SystemCheckpoint`] (f32 devices
//! widen losslessly to f64 at capture, so the comparison stays bitwise).

use harness::{run_supervised, DeviceKind, GpuModel, SupervisorConfig};
use md_core::device::{DeviceRun, RunOptions};
use md_core::params::SimConfig;
use mta::ThreadingMode;
use proptest::prelude::*;
use sim_fault::FaultPlan;

const PAPER_ATOMS: usize = 2048;
const PAPER_STEPS: usize = 10;

fn paper_sim() -> SimConfig {
    SimConfig::reduced_lj(PAPER_ATOMS)
}

fn clean_run(kind: DeviceKind, sim: &SimConfig, steps: usize) -> DeviceRun {
    kind.build()
        .run(sim, RunOptions::steps(steps))
        .expect("fault-free paper workloads succeed")
}

fn faulted_run(kind: DeviceKind, plan: FaultPlan, sim: &SimConfig, steps: usize) -> DeviceRun {
    kind.build_faulted(plan)
        .run(sim, RunOptions::steps(steps))
        .expect("the injected rate stays within the retry budget")
}

/// Bitwise trajectory equality between two run checkpoints.
fn assert_identical(a: &DeviceRun, b: &DeviceRun) {
    assert_eq!(
        a.checkpoint.positions, b.checkpoint.positions,
        "positions must be bit-identical"
    );
    assert_eq!(
        a.checkpoint.velocities, b.checkpoint.velocities,
        "velocities must be bit-identical"
    );
    assert_eq!(
        a.checkpoint.accelerations, b.checkpoint.accelerations,
        "accelerations must be bit-identical"
    );
}

#[test]
fn cell_paper_workload_recovers_bit_identically() {
    let sim = paper_sim();
    let kind = DeviceKind::cell_best();
    let clean = clean_run(kind, &sim, PAPER_STEPS);
    let faulty = faulted_run(kind, FaultPlan::new(2024, 0.02), &sim, PAPER_STEPS);

    assert!(
        faulty.faults.any(),
        "seed 2024 @ 2% must fire at least once"
    );
    assert_identical(&clean, &faulty);
    assert_eq!(clean.energies.total, faulty.energies.total);
    assert!(
        faulty.sim_seconds > clean.sim_seconds,
        "recovery must cost simulated time: {} !> {}",
        faulty.sim_seconds,
        clean.sim_seconds
    );
}

#[test]
fn gpu_paper_workload_recovers_bit_identically() {
    let sim = paper_sim();
    let kind = DeviceKind::Gpu {
        model: GpuModel::GeForce7900Gtx,
    };
    let clean = clean_run(kind, &sim, PAPER_STEPS);
    let faulty = faulted_run(kind, FaultPlan::new(7, 0.1), &sim, PAPER_STEPS);

    assert!(faulty.faults.any());
    assert_identical(&clean, &faulty);
    assert_eq!(clean.energies.total, faulty.energies.total);
    assert!(faulty.sim_seconds > clean.sim_seconds);
}

#[test]
fn mta_paper_workload_recovers_bit_identically() {
    let sim = paper_sim();
    let kind = DeviceKind::Mta {
        mode: ThreadingMode::FullyMultithreaded,
    };
    let clean = clean_run(kind, &sim, PAPER_STEPS);
    let faulty = faulted_run(kind, FaultPlan::new(5, 0.15), &sim, PAPER_STEPS);

    assert!(faulty.faults.any());
    assert_identical(&clean, &faulty);
    assert_eq!(clean.energies.total, faulty.energies.total);
    assert!(faulty.sim_seconds > clean.sim_seconds);
}

#[test]
fn opteron_paper_workload_recovers_bit_identically() {
    let sim = paper_sim();
    let clean = clean_run(DeviceKind::Opteron, &sim, PAPER_STEPS);
    let faulty = faulted_run(
        DeviceKind::Opteron,
        FaultPlan::new(17, 0.2),
        &sim,
        PAPER_STEPS,
    );

    assert!(faulty.faults.any());
    assert_identical(&clean, &faulty);
    assert_eq!(clean.energies.total, faulty.energies.total);
    assert!(faulty.sim_seconds > clean.sim_seconds);
}

/// The headline acceptance check: a supervised faulted run reproduces the
/// fault-free trajectory bit for bit while its simulated runtime is strictly
/// larger (retries and backoff are on the clock).
#[test]
fn supervised_recovery_is_bit_identical_and_strictly_slower() {
    let sim = paper_sim();
    let cfg = SupervisorConfig::default();

    let mut clean_dev = DeviceKind::cell_best().build();
    let clean = run_supervised(clean_dev.as_mut(), &sim, PAPER_STEPS, &cfg, None);

    let mut faulty_dev = DeviceKind::cell_best().build_faulted(FaultPlan::new(41, 0.02));
    let faulty = run_supervised(faulty_dev.as_mut(), &sim, PAPER_STEPS, &cfg, None);

    assert!(!faulty.report.fell_back, "2% faults must be recoverable");
    assert!(faulty.report.faults.any());
    assert_eq!(faulty.checkpoint.positions, clean.checkpoint.positions);
    assert_eq!(faulty.checkpoint.velocities, clean.checkpoint.velocities);
    assert_eq!(
        faulty.checkpoint.accelerations,
        clean.checkpoint.accelerations
    );
    assert_eq!(faulty.energies.total, clean.energies.total);
    assert!(
        faulty.sim_seconds > clean.sim_seconds,
        "recovered runtime must be strictly larger: {} !> {}",
        faulty.sim_seconds,
        clean.sim_seconds
    );
}

/// Every device the paper's figures run completes under nonzero fault
/// rates — retries, checkpoints, and fallbacks included — with zero panics.
/// The kinds are the distinct devices of the six figure specs; a reduced
/// size keeps the suite fast, the mechanisms exercised are the same.
#[test]
fn all_paper_experiments_complete_under_faults() {
    let mut kinds: Vec<DeviceKind> = Vec::new();
    for spec in sim_sweep::registry() {
        if sim_sweep::figures::renderer(spec.name).is_none() {
            continue;
        }
        for p in spec.points {
            if !kinds.contains(&p.device) {
                kinds.push(p.device);
            }
        }
    }
    let count = |f: fn(&DeviceKind) -> bool| kinds.iter().filter(|k| f(k)).count();
    assert_eq!(count(|k| matches!(k, DeviceKind::CellAccel { .. })), 6);
    assert_eq!(count(|k| matches!(k, DeviceKind::Cell { .. })), 4);
    assert_eq!(count(|k| matches!(k, DeviceKind::Mta { .. })), 2);
    assert!(kinds.contains(&DeviceKind::CellPpe));
    assert!(kinds.contains(&DeviceKind::Opteron));
    assert!(kinds.contains(&DeviceKind::Gpu {
        model: GpuModel::GeForce7900Gtx
    }));

    let sim = SimConfig::reduced_lj(512);
    let steps = 3;
    let plan = FaultPlan::new(99, 0.05);
    for kind in kinds {
        let sim_seconds = match kind {
            // The single-SPE acceleration probe times one force evaluation
            // and the PPE-only path has no fault sites: both run plain.
            DeviceKind::CellAccel { .. } => clean_run(kind, &sim, 0).sim_seconds,
            DeviceKind::CellPpe => clean_run(kind, &sim, steps).sim_seconds,
            _ => {
                let mut dev = kind.build_faulted(plan);
                let cfg = SupervisorConfig::default();
                run_supervised(dev.as_mut(), &sim, steps, &cfg, None).sim_seconds
            }
        };
        assert!(
            sim_seconds.is_finite() && sim_seconds > 0.0,
            "{}: {sim_seconds} s under faults",
            kind.label()
        );
    }
}

/// A hopeless fault rate cannot break completion either: the supervisor
/// degrades to the Opteron reference and still produces valid physics.
#[test]
fn hopeless_rates_degrade_gracefully_at_paper_scale() {
    let sim = paper_sim();
    let mut dev = DeviceKind::cell_best().build_faulted(FaultPlan::new(0, 1.0));
    // One-segment supervision keeps the degenerate case cheap.
    let cfg = SupervisorConfig {
        checkpoint_interval: PAPER_STEPS,
        ..SupervisorConfig::default()
    };
    let run = run_supervised(dev.as_mut(), &sim, PAPER_STEPS, &cfg, None);
    assert!(run.report.fell_back);
    assert!(run.energies.total.is_finite());
    assert_eq!(run.checkpoint.step, PAPER_STEPS as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Over arbitrary seeds and rates, injected faults change nothing but
    /// the simulated clock: the MTA trajectory stays bit-identical and the
    /// runtime never shrinks.
    #[test]
    fn faults_change_only_simulated_time_mta(seed in 0u64..1_000_000, rate in 0.0f64..0.4) {
        let sim = SimConfig::reduced_lj(108);
        let kind = DeviceKind::Mta { mode: ThreadingMode::FullyMultithreaded };
        let clean = clean_run(kind, &sim, 3);
        let faulty = faulted_run(kind, FaultPlan::new(seed, rate), &sim, 3);

        prop_assert_eq!(&clean.checkpoint.positions, &faulty.checkpoint.positions);
        prop_assert_eq!(&clean.checkpoint.velocities, &faulty.checkpoint.velocities);
        prop_assert_eq!(clean.energies.total, faulty.energies.total);
        prop_assert!(faulty.sim_seconds >= clean.sim_seconds);
        if faulty.faults.extra_seconds > 0.0 {
            prop_assert!(faulty.sim_seconds > clean.sim_seconds);
        }
    }

    /// Same invariant on the GPU's serial timeline, where the slowdown must
    /// equal the charged recovery time exactly.
    #[test]
    fn faults_change_only_simulated_time_gpu(seed in 0u64..1_000_000, rate in 0.0f64..0.4) {
        let sim = SimConfig::reduced_lj(108);
        let kind = DeviceKind::Gpu { model: GpuModel::GeForce7900Gtx };
        let clean = clean_run(kind, &sim, 3);
        let faulty = faulted_run(kind, FaultPlan::new(seed, rate), &sim, 3);

        prop_assert_eq!(&clean.checkpoint.positions, &faulty.checkpoint.positions);
        prop_assert_eq!(clean.energies.total, faulty.energies.total);
        let slowdown = faulty.sim_seconds - clean.sim_seconds;
        prop_assert!((slowdown - faulty.faults.extra_seconds).abs() <= 1e-12 * faulty.sim_seconds);
    }
}
