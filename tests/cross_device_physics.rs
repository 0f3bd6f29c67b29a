//! Cross-crate physics agreement: every simulated device and the host
//! `Simulation` must produce the same trajectory for the same workload — the
//! property that makes the timing comparisons meaningful.
//!
//! Devices are built through [`harness::DeviceKind`] and driven through the
//! unified [`MdDevice`](md_core::device::MdDevice) run API.

use cell_be::{SpawnPolicy, SpeKernelVariant};
use harness::{DeviceKind, GpuModel};
use md_core::checkpoint::SystemCheckpoint;
use md_core::device::{DeviceRun, HostParallelism, RunOptions};
use md_core::params::SimConfig;
use md_core::reference::run as reference;
use md_core::scenario::ScenarioSpec;
use md_core::sim::Simulation;
use mta::ThreadingMode;

fn device_run(kind: DeviceKind, sim: &SimConfig, steps: usize) -> DeviceRun {
    kind.build()
        .run(sim, RunOptions::steps(steps))
        .expect("paper workloads succeed")
}

const N: usize = 500;
const STEPS: usize = 5;

#[test]
fn opteron_matches_f64_reference() {
    let sim = SimConfig::reduced_lj(N);
    let run = device_run(DeviceKind::Opteron, &sim, STEPS);
    let expect = reference::<f64>(&sim, STEPS);
    assert!(
        (run.energies.total - expect.total).abs() < 1e-9 * expect.total.abs(),
        "{} vs {}",
        run.energies.total,
        expect.total
    );
}

#[test]
fn mta_matches_f64_reference() {
    let sim = SimConfig::reduced_lj(N);
    let kind = DeviceKind::Mta {
        mode: ThreadingMode::FullyMultithreaded,
    };
    let run = device_run(kind, &sim, STEPS);
    let expect = reference::<f64>(&sim, STEPS);
    assert!(
        (run.energies.total - expect.total).abs() < 1e-9 * expect.total.abs(),
        "{} vs {}",
        run.energies.total,
        expect.total
    );
}

#[test]
fn cell_matches_f32_reference() {
    let sim = SimConfig::reduced_lj(N);
    let run = device_run(DeviceKind::cell_best(), &sim, STEPS);
    let expect = reference::<f32>(&sim, STEPS);
    assert!(
        (run.energies.total - expect.total).abs() < 2e-3 * expect.total.abs(),
        "{} vs {}",
        run.energies.total,
        expect.total
    );
}

#[test]
fn gpu_matches_f32_reference() {
    let sim = SimConfig::reduced_lj(N);
    let kind = DeviceKind::Gpu {
        model: GpuModel::GeForce7900Gtx,
    };
    let run = device_run(kind, &sim, STEPS);
    let expect = reference::<f32>(&sim, STEPS);
    assert!(
        (run.energies.total - expect.total).abs() < 2e-3 * expect.total.abs(),
        "{} vs {}",
        run.energies.total,
        expect.total
    );
}

#[test]
fn all_devices_agree_with_each_other() {
    let sim = SimConfig::reduced_lj(N);
    let opteron = device_run(DeviceKind::Opteron, &sim, STEPS).energies.total;
    let cell = device_run(DeviceKind::cell_best(), &sim, STEPS)
        .energies
        .total;
    let gpu = device_run(
        DeviceKind::Gpu {
            model: GpuModel::GeForce7900Gtx,
        },
        &sim,
        STEPS,
    )
    .energies
    .total;
    let mta = device_run(
        DeviceKind::Mta {
            mode: ThreadingMode::FullyMultithreaded,
        },
        &sim,
        STEPS,
    )
    .energies
    .total;
    for (name, e, tol) in [("cell", cell, 2e-3), ("gpu", gpu, 2e-3), ("mta", mta, 1e-9)] {
        let err = ((e - opteron) / opteron).abs();
        assert!(err < tol, "{name} diverged from opteron by {err:.2e}");
    }
}

#[test]
fn every_spe_variant_and_spawn_policy_gives_same_physics() {
    let sim = SimConfig::reduced_lj(256);
    let expect = reference::<f32>(&sim, 3);
    for variant in SpeKernelVariant::ALL {
        for policy in [SpawnPolicy::RespawnEveryStep, SpawnPolicy::LaunchOnce] {
            for n_spes in [1usize, 3, 8] {
                let kind = DeviceKind::Cell {
                    n_spes,
                    policy,
                    variant,
                };
                let run = device_run(kind, &sim, 3);
                let err = ((run.energies.total - expect.total) / expect.total).abs();
                assert!(
                    err < 2e-3,
                    "{variant:?}/{policy:?}/{n_spes} SPEs diverged: {err:.2e}"
                );
            }
        }
    }
}

#[test]
fn device_timings_are_positive_and_finite() {
    let sim = SimConfig::reduced_lj(256);
    let kinds = [
        DeviceKind::Opteron,
        DeviceKind::cell_best(),
        DeviceKind::Gpu {
            model: GpuModel::GeForce7900Gtx,
        },
        DeviceKind::Mta {
            mode: ThreadingMode::FullyMultithreaded,
        },
    ];
    for kind in kinds {
        let t = device_run(kind, &sim, 2).sim_seconds;
        assert!(
            t.is_finite() && t > 0.0,
            "{} produced runtime {t}",
            kind.label()
        );
    }
}

/// There is one MD engine: `Simulation` and the Opteron evaluate forces
/// through the same shared-evaluator function, so after the same steps their
/// states and energies are bitwise equal, at any host parallelism. 864 atoms
/// is the smallest lattice whose box spans four cutoffs, so the evaluator's
/// j-block culling engages.
#[test]
fn simulation_is_the_opteron_engine_bit_for_bit() {
    for token in [
        "default",
        "morse:d1,a2,r1.2",
        "coul:q1",
        "lj:e1,s1/nvt:t0.728,k0.5",
    ] {
        let spec: ScenarioSpec = token.parse().expect("valid scenario");
        let sim = SimConfig::reduced_lj(864).with_scenario(spec);
        let opteron = device_run(DeviceKind::Opteron, &sim, STEPS);
        for par in [HostParallelism::Serial, HostParallelism::Threads(4)] {
            let mut host = Simulation::prepare(sim).with_host_parallelism(par);
            let energies = host.run(STEPS);
            let state = SystemCheckpoint::capture(&host.system, STEPS as u64);
            assert!(
                state == opteron.checkpoint,
                "{token} {par:?}: state differs"
            );
            assert_eq!(energies, opteron.energies, "{token} {par:?}");
        }
    }
}
