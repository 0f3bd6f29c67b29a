//! Regenerates the two committed benchmark baselines:
//!
//! - `BENCH_seed.json` — the *simulated-seconds* baseline for every paper
//!   figure/device at the paper's workload sizes, in deterministic sorted
//!   order. Run from the repo root after any intentional cost-model change
//!   and commit the result; CI and reviewers diff against it to catch
//!   unintended timing drift.
//! - `BENCH_host.json` — the *host wall-clock* snapshot for every device
//!   (Cell best-config, GPU, MTA full-MT, Opteron) at the reference
//!   workload (2048 atoms × 10 steps): one row per host thread count in
//!   {1, 2, 4, 8}. Simulated results are bitwise identical across every row
//!   of a device (asserted here); only wall time varies, so this file is
//!   provenance (which host, how fast), not a CI-diffable artifact.
//!
//! Each invocation also *appends* one best host row per device to
//! `BENCH_trajectory.json` (schema-versioned, append-only), so the repo
//! accumulates a performance history across PRs instead of overwriting a
//! single snapshot. `obs check` gates regressions against `BENCH_host.json`;
//! the trajectory is the longitudinal record behind that gate.

use harness::{DeviceKind, PAPER_STEPS};
use md_core::device::HostParallelism;
use md_core::params::SimConfig;
use sim_sweep::figures::{DeviceHostBench, HostBenchRun};
use sim_sweep::{figures, run_sweep, spec, EngineConfig, SweepError};
use std::process::ExitCode;

const HOST_BENCH_ATOMS: usize = 2048;
const HOST_BENCH_STEPS: usize = 10;
/// Wall-clock repetitions per configuration; the minimum is recorded (the
/// standard wall-time statistic — noise only ever adds).
const HOST_BENCH_REPEATS: usize = 3;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_seed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), SweepError> {
    let report = run_sweep(&spec::bench_seed(), &EngineConfig::default())?;
    let json = figures::bench_seed_json(&report, PAPER_STEPS);
    std::fs::write("BENCH_seed.json", &json)?;
    println!(
        "wrote BENCH_seed.json ({} benchmark entries, {} steps each)",
        json.matches("\"figure\"").count(),
        PAPER_STEPS
    );
    cluster_bench()?;
    let entries = host_bench()?;
    append_trajectory(entries)
}

/// Append each device's best host row to the cross-PR performance history.
/// The timestamp is stamped inside `sim-obs` (the observer layer owns the
/// stack's only `SystemTime` call).
fn append_trajectory(entries: Vec<sim_obs::TrajectoryEntry>) -> Result<(), SweepError> {
    let path = std::path::Path::new("BENCH_trajectory.json");
    let count = entries.len();
    for entry in entries {
        sim_obs::append_entry(path, entry).map_err(std::io::Error::other)?;
    }
    println!("appended {count} BENCH_trajectory.json entries");
    Ok(())
}

/// The cluster strong/weak-scaling baseline rides along with the seed
/// baseline (the `cluster` binary writes the identical bytes — both pull
/// from the same result cache).
fn cluster_bench() -> Result<(), SweepError> {
    let cfg = EngineConfig::default();
    let strong =
        sim_sweep::run_cluster_sweep(&sim_sweep::strong_scaling(DeviceKind::Opteron), &cfg)?;
    let weak = sim_sweep::run_cluster_sweep(&sim_sweep::weak_scaling(DeviceKind::Opteron), &cfg)?;
    let json = sim_sweep::bench_cluster_json(&strong, &weak);
    std::fs::write("BENCH_cluster.json", &json)?;
    println!(
        "wrote BENCH_cluster.json ({} scaling entries)",
        strong.len() + weak.len()
    );
    Ok(())
}

/// Min-of-N wall-clock for one configuration. The harness does the timing
/// (`device_metrics_host`); this layer only picks the best repetition and
/// checks the bitwise-identity contract across configurations.
fn best_of(
    measure: impl Fn() -> Result<sim_perf::RunMetrics, SweepError>,
) -> Result<(HostBenchRun, f64), SweepError> {
    let mut best: Option<sim_perf::RunMetrics> = None;
    for _ in 0..HOST_BENCH_REPEATS {
        let m = measure()?;
        let faster = best.as_ref().is_none_or(|b| {
            m.derived_value("host_wall_seconds") < b.derived_value("host_wall_seconds")
        });
        if faster {
            best = Some(m);
        }
    }
    let m = best.expect("at least one repetition ran");
    Ok((
        HostBenchRun {
            host_threads: 0, // caller fills in
            wall_seconds: m.derived_value("host_wall_seconds"),
            atom_steps_per_s: m.derived_value("host_atom_steps_per_s"),
        },
        m.sim_seconds,
    ))
}

/// The devices the host bench covers: the paper's four ports.
fn host_bench_kinds() -> [DeviceKind; 4] {
    [
        DeviceKind::cell_best(),
        DeviceKind::Gpu {
            model: harness::GpuModel::GeForce7900Gtx,
        },
        DeviceKind::Mta {
            mode: mta::ThreadingMode::FullyMultithreaded,
        },
        DeviceKind::Opteron,
    ]
}

/// Bench one device: one row per host thread count, with the host-parallel
/// bitwise contract asserted between every pair of rows.
fn host_bench_device(kind: DeviceKind, sim: &SimConfig) -> Result<DeviceHostBench, SweepError> {
    let mut runs = Vec::new();
    let mut sim_seconds = Vec::new();
    for t in [1usize, 2, 4, 8] {
        let (mut r, s) = best_of(|| {
            harness::device_metrics_host(
                kind,
                sim,
                HOST_BENCH_STEPS,
                HostParallelism::from_threads(t),
            )
            .map(|(m, _)| m)
            .map_err(SweepError::Render)
        })?;
        r.host_threads = t;
        runs.push(r);
        sim_seconds.push(s.to_bits());
    }
    // The whole point of the document: every host thread count simulates
    // the identical run.
    assert!(
        sim_seconds.iter().all(|&s| s == sim_seconds[0]),
        "{}: simulated seconds drifted across host thread counts",
        kind.label()
    );
    Ok(DeviceHostBench {
        device: kind.label(),
        sim_seconds: f64::from_bits(sim_seconds[0]),
        runs,
    })
}

fn host_bench() -> Result<Vec<sim_obs::TrajectoryEntry>, SweepError> {
    let sim = SimConfig::reduced_lj(HOST_BENCH_ATOMS);
    let mut devices = Vec::new();
    for kind in host_bench_kinds() {
        devices.push(host_bench_device(kind, &sim)?);
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let note = format!(
        "best of {HOST_BENCH_REPEATS} repetitions per row; measured on a {cores}-core host"
    );
    let json = figures::bench_host_json(HOST_BENCH_ATOMS, HOST_BENCH_STEPS, &devices, &note);
    std::fs::write("BENCH_host.json", &json)?;
    println!("wrote BENCH_host.json ({} devices)", devices.len());

    Ok(devices
        .iter()
        .map(|dev| {
            let best_run = dev
                .runs
                .iter()
                .min_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds))
                .expect("at least one host-thread row ran");
            sim_obs::TrajectoryEntry {
                recorded_unix_s: 0, // stamped at append time
                device: dev.device.clone(),
                n_atoms: HOST_BENCH_ATOMS as u64,
                steps: HOST_BENCH_STEPS as u64,
                sim_seconds: dev.sim_seconds,
                host_wall_seconds: best_run.wall_seconds,
                host_atom_steps_per_s: best_run.atom_steps_per_s,
                note: format!(
                    "bench_seed host bench, best of {HOST_BENCH_REPEATS} repetitions at host_threads={}",
                    best_run.host_threads
                ),
            }
        })
        .collect())
}
