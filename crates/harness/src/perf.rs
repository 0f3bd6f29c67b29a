//! Performance-counter collection and time attribution for every device
//! model (DESIGN.md §10).
//!
//! One generic path replaces the per-device metric builders: run a
//! [`DeviceKind`] with a fresh [`PerfMonitor`] attached, then let
//! [`md_core::device::collect_metrics`] fold the [`md_core::device::DeviceRun`] into a
//! [`RunMetrics`] record — the device's own cost breakdown becomes a time
//! attribution that sums to `sim_seconds` (within
//! [`sim_perf::ATTRIBUTION_REL_TOL`]), the raw counters are absorbed
//! verbatim, and the device's derived quantities (utilization, achieved
//! GFLOP/s vs peak, bytes/flop, stall fractions) ride along. The
//! `perf_report` binary renders these records; `results/metrics/*.json`
//! archives them.
//!
//! Counters are observers, never inputs: the numbers here are read off
//! runs whose trajectory and simulated clock are bitwise-identical to
//! uninstrumented runs (asserted by `tests/perf_observability.rs`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::device::{DeviceKind, GpuModel};
use crate::error::HarnessError;
use cell_be::CellRunConfig;
use md_core::device::{collect_metrics, HostParallelism, MdDevice, RunOptions};
use md_core::params::SimConfig;
use mta::ThreadingMode;
use sim_obs::RunLedger;
use sim_perf::{PerfMonitor, RunMetrics};

/// Run one device kind with a monitor attached and fold the result into a
/// schema-versioned [`RunMetrics`] record.
pub fn device_metrics(
    kind: DeviceKind,
    sim: &SimConfig,
    steps: usize,
) -> Result<(RunMetrics, PerfMonitor), HarnessError> {
    device_metrics_par(kind, sim, steps, HostParallelism::Serial)
}

/// [`device_metrics`] with the device's simulated lanes executed on host
/// threads. The record is bitwise identical at any `par` (lane maps are
/// order-preserving and every reduction folds serially — DESIGN.md §12),
/// which is what lets the sweep cache serve a result computed at one
/// thread count to a sweep running at another.
pub fn device_metrics_par(
    kind: DeviceKind,
    sim: &SimConfig,
    steps: usize,
    par: HostParallelism,
) -> Result<(RunMetrics, PerfMonitor), HarnessError> {
    let mut dev = kind.build();
    let mut perf = PerfMonitor::new();
    let r = dev.run(
        sim,
        RunOptions::steps(steps)
            .with_perf(&mut perf)
            .with_host_parallelism(par),
    )?;
    let m = collect_metrics(dev.as_ref(), &r, sim.n_atoms, steps, &perf);
    Ok((m, perf))
}

/// Counters + attribution for one fault-free run of a simulated cluster
/// (DESIGN.md §14): the same run-and-collect path as [`device_metrics`],
/// with [`crate::ClusterKind`] as the construction point instead of
/// [`DeviceKind`]. The record's attribution carries the cluster timeline
/// buckets (compute / halo_exchange / all_reduce / recovery).
pub fn cluster_metrics(
    kind: crate::ClusterKind,
    sim: &SimConfig,
    steps: usize,
) -> Result<(RunMetrics, PerfMonitor), HarnessError> {
    let mut cluster = kind.build();
    let mut perf = PerfMonitor::new();
    let r = cluster.run(sim, RunOptions::steps(steps).with_perf(&mut perf))?;
    let m = collect_metrics(&cluster, &r, sim.n_atoms, steps, &perf);
    Ok((m, perf))
}

/// Run one device kind with a [`RunLedger`] attached and the run host-timed
/// from outside. The returned ledger carries the device's phase attribution,
/// counter series, any fault totals, and the two host measurements `obs
/// check` gates on (`host_wall_seconds`, `host_atom_steps_per_s`). The run
/// itself is bitwise-identical to an uninstrumented one (`tests/obs_ledger.rs`).
pub fn device_ledger(
    kind: DeviceKind,
    sim: &SimConfig,
    steps: usize,
) -> Result<(RunMetrics, RunLedger), HarnessError> {
    let mut dev = kind.build();
    let label = dev.label();
    let mut perf = PerfMonitor::new();
    let mut ledger = RunLedger::new(&label, &workload_label(sim, steps));
    let t0 = std::time::Instant::now();
    let r = dev.run(
        sim,
        RunOptions::steps(steps)
            .with_perf(&mut perf)
            .with_ledger(&mut ledger),
    )?;
    let wall = t0.elapsed().as_secs_f64();
    let mut m = collect_metrics(dev.as_ref(), &r, sim.n_atoms, steps, &perf);
    m.record_host_throughput(wall);
    record_host_throughput_ledger(&mut ledger, &label, sim, steps, wall);
    Ok((m, ledger))
}

/// [`device_ledger`] for a simulated cluster: node lifecycle events, per-rank
/// counters, and recovery activity all land in the same ledger format.
pub fn cluster_ledger(
    kind: crate::ClusterKind,
    sim: &SimConfig,
    steps: usize,
) -> Result<(RunMetrics, RunLedger), HarnessError> {
    let mut cluster = kind.build();
    let label = cluster.label();
    let mut perf = PerfMonitor::new();
    let mut ledger = RunLedger::new(&label, &workload_label(sim, steps));
    let t0 = std::time::Instant::now();
    let r = cluster.run(
        sim,
        RunOptions::steps(steps)
            .with_perf(&mut perf)
            .with_ledger(&mut ledger),
    )?;
    let wall = t0.elapsed().as_secs_f64();
    let mut m = collect_metrics(&cluster, &r, sim.n_atoms, steps, &perf);
    m.record_host_throughput(wall);
    record_host_throughput_ledger(&mut ledger, &label, sim, steps, wall);
    Ok((m, ledger))
}

/// The ledger's human-readable workload field, shared by every producer so
/// `obs diff` compares like against like.
pub fn workload_label(sim: &SimConfig, steps: usize) -> String {
    // The scenario token rides in the workload identity so ledgers from
    // different scenarios never alias. The faithful default appends
    // nothing, keeping pre-substrate ledger text byte-identical.
    if sim.scenario == md_core::scenario::ScenarioSpec::default() {
        format!("{} atoms x {} steps", sim.n_atoms, steps)
    } else {
        format!(
            "{} atoms x {} steps @ {}",
            sim.n_atoms,
            steps,
            sim.scenario_token()
        )
    }
}

/// Fold an externally measured wall-clock duration into a ledger as the two
/// host events the `obs check` gate reads. Host events are quarantined from
/// the canonical view, so recording them cannot perturb determinism checks.
pub fn record_host_throughput_ledger(
    ledger: &mut RunLedger,
    source: &str,
    sim: &SimConfig,
    steps: usize,
    wall_seconds: f64,
) {
    ledger.host_value(source, "host_wall_seconds", wall_seconds, "s");
    if wall_seconds > 0.0 {
        let atom_steps = sim.n_atoms as f64 * steps as f64;
        ledger.host_value(
            source,
            "host_atom_steps_per_s",
            atom_steps / wall_seconds,
            "atom_steps/s",
        );
    }
}

/// [`device_metrics`] with the device's simulated lanes executed on host
/// threads, plus a wall-clock measurement folded into the record
/// (`host_wall_seconds` / `host_atom_steps_per_s`).
///
/// The run itself is bitwise identical to [`device_metrics`] at any `par` —
/// only the wall-clock derived metrics differ between hosts. Device
/// simulators never read the host clock (sim-vet's wall-clock-discipline
/// rule), so the harness is the layer that times the run from outside.
pub fn device_metrics_host(
    kind: DeviceKind,
    sim: &SimConfig,
    steps: usize,
    par: HostParallelism,
) -> Result<(RunMetrics, PerfMonitor), HarnessError> {
    let t0 = std::time::Instant::now();
    let (mut m, perf) = device_metrics_par(kind, sim, steps, par)?;
    m.record_host_throughput(t0.elapsed().as_secs_f64());
    Ok((m, perf))
}

/// Counters + attribution for a Cell run at `run.n_spes` SPEs.
pub fn cell_metrics(
    sim: &SimConfig,
    steps: usize,
    run: CellRunConfig,
) -> Result<(RunMetrics, PerfMonitor), HarnessError> {
    device_metrics(DeviceKind::cell(run), sim, steps)
}

/// Counters + attribution for a GeForce 7900 GTX run.
pub fn gpu_metrics(sim: &SimConfig, steps: usize) -> (RunMetrics, PerfMonitor) {
    device_metrics(
        DeviceKind::Gpu {
            model: GpuModel::GeForce7900Gtx,
        },
        sim,
        steps,
    )
    .expect("the GPU device model is infallible")
}

/// Counters + attribution for the Opteron reference run.
pub fn opteron_metrics(sim: &SimConfig, steps: usize) -> (RunMetrics, PerfMonitor) {
    device_metrics(DeviceKind::Opteron, sim, steps)
        .expect("the Opteron reference device is infallible")
}

/// Counters + attribution for an MTA-2 run in `mode`.
pub fn mta_metrics(
    sim: &SimConfig,
    steps: usize,
    mode: ThreadingMode,
) -> (RunMetrics, PerfMonitor) {
    device_metrics(DeviceKind::Mta { mode }, sim, steps)
        .expect("the MTA device model is infallible")
}

/// One record per device (Cell best-config, GPU, Opteron, MTA full-MT)
/// at the same workload, in report order.
pub fn standard_metrics(sim: &SimConfig, steps: usize) -> Result<Vec<RunMetrics>, HarnessError> {
    Ok(vec![
        cell_metrics(sim, steps, CellRunConfig::best())?.0,
        gpu_metrics(sim, steps).0,
        opteron_metrics(sim, steps).0,
        mta_metrics(sim, steps, ThreadingMode::FullyMultithreaded).0,
    ])
}

/// Write one record to `results/metrics/<device>_n<atoms>_s<steps>.json`
/// (schema-versioned; validated by [`sim_perf::validate_run_metrics_json`]).
pub fn write_metrics_json(m: &RunMetrics) -> io::Result<PathBuf> {
    write_metrics_json_in(Path::new("results").join("metrics"), m)
}

/// [`write_metrics_json`] with an explicit output directory (created if
/// missing). Returns the path of the written file.
pub fn write_metrics_json_in(dir: impl AsRef<Path>, m: &RunMetrics) -> io::Result<PathBuf> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}_n{}_s{}.json", m.device, m.n_atoms, m.steps));
    fs::write(&path, m.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SimConfig {
        SimConfig::reduced_lj(108)
    }

    #[test]
    fn every_device_record_validates() {
        let sim = small();
        for m in standard_metrics(&sim, 3).expect("runs succeed") {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.device));
            assert!(m.sim_seconds > 0.0, "{}", m.device);
            sim_perf::validate_run_metrics_json(&m.to_json())
                .unwrap_or_else(|e| panic!("{}: {e}", m.device));
        }
    }

    #[test]
    fn cell_metrics_carry_flops_and_dma_traffic() {
        let sim = small();
        let (m, _) = cell_metrics(&sim, 2, CellRunConfig::best()).expect("cell run");
        assert_eq!(m.device, "cell-8spe");
        assert!(m.counter_value("cell.flops.simd") > 0.0);
        assert!(m.counter_value("cell.dma.bytes_in") > 0.0);
        assert!(m.derived_value("utilization") > 0.0);
        assert!(m.derived_value("bytes_per_op") > 0.0);
    }

    #[test]
    fn gpu_fractions_cover_the_whole_run() {
        let sim = small();
        let (m, _) = gpu_metrics(&sim, 2);
        let t = m.derived_value("transfer_overhead_fraction");
        let c = m.derived_value("compute_fraction");
        assert!(((t + c) - 1.0).abs() < 1e-9, "{t} + {c} != 1");
    }

    #[test]
    fn opteron_attribution_is_two_buckets() {
        let sim = small();
        let (m, _) = opteron_metrics(&sim, 2);
        let sum = m.attribution_seconds("compute") + m.attribution_seconds("memory_stall");
        assert!((sum - m.sim_seconds).abs() <= 1e-9 * m.sim_seconds);
        let f = m.derived_value("memory_stall_fraction");
        assert!((0.0..=1.0).contains(&f), "stall fraction out of range: {f}");
    }

    #[test]
    fn mta_full_mt_keeps_streams_busy() {
        let sim = small();
        let (m, _) = mta_metrics(&sim, 2, ThreadingMode::FullyMultithreaded);
        let occ = m.derived_value("avg_stream_occupancy");
        assert!(occ > 1.0, "full-MT run should use many streams: {occ}");
        let phantom = m.derived_value("phantom_fraction");
        assert!(phantom < 0.05, "full-MT run should be nearly stall-free");
    }

    #[test]
    fn host_parallel_metrics_match_serial_and_carry_throughput() {
        let sim = small();
        for kind in [DeviceKind::Opteron, DeviceKind::cell_best()] {
            let (serial, _) = device_metrics(kind, &sim, 2).expect("serial run");
            let (par, _) = device_metrics_host(kind, &sim, 2, HostParallelism::Threads(2))
                .expect("threaded run");
            // Host threads only change wall-clock, never the simulation.
            assert_eq!(par.sim_seconds, serial.sim_seconds, "{}", serial.device);
            assert_eq!(par.attribution, serial.attribution, "{}", serial.device);
            assert_eq!(par.counters, serial.counters, "{}", serial.device);
            assert!(par.derived_value("host_wall_seconds") > 0.0);
            assert!(par.derived_value("host_atom_steps_per_s") > 0.0);
            par.validate().expect("record stays valid");
        }
    }

    #[test]
    fn metrics_json_round_trips_to_disk() {
        let sim = small();
        let (m, _) = opteron_metrics(&sim, 1);
        let dir = std::env::temp_dir().join("mdea-perf-roundtrip");
        let path = write_metrics_json_in(&dir, &m).expect("write");
        let text = fs::read_to_string(&path).expect("read back");
        sim_perf::validate_run_metrics_json(&text).expect("valid");
        let _ = fs::remove_dir_all(&dir);
    }
}
