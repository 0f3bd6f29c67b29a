//! Performance-counter collection and time attribution for every device
//! model (DESIGN.md §10).
//!
//! One generic path serves every device: run a [`DeviceKind`] with a fresh
//! [`PerfMonitor`] attached, then let [`md_core::device::collect_metrics`]
//! fold the [`md_core::device::DeviceRun`] into a [`RunMetrics`] record —
//! the device's own cost breakdown becomes a time attribution that sums to
//! `sim_seconds` (within [`sim_perf::ATTRIBUTION_REL_TOL`]), the raw counters
//! are absorbed verbatim, and the device's derived quantities (utilization,
//! achieved GFLOP/s vs peak, bytes/flop, stall fractions) ride along. The
//! `perf_report` binary renders these records; `results/metrics/*.json`
//! archives them.
//!
//! Four entry points cover every caller: [`device_metrics`] (one device,
//! any host parallelism), [`host_group_metrics`] (several f64 devices
//! pricing one trajectory), [`cluster_metrics`] (one simulated cluster) and
//! [`device_ledger`] (one device with a [`RunLedger`] attached and the run
//! host-timed from outside). Callers that want a wall clock on a plain
//! record time the call themselves and fold it in with
//! [`RunMetrics::record_host_throughput`].
//!
//! Counters are observers, never inputs: the numbers here are read off
//! runs whose trajectory and simulated clock are bitwise-identical to
//! uninstrumented runs (asserted by `tests/perf_observability.rs`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::device::DeviceKind;
use crate::error::HarnessError;
use md_core::device::{collect_metrics, HostParallelism, MdDevice, RunOptions};
use md_core::params::SimConfig;
use md_core::trajectory::HostTrajectory;
use sim_obs::RunLedger;
use sim_perf::{PerfMonitor, RunMetrics};

/// Run one device kind with a monitor attached and fold the result into a
/// schema-versioned [`RunMetrics`] record. `par` executes the device's
/// simulated lanes on host threads; the record is bitwise identical at any
/// `par` (lane maps are order-preserving and every reduction folds serially
/// — DESIGN.md §12), which is what lets the sweep cache serve a result
/// computed at one thread count to a sweep running at another.
pub fn device_metrics(
    kind: DeviceKind,
    sim: &SimConfig,
    steps: usize,
    par: HostParallelism,
) -> Result<RunMetrics, HarnessError> {
    let mut dev = kind.build();
    let mut perf = PerfMonitor::new();
    let r = dev.run(
        sim,
        RunOptions::steps(steps)
            .with_perf(&mut perf)
            .with_host_parallelism(par),
    )?;
    Ok(collect_metrics(dev.as_ref(), &r, sim.n_atoms, steps, &perf))
}

/// [`device_metrics`] for kinds whose devices price the f64 host trajectory
/// ([`DeviceKind::prices_host_trajectory`]), all from a fresh lattice: the
/// trajectory is driven once, on `par`, and the kinds price it concurrently
/// on `par`. Each record is bitwise the one [`device_metrics`] returns for
/// its kind alone, because such a device's run is exactly that drive and
/// that price.
pub fn host_group_metrics(
    kinds: &[DeviceKind],
    sim: &SimConfig,
    steps: usize,
    par: HostParallelism,
) -> Result<Vec<RunMetrics>, HarnessError> {
    let invalid = |k: DeviceKind| {
        HarnessError::InvalidInput(format!("{k} does not price the f64 host trajectory"))
    };
    if let Some(&k) = kinds.iter().find(|k| !k.prices_host_trajectory()) {
        return Err(invalid(k));
    }
    let traj = HostTrajectory::drive(sim, None, steps, par, None);
    md_core::parallel::map_indexed(par, kinds.len(), |i| {
        let mut dev = kinds[i].build();
        let pricer = dev.as_host_pricer().ok_or_else(|| invalid(kinds[i]))?;
        let mut perf = PerfMonitor::new();
        let run = pricer.price(&traj, &mut perf);
        Ok(collect_metrics(
            dev.as_ref(),
            &run,
            sim.n_atoms,
            steps,
            &perf,
        ))
    })
    .into_iter()
    .collect()
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
) -> Result<RunMetrics, HarnessError> {
    let mut cluster = kind.build();
    let mut perf = PerfMonitor::new();
    let r = cluster.run(sim, RunOptions::steps(steps).with_perf(&mut perf))?;
    Ok(collect_metrics(&cluster, &r, sim.n_atoms, steps, &perf))
}

/// Run one device kind with a [`RunLedger`] attached and the run host-timed
/// from outside. The returned ledger carries the device's phase attribution,
/// counter series, any fault totals, and the two host measurements `obs
/// check` gates on (`host_wall_seconds`, `host_atom_steps_per_s`), with the
/// same values as the returned record's derived metrics. The run itself is
/// bitwise-identical to an uninstrumented one (`tests/obs_ledger.rs`).
#[expect(
    clippy::disallowed_methods,
    reason = "host throughput is measured from outside the device run"
)]
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
    record_host_throughput_ledger(&mut ledger, &label, &m);
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

/// Copy a record's two host measurements into a ledger as the host events
/// the `obs check` gate reads, so the record and the ledger share one
/// definition ([`RunMetrics::record_host_throughput`]). Host events are
/// quarantined from the canonical view, so recording them cannot perturb
/// determinism checks.
fn record_host_throughput_ledger(ledger: &mut RunLedger, source: &str, m: &RunMetrics) {
    for (name, unit) in [
        ("host_wall_seconds", "s"),
        ("host_atom_steps_per_s", "atom_steps/s"),
    ] {
        ledger.host_value(source, name, m.derived_value(name), unit);
    }
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
    use crate::device::GpuModel;
    use mta::ThreadingMode;

    fn small() -> SimConfig {
        SimConfig::reduced_lj(108)
    }

    fn metrics(kind: DeviceKind, steps: usize) -> RunMetrics {
        device_metrics(kind, &small(), steps, HostParallelism::Serial)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.label()))
    }

    const GPU: DeviceKind = DeviceKind::Gpu {
        model: GpuModel::GeForce7900Gtx,
    };
    const MTA_FULL: DeviceKind = DeviceKind::Mta {
        mode: ThreadingMode::FullyMultithreaded,
    };

    #[test]
    fn every_device_record_validates() {
        for kind in [DeviceKind::cell_best(), GPU, DeviceKind::Opteron, MTA_FULL] {
            let m = metrics(kind, 3);
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.device));
            assert!(m.sim_seconds > 0.0, "{}", m.device);
            sim_perf::validate_run_metrics_json(&m.to_json())
                .unwrap_or_else(|e| panic!("{}: {e}", m.device));
        }
    }

    #[test]
    fn cell_metrics_carry_flops_and_dma_traffic() {
        let m = metrics(DeviceKind::cell_best(), 2);
        assert_eq!(m.device, "cell-8spe");
        assert!(m.counter_value("cell.flops.simd") > 0.0);
        assert!(m.counter_value("cell.dma.bytes_in") > 0.0);
        assert!(m.derived_value("utilization") > 0.0);
        assert!(m.derived_value("bytes_per_op") > 0.0);
    }

    #[test]
    fn gpu_fractions_cover_the_whole_run() {
        let m = metrics(GPU, 2);
        let t = m.derived_value("transfer_overhead_fraction");
        let c = m.derived_value("compute_fraction");
        assert!(((t + c) - 1.0).abs() < 1e-9, "{t} + {c} != 1");
    }

    #[test]
    fn opteron_attribution_is_two_buckets() {
        let m = metrics(DeviceKind::Opteron, 2);
        let sum = m.attribution_seconds("compute") + m.attribution_seconds("memory_stall");
        assert!((sum - m.sim_seconds).abs() <= 1e-9 * m.sim_seconds);
        let f = m.derived_value("memory_stall_fraction");
        assert!((0.0..=1.0).contains(&f), "stall fraction out of range: {f}");
    }

    #[test]
    fn mta_full_mt_keeps_streams_busy() {
        let m = metrics(MTA_FULL, 2);
        let occ = m.derived_value("avg_stream_occupancy");
        assert!(occ > 1.0, "full-MT run should use many streams: {occ}");
        let phantom = m.derived_value("phantom_fraction");
        assert!(phantom < 0.05, "full-MT run should be nearly stall-free");
    }

    #[test]
    fn host_parallel_metrics_match_serial() {
        let sim = small();
        for kind in [DeviceKind::Opteron, DeviceKind::cell_best()] {
            let serial = metrics(kind, 2);
            let par =
                device_metrics(kind, &sim, 2, HostParallelism::Threads(2)).expect("threaded run");
            // Host threads only change wall-clock, never the simulation.
            assert_eq!(par, serial, "{}", serial.device);
        }
    }

    #[test]
    fn a_host_group_prices_one_trajectory_as_each_device_alone() {
        let kinds = [
            MTA_FULL,
            DeviceKind::Opteron,
            DeviceKind::Mta {
                mode: ThreadingMode::PartiallyMultithreaded,
            },
        ];
        let sim = small().with_scenario(md_core::scenario::ScenarioSpec::morse_nvt());
        let group =
            host_group_metrics(&kinds, &sim, 2, HostParallelism::Threads(2)).expect("group");
        for (kind, m) in kinds.into_iter().zip(&group) {
            let alone = device_metrics(kind, &sim, 2, HostParallelism::Serial).expect("alone");
            assert_eq!(m.to_json(), alone.to_json(), "{}", kind.label());
        }
        assert!(matches!(
            host_group_metrics(&[GPU], &sim, 2, HostParallelism::Serial),
            Err(HarnessError::InvalidInput(_))
        ));
    }

    #[test]
    fn ledger_and_record_agree_on_host_throughput() {
        let sim = small();
        for steps in [0, 2] {
            let (m, ledger) = device_ledger(DeviceKind::Opteron, &sim, steps).expect("run");
            for name in ["host_wall_seconds", "host_atom_steps_per_s"] {
                let recorded = m.derived_value(name);
                assert!(recorded > 0.0, "{name} at {steps} steps: {recorded}");
                assert_eq!(
                    ledger.host_metric("opteron", name),
                    Some(recorded),
                    "{name} at {steps} steps"
                );
            }
        }
    }

    #[test]
    fn metrics_json_round_trips_to_disk() {
        let m = metrics(DeviceKind::Opteron, 1);
        let dir = std::env::temp_dir().join("mdea-perf-roundtrip");
        let path = write_metrics_json_in(&dir, &m).expect("write");
        let text = fs::read_to_string(&path).expect("read back");
        sim_perf::validate_run_metrics_json(&text).expect("valid");
        let _ = fs::remove_dir_all(&dir);
    }
}
