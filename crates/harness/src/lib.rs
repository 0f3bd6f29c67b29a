//! Experiment harness: device construction, supervised and cluster runs,
//! perf collection and report formatting for the simulated devices.
//!
//! The paper's evaluation grid itself lives in `crates/sim-sweep`: each
//! artifact is a sweep spec whose report a pure `sim_sweep::figures::figN`
//! turns into rows, and `sweep run <spec>` renders it.
//!
//! | Paper artifact | Sweep spec and rows | Command |
//! |---|---|---|
//! | Figure 5 (SPE SIMD ladder) | `spec::fig5`, `figures::fig5` | `sweep run fig5` |
//! | Figure 6 (SPE launch overhead) | `spec::fig6`, `figures::fig6` | `sweep run fig6` |
//! | Table 1 (Cell vs Opteron) | `spec::table1`, `figures::table1` | `sweep run table1` |
//! | Figure 7 (GPU vs Opteron sweep) | `spec::fig7`, `figures::fig7` | `sweep run fig7` |
//! | Figure 8 (MTA full vs partial MT) | `spec::fig8`, `figures::fig8` | `sweep run fig8` |
//! | Figure 9 (relative scaling) | `spec::fig9`, `figures::fig9` | `sweep run fig9` |
//!
//! Devices are named by [`device::DeviceKind`] and driven uniformly through
//! [`md_core::device::MdDevice`]; [`device::DeviceKind::build`] is the single
//! construction point for every simulated machine.
//!
//! Each family of runs has one entry point: [`run_supervised`] and
//! [`run_cluster_supervised`] supervise a device or a cluster (the optional
//! [`sim_obs::RunLedger`] is the supervisor's one sink), and
//! [`device_metrics`], [`host_group_metrics`], [`cluster_metrics`] and
//! [`device_ledger`] collect counters and attribution (see [`perf`]).

pub mod cluster;
pub mod device;
pub mod error;
pub mod perf;
pub mod report;
pub mod supervisor;

/// The paper's standard workload: 2048 atoms, 10 time steps.
pub const PAPER_ATOMS: usize = 2048;
pub const PAPER_STEPS: usize = 10;

pub use cluster::{run_cluster_supervised, ClusterKind, ClusterRecovery};
pub use device::{DeviceKind, GpuModel};
pub use error::HarnessError;
pub use perf::{
    cluster_metrics, device_ledger, device_metrics, host_group_metrics, workload_label,
    write_metrics_json, write_metrics_json_in,
};
pub use report::{emit_figure, write_csv, Table};
pub use supervisor::{
    run_supervised, RecoveryEvent, RecoveryReport, SegmentCounters, SupervisedRun, SupervisorConfig,
};
