//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section from the simulated devices.
//!
//! Each experiment is a plain function returning a typed result, used by
//! three consumers: the `sweep` engine and its per-figure binaries
//! (`crates/sim-sweep`), the workspace integration tests (shape assertions),
//! and EXPERIMENTS.md.
//!
//! | Paper artifact | Function | Binary (sim-sweep) |
//! |---|---|---|
//! | Figure 5 (SPE SIMD ladder) | [`experiments::fig5`] | `fig5` |
//! | Figure 6 (SPE launch overhead) | [`experiments::fig6`] | `fig6` |
//! | Table 1 (Cell vs Opteron) | [`experiments::table1`] | `table1` |
//! | Figure 7 (GPU vs Opteron sweep) | [`experiments::fig7`] | `fig7` |
//! | Figure 8 (MTA full vs partial MT) | [`experiments::fig8`] | `fig8` |
//! | Figure 9 (relative scaling) | [`experiments::fig9`] | `fig9` |
//!
//! Devices are named by [`device::DeviceKind`] and driven uniformly through
//! [`md_core::device::MdDevice`]; [`device::DeviceKind::build`] is the single
//! construction point for every simulated machine.

pub mod cluster;
pub mod device;
pub mod error;
pub mod experiments;
pub mod perf;
pub mod report;
pub mod supervisor;

pub use cluster::{run_cluster_supervised, ClusterKind, ClusterRecovery};
pub use device::{DeviceKind, GpuModel};
pub use error::HarnessError;
pub use experiments::{
    fig5, fig6, fig7, fig8, fig9, table1, Fig5Row, Fig6Case, Fig7Row, Fig8Row, Fig9Row, Table1Data,
};
pub use perf::{
    cell_metrics, cluster_ledger, cluster_metrics, device_baseline_metrics_host, device_ledger,
    device_metrics, device_metrics_host, device_metrics_par, gpu_metrics, mta_metrics,
    opteron_baseline_metrics_host, opteron_metrics, record_host_throughput_ledger,
    standard_metrics, workload_label, write_metrics_json, write_metrics_json_in,
};
pub use report::{emit_figure, write_csv, Table};
pub use supervisor::{
    run_supervised, run_supervised_ledger, RecoveryEvent, RecoveryReport, SegmentCounters,
    SupervisedRun, SupervisorConfig, SUPERVISOR_TRACK,
};
