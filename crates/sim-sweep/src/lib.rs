//! The parallel sweep engine (DESIGN.md §11): every paper artifact is a
//! [`SweepSpec`] — a typed grid of (device kind, atom count, steps) points —
//! executed concurrently on a worker pool and memoized in a content-addressed
//! on-disk cache under `results/cache/`.
//!
//! Three layers:
//!
//! - [`spec`] declares *what* to run: the figure grids as plain data.
//! - [`engine`] decides *how*: cache lookup, parallel execution through
//!   [`harness::device_metrics`] (the one run-and-collect path in the
//!   workspace), cache store.
//! - [`figures`] renders *output*: byte-identical tables/CSVs from the cached
//!   [`sim_perf::RunMetrics`] records, so a warm cache reproduces the whole
//!   evaluation section without a single device execution.
//!
//! Determinism is the load-bearing property. Devices simulate their own
//! clocks — a run's result is a pure function of (device config, workload) —
//! so the cache never goes stale silently: the key hashes the full device
//! config (including baked-in machine constants, via
//! [`harness::DeviceKind::cache_token`]), the workload, and
//! [`cache::CODE_VERSION_SALT`]. Parallel execution collects in point order,
//! so `--jobs 1` and `--jobs N` produce bitwise-identical reports.

pub mod cache;
pub mod engine;
pub mod figures;
pub mod scaling;
pub mod spec;

pub use cache::{point_key, ResultCache, CACHE_SCHEMA_VERSION, CODE_VERSION_SALT};
pub use engine::{run_sweep, EngineConfig, PointResult, SweepError, SweepReport, TrajectoryStore};
pub use scaling::{
    bench_cluster_json, run_cluster_sweep, strong_scaling, weak_scaling, ClusterPoint,
    ClusterPointResult, ClusterSweepSpec, BENCH_CLUSTER_SCHEMA_VERSION,
};
pub use spec::{registry, SweepPoint, SweepSpec};
