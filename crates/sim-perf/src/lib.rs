//! Hardware-counter-style observability for the device simulators.
//!
//! The device models *charge* simulated time (DMA latencies, PCIe transfers,
//! cache-miss cycles, stream-issue slots) but, before this crate, could not
//! *attribute* it. `sim-perf` adds the missing layer, modelled on the
//! performance-counter units of the paper's four machines:
//!
//! - a [`PerfMonitor`] of named, monotonically non-decreasing counters that a
//!   device updates as it runs (DMA bytes, texture fetches, phantom cycles,
//!   cache misses, ...), sampled into a time series along simulated time and
//!   exportable as Chrome `"C"` counter events on a `sim_obs::ChromeTrace` so
//!   Perfetto renders counter lanes aligned with the span timeline;
//! - a schema-versioned [`RunMetrics`] record: raw counters plus derived
//!   metrics (achieved vs peak rate, utilization, bytes/flop) and a per-run
//!   **time attribution** (compute vs DMA-wait vs mailbox vs PCIe vs memory
//!   stalls) that must sum to the run's total simulated seconds;
//! - a dependency-free JSON writer/validator for the `results/metrics/`
//!   artifacts the `perf_report` harness binary emits.
//!
//! The load-bearing invariant is that observability is **free**: nothing in
//! this crate charges simulated time, and a device run with counters enabled
//! is bitwise-identical (trajectory *and* simulated seconds) to the same run
//! with counters disabled. The sim-vet `observability-purity` rule statically
//! denies calls into the cost-charging APIs from this crate, and
//! `tests/perf_observability.rs` asserts the bitwise property at paper scale.

mod counter;
mod json;
mod metrics;

pub use counter::{CounterHandle, CounterSeries, PerfMonitor};
pub use json::{parse_json, validate_run_metrics_json, JsonValue};
pub use metrics::{format_quantity, RunMetrics, ATTRIBUTION_REL_TOL, SCHEMA_VERSION};
