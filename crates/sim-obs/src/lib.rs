//! `sim-obs`: the unified observability layer.
//!
//! Everything in this crate observes; nothing charges cycles or mutates
//! simulated state (enforced by sim-vet's observer-purity rule, which scans
//! this crate). The crate sits at the bottom of the telemetry stack — it
//! has no dependencies, and `sim-perf`, `md-core` and the device crates
//! build on it:
//!
//! - [`json`] — string escaping, number formatting, and a strict parser
//!   shared by every JSON emitter in the workspace
//! - [`chrome`] — the single Chrome trace-event collector and writer
//!   (spans, instants, counters): the Cell device timeline, hazard
//!   instants, `sim-perf` counter lanes and the ledger view all land in one
//!   [`ChromeTrace`]
//! - [`ledger`] — the schema-versioned JSONL run ledger
//! - [`export`] — ledger → Chrome trace / Prometheus textfile / text
//!   timeline and diff
//! - [`check`] — ledger vs `BENCH_host.json` regression gating
//! - [`trajectory`] — the append-only `BENCH_trajectory.json` history
//!
//! The `obs` binary wraps the lot: `obs timeline`, `obs diff`,
//! `obs export`, `obs check`, `obs validate`.

pub mod check;
pub mod chrome;
pub mod export;
pub mod json;
pub mod ledger;
pub mod trajectory;

pub use check::{check_ledger, parse_host_baseline, CheckResult, HostBaseline};
pub use chrome::ChromeTrace;
pub use export::{ledger_diff, ledger_timeline, ledger_to_chrome, ledger_to_prometheus};
pub use json::{escape_json_string, json_f64, parse_json, JsonValue};
pub use ledger::{EventKind, LedgerEvent, RunLedger, LEDGER_SCHEMA_VERSION};
pub use trajectory::{
    append_entry, parse_trajectory, render_trajectory, TrajectoryEntry, TRAJECTORY_SCHEMA_VERSION,
};
