//! Multi-node cluster simulation over the unified device API (DESIGN.md §14).
//!
//! The paper benchmarks one device at a time; real MD campaigns run on
//! clusters of them, where the dominant effects are interconnect overhead
//! (halo exchange + all-reduce) and node failure. This crate models both
//! without giving up the workspace's core invariant: **physics is
//! bit-identical to a single-device run**, at any node count, any host
//! thread count, and under any recoverable fault history. Faults and
//! decomposition cost *simulated* seconds only.
//!
//! Two layers:
//!
//! - [`InterconnectModel`] / [`ClusterPolicy`] — the fabric cost model and
//!   the membership/recovery policy, plain structs a sweep can vary.
//! - [`ClusterMd`] — an [`md_core::device::MdDevice`] built from per-node
//!   `MdDevice`s under slab domain decomposition, with node-granularity
//!   fault injection ([`sim_fault::FaultKind::CLUSTER`]) and
//!   checkpoint-based domain migration. Because it *is* an `MdDevice`, the
//!   harness supervisor's checkpoint/restore/retry machinery supervises a
//!   whole cluster exactly like one machine.
//!
//! The harness crate adds the roster integration (`ClusterKind`) and the
//! `ClusterSupervisor` recovery reporting on top.

// Engine discipline on top of the workspace lints: the cluster timeline is
// part of the published numbers, so panics, float equality and hash-order
// iteration are held to the device-crate standard.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::iter_over_hash_type
)]

pub mod engine;
pub mod interconnect;

pub use engine::{ClusterMd, NodeEvent};
pub use interconnect::{ClusterPolicy, InterconnectModel};
