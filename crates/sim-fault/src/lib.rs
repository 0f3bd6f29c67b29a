//! Deterministic fault injection for the device simulators.
//!
//! The paper's accelerators misbehave on real hardware in device-specific
//! ways — stalled DMA transfers on the Cell, corrupted PCIe readbacks on the
//! GPU, starved streams on the MTA-2, ECC events on the Opteron. This crate
//! provides the shared machinery the device crates use to *inject* those
//! faults and *cost* their recovery, with two hard guarantees:
//!
//! 1. **Determinism.** A [`FaultPlan`] is seeded; the decision "does site X
//!    fault on retry k" is a pure function of `(seed, site, retry)`, drawn
//!    through the in-tree `rand` [`rand::RngCore`] machinery. Identical seeds
//!    give identical fault schedules regardless of the order sites are
//!    queried in, so fault-injected runs are exactly reproducible.
//! 2. **Simulated time only.** Every injected fault, timeout, and retry is
//!    charged to [`FaultStats::extra_seconds`] in *simulated* seconds
//!    (device cycles over the device clock). Host time never enters the
//!    model — the workspace `clippy.toml` disallows `Instant::now` and
//!    `SystemTime::now`, so no host clock read can reach this crate.
//!
//! Faults never touch physics: an injected failure discards the (modeled)
//! corrupt transfer and re-issues it, so the recovered trajectory is
//! bit-identical to the fault-free one and only the simulated runtime grows.
//! When a site keeps faulting past the session's retry budget, the device
//! either surfaces a typed error (Cell) or degrades to a modeled slow path
//! (GPU/MTA/Opteron) and records the exhaustion in [`FaultStats`] so the
//! harness supervisor can fall back to the reference device.

// The device-crate discipline on top of the workspace lints: fault handling
// is device-model code, so a panic would escape the cycle accounting exactly
// like a device panic. Float equality is never meaningful in the
// cycle/seconds accounting, and hash-order iteration breaks run-to-run
// determinism.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::iter_over_hash_type
)]

mod plan;
mod session;

pub use plan::{FaultKind, FaultPlan, FaultSite};
pub use session::{resolve_degradable, FaultSession, FaultStats, SiteOutcome, DEFAULT_MAX_RETRIES};
