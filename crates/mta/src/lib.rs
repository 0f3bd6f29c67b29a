//! Functional simulator of the Cray MTA-2 (paper sections 3.3 and 5.3).
//!
//! The MTA-2 attacks the memory wall with massive hardware multithreading
//! instead of caches: each processor holds the full execution context of 128
//! hardware streams and can switch streams every clock cycle, so as long as
//! enough concurrent streams exist, memory latency is completely hidden and
//! every memory access costs the same ("there is no penalty for accessing
//! atoms ... in an irregular fashion").
//!
//! The pieces modeled here:
//!
//! - [`MtaProcessor`]: the stream-issue timing model. A saturated processor
//!   issues one instruction per cycle; a single stream can only issue once
//!   every ~21 cycles (the pipeline lookahead), which is why a loop the
//!   compiler *fails* to parallelize runs an order of magnitude slower —
//!   Figure 8's "fully vs partially multithreaded" gap.
//! - [`compiler`]: a model of the MTA auto-parallelizing compiler: it
//!   parallelizes loops unless it detects a dependence (the PE reduction in
//!   step 2), and accepts the `#pragma mta assert no dependence` hint the
//!   paper adds after restructuring the reduction.
//! - [`MtaMdSimulation`]: the MD kernel's cost (double precision, as the
//!   paper's MTA port) charged through the above, producing simulated
//!   runtimes. Its physics is md-core's host-flavor trajectory
//!   ([`md_core::trajectory::Trajectory`]), shared with the Opteron.

// Device-crate panic discipline on top of the workspace lints: a panic in a
// device hot path escapes the cycle accounting. Float equality is never
// meaningful in the cycle/seconds accounting, and hash-order iteration
// breaks run-to-run determinism.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::iter_over_hash_type
)]

pub mod compiler;
mod config;
mod kernel;
mod processor;

pub use compiler::{analyze_loop, LoopDesc, ParallelizationDecision};
pub use config::{MtaConfig, RemoteMemoryModel};
pub use kernel::{MtaCycleBreakdown, MtaMd, MtaMdSimulation, MtaRun, ThreadingMode};
pub use processor::{LoopCycleParts, MtaProcessor};
