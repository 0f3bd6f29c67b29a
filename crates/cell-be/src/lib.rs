//! Functional simulator of the STI Cell Broadband Engine running the paper's
//! MD kernel.
//!
//! The Cell (paper section 3.1) pairs one dual-threaded Power core (PPE) with
//! eight Synergistic Processing Elements (SPEs). Each SPE has:
//!
//! - a 256 KB fixed-latency **local store** — the only memory it can touch
//!   ([`LocalStore`]),
//! - a high-bandwidth **DMA engine** for moving data between main memory and
//!   the local store ([`DmaEngine`]),
//! - blocking 32-bit **mailboxes** for small messages to/from the PPE
//!   ([`Mailbox`]),
//! - a heavily SIMD-focused ISA with **no branch prediction** and a uniform
//!   128-bit register file.
//!
//! This crate reproduces the paper's port (section 5.1): the acceleration
//! computation is offloaded to SPE "threads"; positions are DMA'd into each
//! local store; each SPE computes accelerations for its slice of atoms by
//! scanning all N positions; results are DMA'd back; the PPE integrates.
//! Everything is computed for real in `f32` (the precision the paper uses on
//! the Cell) while a cycle cost model accumulates simulated time, so results
//! are numerically checkable against `md_core` and runtimes are deterministic.
//!
//! The six SIMD optimization stages of Figure 5 are selectable via
//! [`SpeKernelVariant`]; the two thread-launch policies of Figure 6 via
//! [`SpawnPolicy`].

mod config;
mod device;
mod dma;
mod error;
#[cfg(feature = "hazard-check")]
pub mod hazard;
mod kernel;
mod localstore;
mod mailbox;
mod ppe;
mod spe;

pub use config::{CellConfig, SpeCostModel};
pub use device::{
    CellAccelProbe, CellBeDevice, CellMd, CellPpeMd, CellRun, CellRunConfig, CostBreakdown,
    SpawnPolicy,
};
pub use dma::DmaEngine;
pub use error::{CellError, DmaError, LsError};
pub use kernel::{
    compute_accelerations, compute_accelerations_f64, KernelStats, SpeKernelVariant,
    SpeLanePhysics, SpeLanePhysicsF64,
};
pub use localstore::{LocalStore, LsRegion};
pub use mailbox::Mailbox;
pub use ppe::PpeModel;
pub use spe::LsOverflow;
pub use spe::Spe;
