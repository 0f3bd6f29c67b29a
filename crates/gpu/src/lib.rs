//! Functional simulator of a 2006-era streaming GPU (paper section 3.2/5.2).
//!
//! The programming model the paper describes — and this crate *enforces* —
//! is the pre-CUDA, graphics-pipeline one:
//!
//! - GPUs are **stream processors**: "a shader program cannot read and write
//!   to the same memory location. Arrays must be designated as either input
//!   or output, but not both." ([`Texture`]s are read-only at dispatch time;
//!   the output array is created by the dispatch.)
//! - Execution is **gather-based**: "a shader program may read from any input
//!   locations, but it has only one location in each output array to which it
//!   may write, designated before the program begins execution." (A
//!   [`Shader`] receives its fixed output index and returns one texel.)
//! - There is **no communication between shader instances**, so a global sum
//!   (the potential energy) cannot be produced in one pass; the paper's trick
//!   — returning each atom's PE contribution in the free fourth component of
//!   the 4-component acceleration texel and summing on the CPU "for free"
//!   during readback — is exactly what [`mdshader::LjAccelShader`] does.
//! - The CPU orchestrates everything and pays **PCIe transfer costs** each
//!   time step (positions up, accelerations back), plus a per-dispatch driver
//!   overhead; these O(N) and constant per-step costs are what make the GPU
//!   *slower* than the CPU at small atom counts in Figure 7.
//!
//! Compute is performed for real in `f32`; a deterministic cost model
//! calibrated to a GeForce 7900GTX-class part (24 pipelines at 650 MHz)
//! produces simulated runtimes.

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

mod config;
mod device;
pub mod mdshader;
pub mod reduction;
mod runner;
mod shader;
mod texture;

pub use config::GpuConfig;
pub use device::{DispatchResult, GpuDevice};
pub use mdshader::LjAccelShader;
pub use reduction::{reduce_on_gpu, ReductionCost, ReductionStrategy, SumShader};
pub use runner::{GpuMdSimulation, GpuRun, GpuStepBreakdown};
pub use shader::{Shader, ShaderConstants, ShaderOps};
pub use texture::Texture;
