//! Cost model of a 2006-era streaming GPU running the paper's MD port
//! (sections 3.2 and 5.2).
//!
//! The host integrates and the GPU only evaluates forces, so the physics
//! is md-core's GPU flavor ([`md_core::trajectory::Flavor::Gpu`]): each
//! atom's output texel as the paper's predicated fragment shader computes
//! it ([`md_core::shared_eval::gpu_texel`]), in `f32`, the PE returned in
//! the free fourth component of the 4-component acceleration texel and
//! summed on the CPU "for free" during readback. [`GpuMdSimulation`]
//! prices that trajectory under the pre-CUDA, graphics-pipeline model:
//!
//! - The shader is gather-only with one output location per instance and
//!   no communication between instances, so a global sum (the potential
//!   energy) cannot be produced in one pass; the rejected alternative, a
//!   multi-pass GPU reduction, is priced in [`reduction`].
//! - Predication makes the shader's cost uniform per examined pair, so a
//!   dispatch retires a closed form in N ([`mdshader::accel_ops`]).
//! - The CPU orchestrates everything and pays **PCIe transfer costs** each
//!   time step (positions up, accelerations back), plus a per-dispatch driver
//!   overhead; these O(N) and constant per-step costs are what make the GPU
//!   *slower* than the CPU at small atom counts in Figure 7.
//!
//! The deterministic cost model is calibrated to a GeForce 7900GTX-class
//! part (24 pipelines at 650 MHz).

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
pub mod mdshader;
pub mod reduction;
mod runner;
mod shader;

pub use config::GpuConfig;
pub use reduction::ReductionStrategy;
pub use runner::GpuMdSimulation;
pub use shader::ShaderOps;
