//! Numeric foundation for the MD-on-emerging-architectures reproduction.
//!
//! Provides:
//!
//! - [`Real`]: an abstraction over `f32`/`f64` so the MD kernels can be written
//!   once and instantiated at the precision each device used in the paper
//!   (single precision on the Cell BE and GPU, double precision on the MTA-2
//!   and the Opteron reference).
//! - [`Vec3`]: a plain 3-component vector.
//! - [`wide`]: the host's batched f64/f32 lanes for the shared evaluator.
//! - [`pbc`]: periodic-boundary-condition helpers, including the paper's
//!   27-neighboring-unit-cell minimum-image search.

pub mod pbc;
mod real;
mod vec3;
pub mod wide;

pub use real::Real;
pub use vec3::Vec3;
pub use wide::{F32x8, F64x4, Mask4, Mask8};
