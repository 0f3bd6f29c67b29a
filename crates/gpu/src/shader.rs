//! What a fragment pass retires: the unit the shader cost model charges.

/// Instruction counter of a fragment pass; [`crate::GpuConfig::shader_seconds`]
/// converts retired ops into pipeline-occupancy time.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShaderOps {
    /// Arithmetic (4-wide) shader instructions retired.
    pub alu: u64,
    /// Texture fetches issued.
    pub fetches: u64,
}

impl ShaderOps {
    pub fn total(&self) -> u64 {
        self.alu + self.fetches
    }
}
