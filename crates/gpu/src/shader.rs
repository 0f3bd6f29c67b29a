//! The shader programming model: gather-only, one output location.

use crate::texture::Texture;

/// Constants baked into the shader at JIT-compile time ("the constants were
/// compiled into the shader program source using the provided JIT compiler at
/// program initialization"). Changing them requires re-JIT.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShaderConstants {
    pub values: [f32; 8],
}

/// Instruction counter a shader reports its work through; the device converts
/// retired ops into pipeline-occupancy time.
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

/// A shader program.
///
/// The signature *is* the stream-processing restriction: instances receive
/// read-only input textures and their pre-designated output index, and return
/// exactly one texel. There is no mechanism to write anywhere else, to read
/// the output array, or to communicate with another instance.
pub trait Shader {
    /// Compute the texel at `out_index`.
    fn execute(
        &self,
        inputs: &[&Texture],
        out_index: usize,
        constants: &ShaderConstants,
        ops: &mut ShaderOps,
    ) -> [f32; 4];

    /// Human-readable name for reports.
    fn name(&self) -> &'static str {
        "shader"
    }
}

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    /// A toy shader: output[i] = input[i] scaled by constant 0, plus a gather
    /// of the mirrored element — exercises arbitrary-location reads.
    struct MirrorScale;

    impl Shader for MirrorScale {
        fn execute(
            &self,
            inputs: &[&Texture],
            out_index: usize,
            constants: &ShaderConstants,
            ops: &mut ShaderOps,
        ) -> [f32; 4] {
            let t = inputs[0];
            let a = t.fetch(out_index);
            let b = t.fetch(t.len() - 1 - out_index);
            ops.fetches += 2;
            ops.alu += 2;
            let s = constants.values[0];
            [(a[0] + b[0]) * s, (a[1] + b[1]) * s, (a[2] + b[2]) * s, 0.0]
        }
    }

    #[test]
    fn gather_reads_arbitrary_locations() {
        let t = Texture::from_xyz(&[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]);
        let c = ShaderConstants {
            values: [10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        };
        let mut ops = ShaderOps::default();
        let out = MirrorScale.execute(&[&t], 0, &c, &mut ops);
        assert_eq!(out[0], 40.0); // (1 + 3) * 10
        assert_eq!(ops.fetches, 2);
        assert_eq!(ops.total(), 4);
    }
}
