//! GPU-side reduction — the alternative the paper considered and rejected.
//!
//! "One option is to introduce one or more additional passes to accumulate
//! each atom's contribution to the total PE in a gather-type fashion, called
//! a reduction operation. However, this method introduces significant
//! overheads. Instead ... it makes more sense to simply read back each atom's
//! contribution to PE as well and sum them in linear time on the CPU."
//!
//! This module implements the rejected design so the claim can be measured:
//! a log₄(N) cascade of 4:1 sum passes over the w-lane of the acceleration
//! texture, each pass paying the full dispatch overhead. The
//! `ablation_gpu_reduction` bench and the integration tests show the CPU
//! readback strategy winning, reproducing the paper's design argument.

use crate::device::GpuDevice;
use crate::shader::{Shader, ShaderConstants, ShaderOps};
use crate::texture::Texture;

/// How the per-atom PE contributions are combined into the total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReductionStrategy {
    /// The paper's choice: PE rides in the w lane of the acceleration
    /// readback ("retrieved for free") and is summed on the CPU.
    CpuReadback,
    /// The rejected alternative: log₄(N) GPU passes, then a 1-texel readback.
    GpuMultiPass,
}

/// A 4:1 reduction shader: `output[i] = Σ input[4i .. 4i+4]` (w lane carried
/// in all four lanes so the final texel's w is the total).
pub struct SumShader {
    /// Number of valid texels in the input.
    pub in_len: usize,
}

impl Shader for SumShader {
    fn execute(
        &self,
        inputs: &[&Texture],
        out_index: usize,
        _constants: &ShaderConstants,
        ops: &mut ShaderOps,
    ) -> [f32; 4] {
        let input = inputs[0];
        let mut sum = 0.0f32;
        for k in 0..4 {
            let j = out_index * 4 + k;
            if j < self.in_len {
                sum += input.fetch(j)[3];
                ops.fetches += 1;
            }
            ops.alu += 1;
        }
        [sum, sum, sum, sum]
    }

    fn name(&self) -> &'static str {
        "sum4"
    }
}

/// Outcome of a GPU-side reduction: the total and the simulated cost.
#[derive(Clone, Copy, Debug)]
pub struct ReductionCost {
    pub total: f64,
    /// Dispatch passes executed.
    pub passes: usize,
    /// Simulated seconds: shader time + per-pass overheads + final readback.
    pub seconds: f64,
}

/// Run the multi-pass cascade over the w lane of `values` until one texel
/// remains. The device must already be compiled (constants are unused by the
/// sum shader but the 2006 toolchains required a program either way).
pub fn reduce_on_gpu(device: &GpuDevice, values: &Texture) -> ReductionCost {
    let mut current = values.clone();
    let mut seconds = 0.0;
    let mut passes = 0;
    while current.len() > 1 {
        let out_len = current.len().div_ceil(4);
        let shader = SumShader {
            in_len: current.len(),
        };
        let result = device.dispatch(&shader, &[&current], out_len);
        seconds += result.shader_seconds + result.overhead_seconds;
        passes += 1;
        current = result.output;
    }
    seconds += device.readback_seconds(&current);
    ReductionCost {
        total: current.fetch(0)[3] as f64,
        passes,
        seconds,
    }
}

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn device() -> GpuDevice {
        let mut d = GpuDevice::geforce_7900gtx();
        d.compile(ShaderConstants::default());
        d
    }

    fn pe_texture(values: &[f32]) -> Texture {
        Texture::from_texels(values.iter().map(|&v| [0.0, 0.0, 0.0, v]).collect())
    }

    #[test]
    fn reduces_to_exact_sum_for_pow4_sizes() {
        let d = device();
        let t = pe_texture(&(0..64).map(|i| i as f32).collect::<Vec<_>>());
        let r = reduce_on_gpu(&d, &t);
        assert_eq!(r.total, (0..64).sum::<i32>() as f64);
        assert_eq!(r.passes, 3, "64 -> 16 -> 4 -> 1");
    }

    #[test]
    fn handles_non_pow4_sizes() {
        let d = device();
        let t = pe_texture(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let r = reduce_on_gpu(&d, &t);
        assert_eq!(r.total, 28.0);
        assert_eq!(r.passes, 2, "7 -> 2 -> 1");
    }

    #[test]
    fn single_texel_is_free_of_passes() {
        let d = device();
        let t = pe_texture(&[42.0]);
        let r = reduce_on_gpu(&d, &t);
        assert_eq!(r.total, 42.0);
        assert_eq!(r.passes, 0);
    }

    #[test]
    fn multipass_costs_more_than_linear_cpu_sum() {
        // The paper's design argument: at MD sizes the cascade's per-pass
        // dispatch overhead exceeds the "free" CPU summation riding on the
        // acceleration readback.
        let d = device();
        let n = 2048;
        let t = pe_texture(&vec![1.0; n]);
        let r = reduce_on_gpu(&d, &t);
        // CPU-side marginal cost of summing during an already-required
        // readback: ~n adds at host speed.
        let cpu_marginal = d.config.cpu_linear_s_per_atom * n as f64;
        assert!(
            r.seconds > 10.0 * cpu_marginal,
            "multi-pass {:.2e}s should dwarf the CPU's marginal {:.2e}s",
            r.seconds,
            cpu_marginal
        );
    }
}
