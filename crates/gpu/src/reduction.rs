//! GPU-side reduction — the alternative the paper considered and rejected.
//!
//! "One option is to introduce one or more additional passes to accumulate
//! each atom's contribution to the total PE in a gather-type fashion, called
//! a reduction operation. However, this method introduces significant
//! overheads. Instead ... it makes more sense to simply read back each atom's
//! contribution to PE as well and sum them in linear time on the CPU."
//!
//! This module prices the rejected design so the claim can be measured: a
//! log₄(N) cascade of 4:1 sum passes over the w lane of the acceleration
//! texture, each pass paying the full dispatch overhead. The
//! `ablation_gpu_reduction` bench and the integration tests show the CPU
//! readback strategy winning, reproducing the paper's design argument.
//!
//! The cascade's pass count and per-pass ops depend on the texel count
//! alone, so [`multipass_seconds`] charges it from the atom count, and an
//! MD run reports the trajectory's CPU-summed PE under either strategy.
//! (The interpretive cascade this replaced summed the texels in f32; at
//! 256 × 4 its PE read `0xc09a_fb11_2000_0000` against the CPU sum's
//! `0xc09a_fb11_18e0_0000`.)

use crate::config::GpuConfig;
use crate::mdshader::TEXEL_BYTES;
use crate::shader::ShaderOps;

/// How the per-atom PE contributions are combined into the total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReductionStrategy {
    /// The paper's choice: PE rides in the w lane of the acceleration
    /// readback ("retrieved for free") and is summed on the CPU.
    CpuReadback,
    /// The rejected alternative: log₄(N) GPU passes, then a 1-texel readback.
    /// Charged from the atom count; the run reports the CPU-summed PE.
    GpuMultiPass,
}

/// Simulated seconds of the multi-pass cascade over `texels` texels: each
/// pass runs a 4:1 sum shader (4 ALU slots per output texel, one fetch per
/// input texel) plus the dispatch overhead, until one texel remains, which
/// is read back.
pub fn multipass_seconds(config: &GpuConfig, texels: usize) -> f64 {
    let mut seconds = 0.0;
    let mut len = texels;
    while len > 1 {
        let out_len = len.div_ceil(4);
        let ops = ShaderOps {
            alu: 4 * out_len as u64,
            fetches: len as u64,
        };
        seconds += config.shader_seconds(ops) + config.dispatch_overhead_s;
        len = out_len;
    }
    seconds + config.readback_seconds(len * TEXEL_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_texel_costs_only_its_readback() {
        let c = GpuConfig::geforce_7900gtx();
        let readback = c.readback_seconds(TEXEL_BYTES);
        assert_eq!(multipass_seconds(&c, 1).to_bits(), readback.to_bits());
    }

    #[test]
    fn each_pass_pays_the_dispatch_overhead() {
        // 64 -> 16 -> 4 -> 1: three passes.
        let c = GpuConfig::geforce_7900gtx();
        let passes = multipass_seconds(&c, 64) - c.readback_seconds(TEXEL_BYTES);
        assert!(passes > 3.0 * c.dispatch_overhead_s);
        assert!(passes < 4.0 * c.dispatch_overhead_s);
    }

    #[test]
    fn multipass_costs_more_than_linear_cpu_sum() {
        // The paper's design argument: at MD sizes the cascade's per-pass
        // dispatch overhead exceeds the "free" CPU summation riding on the
        // acceleration readback.
        let c = GpuConfig::geforce_7900gtx();
        let n = 2048;
        let seconds = multipass_seconds(&c, n);
        // CPU-side marginal cost of summing during an already-required
        // readback: ~n adds at host speed.
        let cpu_marginal = c.cpu_linear_s_per_atom * n as f64;
        assert!(
            seconds > 10.0 * cpu_marginal,
            "multi-pass {seconds:.2e}s should dwarf the CPU's marginal {cpu_marginal:.2e}s"
        );
    }
}
