//! The GPU device: uploads, dispatches, readbacks, and their costs.

use crate::config::GpuConfig;
use crate::shader::{Shader, ShaderConstants, ShaderOps};
use crate::texture::Texture;

/// Outcome of one dispatch: the output texture plus timing/ops accounting.
#[derive(Clone, Debug)]
pub struct DispatchResult {
    pub output: Texture,
    pub ops: ShaderOps,
    /// Shader execution time (pipeline-occupancy), seconds.
    pub shader_seconds: f64,
    /// Fixed driver/dispatch overhead, seconds.
    pub overhead_seconds: f64,
}

/// The simulated GPU. Tracks the one-time JIT cost and enforces the
/// compile-before-dispatch ordering of the 2006 toolchains.
pub struct GpuDevice {
    pub config: GpuConfig,
    constants: Option<ShaderConstants>,
    startup_seconds: f64,
}

impl GpuDevice {
    pub fn new(config: GpuConfig) -> Self {
        Self {
            config,
            constants: None,
            startup_seconds: 0.0,
        }
    }

    pub fn geforce_7900gtx() -> Self {
        Self::new(GpuConfig::geforce_7900gtx())
    }

    /// JIT-compile the shader with its baked-in constants. One-time cost,
    /// reported separately because Figure 7 excludes it ("it occurs only once
    /// \[and\] will be quickly amortized").
    pub fn compile(&mut self, constants: ShaderConstants) {
        self.constants = Some(constants);
        self.startup_seconds += self.config.jit_startup_s;
    }

    /// Accumulated excluded startup cost.
    pub fn startup_seconds(&self) -> f64 {
        self.startup_seconds
    }

    /// The JIT-baked constant block, if [`compile`] has run. The shared-eval
    /// fast path reads the same compiled constants the interpretive dispatch
    /// would, so both paths see one source of truth for the kernel parameters.
    ///
    /// [`compile`]: GpuDevice::compile
    pub(crate) fn compiled_constants(&self) -> Option<&ShaderConstants> {
        self.constants.as_ref()
    }

    /// PCIe cost of moving a texture to the GPU, seconds.
    pub fn upload_seconds(&self, texture: &Texture) -> f64 {
        self.config.transfer_latency_s
            + texture.size_bytes() as f64 / self.config.upload_bytes_per_sec
    }

    /// PCIe cost of reading a texture back, seconds.
    pub fn readback_seconds(&self, texture: &Texture) -> f64 {
        self.config.transfer_latency_s
            + texture.size_bytes() as f64 / self.config.readback_bytes_per_sec
    }

    /// Run the shader once per output texel ("we set up the GPU to execute
    /// our shader program exactly once for each location in the output
    /// array"). Inputs are immutable, the output is a fresh texture: the
    /// stream-processing input/output separation cannot be violated.
    ///
    /// This is the interpretive per-fragment walk the multi-pass reduction
    /// runs and the kernel tests check against; the MD force pass goes
    /// through [`LjAccelShader::dispatch_shared`].
    ///
    /// [`LjAccelShader::dispatch_shared`]: crate::mdshader::LjAccelShader::dispatch_shared
    pub fn dispatch(
        &self,
        shader: &dyn Shader,
        inputs: &[&Texture],
        out_len: usize,
    ) -> DispatchResult {
        #[expect(
            clippy::expect_used,
            reason = "compile-before-dispatch is an API contract (the JIT protocol), not a runtime data failure"
        )]
        let constants = self
            .constants
            .expect("shader must be JIT-compiled (GpuDevice::compile) before dispatch");
        assert!(
            inputs.len() <= self.config.max_input_textures,
            "shader binds {} input textures but the hardware supports {}",
            inputs.len(),
            self.config.max_input_textures
        );
        let mut output = Texture::new(out_len);
        let mut ops = ShaderOps::default();
        for (i, texel) in output.texels_mut().iter_mut().enumerate() {
            *texel = shader.execute(inputs, i, &constants, &mut ops);
        }
        self.finish_dispatch(output, ops)
    }

    /// Convert a completed fragment pass into a [`DispatchResult`]: retired
    /// ops become pipeline-occupancy seconds, plus the fixed per-dispatch
    /// driver overhead. Shared by the interpretive dispatch and the
    /// shared-eval replay path so both charge time through one expression.
    pub(crate) fn finish_dispatch(&self, output: Texture, ops: ShaderOps) -> DispatchResult {
        let shader_seconds = ops.total() as f64 / self.config.ops_per_second();
        DispatchResult {
            output,
            ops,
            shader_seconds,
            overhead_seconds: self.config.dispatch_overhead_s,
        }
    }
}

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    struct Doubler;
    impl Shader for Doubler {
        fn execute(
            &self,
            inputs: &[&Texture],
            out_index: usize,
            _c: &ShaderConstants,
            ops: &mut ShaderOps,
        ) -> [f32; 4] {
            ops.fetches += 1;
            ops.alu += 1;
            let t = inputs[0].fetch(out_index);
            [t[0] * 2.0, t[1] * 2.0, t[2] * 2.0, t[3] * 2.0]
        }
    }

    #[test]
    fn dispatch_runs_once_per_output_texel() {
        let mut dev = GpuDevice::geforce_7900gtx();
        dev.compile(ShaderConstants::default());
        let input = Texture::from_xyz(&[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        let r = dev.dispatch(&Doubler, &[&input], 2);
        assert_eq!(r.output.fetch(1), [8.0, 10.0, 12.0, 0.0]);
        assert_eq!(r.ops.total(), 4, "2 texels x (1 fetch + 1 alu)");
        assert!(r.shader_seconds > 0.0);
        assert_eq!(r.overhead_seconds, 500e-6);
    }

    #[test]
    #[should_panic(expected = "JIT-compiled")]
    fn dispatch_without_compile_rejected() {
        let dev = GpuDevice::geforce_7900gtx();
        let input = Texture::new(1);
        dev.dispatch(&Doubler, &[&input], 1);
    }

    #[test]
    fn transfer_costs_scale_with_size_and_readback_is_slower() {
        let dev = GpuDevice::geforce_7900gtx();
        let small = Texture::new(64);
        let large = Texture::new(4096);
        assert!(dev.upload_seconds(&large) > dev.upload_seconds(&small));
        assert!(dev.readback_seconds(&large) > dev.upload_seconds(&large));
    }

    #[test]
    #[should_panic(expected = "input textures")]
    fn input_texture_limit_enforced() {
        let mut dev = GpuDevice::geforce_7900gtx();
        dev.compile(ShaderConstants::default());
        let t = Texture::new(1);
        let inputs: Vec<&Texture> = (0..17).map(|_| &t).collect();
        dev.dispatch(&Doubler, &inputs, 1);
    }

    #[test]
    fn startup_tracked_separately() {
        let mut dev = GpuDevice::geforce_7900gtx();
        assert_eq!(dev.startup_seconds(), 0.0);
        dev.compile(ShaderConstants::default());
        assert_eq!(dev.startup_seconds(), 0.2);
    }
}
