//! GPU timing parameters, calibrated to a GeForce 7900GTX-class part.

use crate::shader::ShaderOps;

/// Machine parameters of the simulated GPU and its host link.
#[derive(Clone, Copy, Debug)]
pub struct GpuConfig {
    /// Shader core clock in Hz (650 MHz on the 7900GTX).
    pub clock_hz: f64,
    /// Parallel pixel pipelines (24 on the 7900GTX; the paper notes "that
    /// number is growing").
    pub n_pipes: usize,
    /// Host→GPU PCIe bandwidth in bytes/second (~3 GB/s effective, PCIe 1.0 x16).
    pub upload_bytes_per_sec: f64,
    /// GPU→host readback bandwidth in bytes/second (~1 GB/s effective —
    /// readback was notoriously slower on 2006 drivers).
    pub readback_bytes_per_sec: f64,
    /// Fixed latency per PCIe transfer (driver + DMA setup), seconds.
    pub transfer_latency_s: f64,
    /// Fixed cost per shader dispatch (driver validation, state setup,
    /// pipeline flush), seconds. This is the constant per-step cost that
    /// makes the GPU lose at small N in Figure 7.
    pub dispatch_overhead_s: f64,
    /// One-time cost to JIT-compile the shader with its baked-in constants at
    /// program initialization ("a fraction of a second ... quickly amortized",
    /// excluded from Figure 7's timings). No run charges it.
    pub jit_startup_s: f64,
    /// Host CPU cost per atom for the linear-time work it keeps (PE summation
    /// during readback, integration), seconds/atom/step.
    pub cpu_linear_s_per_atom: f64,
    /// Maximum simultaneously bound input textures ("there are technical
    /// limitations on the number of input and output arrays addressable in
    /// any particular shader program").
    pub max_input_textures: usize,
}

impl GpuConfig {
    /// The paper's NVIDIA GeForce 7900GTX + 2.2 GHz Opteron host.
    pub fn geforce_7900gtx() -> Self {
        Self {
            clock_hz: 650e6,
            n_pipes: 24,
            upload_bytes_per_sec: 3.0e9,
            readback_bytes_per_sec: 1.0e9,
            transfer_latency_s: 10e-6,
            // Per-pass driver/sync cost (draw call + glFinish on 2006-era
            // OpenGL GPGPU). Calibrated so the offload overhead, not the
            // shader, dominates runs at N <= 512 atoms — the attribution the
            // paper gives for the GPU losing to the CPU at small N.
            dispatch_overhead_s: 500e-6,
            jit_startup_s: 0.2,
            cpu_linear_s_per_atom: 25e-9,
            max_input_textures: 16,
        }
    }

    /// The previous generation shown in the paper's Figure 2: the NVIDIA
    /// GeForce 6800 with "16 parallel pixel pipelines" at 400 MHz.
    pub fn geforce_6800() -> Self {
        Self {
            clock_hz: 400e6,
            n_pipes: 16,
            ..Self::geforce_7900gtx()
        }
    }

    /// Shader ops the device retires per second (all pipes).
    pub fn ops_per_second(&self) -> f64 {
        self.clock_hz * self.n_pipes as f64
    }

    /// PCIe cost of moving `bytes` to the GPU, seconds.
    pub fn upload_seconds(&self, bytes: usize) -> f64 {
        self.transfer_latency_s + bytes as f64 / self.upload_bytes_per_sec
    }

    /// PCIe cost of reading `bytes` back, seconds.
    pub fn readback_seconds(&self, bytes: usize) -> f64 {
        self.transfer_latency_s + bytes as f64 / self.readback_bytes_per_sec
    }

    /// Pipeline-occupancy seconds of a fragment pass that retires `ops`
    /// (the fixed per-dispatch driver overhead comes on top).
    pub fn shader_seconds(&self, ops: ShaderOps) -> f64 {
        ops.total() as f64 / self.ops_per_second()
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::geforce_7900gtx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput() {
        let c = GpuConfig::geforce_7900gtx();
        assert_eq!(c.n_pipes, 24);
        assert!((c.ops_per_second() - 15.6e9).abs() < 1e6);
    }

    #[test]
    fn readback_slower_than_upload() {
        let c = GpuConfig::geforce_7900gtx();
        assert!(c.readback_bytes_per_sec < c.upload_bytes_per_sec);
        assert!(c.readback_seconds(4096 * 16) > c.upload_seconds(4096 * 16));
        assert!(c.upload_seconds(4096 * 16) > c.upload_seconds(64 * 16));
    }

    #[test]
    fn generations_ordered_by_throughput() {
        // "the next generation from NVIDIA contained 24 pipelines, and that
        // number is growing."
        let old = GpuConfig::geforce_6800();
        let new = GpuConfig::geforce_7900gtx();
        assert_eq!(old.n_pipes, 16);
        assert!(new.ops_per_second() > 2.0 * old.ops_per_second());
    }
}
