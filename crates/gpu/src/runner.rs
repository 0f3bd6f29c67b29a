//! The host-side MD driver for the GPU port.
//!
//! Per time step (paper section 5.2): the CPU sends the updated positions to
//! the GPU, the GPU computes all accelerations (and per-atom PE) in one
//! dispatch, the CPU reads the 4-component results back over PCIe, sums the
//! PE lanes in linear time, and integrates. The one-time JIT/startup cost is
//! tracked but excluded from the runtime, exactly as in Figure 7.

use crate::config::GpuConfig;
use crate::device::GpuDevice;
use crate::mdshader::LjAccelShader;
use crate::texture::Texture;
use md_core::init;
use md_core::observables::EnergyReport;
use md_core::params::SimConfig;
use md_core::system::ParticleSystem;
use md_core::verlet::VelocityVerlet;
use sim_fault::{resolve_degradable, FaultKind, FaultSite};
use vecmath::Vec3;

/// Per-category simulated seconds across a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct GpuStepBreakdown {
    /// Position uploads (PCIe host→GPU).
    pub upload: f64,
    /// Shader pipeline occupancy.
    pub shader: f64,
    /// Per-dispatch driver overhead.
    pub dispatch_overhead: f64,
    /// Acceleration readback (PCIe GPU→host).
    pub readback: f64,
    /// Host CPU linear-time work (PE summation, integration).
    pub cpu: f64,
    /// GPU-side reduction passes (zero under the paper's CPU-readback
    /// strategy; the rejected multi-pass alternative accumulates here).
    pub gpu_reduction: f64,
}

impl GpuStepBreakdown {
    pub fn total(&self) -> f64 {
        self.upload
            + self.shader
            + self.dispatch_overhead
            + self.readback
            + self.cpu
            + self.gpu_reduction
    }
}

/// Result of a simulated GPU-accelerated run.
#[derive(Clone, Debug)]
pub struct GpuRun {
    /// Simulated runtime, startup excluded (Figure 7's quantity).
    pub sim_seconds: f64,
    /// One-time startup (JIT, context creation) — excluded from the above.
    pub startup_seconds: f64,
    pub breakdown: GpuStepBreakdown,
    pub energies: EnergyReport,
    /// Total shader ops retired.
    pub total_ops: u64,
    /// Injected-fault ledger for this run (zero when no plan is armed).
    /// `faults.exhausted > 0` means the modeled degraded path was taken;
    /// the harness supervisor treats that as a failed segment.
    pub faults: sim_fault::FaultStats,
}

/// Driver for GPU-accelerated MD.
pub struct GpuMdSimulation {
    pub config: GpuConfig,
    /// Armed fault schedule; `None` runs fault-free (see DESIGN.md §9).
    pub fault_plan: Option<sim_fault::FaultPlan>,
}

impl GpuMdSimulation {
    pub fn new(config: GpuConfig) -> Self {
        Self {
            config,
            fault_plan: None,
        }
    }

    /// Arm a deterministic fault schedule for subsequent `run_md*` calls.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: sim_fault::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    pub fn geforce_7900gtx() -> Self {
        Self::new(GpuConfig::geforce_7900gtx())
    }

    /// The previous GPU generation (16 pipelines at 400 MHz).
    pub fn geforce_6800() -> Self {
        Self::new(GpuConfig::geforce_6800())
    }

    /// Run with an explicit PE-reduction strategy — `GpuMultiPass` is the
    /// alternative the paper rejected; it exists so the overhead claim can be
    /// measured (see the `ablation_gpu_reduction` bench).
    pub fn run_md_with(
        &self,
        sim: &SimConfig,
        steps: usize,
        strategy: crate::reduction::ReductionStrategy,
    ) -> GpuRun {
        let mut sys: ParticleSystem<f32> = init::initialize(sim);
        self.run_md_impl(
            &mut sys,
            sim,
            steps,
            strategy,
            None,
            md_core::device::HostParallelism::Serial,
        )
    }

    fn run_md_impl(
        &self,
        sys: &mut ParticleSystem<f32>,
        sim: &SimConfig,
        steps: usize,
        strategy: crate::reduction::ReductionStrategy,
        mut perf: Option<&mut sim_perf::PerfMonitor>,
        par: md_core::device::HostParallelism,
    ) -> GpuRun {
        let n = sys.n();
        let vv = VelocityVerlet::new(sim.dt as f32);
        let sub = sim.substrate::<f32>();

        let mut device = GpuDevice::new(self.config);
        let shader = LjAccelShader::new(n, sub);
        device.compile(LjAccelShader::constants(sys.box_len, 1.0 / sys.mass, &sub));

        let mut breakdown = GpuStepBreakdown::default();
        let mut total_ops = 0u64;
        let mut pe = 0.0f64;
        let handles = perf.as_deref_mut().map(PerfHandles::register);
        let mut total_fetches = 0u64;
        let mut total_alu = 0u64;
        let mut bytes_up = 0u64;
        let mut bytes_down = 0u64;

        // One fault session per run; the functional transfers below always
        // deliver pristine data, so injected failures re-model only the cost
        // of detection and re-issue — never the physics.
        let mut fault = self.fault_plan.map(sim_fault::FaultSession::new);

        // Priming evaluation + one per time step.
        for eval in 0..=steps {
            if eval > 0 {
                vv.kick_drift(sys);
                breakdown.cpu += self.config.cpu_linear_s_per_atom * n as f64;
            }

            // "At the next time step, the updated positions are re-sent to
            // the GPU and new accelerations computed again."
            let positions =
                Texture::from_texels(sys.positions.iter().map(|p| [p.x, p.y, p.z, 0.0]).collect());
            let upload = device.upload_seconds(&positions);
            breakdown.upload += upload;
            bytes_up += positions.size_bytes() as u64;
            // A timed-out host→GPU transfer costs the timeout window
            // (modeled as the transfer itself) plus the re-send.
            breakdown.upload += resolve_degradable(
                fault.as_mut(),
                FaultSite::new(FaultKind::TransferTimeout, eval as u64, 0, 0),
                2.0 * upload,
                1.0,
            );

            // Physics-once execution (DESIGN.md §17): the texels come from
            // the shared wide evaluator and the op tally is replayed in
            // closed form — bitwise the interpretive per-pair shader walk.
            let result = shader.dispatch_shared(&device, &positions, par);
            breakdown.shader += result.shader_seconds;
            breakdown.dispatch_overhead += result.overhead_seconds;
            total_ops += result.ops.total();
            total_fetches += result.ops.fetches;
            total_alu += result.ops.alu;
            // A NaN-poisoned shader pass is detected on the host (a scan of
            // the output texels, already covered by the linear CPU term) and
            // the whole dispatch is re-issued.
            breakdown.shader += resolve_degradable(
                fault.as_mut(),
                FaultSite::new(FaultKind::ShaderNan, eval as u64, 0, 0),
                result.shader_seconds + result.overhead_seconds,
                1.0,
            );

            let readback = device.readback_seconds(&result.output);
            breakdown.readback += readback;
            bytes_down += result.output.size_bytes() as u64;
            // A corrupted PCIe readback is caught by a host-side checksum
            // over the texels and re-read.
            breakdown.readback += resolve_degradable(
                fault.as_mut(),
                FaultSite::new(FaultKind::ReadbackCorruption, eval as u64, 0, 1),
                readback,
                1.0,
            );

            // The accelerations must come back to the host either way.
            for (i, texel) in result.output.texels().iter().enumerate() {
                sys.accelerations[i] = Vec3::new(texel[0], texel[1], texel[2]);
            }
            let pe_twice = match strategy {
                crate::reduction::ReductionStrategy::CpuReadback => {
                    // Linear-time CPU pass over the w lanes ("read back each
                    // atom's contribution to PE as well and sum them in
                    // linear time on the CPU").
                    breakdown.cpu += self.config.cpu_linear_s_per_atom * n as f64;
                    result
                        .output
                        .texels()
                        .iter()
                        .map(|t| t[3] as f64)
                        .sum::<f64>()
                }
                crate::reduction::ReductionStrategy::GpuMultiPass => {
                    let r = crate::reduction::reduce_on_gpu(&device, &result.output);
                    breakdown.gpu_reduction += r.seconds;
                    r.total
                }
            };
            pe = pe_twice * 0.5;

            if eval > 0 {
                vv.kick(sys);
                breakdown.cpu += self.config.cpu_linear_s_per_atom * n as f64;
                // Ensemble work (thermostat rescale) is one more O(N) host
                // pass; absent under NVE, so the paper runs charge nothing.
                if sub.extra_step_ops_per_atom() > 0.0 {
                    breakdown.cpu += self.config.cpu_linear_s_per_atom * n as f64;
                }
                sub.apply_thermostat(sys);
            }

            if let (Some(p), Some(h)) = (perf.as_deref_mut(), handles) {
                p.record_total(h.fetches, total_fetches as f64);
                p.record_total(h.shader_instructions, total_alu as f64);
                p.record_total(h.bytes_to_device, bytes_up as f64);
                p.record_total(h.bytes_from_device, bytes_down as f64);
                // The host blocks on every readback (the CPU-side reduction
                // needs the texels), so readback seconds *are* stall time.
                p.record_total(h.readback_stall_seconds, breakdown.readback);
                p.record_total(h.dispatches, (eval + 1) as f64);
                p.sample_all(breakdown.total());
            }
        }

        GpuRun {
            sim_seconds: breakdown.total(),
            startup_seconds: device.startup_seconds(),
            breakdown,
            energies: EnergyReport::measure(sys, pe),
            total_ops,
            faults: fault.map_or_else(sim_fault::FaultStats::default, |f| f.stats()),
        }
    }
}

/// Registered handles for the GPU's counter set (texture fetches, shader
/// instructions, PCIe bytes per direction, readback stalls, dispatches).
#[derive(Clone, Copy)]
struct PerfHandles {
    fetches: sim_perf::CounterHandle,
    shader_instructions: sim_perf::CounterHandle,
    bytes_to_device: sim_perf::CounterHandle,
    bytes_from_device: sim_perf::CounterHandle,
    readback_stall_seconds: sim_perf::CounterHandle,
    dispatches: sim_perf::CounterHandle,
}

impl PerfHandles {
    fn register(p: &mut sim_perf::PerfMonitor) -> Self {
        Self {
            fetches: p.register("gpu.texture.fetches", "ops"),
            shader_instructions: p.register("gpu.shader.instructions", "ops"),
            bytes_to_device: p.register("gpu.pcie.bytes_to_device", "bytes"),
            bytes_from_device: p.register("gpu.pcie.bytes_from_device", "bytes"),
            readback_stall_seconds: p.register("gpu.readback.stall_seconds", "seconds"),
            dispatches: p.register("gpu.dispatches", "events"),
        }
    }
}

impl md_core::device::MdDevice for GpuMdSimulation {
    fn label(&self) -> String {
        // Named models keep their historical metric labels; anything else is
        // identified by pipe count. The clock match is bit-exact on purpose:
        // a model label applies only to the unmodified factory constant.
        let c = &self.config;
        if c.n_pipes == 24 && c.clock_hz.to_bits() == 650e6_f64.to_bits() {
            "gpu-7900gtx".to_string()
        } else if c.n_pipes == 16 && c.clock_hz.to_bits() == 400e6_f64.to_bits() {
            "gpu-6800".to_string()
        } else {
            format!("gpu-{}pipes", c.n_pipes)
        }
    }

    fn peak_ops_per_second(&self) -> f64 {
        self.config.ops_per_second()
    }

    fn resalt(&mut self, salt: u64) {
        self.fault_plan = self.fault_plan.map(|p| p.with_salt(salt));
    }

    fn run(
        &mut self,
        sim: &SimConfig,
        mut opts: md_core::device::RunOptions<'_>,
    ) -> Result<md_core::device::DeviceRun, md_core::device::DeviceError> {
        let par = opts.host_parallelism;
        let (mut sys, start_step): (ParticleSystem<f32>, u64) = match opts.start {
            Some(cp) => (cp.restore(), cp.step),
            None => (init::initialize(sim), 0),
        };
        // bytes_moved comes from the PCIe byte counters, so observe with a
        // local monitor when the caller didn't pass one (observation is free:
        // the counted run is bitwise-identical to the uncounted one).
        let mut local = sim_perf::PerfMonitor::new();
        let perf = match opts.perf.take() {
            Some(p) => p,
            None => &mut local,
        };
        let r = self.run_md_impl(
            &mut sys,
            sim,
            opts.steps,
            crate::reduction::ReductionStrategy::CpuReadback,
            Some(perf),
            par,
        );
        let b = r.breakdown;
        let bytes = md_core::device::counter_total(perf, "gpu.pcie.bytes_to_device")
            + md_core::device::counter_total(perf, "gpu.pcie.bytes_from_device");
        // The paper's small-N story: everything that exists only because the
        // GPU sits across a bus versus the work itself.
        let total = r.sim_seconds.max(f64::MIN_POSITIVE);
        let run = md_core::device::DeviceRun {
            sim_seconds: r.sim_seconds,
            energies: r.energies,
            checkpoint: md_core::checkpoint::SystemCheckpoint::capture(
                &sys,
                start_step + opts.steps as u64,
            ),
            attribution: vec![
                ("shader_compute", b.shader),
                ("pcie_upload", b.upload),
                ("pcie_readback", b.readback),
                ("dispatch_overhead", b.dispatch_overhead),
                ("cpu_serial", b.cpu),
                ("gpu_reduction", b.gpu_reduction),
            ],
            derived: vec![
                (
                    "transfer_overhead_fraction",
                    (b.upload + b.readback + b.dispatch_overhead) / total,
                ),
                (
                    "compute_fraction",
                    (b.shader + b.cpu + b.gpu_reduction) / total,
                ),
            ],
            ops: r.total_ops as f64,
            bytes_moved: bytes,
            faults: r.faults,
        };
        if let Some(led) = opts.ledger.take() {
            let label = md_core::device::MdDevice::label(self);
            md_core::device::ledger_record_run(led, &label, &run, Some(perf));
        }
        Ok(run)
    }
}

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    /// Test-local shorthand over the single run path (the public surface is
    /// [`md_core::device::MdDevice::run`]).
    fn run_md(m: &GpuMdSimulation, sim: &SimConfig, steps: usize) -> GpuRun {
        m.run_md_with(sim, steps, crate::reduction::ReductionStrategy::CpuReadback)
    }

    fn run_md_perf(
        m: &GpuMdSimulation,
        sim: &SimConfig,
        steps: usize,
        perf: &mut sim_perf::PerfMonitor,
    ) -> GpuRun {
        let mut sys: ParticleSystem<f32> = init::initialize(sim);
        m.run_md_impl(
            &mut sys,
            sim,
            steps,
            crate::reduction::ReductionStrategy::CpuReadback,
            Some(perf),
            md_core::device::HostParallelism::Serial,
        )
    }

    fn run_md_from(
        m: &GpuMdSimulation,
        sys: &mut ParticleSystem<f32>,
        sim: &SimConfig,
        steps: usize,
    ) -> GpuRun {
        m.run_md_impl(
            sys,
            sim,
            steps,
            crate::reduction::ReductionStrategy::CpuReadback,
            None,
            md_core::device::HostParallelism::Serial,
        )
    }

    #[test]
    fn physics_matches_f32_reference() {
        let sim = SimConfig::reduced_lj(256);
        let run = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 3);

        let expect = md_core::reference::run::<f32>(&sim, 3);
        assert!(
            (run.energies.total - expect.total).abs() < 1e-3 * expect.total.abs(),
            "GPU {} vs reference {}",
            run.energies.total,
            expect.total
        );
    }

    #[test]
    fn startup_excluded_from_runtime() {
        let sim = SimConfig::reduced_lj(108);
        let run = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 1);
        assert!(run.startup_seconds > 0.0);
        assert!(
            (run.sim_seconds - run.breakdown.total()).abs() < 1e-12,
            "runtime is the per-step breakdown only"
        );
    }

    #[test]
    fn per_step_costs_have_constant_and_linear_parts() {
        // Dispatch overhead is constant per step; transfers are O(N).
        let t = |n: usize| {
            run_md(
                &GpuMdSimulation::geforce_7900gtx(),
                &SimConfig::reduced_lj(n),
                2,
            )
            .breakdown
        };
        let a = t(256);
        let b = t(1024);
        assert_eq!(a.dispatch_overhead, b.dispatch_overhead);
        // Transfers have a fixed latency plus an O(N) bandwidth term.
        assert!(b.upload > a.upload, "uploads grow with N");
        assert!(b.readback > a.readback, "readbacks grow with N");
        assert!(b.shader > 10.0 * a.shader, "shader work scales with N²");
    }

    #[test]
    fn deterministic() {
        let sim = SimConfig::reduced_lj(108);
        let a = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 2);
        let b = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 2);
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.energies.total, b.energies.total);
        assert_eq!(a.total_ops, b.total_ops);
    }

    #[test]
    fn perf_counters_are_free_and_populated() {
        let sim = SimConfig::reduced_lj(128);
        let plain = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 2);
        let mut perf = sim_perf::PerfMonitor::new();
        let counted = run_md_perf(&GpuMdSimulation::geforce_7900gtx(), &sim, 2, &mut perf);
        assert_eq!(
            plain.sim_seconds, counted.sim_seconds,
            "observability is free"
        );
        assert_eq!(plain.energies.total, counted.energies.total);
        assert_eq!(plain.total_ops, counted.total_ops);
        let fetches = perf.find("gpu.texture.fetches").expect("registered");
        let alu = perf.find("gpu.shader.instructions").expect("registered");
        assert_eq!(
            fetches.value() + alu.value(),
            counted.total_ops as f64,
            "fetch + alu partition the retired ops"
        );
        assert_eq!(fetches.samples().len(), 3, "prime eval + one per step");
        // Both PCIe directions move one 16-byte texel per atom per eval.
        let expect_bytes = (128 * 16 * 3) as f64;
        assert_eq!(
            perf.find("gpu.pcie.bytes_to_device")
                .expect("registered")
                .value(),
            expect_bytes
        );
        assert_eq!(
            perf.find("gpu.pcie.bytes_from_device")
                .expect("registered")
                .value(),
            expect_bytes
        );
        assert_eq!(
            perf.find("gpu.readback.stall_seconds")
                .expect("registered")
                .value(),
            counted.breakdown.readback
        );
    }

    #[test]
    fn segmented_run_matches_unsegmented_run_bitwise() {
        let sim = SimConfig::reduced_lj(256);
        let runner = GpuMdSimulation::geforce_7900gtx();
        let mut whole: ParticleSystem<f32> = init::initialize(&sim);
        run_md_from(&runner, &mut whole, &sim, 10);
        let mut segmented: ParticleSystem<f32> = init::initialize(&sim);
        run_md_from(&runner, &mut segmented, &sim, 5);
        run_md_from(&runner, &mut segmented, &sim, 5);
        assert_eq!(whole.positions, segmented.positions);
        assert_eq!(whole.velocities, segmented.velocities);
    }

    #[test]
    fn injected_faults_leave_physics_untouched_and_slow_the_run() {
        let sim = SimConfig::reduced_lj(256);
        let clean = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 5);
        let faulty = run_md(
            &GpuMdSimulation::geforce_7900gtx().with_fault_plan(sim_fault::FaultPlan::new(5, 0.3)),
            &sim,
            5,
        );
        assert_eq!(clean.energies.total, faulty.energies.total);
        assert_eq!(clean.total_ops, faulty.total_ops);
        assert!(faulty.faults.any());
        assert!(faulty.sim_seconds > clean.sim_seconds);
        // The GPU pipeline is serial, so the slowdown is exactly the
        // charged recovery time.
        assert!(
            (faulty.sim_seconds - clean.sim_seconds - faulty.faults.extra_seconds).abs()
                < 1e-12 * faulty.sim_seconds.max(1e-30)
        );
    }

    #[test]
    fn exhaustion_degrades_instead_of_failing() {
        let sim = SimConfig::reduced_lj(108);
        let run = run_md(
            &GpuMdSimulation::geforce_7900gtx().with_fault_plan(sim_fault::FaultPlan::new(0, 1.0)),
            &sim,
            1,
        );
        assert!(run.faults.exhausted > 0, "rate 1.0 must exhaust");
        assert!(
            run.energies.total.is_finite(),
            "degraded run still completes"
        );
    }

    #[test]
    fn fault_schedule_is_reproducible_across_runs() {
        let sim = SimConfig::reduced_lj(108);
        let mk = || {
            run_md(
                &GpuMdSimulation::geforce_7900gtx()
                    .with_fault_plan(sim_fault::FaultPlan::new(42, 0.25)),
                &sim,
                3,
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.sim_seconds, b.sim_seconds);
    }

    #[test]
    fn multipass_reduction_same_physics_but_slower() {
        use crate::reduction::ReductionStrategy;
        let sim = SimConfig::reduced_lj(512);
        let runner = GpuMdSimulation::geforce_7900gtx();
        let cpu = runner.run_md_with(&sim, 2, ReductionStrategy::CpuReadback);
        let gpu = runner.run_md_with(&sim, 2, ReductionStrategy::GpuMultiPass);
        // Same trajectory: the PE totals agree to f32 summation-order noise,
        // and the accelerations (hence energies) are identical.
        assert!(
            (cpu.energies.total - gpu.energies.total).abs() < 1e-3 * cpu.energies.total.abs(),
            "{} vs {}",
            cpu.energies.total,
            gpu.energies.total
        );
        // The paper's claim: the multi-pass reduction "introduces significant
        // overheads" relative to the free CPU sum.
        assert!(gpu.sim_seconds > cpu.sim_seconds);
        assert!(gpu.breakdown.gpu_reduction > 0.0);
        assert_eq!(cpu.breakdown.gpu_reduction, 0.0);
    }
}
