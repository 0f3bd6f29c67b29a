//! The GPU port's cost model over the host-integrated trajectory.
//!
//! Per time step (paper section 5.2): the CPU sends the updated positions to
//! the GPU, the GPU computes all accelerations (and per-atom PE) in one
//! dispatch, the CPU reads the 4-component results back over PCIe, sums the
//! PE lanes in linear time, and integrates. The host half is md-core's
//! GPU-flavor [`Trajectory`]; this module charges it. Every charge of an
//! evaluation follows from the atom count, the evaluation index and the
//! scenario alone. The one-time JIT/startup cost
//! ([`GpuConfig::jit_startup_s`]) is not part of the charge, as in
//! Figure 7.

use crate::config::GpuConfig;
use crate::mdshader::{accel_ops, TEXEL_BYTES};
use crate::reduction::{multipass_seconds, ReductionStrategy};
use md_core::device::{DeviceError, DeviceRun, HostParallelism, PricedRun, Pricer};
use md_core::params::SimConfig;
use md_core::trajectory::{Flavor, Trajectory, TrajectoryRecord};
use sim_fault::{resolve_degradable, FaultKind, FaultSite};

/// Per-category simulated seconds across a run, in attribution order.
#[derive(Clone, Copy, Debug, Default)]
struct Breakdown {
    /// Shader pipeline occupancy.
    shader: f64,
    /// Position uploads (PCIe host→GPU).
    upload: f64,
    /// Acceleration readback (PCIe GPU→host).
    readback: f64,
    /// Per-dispatch driver overhead.
    dispatch_overhead: f64,
    /// Host CPU linear-time work (PE summation, integration).
    cpu: f64,
    /// GPU-side reduction passes (zero under the paper's CPU-readback
    /// strategy; the rejected multi-pass alternative accumulates here).
    gpu_reduction: f64,
}

impl Breakdown {
    fn total(&self) -> f64 {
        self.upload
            + self.shader
            + self.dispatch_overhead
            + self.readback
            + self.cpu
            + self.gpu_reduction
    }
}

/// Driver for GPU-accelerated MD.
pub struct GpuMdSimulation {
    pub config: GpuConfig,
    /// Armed fault schedule; `None` runs fault-free (see DESIGN.md §9).
    pub fault_plan: Option<sim_fault::FaultPlan>,
    /// The last run's trajectory, the resume record of the next run.
    last: Option<Trajectory>,
}

impl GpuMdSimulation {
    pub fn new(config: GpuConfig) -> Self {
        Self {
            config,
            fault_plan: None,
            last: None,
        }
    }

    /// Arm a deterministic fault schedule for subsequent runs.
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
    /// measured (see the `ablation_gpu_reduction` bench). Both strategies
    /// report the trajectory's CPU-summed PE. The one-time JIT/startup
    /// cost is not charged, as in Figure 7.
    pub fn run_md_with(
        &self,
        sim: &SimConfig,
        steps: usize,
        strategy: ReductionStrategy,
    ) -> PricedRun {
        let traj = Trajectory::drive(Flavor::Gpu, sim, None, steps, HostParallelism::Serial, None);
        self.charge_run(traj.record(), strategy, &mut sim_perf::PerfMonitor::new())
    }

    /// Charge a GPU-flavor trajectory: per evaluation a position upload, one
    /// acceleration dispatch, a readback, the PE reduction of `strategy`,
    /// the host's linear passes and the three fault sites, observing into
    /// `perf`.
    fn charge_run(
        &self,
        record: &TrajectoryRecord,
        strategy: ReductionStrategy,
        perf: &mut sim_perf::PerfMonitor,
    ) -> PricedRun {
        let (n, c) = (record.n(), &self.config);
        let sub = record.sim().substrate::<f32>();
        // "At the next time step, the updated positions are re-sent to the
        // GPU and new accelerations computed again": one texel per atom each
        // way, whatever the values.
        let upload = c.upload_seconds(n * TEXEL_BYTES);
        let readback = c.readback_seconds(n * TEXEL_BYTES);
        let bytes = (n * TEXEL_BYTES) as u64;
        // Predication makes the shader's retirement a closed form in n.
        let ops = accel_ops(n, &sub);
        let shader = c.shader_seconds(ops);
        let overhead = c.dispatch_overhead_s;
        let cpu_pass = c.cpu_linear_s_per_atom * n as f64;
        // The cascade's passes and per-pass ops depend on n alone.
        let reduction = match strategy {
            ReductionStrategy::CpuReadback => 0.0,
            ReductionStrategy::GpuMultiPass => multipass_seconds(c, n),
        };

        let mut breakdown = Breakdown::default();
        let mut total_ops = 0u64;
        let handles = PerfHandles::register(perf);
        let mut total_fetches = 0u64;
        let mut total_alu = 0u64;
        let mut bytes_up = 0u64;
        let mut bytes_down = 0u64;

        // One fault session per run; injected failures re-model only the
        // cost of detection and re-issue — never the physics.
        let mut fault = self.fault_plan.map(sim_fault::FaultSession::new);

        // Priming evaluation + one per time step.
        for eval in 0..record.evals().len() {
            if eval > 0 {
                breakdown.cpu += cpu_pass;
            }

            breakdown.upload += upload;
            bytes_up += bytes;
            // A timed-out host→GPU transfer costs the timeout window
            // (modeled as the transfer itself) plus the re-send.
            breakdown.upload += resolve_degradable(
                fault.as_mut(),
                FaultSite::new(FaultKind::TransferTimeout, eval as u64, 0, 0),
                2.0 * upload,
                1.0,
            );

            breakdown.shader += shader;
            breakdown.dispatch_overhead += overhead;
            total_ops += ops.total();
            total_fetches += ops.fetches;
            total_alu += ops.alu;
            // A NaN-poisoned shader pass is detected on the host (a scan of
            // the output texels, already covered by the linear CPU term) and
            // the whole dispatch is re-issued.
            breakdown.shader += resolve_degradable(
                fault.as_mut(),
                FaultSite::new(FaultKind::ShaderNan, eval as u64, 0, 0),
                shader + overhead,
                1.0,
            );

            breakdown.readback += readback;
            bytes_down += bytes;
            // A corrupted PCIe readback is caught by a host-side checksum
            // over the texels and re-read.
            breakdown.readback += resolve_degradable(
                fault.as_mut(),
                FaultSite::new(FaultKind::ReadbackCorruption, eval as u64, 0, 1),
                readback,
                1.0,
            );

            match strategy {
                // Linear-time CPU pass over the w lanes ("read back each
                // atom's contribution to PE as well and sum them in linear
                // time on the CPU").
                ReductionStrategy::CpuReadback => breakdown.cpu += cpu_pass,
                ReductionStrategy::GpuMultiPass => breakdown.gpu_reduction += reduction,
            }

            if eval > 0 {
                breakdown.cpu += cpu_pass;
                // Ensemble work (thermostat rescale) is one more O(N) host
                // pass; absent under NVE, so the paper runs charge nothing.
                if sub.extra_step_ops_per_atom() > 0.0 {
                    breakdown.cpu += cpu_pass;
                }
            }

            perf.record_total(handles.fetches, total_fetches as f64);
            perf.record_total(handles.shader_instructions, total_alu as f64);
            perf.record_total(handles.bytes_to_device, bytes_up as f64);
            perf.record_total(handles.bytes_from_device, bytes_down as f64);
            // The host blocks on every readback (the CPU-side reduction
            // needs the texels), so readback seconds *are* stall time.
            perf.record_total(handles.readback_stall_seconds, breakdown.readback);
            perf.record_total(handles.dispatches, (eval + 1) as f64);
            perf.sample_all(breakdown.total());
        }

        let b = breakdown;
        // The paper's small-N story: everything that exists only because the
        // GPU sits across a bus versus the work itself.
        let total = b.total().max(f64::MIN_POSITIVE);
        DeviceRun {
            sim_seconds: b.total(),
            energies: record.energies(),
            checkpoint: (),
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
            ops: total_ops as f64,
            bytes_moved: bytes_up as f64 + bytes_down as f64,
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
        opts: md_core::device::RunOptions<'_>,
    ) -> Result<DeviceRun, DeviceError> {
        md_core::device::run_priced(self, sim, opts)
    }

    fn as_pricer(&mut self) -> Option<&mut dyn Pricer> {
        Some(self)
    }
}

impl Pricer for GpuMdSimulation {
    fn flavor(&self) -> Flavor {
        Flavor::Gpu
    }

    fn price(
        &mut self,
        record: &TrajectoryRecord,
        perf: &mut sim_perf::PerfMonitor,
    ) -> Result<PricedRun, DeviceError> {
        md_core::device::check_flavor(self, record)?;
        Ok(self.charge_run(record, ReductionStrategy::CpuReadback, perf))
    }

    fn last_trajectory(&mut self) -> &mut Option<Trajectory> {
        &mut self.last
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
    fn run_md(m: &GpuMdSimulation, sim: &SimConfig, steps: usize) -> PricedRun {
        m.run_md_with(sim, steps, ReductionStrategy::CpuReadback)
    }

    /// The simulated seconds `run` attributes to `bucket`.
    fn seconds(run: &PricedRun, bucket: &str) -> f64 {
        let found = run.attribution.iter().find(|(name, _)| *name == bucket);
        found.map_or(f64::NAN, |&(_, s)| s)
    }

    fn run_md_perf(
        m: &GpuMdSimulation,
        sim: &SimConfig,
        steps: usize,
        perf: &mut sim_perf::PerfMonitor,
    ) -> PricedRun {
        let traj = Trajectory::drive(Flavor::Gpu, sim, None, steps, HostParallelism::Serial, None);
        m.charge_run(traj.record(), ReductionStrategy::CpuReadback, perf)
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

    /// The runtime is the per-evaluation terms alone: two evaluations of
    /// upload, shader, dispatch, readback and PE sum, and the one step's
    /// two host passes. No JIT charge.
    #[test]
    fn startup_excluded_from_runtime() {
        let (n, c) = (108, GpuConfig::geforce_7900gtx());
        let sim = SimConfig::reduced_lj(n);
        let run = run_md(&GpuMdSimulation::new(c), &sim, 1);
        let bytes = n * TEXEL_BYTES;
        let cpu = c.cpu_linear_s_per_atom * n as f64;
        let eval = c.upload_seconds(bytes)
            + c.shader_seconds(accel_ops(n, &sim.substrate()))
            + c.dispatch_overhead_s
            + c.readback_seconds(bytes)
            + cpu;
        let want = 2.0 * eval + 2.0 * cpu;
        assert!((run.sim_seconds - want).abs() < 1e-12 * want);
    }

    #[test]
    fn per_step_costs_have_constant_and_linear_parts() {
        // Dispatch overhead is constant per step; transfers are O(N).
        let t = |n: usize| {
            let run = run_md(
                &GpuMdSimulation::geforce_7900gtx(),
                &SimConfig::reduced_lj(n),
                2,
            );
            [
                "dispatch_overhead",
                "pcie_upload",
                "pcie_readback",
                "shader_compute",
            ]
            .map(|bucket| seconds(&run, bucket))
        };
        let [overhead_a, upload_a, readback_a, shader_a] = t(256);
        let [overhead_b, upload_b, readback_b, shader_b] = t(1024);
        assert_eq!(overhead_a, overhead_b);
        // Transfers have a fixed latency plus an O(N) bandwidth term.
        assert!(upload_b > upload_a, "uploads grow with N");
        assert!(readback_b > readback_a, "readbacks grow with N");
        assert!(shader_b > 10.0 * shader_a, "shader work scales with N²");
    }

    #[test]
    fn deterministic() {
        let sim = SimConfig::reduced_lj(108);
        let a = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 2);
        let b = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 2);
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.energies.total, b.energies.total);
        assert_eq!(a.ops, b.ops);
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
        assert_eq!(plain.ops, counted.ops);
        let fetches = perf.find("gpu.texture.fetches").expect("registered");
        let alu = perf.find("gpu.shader.instructions").expect("registered");
        assert_eq!(
            fetches.value() + alu.value(),
            counted.ops,
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
            seconds(&counted, "pcie_readback")
        );
    }

    #[test]
    fn segmented_run_matches_unsegmented_run_bitwise() {
        use md_core::device::{MdDevice, RunOptions};
        let sim = SimConfig::reduced_lj(256);
        let mut runner = GpuMdSimulation::geforce_7900gtx();
        let run = |dev: &mut GpuMdSimulation, opts| dev.run(&sim, opts).expect("GPU runs");
        let whole = run(&mut runner, RunOptions::steps(10)).checkpoint;
        let half = run(&mut runner, RunOptions::steps(5)).checkpoint;
        let rest = run(&mut runner, RunOptions::steps(5).from_checkpoint(&half));
        assert_eq!(whole, rest.checkpoint);
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
        assert_eq!(clean.ops, faulty.ops);
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

    /// Both reduction strategies' simulated seconds and PE at 256 × 4,
    /// pinned bit for bit. The multi-pass cascade's pass count and per-pass
    /// ops depend on n alone, so its charge is a function of the atom count.
    /// Both report the trajectory's CPU-summed PE (the cascade's own f32
    /// total read `0xc09a_fb11_2000_0000` here before it was priced from n).
    #[test]
    fn reduction_strategies_charge_pinned_seconds() {
        let sim = SimConfig::reduced_lj(256);
        let runner = GpuMdSimulation::geforce_7900gtx();
        for (strategy, seconds, pe) in [
            (
                ReductionStrategy::CpuReadback,
                0x3f69_feab_7961_11a0_u64,
                0xc09a_fb11_18e0_0000_u64,
            ),
            (
                ReductionStrategy::GpuMultiPass,
                0x3f8b_0424_0ec1_62c8,
                0xc09a_fb11_18e0_0000,
            ),
        ] {
            let run = runner.run_md_with(&sim, 4, strategy);
            assert_eq!(run.sim_seconds.to_bits(), seconds, "{strategy:?}");
            assert_eq!(run.energies.potential.to_bits(), pe, "{strategy:?}");
        }
    }

    #[test]
    fn multipass_reduction_same_physics_but_slower() {
        let sim = SimConfig::reduced_lj(512);
        let runner = GpuMdSimulation::geforce_7900gtx();
        let cpu = runner.run_md_with(&sim, 2, ReductionStrategy::CpuReadback);
        let gpu = runner.run_md_with(&sim, 2, ReductionStrategy::GpuMultiPass);
        // Same trajectory, and both report its CPU-summed PE.
        assert_eq!(cpu.energies, gpu.energies);
        // The paper's claim: the multi-pass reduction "introduces significant
        // overheads" relative to the free CPU sum.
        assert!(gpu.sim_seconds > cpu.sim_seconds);
        assert!(seconds(&gpu, "gpu_reduction") > 0.0);
        assert_eq!(seconds(&cpu, "gpu_reduction"), 0.0);
    }
}
