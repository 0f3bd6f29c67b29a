//! The MD kernel on the MTA-2 (paper section 5.3).
//!
//! Double precision (unlike the Cell/GPU ports), with the five-step structure
//! of Figure 4 mapped onto parallel loops. Two build modes reproduce
//! Figure 8:
//!
//! - **Fully multithreaded**: the step-2 reduction is restructured (moved
//!   inside the loop body, accumulated through full/empty-bit atomic adds)
//!   and the loop carries `#pragma mta assert no dependence` — every loop
//!   parallelizes across the 128 hardware streams.
//! - **Partially multithreaded**: the original code; the compiler detects the
//!   PE-reduction dependence in step 2 and serializes that loop onto a single
//!   stream, while the O(N) loops still parallelize. Since step 2 is O(N²),
//!   the performance gap grows with atom count — exactly Figure 8.

use crate::compiler::{analyze_loop, LoopDesc, ParallelizationDecision};
use crate::config::MtaConfig;
use crate::processor::MtaProcessor;
use md_core::device::Pricer;
use md_core::observables::EnergyReport;
use md_core::params::SimConfig;
use md_core::trajectory::{Flavor, Trajectory, TrajectoryRecord};
use sim_fault::{resolve_degradable, FaultKind, FaultSite};

/// Instructions per examined pair in step 2 (loads, minimum image, distance,
/// cutoff compare, loop bookkeeping — all single-issue on the MTA).
const INSTR_PER_PAIR: f64 = 24.0;
/// Extra instructions for an interacting pair (LJ evaluation + accumulate).
const INSTR_PER_INTERACTION: f64 = 20.0;
/// Instructions per atom in each O(N) integration loop.
const INSTR_INTEGRATE: f64 = 15.0;
/// Instructions per atom in the energy loop (step 5).
const INSTR_ENERGY: f64 = 8.0;

/// Whether the step-2 loop got the paper's restructuring + pragma.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadingMode {
    /// Reduction moved into the loop body + `assert no dependence`.
    FullyMultithreaded,
    /// Original code: compiler serializes step 2.
    PartiallyMultithreaded,
}

/// Where the run's cycles went, summed over every loop the kernel charged
/// (see [`crate::processor::MtaProcessor::loop_cycle_parts`]). Injected-fault
/// recovery cycles are folded into `stall`, so
/// `startup + issue + stall == MtaRun::cycles` to within float rounding.
#[derive(Clone, Copy, Debug, Default)]
pub struct MtaCycleBreakdown {
    /// Parallel-loop spin-up cycles.
    pub startup: f64,
    /// Ideal instruction-issue cycles (saturated floor).
    pub issue: f64,
    /// Phantom/no-op issue slots: under-saturation, serialization, and
    /// injected-fault recovery.
    pub stall: f64,
}

impl MtaCycleBreakdown {
    pub fn total(&self) -> f64 {
        self.startup + self.issue + self.stall
    }
}

/// Result of a simulated MTA run.
#[derive(Clone, Debug)]
pub struct MtaRun {
    pub sim_seconds: f64,
    pub cycles: f64,
    /// Cycle decomposition of the run (startup vs issue vs phantom).
    pub breakdown: MtaCycleBreakdown,
    pub energies: EnergyReport,
    pub mode: ThreadingMode,
    /// What the compiler decided for each loop (step name, verdict).
    pub decisions: Vec<(&'static str, ParallelizationDecision)>,
    /// Total instructions issued — Figure 9's "floating-point computation
    /// requirements" proxy (the MTA's runtime is proportional to this).
    pub instructions: f64,
    /// Injected-fault ledger for this run (zero when no plan is armed).
    /// `faults.exhausted > 0` means the modeled degraded path was taken;
    /// the harness supervisor treats that as a failed segment.
    pub faults: sim_fault::FaultStats,
}

/// MD on the simulated MTA.
pub struct MtaMdSimulation {
    pub processor: MtaProcessor,
    /// Armed fault schedule; `None` runs fault-free (see DESIGN.md §9).
    pub fault_plan: Option<sim_fault::FaultPlan>,
}

impl MtaMdSimulation {
    pub fn new(config: MtaConfig) -> Self {
        Self {
            processor: MtaProcessor::new(config),
            fault_plan: None,
        }
    }

    pub fn paper_mta2() -> Self {
        Self::new(MtaConfig::paper_mta2())
    }

    /// Arm a deterministic fault schedule for subsequent `run_md*` calls.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: sim_fault::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Price one run in the given threading mode: the closed-form charge of
    /// every loop of Figure 4 and the starvation and hot-spot fault sites.
    /// The physics is the record of the host-flavor (f64) [`Trajectory`]
    /// and does not depend on the mode (the modes differ only in how loops
    /// are scheduled); runtimes differ enormously. This is the single cost
    /// path behind [`md_core::device::MdDevice::run`] on [`MtaMd`].
    fn price(
        &self,
        traj: &TrajectoryRecord,
        mode: ThreadingMode,
        perf: &mut sim_perf::PerfMonitor,
    ) -> MtaRun {
        let n = traj.n();
        let sub = traj.sim().substrate::<f64>();

        let mut cycles = 0.0f64;
        let mut instructions = 0.0f64;
        let mut breakdown = MtaCycleBreakdown::default();
        // Stream-occupancy integral: streams × cycles summed over loops.
        // Monotonic by construction; average occupancy falls out as
        // occupancy_cycles / cycles.
        let mut occupancy_cycles = 0.0f64;
        let mut hotspot_retry_cycles = 0.0f64;
        let h = PerfHandles::register(perf);
        let mut decisions: Vec<(&'static str, ParallelizationDecision)> = Vec::new();
        let record =
            |name: &'static str,
             d: ParallelizationDecision,
             decisions: &mut Vec<(&'static str, ParallelizationDecision)>| {
                if !decisions.iter().any(|(n2, _)| *n2 == name) {
                    decisions.push((name, d));
                }
            };
        // Charge one loop: total cycles (bitwise the same value
        // `loop_cycles` returns — the breakdown is derived, not a reprice),
        // instruction count, the cycle decomposition, and the occupancy
        // integral. Returns the loop's cycles for fault-unit sizing.
        let charge = |l: &LoopDesc,
                      cycles: &mut f64,
                      instructions: &mut f64,
                      breakdown: &mut MtaCycleBreakdown,
                      occupancy_cycles: &mut f64|
         -> f64 {
            let parts = self.processor.loop_cycle_parts(l);
            *cycles += parts.cycles;
            *instructions += l.total_instructions();
            breakdown.startup += parts.startup;
            breakdown.issue += parts.issue;
            breakdown.stall += parts.stall;
            *occupancy_cycles += parts.streams as f64 * parts.cycles;
            parts.cycles
        };

        // One fault session per run. Injected failures only charge the cost
        // of re-issued work; the physics is the trajectory's.
        let mut fault = self.fault_plan.map(sim_fault::FaultSession::new);

        for (eval, rec) in traj.evals().iter().enumerate() {
            if eval > 0 {
                let l = self.integration_loop("step1-advance-velocities", n);
                record(l.name, analyze_loop(&l), &mut decisions);
                charge(
                    &l,
                    &mut cycles,
                    &mut instructions,
                    &mut breakdown,
                    &mut occupancy_cycles,
                );
            }

            // Step 2: forces. Each simulated stream owns one atom's gather
            // row and adds its PE into a full/empty-bit accumulator (the
            // restructured reduction). Interaction cost: the LJ baseline
            // plus whatever extra work the scenario's potential costs (zero
            // for the paper-faithful run).
            let per_iter = (n as f64 - 1.0) * INSTR_PER_PAIR
                + (rec.interactions as f64 / n as f64)
                    * (INSTR_PER_INTERACTION + sub.extra_eval_ops())
                + self.processor.config.sync_instructions;
            let step2 = LoopDesc {
                name: "step2-forces",
                iterations: n as u64,
                instructions_per_iteration: per_iter,
                // loads dominate the gather loop
                memory_fraction: 0.4,
                has_unresolved_reduction: true,
                pragma_no_dependence: mode == ThreadingMode::FullyMultithreaded,
            };
            record(step2.name, analyze_loop(&step2), &mut decisions);
            let step2_cycles = charge(
                &step2,
                &mut cycles,
                &mut instructions,
                &mut breakdown,
                &mut occupancy_cycles,
            );
            let cfg = &self.processor.config;
            // The runtime hands the loop fewer streams than requested: the
            // starved share of the iteration space is re-issued, paying the
            // loop startup again plus a quarter of the loop.
            let starvation_extra = resolve_degradable(
                fault.as_mut(),
                FaultSite::new(FaultKind::StreamStarvation, eval as u64, 0, 0),
                cfg.loop_startup_cycles + 0.25 * step2_cycles,
                cfg.clock_hz,
            );
            cycles += starvation_extra;
            breakdown.stall += starvation_extra;
            // Hot-spotting on the full/empty PE accumulator: every stream
            // retries its synchronized add once.
            let hotspot_extra = resolve_degradable(
                fault.as_mut(),
                FaultSite::new(FaultKind::HotSpotRetry, eval as u64, 0, 1),
                cfg.sync_instructions
                    * cfg.stream_issue_interval
                    * cfg.streams_per_processor as f64,
                cfg.clock_hz,
            );
            cycles += hotspot_extra;
            breakdown.stall += hotspot_extra;
            hotspot_retry_cycles += hotspot_extra;

            if eval > 0 {
                let l = self.integration_loop("step3-4-move-update", n);
                record(l.name, analyze_loop(&l), &mut decisions);
                charge(
                    &l,
                    &mut cycles,
                    &mut instructions,
                    &mut breakdown,
                    &mut occupancy_cycles,
                );

                // Ensemble work: the thermostat's velocity rescale is one
                // more O(N) parallel loop. Absent under NVE, so the
                // paper-faithful runs charge (and record) nothing.
                let ens_ops = sub.extra_step_ops_per_atom();
                if ens_ops > 0.0 {
                    let l = LoopDesc {
                        name: "step6-thermostat",
                        iterations: n as u64,
                        instructions_per_iteration: ens_ops,
                        memory_fraction: 0.3,
                        has_unresolved_reduction: false,
                        pragma_no_dependence: false,
                    };
                    record(l.name, analyze_loop(&l), &mut decisions);
                    charge(
                        &l,
                        &mut cycles,
                        &mut instructions,
                        &mut breakdown,
                        &mut occupancy_cycles,
                    );
                }

                // Step 5: kinetic/total energies (parallelized without code
                // modification, per the paper).
                let l = LoopDesc {
                    name: "step5-energies",
                    iterations: n as u64,
                    instructions_per_iteration: INSTR_ENERGY,
                    memory_fraction: 0.3,
                    has_unresolved_reduction: false,
                    pragma_no_dependence: false,
                };
                record(l.name, analyze_loop(&l), &mut decisions);
                charge(
                    &l,
                    &mut cycles,
                    &mut instructions,
                    &mut breakdown,
                    &mut occupancy_cycles,
                );
            }

            perf.record_total(h.instructions, instructions);
            perf.record_total(h.startup, breakdown.startup);
            perf.record_total(h.issue, breakdown.issue);
            perf.record_total(h.phantom, breakdown.stall);
            perf.record_total(h.occupancy, occupancy_cycles);
            perf.record_total(h.hotspot_retries, hotspot_retry_cycles);
            perf.sample_all(cycles / self.processor.config.clock_hz);
        }

        MtaRun {
            sim_seconds: cycles / self.processor.config.clock_hz,
            cycles,
            breakdown,
            energies: traj.energies(),
            mode,
            decisions,
            instructions,
            faults: fault.map_or_else(sim_fault::FaultStats::default, |f| f.stats()),
        }
    }

    fn integration_loop(&self, name: &'static str, n: usize) -> LoopDesc {
        LoopDesc {
            name,
            iterations: n as u64,
            instructions_per_iteration: INSTR_INTEGRATE,
            memory_fraction: 0.3,
            has_unresolved_reduction: false,
            pragma_no_dependence: false,
        }
    }
}

/// Era-appropriate MTA counters, registered once per instrumented run.
#[derive(Clone, Copy)]
struct PerfHandles {
    instructions: sim_perf::CounterHandle,
    startup: sim_perf::CounterHandle,
    issue: sim_perf::CounterHandle,
    phantom: sim_perf::CounterHandle,
    occupancy: sim_perf::CounterHandle,
    hotspot_retries: sim_perf::CounterHandle,
}

impl PerfHandles {
    fn register(perf: &mut sim_perf::PerfMonitor) -> Self {
        Self {
            instructions: perf.register("mta.instructions", "instrs"),
            startup: perf.register("mta.cycles.startup", "cycles"),
            issue: perf.register("mta.cycles.issue", "cycles"),
            phantom: perf.register("mta.cycles.phantom", "cycles"),
            occupancy: perf.register("mta.stream.occupancy_cycles", "stream-cycles"),
            hotspot_retries: perf.register("mta.hotspot.retry_cycles", "cycles"),
        }
    }
}

/// An [`MtaMdSimulation`] bound to one [`ThreadingMode`], so the two Figure 8
/// configurations appear as distinct devices behind the device-neutral
/// [`md_core::device::MdDevice`] interface.
pub struct MtaMd {
    pub sim: MtaMdSimulation,
    pub mode: ThreadingMode,
    /// The last run's trajectory, the resume record of the next run.
    last: Option<Trajectory>,
}

impl MtaMd {
    pub fn new(sim: MtaMdSimulation, mode: ThreadingMode) -> Self {
        Self {
            sim,
            mode,
            last: None,
        }
    }

    /// The paper's 40-processor MTA-2 in the given threading mode.
    pub fn paper_mta2(mode: ThreadingMode) -> Self {
        Self::new(MtaMdSimulation::paper_mta2(), mode)
    }
}

impl md_core::device::MdDevice for MtaMd {
    fn label(&self) -> String {
        match self.mode {
            ThreadingMode::FullyMultithreaded => "mta2-full-mt".to_string(),
            ThreadingMode::PartiallyMultithreaded => "mta2-partial-mt".to_string(),
        }
    }

    /// One instruction per processor per cycle, fully saturated.
    fn peak_ops_per_second(&self) -> f64 {
        let c = &self.sim.processor.config;
        c.clock_hz * c.n_processors as f64
    }

    fn resalt(&mut self, salt: u64) {
        self.sim.fault_plan = self.sim.fault_plan.map(|p| p.with_salt(salt));
    }

    fn run(
        &mut self,
        sim: &SimConfig,
        opts: md_core::device::RunOptions<'_>,
    ) -> Result<md_core::device::DeviceRun, md_core::device::DeviceError> {
        md_core::device::run_priced(self, sim, opts)
    }

    fn as_pricer(&mut self) -> Option<&mut dyn Pricer> {
        Some(self)
    }
}

impl Pricer for MtaMd {
    fn flavor(&self) -> Flavor {
        Flavor::Host
    }

    fn price(
        &mut self,
        record: &TrajectoryRecord,
        perf: &mut sim_perf::PerfMonitor,
    ) -> Result<md_core::device::PricedRun, md_core::device::DeviceError> {
        md_core::device::check_flavor(self, record)?;
        let r = self.sim.price(record, self.mode, perf);
        let clk = self.sim.processor.config.clock_hz;
        let phantom_fraction = if r.sim_seconds == 0.0 {
            0.0
        } else {
            (r.breakdown.stall / clk) / r.sim_seconds
        };
        let mut derived = vec![("phantom_fraction", phantom_fraction)];
        if r.cycles > 0.0 {
            let occ = md_core::device::counter_total(perf, "mta.stream.occupancy_cycles");
            derived.push(("avg_stream_occupancy", occ / r.cycles));
        }
        Ok(md_core::device::DeviceRun {
            sim_seconds: r.sim_seconds,
            energies: r.energies,
            checkpoint: (),
            attribution: vec![
                ("issue", r.breakdown.issue / clk),
                ("loop_startup", r.breakdown.startup / clk),
                ("phantom_stall", r.breakdown.stall / clk),
            ],
            derived,
            // All traffic is word-granular loads the cycle model already
            // charges, so there are no off-node bytes to report.
            ops: r.instructions,
            bytes_moved: 0.0,
            faults: r.faults,
        })
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

    use md_core::device::HostParallelism;

    /// Test-local shorthand: price a fresh `steps`-step trajectory (the
    /// public surface is [`md_core::device::MdDevice::run`] on [`MtaMd`]).
    fn run_md(m: &MtaMdSimulation, sim: &SimConfig, steps: usize, mode: ThreadingMode) -> MtaRun {
        run_md_perf(m, sim, steps, mode, &mut sim_perf::PerfMonitor::new())
    }

    fn run_md_perf(
        m: &MtaMdSimulation,
        sim: &SimConfig,
        steps: usize,
        mode: ThreadingMode,
        perf: &mut sim_perf::PerfMonitor,
    ) -> MtaRun {
        let traj = Trajectory::drive(
            Flavor::Host,
            sim,
            None,
            steps,
            HostParallelism::Serial,
            None,
        );
        m.price(traj.record(), mode, perf)
    }

    #[test]
    fn physics_matches_reference_and_is_mode_independent() {
        let sim = SimConfig::reduced_lj(108);
        let m = MtaMdSimulation::paper_mta2();
        let full = run_md(&m, &sim, 3, ThreadingMode::FullyMultithreaded);
        let partial = run_md(&m, &sim, 3, ThreadingMode::PartiallyMultithreaded);
        assert_eq!(full.energies.total, partial.energies.total);

        let expect = md_core::reference::run::<f64>(&sim, 3);
        assert!(
            (full.energies.total - expect.total).abs() < 1e-9 * expect.total.abs(),
            "MTA {} vs reference {}",
            full.energies.total,
            expect.total
        );
    }

    #[test]
    fn figure8_fully_mt_much_faster() {
        let sim = SimConfig::reduced_lj(256);
        let m = MtaMdSimulation::paper_mta2();
        let full = run_md(&m, &sim, 2, ThreadingMode::FullyMultithreaded);
        let partial = run_md(&m, &sim, 2, ThreadingMode::PartiallyMultithreaded);
        let ratio = partial.sim_seconds / full.sim_seconds;
        assert!(
            ratio > 10.0,
            "serialized step 2 should dominate: {ratio:.1}x"
        );
    }

    #[test]
    fn figure8_gap_grows_with_atoms() {
        let m = MtaMdSimulation::paper_mta2();
        let gap = |n: usize| {
            let sim = SimConfig::reduced_lj(n);
            let full = run_md(&m, &sim, 1, ThreadingMode::FullyMultithreaded);
            let partial = run_md(&m, &sim, 1, ThreadingMode::PartiallyMultithreaded);
            partial.sim_seconds - full.sim_seconds
        };
        assert!(gap(1024) > 10.0 * gap(256), "absolute gap grows ~N²");
    }

    #[test]
    fn compiler_decisions_reported() {
        let sim = SimConfig::reduced_lj(108);
        let m = MtaMdSimulation::paper_mta2();
        let partial = run_md(&m, &sim, 1, ThreadingMode::PartiallyMultithreaded);
        let step2 = partial
            .decisions
            .iter()
            .find(|(n, _)| *n == "step2-forces")
            .expect("step 2 analyzed");
        assert!(!step2.1.parallel);
        let others_parallel = partial
            .decisions
            .iter()
            .filter(|(n, _)| *n != "step2-forces")
            .all(|(_, d)| d.parallel);
        assert!(others_parallel, "rest of the kernel parallelizes untouched");

        let full = run_md(&m, &sim, 1, ThreadingMode::FullyMultithreaded);
        let step2 = full
            .decisions
            .iter()
            .find(|(n, _)| *n == "step2-forces")
            .unwrap();
        assert!(step2.1.parallel);
    }

    #[test]
    fn figure9_runtime_tracks_instruction_count() {
        // The MTA's runtime growth must be proportional to the instruction
        // (≈ flop) growth — no cache knee.
        let m = MtaMdSimulation::paper_mta2();
        let run = |n: usize| {
            run_md(
                &m,
                &SimConfig::reduced_lj(n),
                1,
                ThreadingMode::FullyMultithreaded,
            )
        };
        let small = run(256);
        let large = run(2048);
        let time_ratio = large.sim_seconds / small.sim_seconds;
        let instr_ratio = large.instructions / small.instructions;
        assert!(
            (time_ratio / instr_ratio - 1.0).abs() < 0.02,
            "time x{time_ratio:.1} vs instructions x{instr_ratio:.1}"
        );
    }

    #[test]
    fn breakdown_partitions_the_run() {
        let sim = SimConfig::reduced_lj(256);
        let m = MtaMdSimulation::paper_mta2();
        for mode in [
            ThreadingMode::FullyMultithreaded,
            ThreadingMode::PartiallyMultithreaded,
        ] {
            let run = run_md(&m, &sim, 2, mode);
            let b = run.breakdown;
            assert!(
                (b.total() - run.cycles).abs() <= 1e-9 * run.cycles,
                "{mode:?}: {b:?} vs {}",
                run.cycles
            );
            // Figure 8's mechanism, visible in the attribution: the
            // serialized step 2 shows up as phantom cycles.
            if mode == ThreadingMode::PartiallyMultithreaded {
                assert!(b.stall > b.issue, "serialized run is stall-dominated");
            } else {
                assert!(
                    b.stall < 0.01 * b.issue,
                    "saturated run is nearly stall-free"
                );
            }
        }
    }

    #[test]
    fn perf_counters_are_free_and_populated() {
        let sim = SimConfig::reduced_lj(108);
        let m = MtaMdSimulation::paper_mta2();
        let mode = ThreadingMode::FullyMultithreaded;
        let plain = md_core::device::MdDevice::run(
            &mut MtaMd::paper_mta2(mode),
            &sim,
            md_core::device::RunOptions::steps(3),
        )
        .expect("runs");
        let mut perf = sim_perf::PerfMonitor::new();
        let counted = run_md_perf(&m, &sim, 3, mode, &mut perf);

        // Observability is free: bitwise-identical outcome.
        assert_eq!(plain.sim_seconds, counted.sim_seconds);
        assert_eq!(plain.energies.total, counted.energies.total);
        assert_eq!(plain.ops, counted.instructions);

        let instr = perf.find("mta.instructions").expect("registered");
        assert_eq!(instr.value(), counted.instructions);
        // One sample per evaluation: steps + 1 priming evaluation.
        assert_eq!(instr.samples().len(), 4);
        let phantom = perf.find("mta.cycles.phantom").expect("registered");
        assert_eq!(phantom.value(), counted.breakdown.stall);
        let occ = perf
            .find("mta.stream.occupancy_cycles")
            .expect("registered");
        // Saturated parallel loops run at 128 streams, so the occupancy
        // integral sits near 128 x cycles.
        let avg = occ.value() / counted.cycles;
        assert!((100.0..=128.0).contains(&avg), "avg occupancy {avg:.1}");
        let retries = perf.find("mta.hotspot.retry_cycles").expect("registered");
        assert_eq!(retries.value(), 0.0, "no faults armed");
    }

    #[test]
    fn deterministic() {
        let sim = SimConfig::reduced_lj(108);
        let m = MtaMdSimulation::paper_mta2();
        let a = run_md(&m, &sim, 2, ThreadingMode::FullyMultithreaded);
        let b = run_md(&m, &sim, 2, ThreadingMode::FullyMultithreaded);
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.energies.total, b.energies.total);
    }

    #[test]
    fn injected_faults_leave_physics_untouched_and_slow_the_run() {
        let sim = SimConfig::reduced_lj(108);
        let mode = ThreadingMode::FullyMultithreaded;
        let clean = run_md(&MtaMdSimulation::paper_mta2(), &sim, 5, mode);
        let faulty = run_md(
            &MtaMdSimulation::paper_mta2().with_fault_plan(sim_fault::FaultPlan::new(9, 0.4)),
            &sim,
            5,
            mode,
        );
        assert_eq!(clean.energies.total, faulty.energies.total);
        assert_eq!(clean.instructions, faulty.instructions);
        assert!(faulty.faults.any());
        assert!(faulty.sim_seconds > clean.sim_seconds);
        // The MTA charges every retry on the single-processor timeline, so
        // the slowdown equals the charged recovery time.
        assert!(
            (faulty.sim_seconds - clean.sim_seconds - faulty.faults.extra_seconds).abs()
                < 1e-9 * faulty.sim_seconds
        );
    }

    #[test]
    fn exhaustion_degrades_instead_of_failing() {
        let sim = SimConfig::reduced_lj(108);
        let run = run_md(
            &MtaMdSimulation::paper_mta2().with_fault_plan(sim_fault::FaultPlan::new(0, 1.0)),
            &sim,
            1,
            ThreadingMode::FullyMultithreaded,
        );
        assert!(run.faults.exhausted > 0);
        assert!(run.energies.total.is_finite());
    }

    #[test]
    fn fault_schedule_is_reproducible_across_runs() {
        let sim = SimConfig::reduced_lj(108);
        let mk = || {
            run_md(
                &MtaMdSimulation::paper_mta2().with_fault_plan(sim_fault::FaultPlan::new(21, 0.3)),
                &sim,
                3,
                ThreadingMode::FullyMultithreaded,
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.sim_seconds, b.sim_seconds);
    }
}
