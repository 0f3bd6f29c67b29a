//! The full Cell BE device: PPE orchestration of SPE offload, with the
//! Asynchronous Thread Runtime model the paper uses (section 5.1).

use crate::config::{CellConfig, SpeCostModel};
use crate::dma::DmaEngine;
use crate::error::CellError;
#[cfg(feature = "hazard-check")]
use crate::hazard::{Dir, HazardChecker};
use crate::kernel::{
    compute_accelerations, compute_accelerations_f64, compute_accelerations_tiled, KernelStats,
    SpeKernelVariant, SpeLanePhysics,
};
use crate::localstore::{LocalStore, LsRegion};
use crate::ppe::PpeModel;
use crate::spe::{LsOverflow, Spe};
use md_core::device::HostParallelism;
use md_core::init;
use md_core::observables::EnergyReport;
use md_core::params::SimConfig;
use md_core::shared_eval::SoaPositionsF32;
use md_core::system::ParticleSystem;
use md_core::verlet::VelocityVerlet;
use sim_obs::ChromeTrace;
use vecmath::{Real, Vec3};

/// How SPE threads are managed across time steps (Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpawnPolicy {
    /// Create fresh SPE threads for every force evaluation — the naive port.
    RespawnEveryStep,
    /// Create threads once, then signal "more data" via mailboxes each step,
    /// amortizing the launch cost across all time steps.
    LaunchOnce,
}

/// Configuration of one Cell run.
#[derive(Clone, Copy, Debug)]
pub struct CellRunConfig {
    /// SPEs used (1..=8).
    pub n_spes: usize,
    pub policy: SpawnPolicy,
    pub variant: SpeKernelVariant,
}

impl CellRunConfig {
    /// The paper's best configuration: 8 SPEs, launch-once, fully SIMDized.
    pub fn best() -> Self {
        Self {
            n_spes: 8,
            policy: SpawnPolicy::LaunchOnce,
            variant: SpeKernelVariant::SimdAcceleration,
        }
    }

    pub fn single_spe() -> Self {
        Self {
            n_spes: 1,
            ..Self::best()
        }
    }
}

/// Simulated-cycle breakdown of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostBreakdown {
    /// PPE-side SPE thread creation (serialized).
    pub spawn: f64,
    /// DMA transfers, as seen on the critical path (max across SPEs/step).
    pub dma: f64,
    /// SPE kernel compute on the critical path.
    pub compute: f64,
    /// Mailbox traffic + PPE-side handshake service.
    pub mailbox: f64,
    /// PPE integration and orchestration.
    pub ppe: f64,
}

impl CostBreakdown {
    pub fn total(&self) -> f64 {
        self.spawn + self.dma + self.compute + self.mailbox + self.ppe
    }
}

/// Result of a simulated Cell run.
#[derive(Clone, Debug)]
pub struct CellRun {
    pub sim_seconds: f64,
    pub breakdown: CostBreakdown,
    pub energies: EnergyReport,
    pub kernel_stats: KernelStats,
    pub config: CellRunConfig,
    /// Injected-fault ledger for this run (zero when no plan is armed).
    #[cfg(feature = "fault-inject")]
    pub faults: sim_fault::FaultStats,
}

impl CellRun {
    /// Fraction of the total runtime spent launching SPE threads — the
    /// quantity Figure 6 plots.
    pub fn launch_fraction(&self) -> f64 {
        self.breakdown.spawn / self.breakdown.total()
    }
}

/// The simulated Cell blade.
pub struct CellBeDevice {
    pub config: CellConfig,
    /// Armed fault schedule; `None` runs fault-free (see DESIGN.md §9).
    #[cfg(feature = "fault-inject")]
    pub fault_plan: Option<sim_fault::FaultPlan>,
}

impl CellBeDevice {
    pub fn new(config: CellConfig) -> Self {
        Self {
            config,
            #[cfg(feature = "fault-inject")]
            fault_plan: None,
        }
    }

    pub fn paper_blade() -> Self {
        Self::new(CellConfig::paper_blade())
    }

    /// Arm a deterministic fault schedule for subsequent runs (every
    /// SPE-offload port; the PPE-only run stays fault-free).
    #[cfg(feature = "fault-inject")]
    #[must_use]
    pub fn with_fault_plan(mut self, plan: sim_fault::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    fn lane_physics<T: Real>(sim: &SimConfig, sys: &ParticleSystem<T>) -> SpeLanePhysics<T> {
        SpeLanePhysics {
            sub: sim.substrate::<T>(),
            box_len: sys.box_len,
            inv_mass: T::ONE / sys.mass,
        }
    }

    /// Run the MD kernel with SPE offload, additionally recording a timeline
    /// of the simulated execution (PPE track 0, SPE `i` on track `i + 1`)
    /// into `trace` — exportable to `chrome://tracing` via
    /// [`ChromeTrace::render`]. The plain run path is
    /// [`md_core::device::MdDevice::run`] on [`CellMd`].
    pub fn run_md_traced(
        &self,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
        trace: &mut ChromeTrace,
    ) -> Result<CellRun, CellError> {
        trace.thread_name(0, "PPE");
        for s in 0..run.n_spes {
            trace.thread_name(1 + s as u32, &format!("SPE {s}"));
        }
        let mut sys: ParticleSystem<f32> = init::initialize(sim);
        self.run_md_impl(
            &mut sys,
            sim,
            steps,
            run,
            Some(trace),
            None,
            HostParallelism::Serial,
        )
    }

    /// The paper's resident SPE-offload port, continuing from caller-owned
    /// state: every SPE holds all positions plus its slice's accelerations
    /// in its local store.
    #[allow(clippy::too_many_arguments)]
    fn run_md_impl(
        &self,
        sys: &mut ParticleSystem<f32>,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
        trace: Option<&mut ChromeTrace>,
        perf: Option<&mut sim_perf::PerfMonitor>,
        par: HostParallelism,
    ) -> Result<CellRun, CellError> {
        let port = Resident {
            variant: run.variant,
        };
        self.run_offload(&port, sys, sim, steps, run, trace, perf, par)
    }

    /// Tiled, double-buffered SPE offload — the production formulation for
    /// systems too large for the resident port: each SPE keeps only its own
    /// atom slice and two j-tile buffers in the local store, streaming the
    /// position array through tile-sized DMA transfers. Double buffering
    /// overlaps each tile's DMA with the previous tile's compute, so the
    /// critical path per tile is `max(compute, dma)`, not their sum.
    ///
    /// Physics matches the resident port to f32 rounding (partial
    /// accelerations accumulate per tile); use this when the resident port
    /// returns [`LsOverflow`]. Requires the fully optimized kernel variant.
    pub fn run_md_tiled(
        &self,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
        tile_atoms: usize,
    ) -> Result<CellRun, CellError> {
        assert!(tile_atoms >= 1, "tile must hold at least one atom");
        assert!(
            run.variant == SpeKernelVariant::SimdAcceleration,
            "the tiled port is built on the fully optimized kernel"
        );
        self.run_fresh(&Tiled { tile_atoms }, sim, steps, run)
    }

    /// Double-precision SPE offload — the capability the paper flags as the
    /// Cell's open question ("the outstanding issues are the availability and
    /// support for double-precision floating-point calculations"). Physics is
    /// f64; the DP unit's ~7x arithmetic penalty and the doubled local-store
    /// footprint (two quadwords per atom per array) are both modeled, so this
    /// run both costs more time *and* hits the 256 KB wall at half the atom
    /// count of the f32 port.
    pub fn run_md_double(
        &self,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
    ) -> Result<CellRun, CellError> {
        self.run_fresh(&Double, sim, steps, run)
    }

    /// A serial, unobserved [`Self::run_offload`] from a fresh lattice.
    fn run_fresh<P: OffloadPort>(
        &self,
        port: &P,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
    ) -> Result<CellRun, CellError> {
        let mut sys = init::initialize(sim);
        let par = HostParallelism::Serial;
        self.run_offload(port, &mut sys, sim, steps, run, None, None, par)
    }

    /// The one SPE-offload time-step loop every port shares: thread
    /// management per Figure 6, position serialization, the SPE fan-out,
    /// the serial in-order fold, PPE integration and [`CellRun`] assembly.
    /// The port supplies only its local-store layout and its per-SPE
    /// transfer-plus-compute step.
    #[allow(clippy::too_many_arguments)]
    fn run_offload<P: OffloadPort>(
        &self,
        port: &P,
        sys: &mut ParticleSystem<P::Real>,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
        mut trace: Option<&mut ChromeTrace>,
        mut perf: Option<&mut sim_perf::PerfMonitor>,
        par: HostParallelism,
    ) -> Result<CellRun, CellError> {
        assert!(
            run.n_spes >= 1 && run.n_spes <= self.config.n_spes,
            "n_spes must be in 1..={}",
            self.config.n_spes
        );
        let n = sys.n();
        let vv = VelocityVerlet::new(P::Real::from_f64(sim.dt));
        let ppe = PpeModel::new(&self.config);
        let dma = DmaEngine::new(&self.config);
        let params = Self::lane_physics(sim, sys);
        // Ensemble upkeep (thermostat) runs on the PPE after the final kick;
        // zero cycles under NVE, so the seed cost model is untouched.
        let ens_cycles = n as f64 * params.sub.extra_step_ops_per_atom();
        let mbox = self.config.mailbox_cycles;

        // One fault session per run: the plan decides, the session keeps the
        // retry/exhaustion ledger and the simulated-time cost of recovery.
        #[cfg(feature = "fault-inject")]
        let mut fault = self.fault_plan.map(sim_fault::FaultSession::new);

        // Main memory image: positions then accelerations, one
        // `atom_bytes` record per atom in each array.
        let atom_bytes = 4 * size_of::<P::Real>();
        let mut main_memory = vec![0u8; 2 * n * atom_bytes];

        // Bring up the SPEs and their local-store layouts.
        let slices: Vec<(usize, usize)> = partition(n, run.n_spes);
        let mut spes: Vec<Spe> = (0..run.n_spes)
            .map(|id| Spe::new(id, &self.config))
            .collect();
        let regions = spes
            .iter_mut()
            .zip(&slices)
            .map(|(spe, &slice)| port.alloc(spe, n, slice))
            .collect::<Result<Vec<_>, LsOverflow>>()?;

        // Under hazard-check, shadow every DMA command, tag wait, compute
        // access, and blocking mailbox op with the asynchronous-hardware race
        // detector (one checker per local store).
        #[cfg(feature = "hazard-check")]
        let mut hazard: Vec<HazardChecker> =
            (0..run.n_spes).map(|_| HazardChecker::new()).collect();

        let mut breakdown = CostBreakdown::default();
        let mut stats_total = KernelStats::default();
        let mut launched = false;
        let handles = perf
            .as_deref_mut()
            .map(|p| PerfHandles::register(p, run.n_spes));
        let mut mailbox_round_trips = 0u64;

        // Simulated-time cursor for the (optional) execution timeline.
        let clk = self.config.clock_hz;
        let mut t_now = 0.0f64;
        let ppe_track = 0;
        let spe_track = |s: usize| 1 + s as u32;

        let mut pe_total = P::Real::ZERO;
        // `evals` = 1 priming force evaluation + one per time step.
        for eval in 0..=steps {
            if eval > 0 {
                breakdown.ppe += ppe.integration_cycles(n);
                let dur = ppe.integration_cycles(n) / clk;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.span(ppe_track, "integrate: kick+drift", "ppe", t_now, dur);
                }
                t_now += dur;
                vv.kick_drift(sys);
            }

            // Thread management per Figure 6: fresh SPE threads for every
            // evaluation, or once and then a mailbox signal per step.
            if run.policy == SpawnPolicy::RespawnEveryStep || !launched {
                for (s, spe) in spes.iter_mut().enumerate() {
                    #[cfg(feature = "fault-inject")]
                    {
                        // A failed spe_create_thread is repeated at full
                        // launch cost.
                        let extra = resolve_fault_site(
                            &mut fault,
                            sim_fault::FaultSite::new(
                                sim_fault::FaultKind::SpeLaunch,
                                eval as u64,
                                s as u32,
                                0,
                            ),
                            self.config.spawn_cycles,
                            clk,
                        )?;
                        if extra > 0.0 {
                            if let Some(tr) = trace.as_deref_mut() {
                                tr.instant(
                                    ppe_track,
                                    &format!("fault: spe-launch retry (SPE {s})"),
                                    "fault",
                                    t_now,
                                );
                            }
                            breakdown.spawn += extra;
                            t_now += extra / clk;
                        }
                    }
                    spe.start_thread();
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.span(
                            ppe_track,
                            &format!("spawn SPE {s} thread"),
                            "spawn",
                            t_now,
                            self.config.spawn_cycles / clk,
                        );
                    }
                    t_now += self.config.spawn_cycles / clk;
                }
                breakdown.spawn += run.n_spes as f64 * self.config.spawn_cycles;
                launched = true;
            } else {
                // "Signal them using mailboxes when there is more data to
                // process."
                #[allow(clippy::unused_enumerate_index)]
                // index feeds the hazard checker when the feature is on
                for (_s, spe) in spes.iter_mut().enumerate() {
                    #[cfg(feature = "fault-inject")]
                    {
                        // A dropped mailbox message costs a fresh PPE service
                        // round plus the SPE-side read.
                        let extra = resolve_fault_site(
                            &mut fault,
                            sim_fault::FaultSite::new(
                                sim_fault::FaultKind::MailboxDrop,
                                eval as u64,
                                _s as u32,
                                0,
                            ),
                            self.config.ppe_service_cycles + mbox,
                            clk,
                        )?;
                        if extra > 0.0 {
                            if let Some(tr) = trace.as_deref_mut() {
                                tr.instant(
                                    ppe_track,
                                    &format!("fault: mailbox-drop resend (SPE {_s})"),
                                    "fault",
                                    t_now,
                                );
                            }
                            breakdown.mailbox += extra;
                            t_now += extra / clk;
                        }
                    }
                    #[cfg(feature = "hazard-check")]
                    hazard[_s].note_mailbox_write(_s, spe.inbox.is_full());
                    spe.inbox.write(eval as u32);
                }
                let dur = run.n_spes as f64 * self.config.ppe_service_cycles / clk;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.span(ppe_track, "mailbox handshake", "mailbox", t_now, dur);
                }
                t_now += dur;
                breakdown.mailbox += run.n_spes as f64 * self.config.ppe_service_cycles;
            }

            // Serialize current positions into main memory.
            for (i, p) in sys.positions.iter().enumerate() {
                write_atom(&mut main_memory, i, *p);
            }

            // Each SPE: DMA its inputs in, compute its slice, DMA out. SPEs
            // run concurrently; the step's wall time is the slowest SPE.
            //
            // The simulated concurrency maps onto host threads: the main
            // memory image splits into the shared position half (read by
            // every SPE's gets) and per-SPE acceleration windows (each SPE
            // puts only its own slice), so each lane owns disjoint state.
            // Fault sites are peeked in-lane (pure) and committed below in
            // SPE order; every reduction — cost maxima, kernel stats, PE,
            // perf counters, trace spans — happens in the serial fold, so
            // the run is bitwise identical to the serial loop at any host
            // thread count.
            let (pos_mem, acc_mem) = main_memory.split_at_mut(n * atom_bytes);
            let pos_mem: &[u8] = pos_mem;
            let mut lanes: Vec<SpeLane> = Vec::with_capacity(run.n_spes);
            {
                let mut acc_rest: &mut [u8] = acc_mem;
                #[cfg(feature = "hazard-check")]
                let mut hz_iter = hazard.iter_mut();
                for (s, spe) in spes.iter_mut().enumerate() {
                    let (lo, hi) = slices[s];
                    let (window, rest) =
                        std::mem::take(&mut acc_rest).split_at_mut((hi - lo) * atom_bytes);
                    acc_rest = rest;
                    lanes.push(SpeLane {
                        spe,
                        acc_out: window,
                        // `hazard` is built with exactly one checker per SPE
                        // a few lines up; the iterator cannot run dry.
                        #[cfg(feature = "hazard-check")]
                        hazard: hz_iter.next().expect("one checker per SPE"), // sim-vet: allow(panic-discipline)
                        #[cfg(feature = "fault-inject")]
                        faults: LaneFaults::new(fault.as_ref(), eval, s),
                    });
                }
            }
            let lane_outs = md_core::parallel::map_lanes(
                par,
                &mut lanes,
                |s, lane: &mut SpeLane| -> Result<SpeLaneOut<P::Real>, CellError> {
                    let mut round_trips = 0u64;
                    if run.policy == SpawnPolicy::LaunchOnce && eval > 0 {
                        #[cfg(feature = "hazard-check")]
                        lane.hazard.note_mailbox_read(s, lane.spe.inbox.is_empty());
                        let _go = lane.spe.inbox.read();
                        lane.spe.charge(mbox);
                        round_trips += 1;
                    }
                    let cx = StepCx {
                        pos_mem,
                        n,
                        slice: slices[s],
                        params,
                        dma: &dma,
                        costs: &self.config.costs,
                        mailbox_cycles: mbox,
                    };
                    let step = port.step(lane, regions[s], &cx)?;
                    // Completion notification to the PPE.
                    let spe = &mut *lane.spe;
                    #[cfg(feature = "hazard-check")]
                    lane.hazard.note_mailbox_write(s, spe.outbox.is_full());
                    spe.outbox.write(1);
                    #[cfg(feature = "hazard-check")]
                    lane.hazard.note_mailbox_read(s, spe.outbox.is_empty());
                    let _ = spe.outbox.read();
                    round_trips += 1;

                    spe.charge(step.compute_path + step.dma_path);
                    if run.policy == SpawnPolicy::RespawnEveryStep {
                        spe.stop_thread();
                    }
                    Ok(SpeLaneOut {
                        step,
                        round_trips,
                        #[cfg(feature = "fault-inject")]
                        faults: lane.faults.sites,
                    })
                },
            );

            // Serial fold in SPE order: fault ledger, reductions, timeline.
            let mut max_spe_cycles = 0.0f64;
            let mut max_spe_dma = 0.0f64;
            pe_total = P::Real::ZERO;
            for (s, lane_out) in lane_outs.into_iter().enumerate() {
                let SpeLaneOut {
                    step: out,
                    round_trips,
                    #[cfg(feature = "fault-inject")]
                    faults,
                } = lane_out?;
                #[cfg(feature = "fault-inject")]
                {
                    let [g, t, p] = faults;
                    let reissue = commit_fault_site(&mut fault, g.0, g.1, g.2, clk)?;
                    let spin = commit_fault_site(&mut fault, t.0, t.1, t.2, clk)?;
                    if reissue + spin > 0.0 {
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.instant(spe_track(s), "fault: dma get retried", "fault", t_now);
                        }
                    }
                    let put_reissue = commit_fault_site(&mut fault, p.0, p.1, p.2, clk)?;
                    if put_reissue > 0.0 {
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.instant(spe_track(s), "fault: dma put retried", "fault", t_now);
                        }
                    }
                }
                let (lo, hi) = slices[s];
                mailbox_round_trips += round_trips;
                if let Some(tr) = trace.as_deref_mut() {
                    // The SPEs run concurrently: each track starts at the
                    // same phase-begin time.
                    let mut t = t_now;
                    tr.span(
                        spe_track(s),
                        "DMA get positions",
                        "dma",
                        t,
                        out.dma_in / clk,
                    );
                    t += out.dma_in / clk;
                    tr.span(
                        spe_track(s),
                        &format!("accel kernel [{lo}..{hi})"),
                        "compute",
                        t,
                        out.stats.cycles / clk,
                    );
                    t += out.stats.cycles / clk;
                    tr.span(spe_track(s), "mailbox done", "mailbox", t, mbox / clk);
                    t += mbox / clk;
                    tr.span(
                        spe_track(s),
                        "DMA put accelerations",
                        "dma",
                        t,
                        out.dma_out / clk,
                    );
                }
                max_spe_cycles = max_spe_cycles.max(out.compute_path);
                max_spe_dma = max_spe_dma.max(out.dma_path);
                stats_total.pairs_tested += out.stats.pairs_tested;
                stats_total.interactions += out.stats.interactions;
                pe_total += out.pe_slice;
                if let (Some(p), Some(h)) = (perf.as_deref_mut(), handles.as_ref()) {
                    p.add_u64(h.spe_dma_bytes[s], (out.bytes_in + out.bytes_out) as u64);
                    p.add(h.spe_dma_stall[s], out.dma_in + out.dma_out);
                    p.add_u64(h.dma_bytes_in, out.bytes_in as u64);
                    p.add_u64(h.dma_bytes_out, out.bytes_out as u64);
                }
            }
            breakdown.compute += max_spe_cycles;
            breakdown.dma += max_spe_dma;
            t_now += (max_spe_cycles + max_spe_dma) / clk;

            // Read accelerations back into the host-side system.
            let acc_mem = &main_memory[n * atom_bytes..];
            for (i, a) in sys.accelerations.iter_mut().enumerate() {
                *a = read_atom(acc_mem, i);
            }

            if eval > 0 {
                breakdown.ppe += ppe.integration_cycles(n);
                let dur = ppe.integration_cycles(n) / clk;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.span(ppe_track, "integrate: kick", "ppe", t_now, dur);
                }
                t_now += dur;
                vv.kick(sys);
                params.sub.apply_thermostat(sys);
                breakdown.ppe += ens_cycles;
                t_now += ens_cycles / clk;
            }

            if let (Some(p), Some(h)) = (perf.as_deref_mut(), handles.as_ref()) {
                let flops = stats_total.pairs_tested as f64 * FLOPS_PER_PAIR
                    + stats_total.interactions as f64 * FLOPS_PER_INTERACTION;
                let simd = simd_fraction(run.variant) * flops;
                p.record_total(h.simd_flops, simd);
                p.record_total(h.scalar_flops, flops - simd);
                p.record_total(h.pairs, stats_total.pairs_tested as f64);
                p.record_total(h.interactions, stats_total.interactions as f64);
                p.record_total(h.dma_stall_cycles, breakdown.dma);
                p.record_total(h.mailbox_round_trips, mailbox_round_trips as f64);
                p.sample_all(breakdown.total() / clk);
            }
        }

        // Surface any detected races on the timeline as instant markers.
        #[cfg(feature = "hazard-check")]
        if let Some(tr) = trace {
            for (s, hz) in hazard.iter().enumerate() {
                hz.emit_to_trace(tr, spe_track(s), t_now);
            }
        }

        stats_total.cycles = breakdown.compute;
        Ok(CellRun {
            sim_seconds: breakdown.total() / self.config.clock_hz,
            breakdown,
            energies: EnergyReport::measure(sys, (pe_total * P::Real::HALF).to_f64()),
            kernel_stats: stats_total,
            config: run,
            #[cfg(feature = "fault-inject")]
            faults: fault.map_or_else(sim_fault::FaultStats::default, |f| f.stats()),
        })
    }

    /// PPE-only execution of the whole kernel (the paper's 26x-slower
    /// baseline): the scalar `Original` variant run on the PPE with its CPI
    /// penalty; no SPEs, no DMA, no thread launches.
    pub fn run_md_ppe_only(&self, sim: &SimConfig, steps: usize) -> CellRun {
        let mut sys: ParticleSystem<f32> = init::initialize(sim);
        self.run_md_ppe_only_impl(&mut sys, sim, steps)
    }

    fn run_md_ppe_only_impl(
        &self,
        sys: &mut ParticleSystem<f32>,
        sim: &SimConfig,
        steps: usize,
    ) -> CellRun {
        let n = sys.n();
        let vv = VelocityVerlet::new(sim.dt as f32);
        let ppe = PpeModel::new(&self.config);
        let params = Self::lane_physics(sim, sys);
        let ens_cycles = n as f64 * params.sub.extra_step_ops_per_atom();

        let mut breakdown = CostBreakdown::default();
        let mut stats_total = KernelStats::default();
        let mut pe_total = 0.0f32;

        for eval in 0..=steps {
            if eval > 0 {
                breakdown.ppe += ppe.integration_cycles(n);
                vv.kick_drift(sys);
            }
            // The PPE works straight out of main memory.
            let soa = soa_of(&sys.positions);
            let acc = &mut sys.accelerations;
            let (pe, stats) = compute_accelerations(
                &soa,
                0..n,
                params,
                SpeKernelVariant::Original,
                &self.config.costs,
                |i, q| acc[i] = Vec3::new(q[0], q[1], q[2]),
            );
            breakdown.compute += ppe.scale_kernel_cycles(stats.cycles);
            stats_total.pairs_tested += stats.pairs_tested;
            stats_total.interactions += stats.interactions;
            pe_total = pe;
            if eval > 0 {
                breakdown.ppe += ppe.integration_cycles(n);
                vv.kick(sys);
                params.sub.apply_thermostat(sys);
                breakdown.ppe += ens_cycles;
            }
        }

        stats_total.cycles = breakdown.compute;
        CellRun {
            sim_seconds: breakdown.total() / self.config.clock_hz,
            breakdown,
            energies: EnergyReport::measure(sys, (pe_total * 0.5) as f64),
            kernel_stats: stats_total,
            config: CellRunConfig {
                n_spes: 0,
                policy: SpawnPolicy::LaunchOnce,
                variant: SpeKernelVariant::Original,
            },
            #[cfg(feature = "fault-inject")]
            faults: sim_fault::FaultStats::default(),
        }
    }

    /// Figure 5 measurement: simulated seconds for ONE acceleration-function
    /// invocation (2048 atoms in the paper) on a single SPE at the given
    /// optimization stage, and the potential energy that invocation computes
    /// for the initial lattice. DMA included; thread launch excluded (the
    /// figure times the function, not the launch).
    pub fn time_single_spe_accel(
        &self,
        sim: &SimConfig,
        variant: SpeKernelVariant,
    ) -> Result<(f64, f64), CellError> {
        let sys: ParticleSystem<f32> = init::initialize(sim);
        let n = sys.n();
        let dma = DmaEngine::new(&self.config);
        let params = Self::lane_physics(sim, &sys);

        // The positions and the accelerations must fit one local store.
        let mut spe = Spe::new(0, &self.config);
        spe.alloc_quads(n)?;
        spe.alloc_quads(n)?;
        // The probe times the function: only its work counts matter. Each
        // way the n quads cross the bus costs the same DMA cycles.
        let dma_cycles = dma.transfer_cycles(n * 16);
        let (pe, stats) = compute_accelerations(
            &soa_of(&sys.positions),
            0..n,
            params,
            variant,
            &self.config.costs,
            |_, _| {},
        );
        // Each pair's energy sits in both of its atoms' rows.
        Ok((
            (dma_cycles + stats.cycles + dma_cycles) / self.config.clock_hz,
            (pe * 0.5) as f64,
        ))
    }
}

/// Positions in the f32 SoA layout the shared-eval rows read.
fn soa_of(positions: &[Vec3<f32>]) -> SoaPositionsF32 {
    SoaPositionsF32::from_quads(positions.iter().map(|p| [p.x, p.y, p.z, 0.0]))
}

/// Flop estimate per examined pair (minimum image + distance + cutoff test)
/// — for counter reporting only; simulated time comes from the cost model.
const FLOPS_PER_PAIR: f64 = 14.0;
/// Extra flops for an interacting pair (LJ energy/force + accumulate).
const FLOPS_PER_INTERACTION: f64 = 20.0;

/// Fraction of the kernel's flops issued through SIMD lanes at each Figure 5
/// optimization stage (each SIMDized phase covers about a quarter of the
/// per-pair arithmetic).
fn simd_fraction(variant: SpeKernelVariant) -> f64 {
    match variant {
        SpeKernelVariant::Original | SpeKernelVariant::Copysign => 0.0,
        SpeKernelVariant::SimdUnitCell => 0.25,
        SpeKernelVariant::SimdDirection => 0.5,
        SpeKernelVariant::SimdLength => 0.75,
        SpeKernelVariant::SimdAcceleration => 1.0,
    }
}

/// Era-appropriate Cell counters, registered once per instrumented run.
struct PerfHandles {
    /// Per-SPE DMA traffic (get + put), indexed by SPE id.
    spe_dma_bytes: Vec<sim_perf::CounterHandle>,
    /// Per-SPE cycles spent waiting on DMA completion.
    spe_dma_stall: Vec<sim_perf::CounterHandle>,
    dma_bytes_in: sim_perf::CounterHandle,
    dma_bytes_out: sim_perf::CounterHandle,
    /// Critical-path DMA cycles (max across concurrent SPEs per step).
    dma_stall_cycles: sim_perf::CounterHandle,
    mailbox_round_trips: sim_perf::CounterHandle,
    simd_flops: sim_perf::CounterHandle,
    scalar_flops: sim_perf::CounterHandle,
    pairs: sim_perf::CounterHandle,
    interactions: sim_perf::CounterHandle,
}

impl PerfHandles {
    fn register(perf: &mut sim_perf::PerfMonitor, n_spes: usize) -> Self {
        Self {
            spe_dma_bytes: (0..n_spes)
                .map(|s| perf.register(format!("cell.spe{s}.dma.bytes"), "bytes"))
                .collect(),
            spe_dma_stall: (0..n_spes)
                .map(|s| perf.register(format!("cell.spe{s}.dma.stall_cycles"), "cycles"))
                .collect(),
            dma_bytes_in: perf.register("cell.dma.bytes_in", "bytes"),
            dma_bytes_out: perf.register("cell.dma.bytes_out", "bytes"),
            dma_stall_cycles: perf.register("cell.dma.stall_cycles", "cycles"),
            mailbox_round_trips: perf.register("cell.mailbox.round_trips", "events"),
            simd_flops: perf.register("cell.flops.simd", "flops"),
            scalar_flops: perf.register("cell.flops.scalar", "flops"),
            pairs: perf.register("cell.kernel.pairs_tested", "pairs"),
            interactions: perf.register("cell.kernel.interactions", "pairs"),
        }
    }
}

/// Main-memory layout of one atom's 3-vector: four lanes `[x, y, z, 0]` of
/// the port's precision — one f32 quadword, or two f64 quadwords `[x, y]`,
/// `[z, 0]` (two doubles per 128-bit register). Little-endian, as the
/// local store reads it.
trait SpeReal: Real {
    fn store(self, out: &mut [u8]);
    fn load(bytes: &[u8]) -> Self;
}

macro_rules! spe_real {
    ($($t:ty),*) => {$(
        impl SpeReal for $t {
            fn store(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            fn load(bytes: &[u8]) -> Self {
                let mut b = [0u8; size_of::<$t>()];
                b.copy_from_slice(bytes);
                <$t>::from_le_bytes(b)
            }
        }
    )*};
}
spe_real!(f32, f64);

fn write_atom<T: SpeReal>(mem: &mut [u8], i: usize, v: Vec3<T>) {
    let w = size_of::<T>();
    for (k, x) in [v.x, v.y, v.z, T::ZERO].into_iter().enumerate() {
        x.store(&mut mem[(4 * i + k) * w..][..w]);
    }
}

fn read_atom<T: SpeReal>(mem: &[u8], i: usize) -> Vec3<T> {
    let w = size_of::<T>();
    let lane = |k: usize| T::load(&mem[(4 * i + k) * w..][..w]);
    Vec3::new(lane(0), lane(1), lane(2))
}

/// What one SPE's step sees besides its own lane: the shared position half
/// of main memory and the run's constants.
struct StepCx<'a, T: Real> {
    pos_mem: &'a [u8],
    n: usize,
    /// This SPE's atom slice `[lo, hi)`.
    slice: (usize, usize),
    params: SpeLanePhysics<T>,
    dma: &'a DmaEngine,
    costs: &'a SpeCostModel,
    mailbox_cycles: f64,
}

/// What one SPE's evaluation reports back for the serial in-order fold.
struct SpeStep<T> {
    /// Fault-adjusted cycles of the input get and the result put.
    dma_in: f64,
    dma_out: f64,
    stats: KernelStats,
    /// Critical-path cycles of this SPE's evaluation, completion mailbox
    /// included: compute, and the DMA the compute does not hide.
    compute_path: f64,
    dma_path: f64,
    pe_slice: T,
    /// Main-memory bytes moved in and out.
    bytes_in: usize,
    bytes_out: usize,
}

/// One SPE-offload port: its local-store layout and its per-SPE
/// transfer-plus-compute step. Everything around the step is
/// [`CellBeDevice::run_offload`].
trait OffloadPort: Sync {
    type Real: SpeReal;
    /// One SPE's local-store regions.
    type Regions: Copy + Sync;
    fn alloc(
        &self,
        spe: &mut Spe,
        n: usize,
        slice: (usize, usize),
    ) -> Result<Self::Regions, LsOverflow>;
    fn step(
        &self,
        lane: &mut SpeLane<'_>,
        regions: Self::Regions,
        cx: &StepCx<'_, Self::Real>,
    ) -> Result<SpeStep<Self::Real>, CellError>;
}

/// The resident step shared by the f32 and f64 ports: get every position,
/// compute the slice into the local-store acceleration array, put the slice
/// back. DMA and compute serialize, so both sit on the critical path.
fn resident_step<T: SpeReal>(
    lane: &mut SpeLane<'_>,
    (pos_r, acc_r): (LsRegion, LsRegion),
    cx: &StepCx<'_, T>,
    kernel: impl FnOnce(&mut LocalStore) -> (T, KernelStats),
) -> Result<SpeStep<T>, CellError> {
    let (lo, hi) = cx.slice;
    let atom_bytes = 4 * size_of::<T>();
    let bytes_in = cx.n * atom_bytes;
    let bytes_out = (hi - lo) * atom_bytes;
    let dma_in = cx
        .dma
        .get(cx.pos_mem, &mut lane.spe.local_store, pos_r, 0, bytes_in)?;
    let dma_in = lane.got(pos_r, dma_in);
    lane.computes(pos_r, acc_r);
    let (pe_slice, stats) = kernel(&mut lane.spe.local_store);
    // DMA the computed slice back (a sub-range of the acc region, landing
    // in this SPE's window of the acceleration image).
    let slice_view = LsRegion {
        offset: acc_r.offset + lo * atom_bytes,
        len: bytes_out,
    };
    let dma_out = cx.dma.put(
        &lane.spe.local_store,
        lane.acc_out,
        slice_view,
        0,
        bytes_out,
    )?;
    let dma_out = lane.put(slice_view, dma_out);
    Ok(SpeStep {
        dma_in,
        dma_out,
        stats,
        compute_path: stats.cycles + cx.mailbox_cycles,
        dma_path: dma_in + dma_out,
        pe_slice,
        bytes_in,
        bytes_out,
    })
}

/// The paper's port: all positions resident in every local store, f32.
struct Resident {
    variant: SpeKernelVariant,
}

impl OffloadPort for Resident {
    type Real = f32;
    type Regions = (LsRegion, LsRegion);

    fn alloc(
        &self,
        spe: &mut Spe,
        n: usize,
        _: (usize, usize),
    ) -> Result<Self::Regions, LsOverflow> {
        Ok((spe.alloc_quads(n)?, spe.alloc_quads(n)?))
    }

    fn step(
        &self,
        lane: &mut SpeLane<'_>,
        (pos_r, acc_r): Self::Regions,
        cx: &StepCx<'_, Self::Real>,
    ) -> Result<SpeStep<f32>, CellError> {
        let (lo, hi) = cx.slice;
        resident_step(lane, (pos_r, acc_r), cx, |ls| {
            let soa = SoaPositionsF32::from_quads((0..cx.n).map(|j| ls.load_quad(pos_r, j)));
            compute_accelerations(&soa, lo..hi, cx.params, self.variant, cx.costs, |i, q| {
                ls.store_quad(acc_r, i, q);
            })
        })
    }
}

/// The double-precision resident port: two quadwords per atom per array.
struct Double;

impl OffloadPort for Double {
    type Real = f64;
    type Regions = (LsRegion, LsRegion);

    fn alloc(
        &self,
        spe: &mut Spe,
        n: usize,
        _: (usize, usize),
    ) -> Result<Self::Regions, LsOverflow> {
        Ok((spe.alloc_quads(2 * n)?, spe.alloc_quads(2 * n)?))
    }

    fn step(
        &self,
        lane: &mut SpeLane<'_>,
        (pos_r, acc_r): Self::Regions,
        cx: &StepCx<'_, Self::Real>,
    ) -> Result<SpeStep<f64>, CellError> {
        let (lo, hi) = cx.slice;
        resident_step(lane, (pos_r, acc_r), cx, |ls| {
            compute_accelerations_f64(ls, pos_r, acc_r, lo..hi, cx.n, cx.params, cx.costs)
        })
    }
}

/// The streaming port: own slice plus two j-tile buffers per local store.
struct Tiled {
    tile_atoms: usize,
}

/// One SPE's local-store layout in the tiled port: own positions, own
/// accelerations, two j-tile buffers.
#[derive(Clone, Copy)]
struct TiledRegions {
    pos_i: LsRegion,
    acc: LsRegion,
    tiles: [LsRegion; 2],
}

impl OffloadPort for Tiled {
    type Real = f32;
    type Regions = TiledRegions;

    fn alloc(
        &self,
        spe: &mut Spe,
        _: usize,
        (lo, hi): (usize, usize),
    ) -> Result<TiledRegions, LsOverflow> {
        Ok(TiledRegions {
            pos_i: spe.alloc_quads(hi - lo)?,
            acc: spe.alloc_quads(hi - lo)?,
            tiles: [
                spe.alloc_quads(self.tile_atoms)?,
                spe.alloc_quads(self.tile_atoms)?,
            ],
        })
    }

    fn step(
        &self,
        lane: &mut SpeLane<'_>,
        r: TiledRegions,
        cx: &StepCx<'_, Self::Real>,
    ) -> Result<SpeStep<f32>, CellError> {
        let (lo, hi) = cx.slice;
        let slice_len = hi - lo;
        let n = cx.n;

        // Own positions in; accumulator zeroed.
        let dma_in = cx.dma.get(
            cx.pos_mem,
            &mut lane.spe.local_store,
            r.pos_i,
            lo * 16,
            slice_len * 16,
        )?;
        let dma_in = lane.got(r.pos_i, dma_in);
        lane.computes(r.pos_i, r.acc);
        let ls = &mut lane.spe.local_store;
        for ii in 0..slice_len {
            ls.store_quad(r.acc, ii, [0.0; 4]);
        }
        let zero_cycles = slice_len as f64;

        // Stream j tiles with double buffering: the get of tile t+1 is
        // issued into the other buffer while tile t computes, so the path is
        // dma(0) + Σ max(compute(t), dma(t+1)) + compute(last).
        let tile = |t: usize| {
            let j_lo = t * self.tile_atoms;
            (j_lo, (j_lo + self.tile_atoms).min(n) - j_lo, r.tiles[t % 2])
        };
        let fetch = |ls: &mut LocalStore, t: usize| {
            let (j_lo, count, buf) = tile(t);
            cx.dma.get(cx.pos_mem, ls, buf, j_lo * 16, count * 16)
        };
        let n_tiles = n.div_ceil(self.tile_atoms);
        let mut path = dma_in + zero_cycles + fetch(ls, 0)?;
        let mut stats = KernelStats::default();
        for t in 0..n_tiles {
            let (j_lo, count, buf) = tile(t);
            let (_, tile_stats) = compute_accelerations_tiled(
                ls, r.pos_i, lo, slice_len, buf, j_lo, count, r.acc, cx.params, cx.costs,
            );
            stats.pairs_tested += tile_stats.pairs_tested;
            stats.interactions += tile_stats.interactions;
            stats.cycles += tile_stats.cycles;
            let next_dma = if t + 1 < n_tiles {
                fetch(ls, t + 1)?
            } else {
                0.0
            };
            path += tile_stats.cycles.max(next_dma);
        }

        // PE slice read from the accumulator lanes; results out.
        let mut pe_slice = 0.0f32;
        for ii in 0..slice_len {
            pe_slice += ls.load_quad(r.acc, ii)[3];
        }
        let dma_out = cx.dma.put(
            &lane.spe.local_store,
            lane.acc_out,
            r.acc,
            0,
            slice_len * 16,
        )?;
        let dma_out = lane.put(r.acc, dma_out);
        path += dma_out + cx.mailbox_cycles;
        Ok(SpeStep {
            dma_in,
            dma_out,
            stats,
            // The streamed DMA hides behind compute; the whole path is
            // charged as compute.
            compute_path: path,
            dma_path: 0.0,
            pe_slice,
            bytes_in: (n + slice_len) * 16,
            bytes_out: slice_len * 16,
        })
    }
}

/// Mutable state one simulated SPE owns during the force phase: the SPE
/// itself (local store, mailboxes, cycle counter), its window of the main
/// memory acceleration image, and — under hazard-check and fault-inject —
/// its race detector and its peeked fault sites. Lanes are disjoint, so
/// the phase can run on host threads.
struct SpeLane<'a> {
    spe: &'a mut Spe,
    acc_out: &'a mut [u8],
    #[cfg(feature = "hazard-check")]
    hazard: &'a mut HazardChecker,
    #[cfg(feature = "fault-inject")]
    faults: LaneFaults<'a>,
}

impl SpeLane<'_> {
    /// The step's input get into `region` has landed (tag 0 issued and
    /// waited on). Returns its cycles plus any injected recovery: a failed
    /// transfer is re-issued in full; a tag-group wait that spins out costs
    /// the spin window plus a fresh issue-and-wait (two transfers' worth).
    /// The functional transfer always lands pristine data, so physics is
    /// untouched by construction.
    fn got(&mut self, _region: LsRegion, cycles: f64) -> f64 {
        #[cfg(feature = "hazard-check")]
        {
            // The functional engine transfers synchronously; the modeled
            // hardware pattern is issue → tag wait → compute.
            self.hazard.dma_issue(0, Dir::Get, _region);
            self.hazard.tag_wait(0);
        }
        #[cfg(feature = "fault-inject")]
        let cycles = {
            let reissue = self.faults.peek(0, cycles);
            let spin = self.faults.peek(1, 2.0 * cycles);
            cycles + reissue + spin
        };
        cycles
    }

    /// The kernel reads `read` and writes `write` in the local store.
    fn computes(&mut self, _read: LsRegion, _write: LsRegion) {
        #[cfg(feature = "hazard-check")]
        {
            self.hazard.compute_read(_read);
            self.hazard.compute_write(_write);
        }
    }

    /// The step's result put from `region` has completed (tag 1 issued and
    /// waited on). Returns its cycles plus any injected re-issue.
    fn put(&mut self, _region: LsRegion, cycles: f64) -> f64 {
        #[cfg(feature = "hazard-check")]
        {
            self.hazard.dma_issue(1, Dir::Put, _region);
            self.hazard.tag_wait(1);
        }
        #[cfg(feature = "fault-inject")]
        let cycles = cycles + self.faults.peek(2, cycles);
        cycles
    }
}

/// One SPE evaluation's injection sites in resolution order — input get,
/// its tag-group wait, result put — each as `(site, outcome, unit recovery
/// cycles)`. Peeked in-lane (pure); the serial fold commits them to the
/// session's ledger in SPE order.
#[cfg(feature = "fault-inject")]
type PeekedSites = [(sim_fault::FaultSite, sim_fault::SiteOutcome, f64); 3];

#[cfg(feature = "fault-inject")]
struct LaneFaults<'a> {
    session: Option<&'a sim_fault::FaultSession>,
    sites: PeekedSites,
}

#[cfg(feature = "fault-inject")]
impl<'a> LaneFaults<'a> {
    fn new(session: Option<&'a sim_fault::FaultSession>, eval: usize, spe: usize) -> Self {
        use sim_fault::{FaultKind, FaultSite, SiteOutcome};
        let site = |kind, sub| {
            (
                FaultSite::new(kind, eval as u64, spe as u32, sub),
                SiteOutcome::clean(),
                0.0,
            )
        };
        Self {
            session,
            sites: [
                site(FaultKind::DmaTransfer, 0),
                site(FaultKind::TagWaitTimeout, 0),
                site(FaultKind::DmaTransfer, 1),
            ],
        }
    }

    /// Peek site `k` with `unit` recovery cycles per failure; returns the
    /// extra cycles it will charge.
    fn peek(&mut self, k: usize, unit: f64) -> f64 {
        let (site, out, unit_cycles) = &mut self.sites[k];
        *out = peek_fault_site(self.session, *site);
        *unit_cycles = unit;
        // An exhausting site aborts the run instead of paying for the
        // failed attempts.
        if out.exhausted {
            0.0
        } else {
            unit * f64::from(out.failures)
        }
    }
}

/// What one SPE lane reports back for the serial in-order fold.
struct SpeLaneOut<T> {
    step: SpeStep<T>,
    /// Mailbox round trips this SPE performed this evaluation (1 or 2).
    round_trips: u64,
    #[cfg(feature = "fault-inject")]
    faults: PeekedSites,
}

/// Fold-side half of [`resolve_fault_site`]: replay a peeked outcome into
/// the session's ledger exactly as the serial walk would have — commit,
/// abort on exhaustion, then charge the recovery time.
#[cfg(feature = "fault-inject")]
fn commit_fault_site(
    fault: &mut Option<sim_fault::FaultSession>,
    site: sim_fault::FaultSite,
    out: sim_fault::SiteOutcome,
    unit_cycles: f64,
    clock_hz: f64,
) -> Result<f64, CellError> {
    let Some(sess) = fault.as_mut() else {
        return Ok(0.0);
    };
    sess.commit(out);
    if out.exhausted {
        return Err(CellError::FaultExhausted {
            kind: site.kind,
            eval: site.eval,
            unit: site.unit,
        });
    }
    let extra = unit_cycles * f64::from(out.failures);
    if extra > 0.0 {
        sess.charge(extra / clock_hz);
    }
    Ok(extra)
}

/// Apply the armed fault schedule to one injection site in place: walk the
/// plan's per-retry decisions, charge `unit_cycles` of simulated recovery
/// time per failure, and return the total extra cycles — or the typed
/// exhaustion error once the retry budget is spent, so the harness
/// supervisor can restore a checkpoint or fall back to the reference
/// device. (The SPE lanes split this into a pure in-lane peek and
/// [`commit_fault_site`] in the fold.)
#[cfg(feature = "fault-inject")]
fn resolve_fault_site(
    fault: &mut Option<sim_fault::FaultSession>,
    site: sim_fault::FaultSite,
    unit_cycles: f64,
    clock_hz: f64,
) -> Result<f64, CellError> {
    let out = peek_fault_site(fault.as_ref(), site);
    commit_fault_site(fault, site, out, unit_cycles, clock_hz)
}

/// The pure plan walk for one site (a clean outcome when no plan is armed).
#[cfg(feature = "fault-inject")]
fn peek_fault_site(
    fault: Option<&sim_fault::FaultSession>,
    site: sim_fault::FaultSite,
) -> sim_fault::SiteOutcome {
    fault.map_or_else(sim_fault::SiteOutcome::clean, |f| f.peek(site))
}

/// Split `n` items into `k` contiguous, balanced slices.
fn partition(n: usize, k: usize) -> Vec<(usize, usize)> {
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut lo = 0;
    for s in 0..k {
        let len = base + usize::from(s < extra);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

/// Each SPE retires up to a 4-wide single-precision FMA per cycle.
const SPE_FLOPS_PER_CYCLE: f64 = 8.0;

/// A [`CellBeDevice`] bound to one [`CellRunConfig`], so each paper
/// configuration (1 SPE, 8 SPEs, respawn vs launch-once, SIMD stage) appears
/// as a distinct device behind [`md_core::device::MdDevice`].
pub struct CellMd {
    pub device: CellBeDevice,
    pub run: CellRunConfig,
}

impl CellMd {
    pub fn new(device: CellBeDevice, run: CellRunConfig) -> Self {
        Self { device, run }
    }

    /// The paper's blade in the given run configuration.
    pub fn paper_blade(run: CellRunConfig) -> Self {
        Self::new(CellBeDevice::paper_blade(), run)
    }
}

impl md_core::device::MdDevice for CellMd {
    fn label(&self) -> String {
        format!("cell-{}spe", self.run.n_spes)
    }

    fn peak_ops_per_second(&self) -> f64 {
        self.device.config.clock_hz * SPE_FLOPS_PER_CYCLE * self.run.n_spes as f64
    }

    #[cfg(feature = "fault-inject")]
    fn resalt(&mut self, salt: u64) {
        self.device.fault_plan = self.device.fault_plan.map(|p| p.with_salt(salt));
    }

    fn run(
        &mut self,
        sim: &SimConfig,
        mut opts: md_core::device::RunOptions<'_>,
    ) -> Result<md_core::device::DeviceRun, md_core::device::DeviceError> {
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = opts.fault_plan {
            self.device.fault_plan = Some(plan);
        }
        let (mut sys, start_step): (ParticleSystem<f32>, u64) = match opts.start {
            Some(cp) => (cp.restore(), cp.step),
            None => (init::initialize(sim), 0),
        };
        // Flops and DMA traffic are reported through the counter layer, so
        // observe with a local monitor when the caller didn't pass one
        // (observation is free: the counted run is bitwise-identical).
        let mut local = sim_perf::PerfMonitor::new();
        let perf = match opts.perf.take() {
            Some(p) => p,
            None => &mut local,
        };
        let r = self
            .device
            .run_md_impl(
                &mut sys,
                sim,
                opts.steps,
                self.run,
                None,
                Some(perf),
                opts.host_parallelism,
            )
            .map_err(|e| md_core::device::DeviceError::Failed(e.to_string()))?;
        let clk = self.device.config.clock_hz;
        let flops = md_core::device::counter_total(perf, "cell.flops.simd")
            + md_core::device::counter_total(perf, "cell.flops.scalar");
        let bytes = md_core::device::counter_total(perf, "cell.dma.bytes_in")
            + md_core::device::counter_total(perf, "cell.dma.bytes_out");
        let fraction = |cycles: f64| {
            if r.sim_seconds == 0.0 {
                0.0
            } else {
                (cycles / clk) / r.sim_seconds
            }
        };
        let run = md_core::device::DeviceRun {
            sim_seconds: r.sim_seconds,
            energies: r.energies,
            checkpoint: md_core::checkpoint::SystemCheckpoint::capture(
                &sys,
                start_step + opts.steps as u64,
            ),
            attribution: vec![
                ("compute", r.breakdown.compute / clk),
                ("dma_wait", r.breakdown.dma / clk),
                ("mailbox", r.breakdown.mailbox / clk),
                ("spe_spawn", r.breakdown.spawn / clk),
                ("ppe_serial", r.breakdown.ppe / clk),
            ],
            derived: vec![
                ("dma_fraction", fraction(r.breakdown.dma)),
                ("launch_fraction", fraction(r.breakdown.spawn)),
            ],
            ops: flops,
            bytes_moved: bytes,
            #[cfg(feature = "fault-inject")]
            faults: r.faults,
            #[cfg(not(feature = "fault-inject"))]
            faults: md_core::device::FaultStats::default(),
        };
        if let Some(led) = opts.ledger.take() {
            let label = md_core::device::MdDevice::label(self);
            md_core::device::ledger_record_run(led, &label, &run, Some(perf));
        }
        Ok(run)
    }
}

/// The PPE-only baseline (Table 1's 26x-slower row) as a device: the scalar
/// kernel on the PPE with its CPI penalty, no SPEs, no DMA.
pub struct CellPpeMd {
    pub device: CellBeDevice,
}

impl CellPpeMd {
    pub fn paper_blade() -> Self {
        Self {
            device: CellBeDevice::paper_blade(),
        }
    }
}

impl md_core::device::MdDevice for CellPpeMd {
    fn label(&self) -> String {
        "cell-ppe".to_string()
    }

    /// The PPE issues one scalar flop per cycle in this model.
    fn peak_ops_per_second(&self) -> f64 {
        self.device.config.clock_hz
    }

    fn run(
        &mut self,
        sim: &SimConfig,
        mut opts: md_core::device::RunOptions<'_>,
    ) -> Result<md_core::device::DeviceRun, md_core::device::DeviceError> {
        let (mut sys, start_step): (ParticleSystem<f32>, u64) = match opts.start {
            Some(cp) => (cp.restore(), cp.step),
            None => (init::initialize(sim), 0),
        };
        let r = self.device.run_md_ppe_only_impl(&mut sys, sim, opts.steps);
        let clk = self.device.config.clock_hz;
        let ops = r.kernel_stats.pairs_tested as f64 * FLOPS_PER_PAIR
            + r.kernel_stats.interactions as f64 * FLOPS_PER_INTERACTION;
        let run = md_core::device::DeviceRun {
            sim_seconds: r.sim_seconds,
            energies: r.energies,
            checkpoint: md_core::checkpoint::SystemCheckpoint::capture(
                &sys,
                start_step + opts.steps as u64,
            ),
            attribution: vec![
                ("compute", r.breakdown.compute / clk),
                ("dma_wait", r.breakdown.dma / clk),
                ("mailbox", r.breakdown.mailbox / clk),
                ("spe_spawn", r.breakdown.spawn / clk),
                ("ppe_serial", r.breakdown.ppe / clk),
            ],
            derived: Vec::new(),
            ops,
            bytes_moved: 0.0,
            faults: md_core::device::FaultStats::default(),
        };
        if let Some(led) = opts.ledger.take() {
            let label = md_core::device::MdDevice::label(self);
            md_core::device::ledger_record_run(led, &label, &run, opts.perf.as_deref());
        }
        Ok(run)
    }
}

/// The Figure 5 measurement as a device: one acceleration-function
/// invocation on a single SPE at a fixed optimization stage. Only supports
/// `steps == 0` from a fresh lattice — it times the function, not a
/// trajectory.
pub struct CellAccelProbe {
    pub device: CellBeDevice,
    pub variant: SpeKernelVariant,
}

impl CellAccelProbe {
    pub fn paper_blade(variant: SpeKernelVariant) -> Self {
        Self {
            device: CellBeDevice::paper_blade(),
            variant,
        }
    }
}

impl md_core::device::MdDevice for CellAccelProbe {
    fn label(&self) -> String {
        format!("cell-1spe-{}", self.variant.label().replace(' ', "-"))
    }

    fn peak_ops_per_second(&self) -> f64 {
        self.device.config.clock_hz * SPE_FLOPS_PER_CYCLE
    }

    fn run(
        &mut self,
        sim: &SimConfig,
        mut opts: md_core::device::RunOptions<'_>,
    ) -> Result<md_core::device::DeviceRun, md_core::device::DeviceError> {
        if opts.start.is_some() || opts.steps != 0 {
            return Err(md_core::device::DeviceError::Unsupported(
                "the single-SPE probe times one force evaluation from a fresh lattice \
                 (steps must be 0, no checkpoint)"
                    .to_string(),
            ));
        }
        let (t, pe) = self
            .device
            .time_single_spe_accel(sim, self.variant)
            .map_err(|e| md_core::device::DeviceError::Failed(e.to_string()))?;
        let sys: ParticleSystem<f32> = init::initialize(sim);
        let run = md_core::device::DeviceRun {
            sim_seconds: t,
            energies: EnergyReport::measure(&sys, pe),
            checkpoint: md_core::checkpoint::SystemCheckpoint::capture(&sys, 0),
            attribution: vec![("force_eval", t)],
            derived: Vec::new(),
            ops: 0.0,
            bytes_moved: 0.0,
            faults: md_core::device::FaultStats::default(),
        };
        if let Some(led) = opts.ledger.take() {
            let label = md_core::device::MdDevice::label(self);
            md_core::device::ledger_record_run(led, &label, &run, opts.perf.as_deref());
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

    fn workload(n: usize) -> SimConfig {
        SimConfig::reduced_lj(n)
    }

    /// Test driver for the resident SPE-offload path from a fresh lattice
    /// (the production entry point is `MdDevice::run` on [`CellMd`]).
    fn run_md(
        device: &CellBeDevice,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
    ) -> Result<CellRun, CellError> {
        let mut sys: ParticleSystem<f32> = init::initialize(sim);
        device.run_md_impl(
            &mut sys,
            sim,
            steps,
            run,
            None,
            None,
            HostParallelism::Serial,
        )
    }

    /// Like [`run_md`] but continuing from caller-owned state.
    fn run_md_from(
        device: &CellBeDevice,
        sys: &mut ParticleSystem<f32>,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
    ) -> Result<CellRun, CellError> {
        device.run_md_impl(sys, sim, steps, run, None, None, HostParallelism::Serial)
    }

    /// [`run_md`] with performance counters attached.
    fn run_md_perf(
        device: &CellBeDevice,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
        perf: &mut sim_perf::PerfMonitor,
    ) -> Result<CellRun, CellError> {
        let mut sys: ParticleSystem<f32> = init::initialize(sim);
        device.run_md_impl(
            &mut sys,
            sim,
            steps,
            run,
            None,
            Some(perf),
            HostParallelism::Serial,
        )
    }

    #[test]
    fn partition_is_exact_and_balanced() {
        for (n, k) in [(2048usize, 8usize), (10, 3), (7, 7), (5, 1)] {
            let slices = partition(n, k);
            assert_eq!(slices.len(), k);
            assert_eq!(slices[0].0, 0);
            assert_eq!(slices.last().unwrap().1, n);
            for w in slices.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            let sizes: Vec<usize> = slices.iter().map(|(a, b)| b - a).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    fn physics_matches_f32_reference() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let run =
            run_md(&device, &sim, 3, CellRunConfig::best()).expect("256 atoms fit the local store");

        // Reference: same workload, f32, untimed.
        let expect = md_core::reference::run::<f32>(&sim, 3);
        assert!(
            (run.energies.total - expect.total).abs() < 1e-3 * expect.total.abs(),
            "Cell {} vs reference {}",
            run.energies.total,
            expect.total
        );
    }

    #[test]
    fn all_variants_produce_same_physics() {
        let sim = workload(108);
        let device = CellBeDevice::paper_blade();
        let mut totals = Vec::new();
        for variant in SpeKernelVariant::ALL {
            let run = run_md(
                &device,
                &sim,
                2,
                CellRunConfig {
                    n_spes: 4,
                    policy: SpawnPolicy::LaunchOnce,
                    variant,
                },
            )
            .unwrap();
            totals.push(run.energies.total);
        }
        for t in &totals {
            assert!(
                (t - totals[0]).abs() < 2e-3 * totals[0].abs(),
                "variants diverge: {totals:?}"
            );
        }
    }

    #[test]
    fn figure5_ladder_monotonic_on_device() {
        let sim = workload(500);
        let device = CellBeDevice::paper_blade();
        let mut prev = f64::INFINITY;
        for variant in SpeKernelVariant::ALL {
            let (t, _) = device.time_single_spe_accel(&sim, variant).unwrap();
            assert!(t < prev, "{variant:?}: {t} !< {prev}");
            prev = t;
        }
    }

    #[test]
    fn figure6_launch_once_amortizes_spawn() {
        let sim = workload(2048);
        let device = CellBeDevice::paper_blade();
        let respawn = run_md(
            &device,
            &sim,
            10,
            CellRunConfig {
                n_spes: 8,
                policy: SpawnPolicy::RespawnEveryStep,
                variant: SpeKernelVariant::SimdAcceleration,
            },
        )
        .unwrap();
        let once = run_md(
            &device,
            &sim,
            10,
            CellRunConfig {
                n_spes: 8,
                policy: SpawnPolicy::LaunchOnce,
                variant: SpeKernelVariant::SimdAcceleration,
            },
        )
        .unwrap();
        assert!(once.sim_seconds < respawn.sim_seconds);
        assert!(
            respawn.launch_fraction() > 3.0 * once.launch_fraction(),
            "respawn {:.3} vs once {:.3}",
            respawn.launch_fraction(),
            once.launch_fraction()
        );
        // Same physics either way.
        assert!(
            (once.energies.total - respawn.energies.total).abs() < 1e-6 * once.energies.total.abs()
        );
    }

    #[test]
    fn eight_spes_beat_one_spe_when_launch_amortized() {
        let sim = workload(2048);
        let device = CellBeDevice::paper_blade();
        let one = run_md(&device, &sim, 10, CellRunConfig::single_spe()).unwrap();
        let eight = run_md(&device, &sim, 10, CellRunConfig::best()).unwrap();
        let speedup = one.sim_seconds / eight.sim_seconds;
        assert!(
            (3.5..7.0).contains(&speedup),
            "paper reports ~4.5x; got {speedup:.2}"
        );
    }

    #[test]
    fn ppe_only_much_slower_than_spes() {
        // The paper's full 26x shows at 2048 atoms (checked in the Table 1
        // integration test); at 1024 the overheads are amortized enough to
        // assert a substantial gap cheaply.
        let sim = workload(1024);
        let device = CellBeDevice::paper_blade();
        let eight = run_md(&device, &sim, 6, CellRunConfig::best()).unwrap();
        let ppe = device.run_md_ppe_only(&sim, 6);
        let ratio = ppe.sim_seconds / eight.sim_seconds;
        assert!(ratio > 5.0, "PPE-only should be far slower: {ratio:.1}");
        assert!(
            (ppe.energies.total - eight.energies.total).abs() < 1e-3 * eight.energies.total.abs()
        );
    }

    #[test]
    fn local_store_overflow_detected() {
        // 16384 quads fill 256 KB; position + acceleration arrays for 10000
        // atoms need 2 * 160 KB > 256 KB.
        let sim = workload(10_000);
        let device = CellBeDevice::paper_blade();
        let err = run_md(&device, &sim, 1, CellRunConfig::best());
        assert!(err.is_err(), "10k atoms cannot fit the local store layout");
    }

    #[test]
    fn deterministic() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let a = run_md(&device, &sim, 3, CellRunConfig::best()).unwrap();
        let b = run_md(&device, &sim, 3, CellRunConfig::best()).unwrap();
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.energies.total, b.energies.total);
    }

    #[test]
    fn perf_counters_are_free_and_populated() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let plain = run_md(&device, &sim, 3, CellRunConfig::best()).unwrap();
        let mut perf = sim_perf::PerfMonitor::new();
        let counted = run_md_perf(&device, &sim, 3, CellRunConfig::best(), &mut perf).unwrap();

        // Observability is free: bitwise-identical outcome.
        assert_eq!(plain.sim_seconds, counted.sim_seconds);
        assert_eq!(plain.energies.total, counted.energies.total);

        // 4 evaluations (1 priming + 3 steps), each SPE gets all 256
        // positions in (256 quads) and puts its 32-atom slice back.
        let spe0 = perf.find("cell.spe0.dma.bytes").expect("registered");
        assert_eq!(spe0.value(), 4.0 * (256.0 + 32.0) * 16.0);
        assert_eq!(spe0.samples().len(), 4);
        let bytes_in = perf.find("cell.dma.bytes_in").expect("registered");
        assert_eq!(bytes_in.value(), 4.0 * 8.0 * 256.0 * 16.0);
        // Launch-once: 8 completion round-trips per eval + 8 "more data"
        // signals on each of the 3 non-priming evals.
        let mbox = perf.find("cell.mailbox.round_trips").expect("registered");
        assert_eq!(mbox.value(), 4.0 * 8.0 + 3.0 * 8.0);
        // Fully SIMDized variant: all kernel flops through SIMD lanes.
        let simd = perf.find("cell.flops.simd").expect("registered");
        let scalar = perf.find("cell.flops.scalar").expect("registered");
        assert!(simd.value() > 0.0);
        assert_eq!(scalar.value(), 0.0);
        let pairs = perf.find("cell.kernel.pairs_tested").expect("registered");
        assert_eq!(pairs.value(), counted.kernel_stats.pairs_tested as f64);
        let stall = perf.find("cell.dma.stall_cycles").expect("registered");
        assert_eq!(stall.value(), counted.breakdown.dma);
    }

    #[test]
    fn scalar_variant_attributes_flops_to_scalar_pipe() {
        let sim = workload(108);
        let device = CellBeDevice::paper_blade();
        let mut perf = sim_perf::PerfMonitor::new();
        run_md_perf(
            &device,
            &sim,
            1,
            CellRunConfig {
                n_spes: 2,
                policy: SpawnPolicy::LaunchOnce,
                variant: SpeKernelVariant::Original,
            },
            &mut perf,
        )
        .unwrap();
        let simd = perf.find("cell.flops.simd").expect("registered");
        let scalar = perf.find("cell.flops.scalar").expect("registered");
        assert_eq!(simd.value(), 0.0);
        assert!(scalar.value() > 0.0);
    }

    /// `(tid, ts, dur)` of every event in a rendered trace, in seconds
    /// (instants and counters have zero duration; metadata is skipped).
    fn trace_events(json: &str) -> Vec<(u32, f64, f64)> {
        use sim_obs::JsonValue;
        let doc = sim_obs::parse_json(json).expect("trace is valid JSON");
        let num = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_number);
        doc.as_array()
            .expect("trace is an event array")
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) != Some("M"))
            .map(|e| {
                let tid = num(e, "tid").expect("tid") as u32;
                let ts = num(e, "ts").expect("ts") * 1e-6;
                (tid, ts, num(e, "dur").unwrap_or(0.0) * 1e-6)
            })
            .collect()
    }

    #[test]
    fn traced_run_produces_consistent_timeline() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let mut trace = ChromeTrace::new();
        let traced = device
            .run_md_traced(&sim, 3, CellRunConfig::best(), &mut trace)
            .unwrap();
        let plain = run_md(&device, &sim, 3, CellRunConfig::best()).unwrap();

        // Tracing must not perturb the simulation.
        assert_eq!(traced.sim_seconds, plain.sim_seconds);
        assert_eq!(traced.energies.total, plain.energies.total);

        // Timeline sanity: spans exist on the PPE and every SPE track, the
        // timeline end matches the reported runtime closely, and the JSON
        // export is well formed.
        assert!(trace.span_count() > 0);
        let json = trace.render();
        let events = trace_events(&json);
        let busy = |tid: u32| -> f64 { events.iter().filter(|e| e.0 == tid).map(|e| e.2).sum() };
        assert!(busy(0) > 0.0, "PPE busy");
        for s in 0..8u32 {
            assert!(busy(1 + s) > 0.0, "SPE {s} has spans");
        }
        let end = events.iter().map(|e| e.1 + e.2).fold(0.0, f64::max);
        assert!(
            (end - traced.sim_seconds).abs() < 0.02 * traced.sim_seconds,
            "timeline end {end} vs runtime {}",
            traced.sim_seconds
        );
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("accel kernel"));
        assert!(json.contains("spawn SPE 7 thread"));
    }

    #[test]
    fn tiled_port_matches_resident_port() {
        let sim = workload(512);
        let device = CellBeDevice::paper_blade();
        let resident = run_md(&device, &sim, 3, CellRunConfig::best()).unwrap();
        let tiled = device
            .run_md_tiled(&sim, 3, CellRunConfig::best(), 128)
            .unwrap();
        assert!(
            (tiled.energies.total - resident.energies.total).abs()
                < 1e-5 * resident.energies.total.abs(),
            "tiled {} vs resident {}",
            tiled.energies.total,
            resident.energies.total
        );
        assert_eq!(
            tiled.kernel_stats.interactions,
            resident.kernel_stats.interactions
        );
        // Double-buffered streaming costs a little more than resident, but
        // not wildly (DMA overlaps compute).
        let overhead = tiled.sim_seconds / resident.sim_seconds;
        assert!(
            (0.95..1.5).contains(&overhead),
            "tiled overhead {overhead:.2}x"
        );
    }

    #[test]
    fn tiled_port_handles_systems_beyond_the_local_store() {
        // 10000 atoms: the resident port overflows (checked elsewhere); the
        // tiled port runs and produces physical results.
        let sim = workload(10_000);
        let device = CellBeDevice::paper_blade();
        let run = device
            .run_md_tiled(&sim, 0, CellRunConfig::best(), 1024)
            .expect("streaming port has no N limit");
        assert!(run.energies.potential < 0.0, "cohesive liquid");
        assert!(run.sim_seconds > 0.0);
    }

    #[test]
    fn tile_size_does_not_change_physics() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let runs: Vec<f64> = [32usize, 100, 256, 511]
            .iter()
            .map(|&t| {
                device
                    .run_md_tiled(&sim, 2, CellRunConfig::best(), t)
                    .unwrap()
                    .energies
                    .total
            })
            .collect();
        for r in &runs {
            assert!(
                (r - runs[0]).abs() < 1e-6 * runs[0].abs(),
                "tile size changed the trajectory: {runs:?}"
            );
        }
    }

    #[test]
    fn double_precision_matches_f64_reference() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let run = device
            .run_md_double(&sim, 3, CellRunConfig::best())
            .expect("fits local store");

        let expect = md_core::reference::run::<f64>(&sim, 3);
        assert!(
            (run.energies.total - expect.total).abs() < 1e-9 * expect.total.abs(),
            "DP Cell {} vs f64 reference {}",
            run.energies.total,
            expect.total
        );
    }

    #[test]
    fn double_precision_pays_the_dp_penalty() {
        let sim = workload(512);
        let device = CellBeDevice::paper_blade();
        let sp = run_md(&device, &sim, 4, CellRunConfig::best()).unwrap();
        let dp = device
            .run_md_double(&sim, 4, CellRunConfig::best())
            .unwrap();
        let ratio = dp.breakdown.compute / sp.breakdown.compute;
        assert!(
            (3.0..8.0).contains(&ratio),
            "DP compute should be several times SP: {ratio:.2}x"
        );
    }

    #[test]
    fn segmented_run_matches_unsegmented_run_bitwise() {
        // run_md_from in two 5-step segments must reproduce the 10-step run
        // exactly: this is the property the supervisor's checkpoint/restart
        // relies on.
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let mut whole: ParticleSystem<f32> = init::initialize(&sim);
        run_md_from(&device, &mut whole, &sim, 10, CellRunConfig::best()).unwrap();

        let mut segmented: ParticleSystem<f32> = init::initialize(&sim);
        run_md_from(&device, &mut segmented, &sim, 5, CellRunConfig::best()).unwrap();
        run_md_from(&device, &mut segmented, &sim, 5, CellRunConfig::best()).unwrap();

        assert_eq!(whole.positions, segmented.positions);
        assert_eq!(whole.velocities, segmented.velocities);
        assert_eq!(whole.accelerations, segmented.accelerations);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_faults_leave_physics_untouched_and_slow_the_run() {
        let sim = workload(256);
        let clean_device = CellBeDevice::paper_blade();
        let mut clean_sys: ParticleSystem<f32> = init::initialize(&sim);
        let clean = run_md_from(
            &clean_device,
            &mut clean_sys,
            &sim,
            5,
            CellRunConfig::best(),
        )
        .unwrap();

        let faulty_device =
            CellBeDevice::paper_blade().with_fault_plan(sim_fault::FaultPlan::new(7, 0.1));
        let mut faulty_sys: ParticleSystem<f32> = init::initialize(&sim);
        let faulty = run_md_from(
            &faulty_device,
            &mut faulty_sys,
            &sim,
            5,
            CellRunConfig::best(),
        )
        .unwrap();

        assert_eq!(clean_sys.positions, faulty_sys.positions);
        assert_eq!(clean_sys.velocities, faulty_sys.velocities);
        assert_eq!(clean.energies.total, faulty.energies.total);
        assert!(faulty.faults.any(), "rate 0.2 over 5 steps must fire");
        assert!(
            faulty.sim_seconds > clean.sim_seconds,
            "recovery must cost simulated time: {} !> {}",
            faulty.sim_seconds,
            clean.sim_seconds
        );
        assert!(faulty.faults.extra_seconds > 0.0);
        // SPEs run concurrently, so recovery on a non-critical-path SPE is
        // absorbed: the wall slowdown is at most the total charged time.
        assert!(
            faulty.sim_seconds - clean.sim_seconds <= faulty.faults.extra_seconds + 1e-12,
            "slowdown {} cannot exceed charged recovery {}",
            faulty.sim_seconds - clean.sim_seconds,
            faulty.faults.extra_seconds
        );
    }

    /// The tiled and double-precision ports share the resident port's loop,
    /// fault hooks included: same physics, more simulated time.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn tiled_and_double_ports_honour_the_fault_plan() {
        let sim = workload(256);
        let clean = CellBeDevice::paper_blade();
        let faulty = CellBeDevice::paper_blade().with_fault_plan(sim_fault::FaultPlan::new(7, 0.1));
        let best = CellRunConfig::best();
        let runs = [
            (
                clean.run_md_tiled(&sim, 4, best, 100).unwrap(),
                faulty.run_md_tiled(&sim, 4, best, 100).unwrap(),
            ),
            (
                clean.run_md_double(&sim, 4, best).unwrap(),
                faulty.run_md_double(&sim, 4, best).unwrap(),
            ),
        ];
        for (clean, faulty) in runs {
            assert_eq!(clean.energies, faulty.energies);
            assert!(faulty.faults.any());
            assert!(faulty.sim_seconds > clean.sim_seconds);
        }
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn always_faulting_plan_surfaces_typed_exhaustion() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade().with_fault_plan(sim_fault::FaultPlan::new(0, 1.0));
        let err = run_md(&device, &sim, 2, CellRunConfig::best());
        assert!(
            matches!(err, Err(CellError::FaultExhausted { .. })),
            "rate-1.0 plan must exhaust: {err:?}"
        );
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fault_schedule_is_reproducible_across_runs() {
        let sim = workload(256);
        let mk =
            || CellBeDevice::paper_blade().with_fault_plan(sim_fault::FaultPlan::new(42, 0.15));
        let a = run_md(&mk(), &sim, 4, CellRunConfig::best()).unwrap();
        let b = run_md(&mk(), &sim, 4, CellRunConfig::best()).unwrap();
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.sim_seconds, b.sim_seconds);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fault_instants_appear_on_the_timeline() {
        let sim = workload(256);
        let device =
            CellBeDevice::paper_blade().with_fault_plan(sim_fault::FaultPlan::new(11, 0.3));
        let mut trace = ChromeTrace::new();
        let run = device
            .run_md_traced(&sim, 4, CellRunConfig::best(), &mut trace)
            .unwrap();
        assert!(run.faults.any());
        let json = trace.render();
        assert!(json.contains("fault:"), "fault instants in the trace");
    }

    #[test]
    fn double_precision_halves_the_local_store_capacity() {
        // 6000 atoms fit in f32 (2 * 96 KB) but not in f64 (2 * 192 KB).
        let sim = workload(6000);
        let device = CellBeDevice::paper_blade();
        assert!(run_md(&device, &sim, 0, CellRunConfig::best()).is_ok());
        assert!(device
            .run_md_double(&sim, 0, CellRunConfig::best())
            .is_err());
    }
}
