//! The full Cell BE device: PPE orchestration of SPE offload, with the
//! Asynchronous Thread Runtime model the paper uses (section 5.1).

use crate::config::{CellConfig, SpeCostModel};
use crate::dma::DmaEngine;
use crate::error::CellError;
#[cfg(feature = "hazard-check")]
use crate::hazard::{Dir, HazardChecker};
use crate::kernel::{
    compute_accelerations, compute_accelerations_f64, KernelStats, SpeKernelVariant, SpeLanePhysics,
};
use crate::localstore::{LocalStore, LsRegion};
use crate::ppe::PpeModel;
use crate::spe::{LsOverflow, Spe};
use md_core::device::{HostParallelism, Pricer};
use md_core::init;
use md_core::observables::EnergyReport;
use md_core::params::SimConfig;
use md_core::shared_eval::SoaPositionsF32;
use md_core::system::ParticleSystem;
use md_core::trajectory::{Flavor, Trajectory, TrajectoryRecord};
use md_core::verlet::VelocityVerlet;
use sim_obs::ChromeTrace;
use std::ops::Range;
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
    pub fault_plan: Option<sim_fault::FaultPlan>,
}

impl CellBeDevice {
    pub fn new(config: CellConfig) -> Self {
        Self {
            config,
            fault_plan: None,
        }
    }

    pub fn paper_blade() -> Self {
        Self::new(CellConfig::paper_blade())
    }

    /// Arm a deterministic fault schedule for subsequent runs (every
    /// SPE-offload port; the PPE-only run stays fault-free).
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
        let mut sys = init::initialize(sim);
        let par = HostParallelism::Serial;
        self.run_offload(&Double, &mut sys, sim, steps, run, None, None, par)
    }

    /// The one SPE-offload time-step loop every port shares: thread
    /// management per Figure 6, position serialization, the local-store
    /// layout, the SPE fan-out with its DMA, the serial in-order fold, PPE
    /// integration and [`CellRun`] assembly. The port supplies only its
    /// precision, the host-side copy of the positions its kernel reads and
    /// its kernel.
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
        let mut fault = self.fault_plan.map(sim_fault::FaultSession::new);

        // Main memory image: positions then accelerations, one
        // `atom_bytes` record per atom in each array.
        let atom_bytes = 4 * size_of::<P::Real>();
        let mut main_memory = vec![0u8; 2 * n * atom_bytes];

        // Bring up the SPEs. Every local store holds all positions plus an
        // acceleration array of the same size, of which the SPE fills and
        // puts back only its own slice.
        let slices: Vec<(usize, usize)> = partition(n, run.n_spes);
        let mut spes: Vec<Spe> = (0..run.n_spes)
            .map(|id| Spe::new(id, &self.config))
            .collect();
        let array_quads = n * atom_bytes / 16;
        let regions = spes
            .iter_mut()
            .map(|spe| Ok((spe.alloc_quads(array_quads)?, spe.alloc_quads(array_quads)?)))
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
                for (s, spe) in spes.iter_mut().enumerate() {
                    // A dropped mailbox message costs a fresh PPE service
                    // round plus the SPE-side read.
                    let extra = resolve_fault_site(
                        &mut fault,
                        sim_fault::FaultSite::new(
                            sim_fault::FaultKind::MailboxDrop,
                            eval as u64,
                            s as u32,
                            0,
                        ),
                        self.config.ppe_service_cycles + mbox,
                        clk,
                    )?;
                    if extra > 0.0 {
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.instant(
                                ppe_track,
                                &format!("fault: mailbox-drop resend (SPE {s})"),
                                "fault",
                                t_now,
                            );
                        }
                        breakdown.mailbox += extra;
                        t_now += extra / clk;
                    }
                    #[cfg(feature = "hazard-check")]
                    hazard[s].note_mailbox_write(s, spe.inbox.is_full());
                    spe.inbox.write(eval as u32);
                }
                let dur = run.n_spes as f64 * self.config.ppe_service_cycles / clk;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.span(ppe_track, "mailbox handshake", "mailbox", t_now, dur);
                }
                t_now += dur;
                breakdown.mailbox += run.n_spes as f64 * self.config.ppe_service_cycles;
            }

            // Serialize current positions into main memory, and build the
            // port's shared copy of them once for every SPE.
            for (i, p) in sys.positions.iter().enumerate() {
                write_atom(&mut main_memory, i, *p);
            }
            let shared = port.share(&sys.positions);

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
                        #[cfg(feature = "hazard-check")]
                        #[expect(
                            clippy::expect_used,
                            reason = "`hazard` is built with exactly one checker per SPE a few lines up"
                        )]
                        hazard: hz_iter.next().expect("one checker per SPE"),
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
                        round_trips += 1;
                    }
                    // Get every position, compute the slice into the
                    // local-store acceleration array, put the slice back.
                    // DMA and compute serialize, so both sit on the
                    // critical path.
                    let (pos_r, acc_r) = regions[s];
                    let (lo, hi) = slices[s];
                    let dma_in =
                        dma.get(pos_mem, &mut lane.spe.local_store, pos_r, 0, n * atom_bytes)?;
                    let dma_in = lane.got(pos_r, dma_in);
                    lane.computes(pos_r, acc_r);
                    let ls = &mut lane.spe.local_store;
                    let (pe_slice, stats) = port.kernel(
                        &shared,
                        ls,
                        (pos_r, acc_r),
                        lo..hi,
                        params,
                        &self.config.costs,
                    );
                    // The slice is a sub-range of the acc region, landing in
                    // this SPE's window of the acceleration image.
                    let slice_view = LsRegion {
                        offset: acc_r.offset + lo * atom_bytes,
                        len: (hi - lo) * atom_bytes,
                    };
                    let dma_out = dma.put(ls, lane.acc_out, slice_view, 0, slice_view.len)?;
                    let dma_out = lane.put(slice_view, dma_out);
                    // Completion notification to the PPE.
                    let spe = &mut *lane.spe;
                    #[cfg(feature = "hazard-check")]
                    lane.hazard.note_mailbox_write(s, spe.outbox.is_full());
                    spe.outbox.write(1);
                    #[cfg(feature = "hazard-check")]
                    lane.hazard.note_mailbox_read(s, spe.outbox.is_empty());
                    let _ = spe.outbox.read();
                    round_trips += 1;

                    if run.policy == SpawnPolicy::RespawnEveryStep {
                        spe.stop_thread();
                    }
                    Ok(SpeLaneOut {
                        dma_in,
                        dma_out,
                        stats,
                        pe_slice,
                        round_trips,
                        faults: lane.faults.sites,
                    })
                },
            );

            // Serial fold in SPE order: fault ledger, reductions, timeline.
            let mut max_spe_cycles = 0.0f64;
            let mut max_spe_dma = 0.0f64;
            pe_total = P::Real::ZERO;
            for (s, lane_out) in lane_outs.into_iter().enumerate() {
                let out = lane_out?;
                let [get, wait, put] = out.faults;
                let reissue = commit_fault_site(&mut fault, get.0, get.1, get.2, clk)?;
                let spin = commit_fault_site(&mut fault, wait.0, wait.1, wait.2, clk)?;
                if reissue + spin > 0.0 {
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.instant(spe_track(s), "fault: dma get retried", "fault", t_now);
                    }
                }
                let put_reissue = commit_fault_site(&mut fault, put.0, put.1, put.2, clk)?;
                if put_reissue > 0.0 {
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.instant(spe_track(s), "fault: dma put retried", "fault", t_now);
                    }
                }
                let (lo, hi) = slices[s];
                mailbox_round_trips += out.round_trips;
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
                max_spe_cycles = max_spe_cycles.max(out.stats.cycles + mbox);
                max_spe_dma = max_spe_dma.max(out.dma_in + out.dma_out);
                stats_total.pairs_tested += out.stats.pairs_tested;
                stats_total.interactions += out.stats.interactions;
                pe_total += out.pe_slice;
                if let (Some(p), Some(h)) = (perf.as_deref_mut(), handles.as_ref()) {
                    let (bytes_in, bytes_out) = (n * atom_bytes, (hi - lo) * atom_bytes);
                    p.add_u64(h.spe_dma_bytes[s], (bytes_in + bytes_out) as u64);
                    p.add(h.spe_dma_stall[s], out.dma_in + out.dma_out);
                    p.add_u64(h.dma_bytes_in, bytes_in as u64);
                    p.add_u64(h.dma_bytes_out, bytes_out as u64);
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
            faults: fault.map_or_else(sim_fault::FaultStats::default, |f| f.stats()),
        })
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

/// One SPE-offload port: its precision, the host-side copy of the
/// positions its kernel reads, and its acceleration kernel. Everything
/// around the kernel, local-store layout and DMA included, is
/// [`CellBeDevice::run_offload`].
trait OffloadPort: Sync {
    type Real: SpeReal;
    /// The host-side copy of an evaluation's positions that every SPE's
    /// kernel reads, built once per evaluation by [`Self::share`].
    type Shared: Sync;
    /// The shared copy of `positions`, the values just serialized into main
    /// memory.
    fn share(&self, positions: &[Vec3<Self::Real>]) -> Self::Shared;
    /// Compute the accelerations of atoms `rows` into the local-store
    /// acceleration array from all positions in the position array
    /// (`regions` is `(positions, accelerations)`, one `4 × Real` record
    /// per atom), whose values `shared` also holds. Returns the slice's PE
    /// and its work counters.
    fn kernel(
        &self,
        shared: &Self::Shared,
        ls: &mut LocalStore,
        regions: (LsRegion, LsRegion),
        rows: Range<usize>,
        params: SpeLanePhysics<Self::Real>,
        costs: &SpeCostModel,
    ) -> (Self::Real, KernelStats);
}

/// The paper's port: all positions resident in every local store, f32.
struct Resident {
    variant: SpeKernelVariant,
}

/// Its SPEs read one f32 SoA per evaluation, which the host builds, and
/// with it the SoA's j-block index, once for all of them.
impl OffloadPort for Resident {
    type Real = f32;
    type Shared = SoaPositionsF32;

    fn share(&self, positions: &[Vec3<f32>]) -> SoaPositionsF32 {
        soa_of(positions)
    }

    fn kernel(
        &self,
        soa: &SoaPositionsF32,
        ls: &mut LocalStore,
        (pos_r, acc_r): (LsRegion, LsRegion),
        rows: Range<usize>,
        params: SpeLanePhysics,
        costs: &SpeCostModel,
    ) -> (f32, KernelStats) {
        // The rows read the host's shared copy, not this local store, so
        // the two must not drift apart: the positions this SPE got decode
        // to the shared SoA bit for bit.
        debug_assert!(
            (0..soa.len()).all(|j| {
                let q = ls.load_quad(pos_r, j);
                [soa.x()[j], soa.y()[j], soa.z()[j]].map(f32::to_bits)
                    == [q[0], q[1], q[2]].map(f32::to_bits)
            }),
            "local-store positions differ from the shared SoA"
        );
        compute_accelerations(soa, rows, params, self.variant, costs, |i, q| {
            ls.store_quad(acc_r, i, q);
        })
    }
}

/// The double-precision resident port: two quadwords per atom per array.
struct Double;

impl OffloadPort for Double {
    type Real = f64;
    type Shared = ();

    fn share(&self, _positions: &[Vec3<f64>]) {}

    fn kernel(
        &self,
        (): &(),
        ls: &mut LocalStore,
        (pos_r, acc_r): (LsRegion, LsRegion),
        rows: Range<usize>,
        params: SpeLanePhysics<f64>,
        costs: &SpeCostModel,
    ) -> (f64, KernelStats) {
        let n = pos_r.len / (4 * size_of::<f64>());
        compute_accelerations_f64(ls, pos_r, acc_r, rows, n, params, costs)
    }
}

/// Mutable state one simulated SPE owns during the force phase: the SPE
/// itself (local store, mailboxes, cycle counter), its window of the main
/// memory acceleration image, its peeked fault sites, and — under
/// hazard-check — its race detector. Lanes are disjoint, so the phase can
/// run on host threads.
struct SpeLane<'a> {
    spe: &'a mut Spe,
    acc_out: &'a mut [u8],
    #[cfg(feature = "hazard-check")]
    hazard: &'a mut HazardChecker,
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
        let reissue = self.faults.peek(0, cycles);
        let spin = self.faults.peek(1, 2.0 * cycles);
        cycles + reissue + spin
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
        cycles + self.faults.peek(2, cycles)
    }
}

/// One SPE evaluation's injection sites in resolution order — input get,
/// its tag-group wait, result put — each as `(site, outcome, unit recovery
/// cycles)`. Peeked in-lane (pure); the serial fold commits them to the
/// session's ledger in SPE order.
type PeekedSites = [(sim_fault::FaultSite, sim_fault::SiteOutcome, f64); 3];

struct LaneFaults<'a> {
    session: Option<&'a sim_fault::FaultSession>,
    sites: PeekedSites,
}

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
    /// Fault-adjusted cycles of the input get and the result put.
    dma_in: f64,
    dma_out: f64,
    stats: KernelStats,
    pe_slice: T,
    /// Mailbox round trips this SPE performed this evaluation (1 or 2).
    round_trips: u64,
    faults: PeekedSites,
}

/// Fold-side half of [`resolve_fault_site`]: replay a peeked outcome into
/// the session's ledger exactly as the serial walk would have — commit,
/// abort on exhaustion, then charge the recovery time.
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

    fn resalt(&mut self, salt: u64) {
        self.device.fault_plan = self.device.fault_plan.map(|p| p.with_salt(salt));
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
            faults: r.faults,
        };
        if let Some(led) = opts.ledger.take() {
            let label = md_core::device::MdDevice::label(self);
            md_core::device::ledger_record_run(led, &label, &run, Some(perf));
        }
        Ok(run)
    }
}

/// The PPE-only baseline (Table 1's 26x-slower row) as a device: the scalar
/// `Original` kernel on the PPE with its CPI penalty, no SPEs, no DMA. The
/// host integrates on the PPE either way, so its physics is md-core's Cell
/// flavor, the `Original` stage, and the device only prices it.
pub struct CellPpeMd {
    pub device: CellBeDevice,
    /// The last run's trajectory, the resume record of the next run.
    last: Option<Trajectory>,
}

impl CellPpeMd {
    pub fn paper_blade() -> Self {
        Self {
            device: CellBeDevice::paper_blade(),
            last: None,
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
        opts: md_core::device::RunOptions<'_>,
    ) -> Result<md_core::device::DeviceRun, md_core::device::DeviceError> {
        md_core::device::run_priced(self, sim, opts)
    }

    fn as_pricer(&mut self) -> Option<&mut dyn Pricer> {
        Some(self)
    }
}

impl Pricer for CellPpeMd {
    fn flavor(&self) -> Flavor {
        Flavor::Cell
    }

    /// Per evaluation, the scalar kernel's closed-form cycles in its
    /// interaction count, scaled by the PPE's CPI; per step, two
    /// integration passes and the ensemble upkeep.
    fn price(
        &mut self,
        record: &TrajectoryRecord,
        _perf: &mut sim_perf::PerfMonitor,
    ) -> Result<md_core::device::PricedRun, md_core::device::DeviceError> {
        md_core::device::check_flavor(self, record)?;
        let config = &self.device.config;
        let n = record.n();
        let ppe = PpeModel::new(config);
        let sub = record.sim().substrate::<f32>();
        let ens_cycles = n as f64 * sub.extra_step_ops_per_atom();
        let mut b = CostBreakdown::default();
        let (mut pairs, mut interactions) = (0u64, 0u64);
        for (eval, rec) in record.evals().iter().enumerate() {
            if eval > 0 {
                b.ppe += ppe.integration_cycles(n);
            }
            let stats = KernelStats::of_rows(
                SpeKernelVariant::Original,
                &config.costs,
                &sub,
                n,
                n as u64,
                rec.interactions,
            );
            b.compute += ppe.scale_kernel_cycles(stats.cycles);
            pairs += stats.pairs_tested;
            interactions += stats.interactions;
            if eval > 0 {
                b.ppe += ppe.integration_cycles(n);
                b.ppe += ens_cycles;
            }
        }
        let clk = config.clock_hz;
        Ok(md_core::device::DeviceRun {
            sim_seconds: b.total() / clk,
            energies: record.energies(),
            checkpoint: (),
            attribution: vec![
                ("compute", b.compute / clk),
                ("dma_wait", b.dma / clk),
                ("mailbox", b.mailbox / clk),
                ("spe_spawn", b.spawn / clk),
                ("ppe_serial", b.ppe / clk),
            ],
            derived: Vec::new(),
            ops: pairs as f64 * FLOPS_PER_PAIR + interactions as f64 * FLOPS_PER_INTERACTION,
            bytes_moved: 0.0,
            faults: sim_fault::FaultStats::default(),
        })
    }

    fn last_trajectory(&mut self) -> &mut Option<Trajectory> {
        &mut self.last
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
            faults: sim_fault::FaultStats::default(),
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
        let ppe = md_core::device::MdDevice::run(
            &mut CellPpeMd::paper_blade(),
            &sim,
            md_core::device::RunOptions::steps(6),
        )
        .unwrap();
        let ratio = ppe.sim_seconds / eight.sim_seconds;
        assert!(ratio > 5.0, "PPE-only should be far slower: {ratio:.1}");
        assert!(
            (ppe.energies.total - eight.energies.total).abs() < 1e-3 * eight.energies.total.abs()
        );
    }

    /// The driver runs `Flavor::Cell` reflecting at `L/2`, unfused: that
    /// is the `Original` stage the PPE baseline's kernel charges.
    #[test]
    fn ppe_flavor_is_the_original_stage() {
        let l = workload(2048).box_len() as f32;
        let stage = SpeKernelVariant::Original.stage(l);
        assert_eq!(stage.reflect_above, 0.5 * l);
        assert!(!stage.fused);
    }

    #[test]
    fn local_store_overflow_detected() {
        // Every local store holds two arrays of one f32 quadword per atom:
        // the largest system that fits fills the store exactly.
        let device = CellBeDevice::paper_blade();
        let fit = device.config.local_store_bytes / (2 * 4 * size_of::<f32>());
        let run = |n| run_md(&device, &workload(n), 0, CellRunConfig::best());
        assert!(run(fit).is_ok(), "{fit} atoms fill the local store exactly");
        let err = run(fit + 1);
        assert!(
            matches!(err, Err(CellError::Overflow(_))),
            "{} atoms overflow the local store: {err:?}",
            fit + 1
        );
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

    /// The double-precision port shares the resident port's loop, fault
    /// hooks included: same physics, more simulated time.
    #[test]
    fn double_port_honours_the_fault_plan() {
        let sim = workload(256);
        let run = |device: CellBeDevice| {
            device
                .run_md_double(&sim, 4, CellRunConfig::best())
                .unwrap()
        };
        let clean = run(CellBeDevice::paper_blade());
        let plan = sim_fault::FaultPlan::new(7, 0.1);
        let faulty = run(CellBeDevice::paper_blade().with_fault_plan(plan));
        assert_eq!(clean.energies, faulty.energies);
        assert!(faulty.faults.any());
        assert!(faulty.sim_seconds > clean.sim_seconds);
    }

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
        assert!(matches!(
            device.run_md_double(&sim, 0, CellRunConfig::best()),
            Err(CellError::Overflow(_))
        ));
    }
}
