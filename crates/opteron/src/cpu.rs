//! The cache-traced Opteron MD run.

use crate::config::OpteronConfig;
use md_core::device::HostParallelism;
use md_core::forces::{gather_row, GatherRow, SoaPositions};
use md_core::forces::{AllPairsFullKernel, ForceKernel};
use md_core::init;
use md_core::observables::EnergyReport;
use md_core::parallel::map_lanes;
use md_core::params::SimConfig;
use md_core::system::ParticleSystem;
use md_core::verlet::VelocityVerlet;
use memsim::{AccessKind, AddressSpace, ArrayRegion, HierarchyStats, MemoryHierarchy};
use vecmath::Vec3;

/// Per-pair flop counts for the scalar kernel (displacement + minimum image +
/// r²: subs, conditional corrections, multiplies, adds).
const FLOPS_DISTANCE: f64 = 14.0;
/// Additional flops when a pair is inside the cutoff (LJ energy+force and the
/// acceleration accumulation).
const FLOPS_INTERACT: f64 = 20.0;
/// Per-atom flops in the O(N) integration steps (two half-kicks + drift +
/// wrap + kinetic-energy accumulation).
const FLOPS_INTEGRATE: f64 = 24.0;

/// Result of a simulated Opteron run.
#[derive(Clone, Debug)]
pub struct OpteronRun {
    /// Simulated wall-clock seconds on the 2006 reference machine.
    pub sim_seconds: f64,
    /// Simulated cycles, split by source.
    pub flop_cycles: f64,
    pub memory_cycles: f64,
    /// Final energies — must agree with a plain `md_core` run, proving the
    /// timed replay computes the same physics.
    pub energies: EnergyReport,
    /// Cache behaviour over the whole run.
    pub memory: HierarchyStats,
    /// Total floating-point operations charged.
    pub flops: f64,
    /// Demand loads issued (every simulated read reference).
    pub loads: u64,
    /// Demand stores issued (every simulated write reference).
    pub stores: u64,
    /// Injected-fault accounting for this run (zero when no plan is armed).
    #[cfg(feature = "fault-inject")]
    pub faults: sim_fault::FaultStats,
}

/// The memory front-end: plain hierarchy or prefetcher-assisted.
#[derive(Clone)]
enum MemFrontend {
    Plain(MemoryHierarchy),
    Prefetching(memsim::PrefetchingHierarchy),
}

impl MemFrontend {
    fn access(&mut self, addr: u64, kind: AccessKind) -> u64 {
        match self {
            MemFrontend::Plain(h) => h.access(addr, kind),
            MemFrontend::Prefetching(h) => h.access(addr, kind),
        }
    }

    /// Replay one force evaluation's reference stream; returns its demand
    /// cycles. Matching once here, not per access, keeps the O(N²) loop
    /// monomorphic.
    fn replay_eval(&mut self, n: usize, pos_r: &ArrayRegion, acc_r: &ArrayRegion) -> u64 {
        match self {
            MemFrontend::Plain(h) => eval_stream(n, pos_r, acc_r, |a, k| h.access(a, k)),
            MemFrontend::Prefetching(h) => eval_stream(n, pos_r, acc_r, |a, k| h.access(a, k)),
        }
    }

    fn stats(&self) -> HierarchyStats {
        match self {
            MemFrontend::Plain(h) => h.stats(),
            MemFrontend::Prefetching(h) => h.inner().stats(),
        }
    }

    fn reset(&mut self) {
        match self {
            MemFrontend::Plain(h) => h.reset(),
            MemFrontend::Prefetching(h) => h.reset(),
        }
    }

    /// Timing-normalized state equality (see
    /// [`MemoryHierarchy::replay_state_eq`]); differing front-end kinds are
    /// never equivalent.
    fn replay_state_eq(&self, other: &MemFrontend) -> bool {
        match (self, other) {
            (MemFrontend::Plain(a), MemFrontend::Plain(b)) => a.replay_state_eq(b),
            (MemFrontend::Prefetching(a), MemFrontend::Prefetching(b)) => a.replay_state_eq(b),
            _ => false,
        }
    }

    /// Skip a memoized replay (see [`MemoryHierarchy::apply_replay`]).
    /// Callers establish `self.replay_state_eq(entry)` first, which also
    /// guarantees all three values are the same front-end kind.
    fn apply_replay(&mut self, entry: &MemFrontend, exit: &MemFrontend) {
        match (self, entry, exit) {
            (MemFrontend::Plain(s), MemFrontend::Plain(e), MemFrontend::Plain(x)) => {
                s.apply_replay(e, x);
            }
            (
                MemFrontend::Prefetching(s),
                MemFrontend::Prefetching(e),
                MemFrontend::Prefetching(x),
            ) => s.apply_replay(e, x),
            _ => debug_assert!(false, "replay_state_eq rejects mixed front-end kinds"),
        }
    }
}

/// One memoized force-evaluation cache replay.
///
/// A force evaluation's memory-reference stream is fully determined by the
/// atom count and the array layout — positions' *values* never enter the
/// trace. The hierarchy is a deterministic automaton, so whenever it
/// re-enters a state replay-equivalent to `entry`, replaying the stream
/// *must* cost the same demand cycles and land in a state equivalent to
/// `exit`. A run enters the evaluation from just two states: cold (the
/// priming evaluation, right after the run's reset) and the steady state
/// every later step re-enters. The device keeps a record per entry state,
/// so it replays the O(N²) trace at most twice — later evaluations, runs
/// and checkpointed segments collapse to an O(cache-size) equality check
/// plus a state install, without changing a single reported number.
struct TraceMemo {
    /// Stream identity: the memo only applies to the exact same reference
    /// sequence (same atom count, same simulated array bases).
    n: usize,
    pos_base: u64,
    acc_base: u64,
    entry: MemFrontend,
    exit: MemFrontend,
    demand: f64,
}

/// Most replay records a device keeps: the cold and the steady-state entry
/// of the one atom count a device runs. The oldest record goes first once
/// the memo is full.
const TRACE_MEMO_RECORDS: usize = 2;

/// The simulated CPU. Holds the cache hierarchy so repeated calls can model
/// warm or cold caches as the caller chooses.
pub struct OpteronCpu {
    pub config: OpteronConfig,
    hierarchy: MemFrontend,
    /// Demand cycles charged (the prefetching frontend's inner hierarchy
    /// also counts background fills, so demand cycles are tracked here).
    demand_cycles: f64,
    /// Demand reference counts by direction, for the perf-counter layer.
    /// Pure event counts: they never feed back into the cycle accounting.
    loads: u64,
    stores: u64,
    /// Recorded force-evaluation replays, oldest first, reused when the
    /// cache re-enters a recorded entry state ([`TraceMemo`]). Disabling
    /// memoization (the benchmark baseline) empties it — results are
    /// identical either way, only the host wall-clock differs.
    trace_memo: Vec<TraceMemo>,
    trace_memo_enabled: bool,
    /// When armed, ECC-style reload faults fire per the plan's schedule.
    #[cfg(feature = "fault-inject")]
    pub fault_plan: Option<sim_fault::FaultPlan>,
}

impl OpteronCpu {
    pub fn new(config: OpteronConfig) -> Self {
        let hierarchy = if config.prefetch {
            MemFrontend::Prefetching(memsim::PrefetchingHierarchy::new(config.memory))
        } else {
            MemFrontend::Plain(MemoryHierarchy::new(config.memory))
        };
        Self {
            hierarchy,
            config,
            demand_cycles: 0.0,
            loads: 0,
            stores: 0,
            trace_memo: Vec::new(),
            trace_memo_enabled: true,
            #[cfg(feature = "fault-inject")]
            fault_plan: None,
        }
    }

    /// Disable (or re-enable) the force-evaluation replay memo. Every
    /// reported number is identical either way; turning it off restores the
    /// full O(N²) cache replay per evaluation, which the scaling benchmark
    /// uses as its wall-clock baseline.
    pub fn set_trace_memo(&mut self, enabled: bool) {
        self.trace_memo_enabled = enabled;
        if !enabled {
            self.trace_memo.clear();
        }
    }

    pub fn paper_reference() -> Self {
        Self::new(OpteronConfig::paper_reference())
    }

    /// Arm deterministic fault injection for subsequent runs.
    #[cfg(feature = "fault-inject")]
    #[must_use]
    pub fn with_fault_plan(mut self, plan: sim_fault::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    #[inline]
    fn mem_access(&mut self, addr: u64, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.loads += 1,
            AccessKind::Write => self.stores += 1,
        }
        self.demand_cycles += self.hierarchy.access(addr, kind) as f64;
    }

    /// Run the full MD kernel (Figure 4), replaying memory traffic through
    /// the cache model. Physics is double precision, exactly as the paper's
    /// reference implementation; the scenario substrate selects the pair
    /// potential, ensemble, and precision policy. This is the single run
    /// path behind [`md_core::device::MdDevice::run`].
    fn run_md_from_impl(
        &mut self,
        sys: &mut ParticleSystem<f64>,
        sim: &SimConfig,
        steps: usize,
        mut perf: Option<&mut sim_perf::PerfMonitor>,
        par: HostParallelism,
    ) -> OpteronRun {
        self.hierarchy.reset();
        self.demand_cycles = 0.0;
        self.loads = 0;
        self.stores = 0;
        let handles = perf.as_deref_mut().map(PerfHandles::register);
        let sub = sim.substrate::<f64>();
        // Ensemble work (thermostat rescale) is O(N) per step on top of the
        // integration loop; zero under NVE so the paper runs are untouched.
        let ens_flops = sys.n() as f64 * sub.extra_step_ops_per_atom();
        let vv = VelocityVerlet::new(sim.dt);

        // Lay out the logical arrays in the simulated address space.
        let elem = size_of::<Vec3<f64>>(); // 24 bytes
        let mut space = AddressSpace::new();
        let pos_r = space.alloc_array(sys.n(), elem);
        let vel_r = space.alloc_array(sys.n(), elem);
        let acc_r = space.alloc_array(sys.n(), elem);

        let mut flops = 0.0f64;
        let mut loop_iters = 0.0f64;

        #[cfg(feature = "fault-inject")]
        let mut fault = self.fault_plan.map(sim_fault::FaultSession::new);
        // Extra memory cycles charged by injected ECC reloads. Declared
        // unconditionally (it stays 0.0 in non-fault builds) because the
        // perf sampler folds it into the stall counter either way.
        #[allow(unused_mut)]
        let mut fault_extra_cycles = 0.0f64;
        // An ECC-corrected memory error forces a scrubbed cache line to be
        // refetched from DRAM; the reload costs one DRAM round trip and
        // touches nothing but the timeline.
        #[cfg(feature = "fault-inject")]
        let ecc_reload_cycles = self.config.memory.dram_cycles as f64;

        // Prime the accelerations (step-0 force evaluation), charged like any
        // other evaluation — the paper's total runtime includes everything.
        let mut pe =
            self.traced_forces(sys, &sub, &pos_r, &acc_r, &mut flops, &mut loop_iters, par);
        #[cfg(feature = "fault-inject")]
        {
            fault_extra_cycles += resolve_degradable(
                &mut fault,
                sim_fault::FaultSite::new(sim_fault::FaultKind::EccReload, 0, 0, 0),
                ecc_reload_cycles,
                self.config.clock_hz,
            );
        }
        self.perf_sample(&mut perf, handles, flops, loop_iters, fault_extra_cycles);

        // `_step` is only read by the fault-injection site below.
        for _step in 0..steps {
            // Steps 1, 3, 4 of Figure 4: O(N) integration. One pass reads
            // acc + vel + pos and writes vel + pos.
            for i in 0..sys.n() {
                self.mem_access(acc_r.addr(i), AccessKind::Read);
                self.mem_access(vel_r.addr(i), AccessKind::Write);
                self.mem_access(pos_r.addr(i), AccessKind::Write);
            }
            flops += FLOPS_INTEGRATE * sys.n() as f64;
            vv.kick_drift(sys);

            // Step 2: the traced O(N²) force evaluation.
            pe = self.traced_forces(sys, &sub, &pos_r, &acc_r, &mut flops, &mut loop_iters, par);
            #[cfg(feature = "fault-inject")]
            {
                fault_extra_cycles += resolve_degradable(
                    &mut fault,
                    sim_fault::FaultSite::new(
                        sim_fault::FaultKind::EccReload,
                        _step as u64 + 1,
                        0,
                        0,
                    ),
                    ecc_reload_cycles,
                    self.config.clock_hz,
                );
            }

            // Second half-kick + step 5 energy reduction.
            for i in 0..sys.n() {
                self.mem_access(acc_r.addr(i), AccessKind::Read);
                self.mem_access(vel_r.addr(i), AccessKind::Write);
            }
            flops += 6.0 * sys.n() as f64;
            vv.kick(sys);
            sub.apply_thermostat(sys);
            flops += ens_flops;
            self.perf_sample(&mut perf, handles, flops, loop_iters, fault_extra_cycles);
        }

        let stats = self.hierarchy.stats();
        let flop_cycles =
            flops * self.config.cycles_per_flop + loop_iters * self.config.loop_overhead_cycles;
        // Demand-path memory cycles only: with the prefetcher on, background
        // fills also pass through the hierarchy but cost the program nothing.
        #[allow(unused_mut)]
        let mut memory_cycles = self.demand_cycles;
        #[cfg(feature = "fault-inject")]
        {
            memory_cycles += fault_extra_cycles;
        }
        let total_cycles = flop_cycles + memory_cycles;
        OpteronRun {
            sim_seconds: total_cycles / self.config.clock_hz,
            flop_cycles,
            memory_cycles,
            energies: EnergyReport::measure(sys, pe),
            memory: stats,
            flops,
            loads: self.loads,
            stores: self.stores,
            #[cfg(feature = "fault-inject")]
            faults: fault.map_or_else(sim_fault::FaultStats::default, |f| f.stats()),
        }
    }

    /// Mirror the run's accumulators into the perf monitor and take one
    /// time-series sample at the current simulated time. Reads only; the
    /// run's own arithmetic never depends on it.
    fn perf_sample(
        &self,
        perf: &mut Option<&mut sim_perf::PerfMonitor>,
        handles: Option<PerfHandles>,
        flops: f64,
        loop_iters: f64,
        fault_extra_cycles: f64,
    ) {
        let (Some(p), Some(h)) = (perf.as_deref_mut(), handles) else {
            return;
        };
        let stats = self.hierarchy.stats();
        p.record_total(h.loads, self.loads as f64);
        p.record_total(h.stores, self.stores as f64);
        p.record_total(h.l1_hits, stats.l1.hits as f64);
        p.record_total(h.l1_misses, stats.l1.misses as f64);
        p.record_total(h.l2_hits, stats.l2.hits as f64);
        p.record_total(h.l2_misses, stats.l2.misses as f64);
        p.record_total(h.mem_stall_cycles, self.demand_cycles + fault_extra_cycles);
        p.record_total(h.flops, flops);
        let cycles = flops * self.config.cycles_per_flop
            + loop_iters * self.config.loop_overhead_cycles
            + self.demand_cycles
            + fault_extra_cycles;
        p.sample_all(cycles / self.config.clock_hz);
    }

    /// The step-2 gather loop with interleaved cache accesses. Numerics are
    /// identical to [`AllPairsFullKernel`].
    ///
    /// The evaluation is split into heterogeneous lanes run through
    /// [`map_lanes`]: one lane replays the run's exact memory-reference
    /// sequence through the cache hierarchy (inherently serial — every access
    /// mutates cache state), and the remaining lanes compute the per-atom
    /// physics rows via the shared tiled [`gather_row`]. The cache replay
    /// never reads the physics and the physics never reads the cache, so the
    /// two halves overlap on host threads while the serial fold below keeps
    /// every accumulator in the same order as a serial run — demand cycles,
    /// reference counts, flops, PE, and accelerations are bitwise identical
    /// at any thread count.
    #[allow(clippy::too_many_arguments)]
    fn traced_forces(
        &mut self,
        sys: &mut ParticleSystem<f64>,
        sub: &md_core::scenario::Substrate<f64>,
        pos_r: &ArrayRegion,
        acc_r: &ArrayRegion,
        flops: &mut f64,
        loop_iters: &mut f64,
        par: HostParallelism,
    ) -> f64 {
        let n = sys.n();
        let l = sys.box_len;
        let inv_m = sys.mass.recip();
        let soa = SoaPositions::from_positions(&sys.positions);

        enum Lane<'a> {
            Trace {
                h: &'a mut MemFrontend,
                memo: &'a mut Vec<TraceMemo>,
                memo_enabled: bool,
            },
            Rows {
                lo: usize,
                hi: usize,
            },
        }
        enum LaneOut {
            Trace { demand: f64 },
            Rows(Vec<GatherRow<f64>>),
        }

        // Lane 0 owns the cache replay; the row range is split over the
        // remaining workers. The split never changes any value — rows are
        // pure per-atom functions folded in ascending-atom order below — so
        // the lane count only shapes the wall-clock overlap.
        let row_lanes = par.threads().saturating_sub(1).max(1);
        let chunk = n.div_ceil(row_lanes).max(1);
        // Hoisted before lane construction: `self.trace_memo` is mutably
        // borrowed into the trace lane, so the rows arm reads a copy. When the
        // memo is on, rows go through the shared wide evaluator — bitwise
        // identical to [`gather_row`] per the shared-eval contract.
        let eval_memo = self.trace_memo_enabled;
        let mut lanes: Vec<Lane<'_>> = Vec::with_capacity(row_lanes + 1);
        lanes.push(Lane::Trace {
            h: &mut self.hierarchy,
            memo: &mut self.trace_memo,
            memo_enabled: self.trace_memo_enabled,
        });
        let mut lo = 0;
        while lo < n {
            let hi = (lo + chunk).min(n);
            lanes.push(Lane::Rows { lo, hi });
            lo = hi;
        }

        let outs = map_lanes(par, &mut lanes, |_, lane| match lane {
            Lane::Trace {
                h,
                memo,
                memo_enabled,
            } => {
                let h: &mut MemFrontend = h;
                let memo: &mut Vec<TraceMemo> = memo;
                let memo_enabled = *memo_enabled;
                // Same stream, same entry state: reuse the recorded replay
                // (see [`TraceMemo`] for why this cannot change any number).
                let recorded = memo.iter().find(|m| {
                    m.n == n
                        && m.pos_base == pos_r.addr(0)
                        && m.acc_base == acc_r.addr(0)
                        && h.replay_state_eq(&m.entry)
                });
                if let Some(m) = recorded {
                    h.apply_replay(&m.entry, &m.exit);
                    return LaneOut::Trace { demand: m.demand };
                }
                let entry = memo_enabled.then(|| h.clone());
                // Per-access cycle counts are integers summed far below
                // 2^53, so one conversion equals a per-access f64 sum.
                let demand = h.replay_eval(n, pos_r, acc_r) as f64;
                if let Some(entry) = entry {
                    if memo.len() == TRACE_MEMO_RECORDS {
                        memo.remove(0);
                    }
                    memo.push(TraceMemo {
                        n,
                        pos_base: pos_r.addr(0),
                        acc_base: acc_r.addr(0),
                        entry,
                        exit: h.clone(),
                        demand,
                    });
                }
                LaneOut::Trace { demand }
            }
            Lane::Rows { lo, hi } => LaneOut::Rows(
                (*lo..*hi)
                    .map(|i| {
                        if eval_memo {
                            md_core::shared_eval::host_row(&soa, i, l, sub, inv_m)
                        } else {
                            gather_row(&soa, i, l, sub, inv_m)
                        }
                    })
                    .collect(),
            ),
        });
        drop(lanes);

        // Serial fold in lane order (trace first, then rows ascending).
        let mut pe_twice = 0.0f64;
        let mut interactions = 0u64;
        let mut row_cursor = 0usize;
        for out in outs {
            match out {
                LaneOut::Trace { demand } => {
                    // Per-access cycle counts are integers, so this one f64
                    // add reproduces the per-access accumulation exactly.
                    self.demand_cycles += demand;
                    let (loads, stores) = eval_stream_traffic(n);
                    self.loads += loads;
                    self.stores += stores;
                }
                LaneOut::Rows(rows) => {
                    for row in rows {
                        sys.accelerations[row_cursor] = row.acc;
                        pe_twice += row.pe;
                        interactions += row.interactions;
                        row_cursor += 1;
                    }
                }
            }
        }

        let dist_evals = (n as f64) * (n as f64 - 1.0);
        // Per-interaction flops: the LJ baseline plus whatever extra work the
        // scenario's potential costs (zero for the paper-faithful LJ run).
        *flops += dist_evals * FLOPS_DISTANCE
            + interactions as f64 * (FLOPS_INTERACT + sub.extra_eval_ops());
        *loop_iters += dist_evals;
        pe_twice * 0.5
    }

    /// Reference check: the same workload run through the untimed kernel.
    pub fn untimed_energies(sim: &SimConfig, steps: usize) -> EnergyReport {
        let mut sys: ParticleSystem<f64> = init::initialize(sim);
        let sub = sim.substrate::<f64>();
        let vv = VelocityVerlet::new(sim.dt);
        let mut kernel = AllPairsFullKernel;
        let mut pe = kernel.compute(&mut sys, &sub);
        for _ in 0..steps {
            pe = vv.step(&mut sys, &mut kernel, &sub);
        }
        EnergyReport::measure(&sys, pe)
    }
}

/// Loads and stores in one [`eval_stream`] over `n` atoms: n² reads
/// (pos[i] plus the n − 1 other positions, per row) and n writes.
fn eval_stream_traffic(n: usize) -> (u64, u64) {
    ((n * n) as u64, n as u64)
}

/// Replay the exact reference stream of the scalar kernel's force
/// evaluation — read pos[i], read every other pos[j] in the inner loop,
/// write acc[i] — and return its demand cycles. Its access counts are
/// [`eval_stream_traffic`].
fn eval_stream(
    n: usize,
    pos_r: &ArrayRegion,
    acc_r: &ArrayRegion,
    mut access: impl FnMut(u64, AccessKind) -> u64,
) -> u64 {
    let mut demand = 0u64;
    for i in 0..n {
        demand += access(pos_r.addr(i), AccessKind::Read);
        for j in (0..n).filter(|&j| j != i) {
            demand += access(pos_r.addr(j), AccessKind::Read);
        }
        demand += access(acc_r.addr(i), AccessKind::Write);
    }
    demand
}

/// Registered handles for the Opteron's counter set (memsim per-level cache
/// hits/misses, loads/stores, stall cycles, flops).
#[derive(Clone, Copy)]
struct PerfHandles {
    loads: sim_perf::CounterHandle,
    stores: sim_perf::CounterHandle,
    l1_hits: sim_perf::CounterHandle,
    l1_misses: sim_perf::CounterHandle,
    l2_hits: sim_perf::CounterHandle,
    l2_misses: sim_perf::CounterHandle,
    mem_stall_cycles: sim_perf::CounterHandle,
    flops: sim_perf::CounterHandle,
}

impl PerfHandles {
    fn register(p: &mut sim_perf::PerfMonitor) -> Self {
        Self {
            loads: p.register("opteron.mem.loads", "refs"),
            stores: p.register("opteron.mem.stores", "refs"),
            l1_hits: p.register("opteron.l1.hits", "refs"),
            l1_misses: p.register("opteron.l1.misses", "refs"),
            l2_hits: p.register("opteron.l2.hits", "refs"),
            l2_misses: p.register("opteron.l2.misses", "refs"),
            mem_stall_cycles: p.register("opteron.mem.stall_cycles", "cycles"),
            flops: p.register("opteron.flops", "flops"),
        }
    }
}

/// Resolve one fault site in the degradation style: retries cost one unit of
/// recovery work each; an exhausted budget costs a 4× penalty (a full scrub
/// pass) and is recorded in [`sim_fault::FaultStats::exhausted`] rather than
/// failing the run — the supervisor decides what exhaustion means. Returns
/// the extra cycles charged, which the caller folds into `memory_cycles`.
#[cfg(feature = "fault-inject")]
fn resolve_degradable(
    fault: &mut Option<sim_fault::FaultSession>,
    site: sim_fault::FaultSite,
    unit_cycles: f64,
    clock_hz: f64,
) -> f64 {
    let Some(sess) = fault.as_mut() else {
        return 0.0;
    };
    let out = sess.outcome(site);
    let mut extra = unit_cycles * f64::from(out.failures);
    if out.exhausted {
        extra += 4.0 * unit_cycles;
    }
    if extra > 0.0 {
        sess.charge(extra / clock_hz);
    }
    extra
}

impl md_core::device::MdDevice for OpteronCpu {
    fn label(&self) -> String {
        "opteron".to_string()
    }

    /// One flop per `cycles_per_flop` cycles: the scalar FPU pipeline.
    fn peak_ops_per_second(&self) -> f64 {
        self.config.clock_hz / self.config.cycles_per_flop
    }

    #[cfg(feature = "fault-inject")]
    fn resalt(&mut self, salt: u64) {
        self.fault_plan = self.fault_plan.map(|p| p.with_salt(salt));
    }

    fn run(
        &mut self,
        sim: &SimConfig,
        mut opts: md_core::device::RunOptions<'_>,
    ) -> Result<md_core::device::DeviceRun, md_core::device::DeviceError> {
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = opts.fault_plan {
            self.fault_plan = Some(plan);
        }
        let (mut sys, start_step): (ParticleSystem<f64>, u64) = match opts.start {
            Some(cp) => (cp.restore(), cp.step),
            None => (init::initialize(sim), 0),
        };
        let par = opts.host_parallelism;
        // Counter values feed the ledger too, so observe with a local
        // monitor when the caller didn't pass one (observation is free: the
        // counted run is bitwise-identical).
        let mut local = sim_perf::PerfMonitor::new();
        let perf = match opts.perf.take() {
            Some(p) => p,
            None => &mut local,
        };
        let r = self.run_md_from_impl(&mut sys, sim, opts.steps, Some(perf), par);
        let clk = self.config.clock_hz;
        let stall_fraction = if r.sim_seconds > 0.0 {
            (r.memory_cycles / clk) / r.sim_seconds
        } else {
            0.0
        };
        let run = md_core::device::DeviceRun {
            sim_seconds: r.sim_seconds,
            energies: r.energies,
            checkpoint: md_core::checkpoint::SystemCheckpoint::capture(
                &sys,
                start_step + opts.steps as u64,
            ),
            attribution: vec![
                ("compute", r.flop_cycles / clk),
                ("memory_stall", r.memory_cycles / clk),
            ],
            derived: vec![
                ("memory_stall_fraction", stall_fraction),
                ("l1_miss_rate", r.memory.l1.miss_rate()),
                ("l2_miss_rate", r.memory.l2.miss_rate()),
            ],
            ops: r.flops,
            bytes_moved: (r.loads + r.stores) as f64 * 8.0,
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

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    /// Test-local shorthand over the single run path (the public surface is
    /// [`md_core::device::MdDevice::run`]).
    fn run_md(cpu: &mut OpteronCpu, sim: &SimConfig, steps: usize) -> OpteronRun {
        let mut sys: ParticleSystem<f64> = init::initialize(sim);
        cpu.run_md_from_impl(&mut sys, sim, steps, None, HostParallelism::Serial)
    }

    fn run_md_perf(
        cpu: &mut OpteronCpu,
        sim: &SimConfig,
        steps: usize,
        perf: &mut sim_perf::PerfMonitor,
    ) -> OpteronRun {
        let mut sys: ParticleSystem<f64> = init::initialize(sim);
        cpu.run_md_from_impl(&mut sys, sim, steps, Some(perf), HostParallelism::Serial)
    }

    fn run_md_from(
        cpu: &mut OpteronCpu,
        sys: &mut ParticleSystem<f64>,
        sim: &SimConfig,
        steps: usize,
    ) -> OpteronRun {
        cpu.run_md_from_impl(sys, sim, steps, None, HostParallelism::Serial)
    }

    #[test]
    fn physics_matches_untimed_kernel() {
        let cfg = SimConfig::reduced_lj(108);
        let mut cpu = OpteronCpu::paper_reference();
        let run = run_md(&mut cpu, &cfg, 5);
        let reference = OpteronCpu::untimed_energies(&cfg, 5);
        assert!(
            (run.energies.total - reference.total).abs() < 1e-9 * reference.total.abs(),
            "traced replay diverged: {} vs {}",
            run.energies.total,
            reference.total
        );
    }

    #[test]
    fn runtime_positive_and_deterministic() {
        let cfg = SimConfig::reduced_lj(256);
        let a = run_md(&mut OpteronCpu::paper_reference(), &cfg, 2);
        let b = run_md(&mut OpteronCpu::paper_reference(), &cfg, 2);
        assert!(a.sim_seconds > 0.0);
        assert_eq!(a.sim_seconds, b.sim_seconds, "simulation is deterministic");
        assert_eq!(a.memory.accesses, b.memory.accesses);
    }

    #[test]
    fn runtime_grows_faster_than_flop_count_past_cache() {
        // The Figure 9 mechanism: once the position array outgrows L1
        // (24·N bytes > 64 KB, i.e. N ≳ 2700), total runtime grows faster
        // than the floating-point work — the gap a cache-less machine like
        // the MTA-2 does not show.
        let run = |n: usize| {
            run_md(
                &mut OpteronCpu::paper_reference(),
                &SimConfig::reduced_lj(n),
                1,
            )
        };
        let small = run(256);
        let large = run(4096);
        let total_ratio = large.sim_seconds / small.sim_seconds;
        let flop_ratio = large.flop_cycles / small.flop_cycles;
        assert!(
            total_ratio > flop_ratio * 1.15,
            "expected cache-driven excess growth: total x{total_ratio:.1} vs flops x{flop_ratio:.1}"
        );
    }

    #[test]
    fn l1_miss_rate_rises_with_problem_size() {
        let miss_rate = |n: usize| {
            let run = run_md(
                &mut OpteronCpu::paper_reference(),
                &SimConfig::reduced_lj(n),
                1,
            );
            run.memory.l1.miss_rate()
        };
        let small = miss_rate(256);
        let large = miss_rate(4096);
        assert!(
            large > small * 2.0,
            "L1 miss rate should grow: {small:.4} -> {large:.4}"
        );
    }

    #[test]
    fn prefetcher_recovers_most_of_the_cache_penalty() {
        // At 4096 atoms the position array spills L1; the stream prefetcher
        // should claw back a large share of the extra memory cycles on this
        // kernel's sequential inner loop (see module docs for why this is an
        // interesting caveat to the paper's cache argument).
        let cfg = SimConfig::reduced_lj(4096);
        let plain = run_md(&mut OpteronCpu::paper_reference(), &cfg, 1);
        let pf = run_md(
            &mut OpteronCpu::new(OpteronConfig::with_prefetcher()),
            &cfg,
            1,
        );
        assert_eq!(plain.energies.total, pf.energies.total, "same physics");
        assert!(
            pf.memory_cycles < 0.7 * plain.memory_cycles,
            "prefetch demand cycles {:.3e} vs plain {:.3e}",
            pf.memory_cycles,
            plain.memory_cycles
        );
        assert_eq!(plain.flop_cycles, pf.flop_cycles, "compute unchanged");
    }

    #[test]
    fn sse2_ablation_faster_but_same_physics() {
        let cfg = SimConfig::reduced_lj(256);
        let scalar = run_md(&mut OpteronCpu::paper_reference(), &cfg, 2);
        let sse2 = run_md(
            &mut OpteronCpu::new(OpteronConfig::sse2_vectorized()),
            &cfg,
            2,
        );
        assert_eq!(scalar.energies.total, sse2.energies.total);
        let speedup = scalar.sim_seconds / sse2.sim_seconds;
        assert!(
            (1.2..2.2).contains(&speedup),
            "SSE2 should be a moderate win (memory system unchanged): {speedup:.2}x"
        );
    }

    #[test]
    fn cycles_decompose() {
        let run = run_md(
            &mut OpteronCpu::paper_reference(),
            &SimConfig::reduced_lj(108),
            2,
        );
        let total = run.sim_seconds * 2.2e9;
        assert!((total - (run.flop_cycles + run.memory_cycles)).abs() < 1.0);
        assert!(run.flops > 0.0);
    }

    #[test]
    fn perf_counters_are_free_and_populated() {
        let cfg = SimConfig::reduced_lj(108);
        let plain = run_md(&mut OpteronCpu::paper_reference(), &cfg, 3);
        let mut perf = sim_perf::PerfMonitor::new();
        let counted = run_md_perf(&mut OpteronCpu::paper_reference(), &cfg, 3, &mut perf);
        assert_eq!(
            plain.sim_seconds, counted.sim_seconds,
            "observability is free"
        );
        assert_eq!(plain.energies.total, counted.energies.total);
        assert_eq!(plain.loads, counted.loads);
        let loads = perf.find("opteron.mem.loads").expect("registered");
        assert_eq!(loads.value(), counted.loads as f64);
        assert_eq!(loads.samples().len(), 4, "prime eval + one per step");
        assert!(perf.find("opteron.l1.hits").expect("registered").value() > 0.0);
        let stalls = perf.find("opteron.mem.stall_cycles").expect("registered");
        assert_eq!(
            stalls.value(),
            counted.memory_cycles,
            "stall counter mirrors run"
        );
    }

    #[test]
    fn segmented_run_matches_unsegmented_run_bitwise() {
        let cfg = SimConfig::reduced_lj(108);

        let mut whole_sys: ParticleSystem<f64> = init::initialize(&cfg);
        run_md_from(&mut OpteronCpu::paper_reference(), &mut whole_sys, &cfg, 10);

        let mut seg_sys: ParticleSystem<f64> = init::initialize(&cfg);
        let mut cpu = OpteronCpu::paper_reference();
        run_md_from(&mut cpu, &mut seg_sys, &cfg, 5);
        run_md_from(&mut cpu, &mut seg_sys, &cfg, 5);

        assert_eq!(seg_sys.positions, whole_sys.positions);
        assert_eq!(seg_sys.velocities, whole_sys.velocities);
        assert_eq!(seg_sys.accelerations, whole_sys.accelerations);
    }

    #[test]
    fn trace_is_replayed_at_most_twice_per_device() {
        // Five checkpointed segments on one device: the first replays the
        // cold and the steady-state entry, every later one reuses them.
        let cfg = SimConfig::reduced_lj(256);
        let mut cpu = OpteronCpu::paper_reference();
        let mut sys: ParticleSystem<f64> = init::initialize(&cfg);
        let segments: Vec<OpteronRun> = (0..5)
            .map(|_| run_md_from(&mut cpu, &mut sys, &cfg, 2))
            .collect();
        assert_eq!(cpu.trace_memo.len(), 2, "cold + steady-state replay");

        // Each memoized segment reports what a full replay of it reports.
        let mut base = OpteronCpu::paper_reference();
        base.set_trace_memo(false);
        let mut base_sys: ParticleSystem<f64> = init::initialize(&cfg);
        for seg in &segments {
            let full = run_md_from(&mut base, &mut base_sys, &cfg, 2);
            assert_eq!(full.sim_seconds, seg.sim_seconds);
            assert_eq!(full.memory_cycles, seg.memory_cycles);
            assert_eq!(full.memory.l1, seg.memory.l1);
            assert_eq!(full.memory.l2, seg.memory.l2);
            assert_eq!(full.memory.total_cycles, seg.memory.total_cycles);
            assert_eq!(full.memory.accesses, seg.memory.accesses);
            assert_eq!((full.loads, full.stores), (seg.loads, seg.stores));
        }
        assert_eq!(base_sys.positions, sys.positions);
        assert!(base.trace_memo.is_empty(), "memo off records nothing");
    }

    #[test]
    fn prefetching_memo_matches_full_replay() {
        let cfg = SimConfig::reduced_lj(256);
        let mut memo = OpteronCpu::new(OpteronConfig::with_prefetcher());
        let mut full = OpteronCpu::new(OpteronConfig::with_prefetcher());
        full.set_trace_memo(false);
        for _ in 0..2 {
            let a = run_md(&mut memo, &cfg, 3);
            let b = run_md(&mut full, &cfg, 3);
            assert_eq!(a.sim_seconds, b.sim_seconds);
            assert_eq!(a.memory.l1, b.memory.l1);
            assert_eq!(a.memory.l2, b.memory.l2);
        }
        assert!(
            memo.trace_memo.len() <= 2,
            "{} records",
            memo.trace_memo.len()
        );
    }

    #[cfg(feature = "fault-inject")]
    mod faulted {
        use super::*;

        #[test]
        fn injected_faults_leave_physics_untouched_and_slow_the_run() {
            let cfg = SimConfig::reduced_lj(108);
            let clean = run_md(&mut OpteronCpu::paper_reference(), &cfg, 6);
            let faulty = run_md(
                &mut OpteronCpu::paper_reference()
                    .with_fault_plan(sim_fault::FaultPlan::new(7, 0.4)),
                &cfg,
                6,
            );

            assert_eq!(clean.energies.total, faulty.energies.total);
            assert_eq!(clean.energies.kinetic, faulty.energies.kinetic);
            assert_eq!(clean.flops, faulty.flops);
            assert!(faulty.faults.any(), "rate 0.4 over 7 evals should fire");
            assert!(faulty.sim_seconds > clean.sim_seconds);
            // Serial timeline: the slowdown is exactly the charged recovery.
            let slowdown = faulty.sim_seconds - clean.sim_seconds;
            assert!(
                (slowdown - faulty.faults.extra_seconds).abs()
                    <= 1e-9 * faulty.faults.extra_seconds,
                "slowdown {slowdown:.3e} vs charged {:.3e}",
                faulty.faults.extra_seconds
            );
        }

        #[test]
        fn exhaustion_degrades_instead_of_failing() {
            let cfg = SimConfig::reduced_lj(108);
            let run = run_md(
                &mut OpteronCpu::paper_reference()
                    .with_fault_plan(sim_fault::FaultPlan::new(3, 1.0)),
                &cfg,
                3,
            );
            assert!(run.faults.exhausted > 0, "rate 1.0 must exhaust retries");
            assert!(run.energies.total.is_finite());
            assert!(run.sim_seconds > 0.0);
        }

        #[test]
        fn fault_schedule_is_reproducible_across_runs() {
            let cfg = SimConfig::reduced_lj(108);
            let run = || {
                run_md(
                    &mut OpteronCpu::paper_reference()
                        .with_fault_plan(sim_fault::FaultPlan::new(42, 0.3)),
                    &cfg,
                    5,
                )
            };
            let a = run();
            let b = run();
            assert_eq!(a.faults.injected, b.faults.injected);
            assert_eq!(a.faults.retries, b.faults.retries);
            assert_eq!(a.faults.extra_seconds, b.faults.extra_seconds);
            assert_eq!(a.sim_seconds, b.sim_seconds);
        }
    }
}
