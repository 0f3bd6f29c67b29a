//! The cache-traced Opteron MD run.

use crate::config::OpteronConfig;
use md_core::device::Pricer;
use md_core::observables::EnergyReport;
use md_core::params::SimConfig;
use md_core::trajectory::{Flavor, Trajectory, TrajectoryRecord};
use memsim::{eval_stream, AccessKind, AddressSpace, ArrayRegion, HierarchyStats, MemoryHierarchy};
use sim_fault::{resolve_degradable, FaultKind, FaultSite};
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
    pub faults: sim_fault::FaultStats,
}

/// The memory front-end: plain hierarchy or prefetcher-assisted.
#[derive(Clone)]
enum MemFrontend {
    Plain(MemoryHierarchy),
    Prefetching(memsim::PrefetchingHierarchy),
}

impl MemFrontend {
    fn new(config: &OpteronConfig) -> Self {
        if config.prefetch {
            MemFrontend::Prefetching(memsim::PrefetchingHierarchy::new(config.memory))
        } else {
            MemFrontend::Plain(MemoryHierarchy::new(config.memory))
        }
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> u64 {
        match self {
            MemFrontend::Plain(h) => h.access(addr, kind),
            MemFrontend::Prefetching(h) => h.access(addr, kind),
        }
    }

    /// Replay one force evaluation's reference stream ([`eval_stream`]);
    /// returns its demand cycles. The plain hierarchy replays it one cache
    /// set at a time in O(N) rows per set; the prefetcher's stream detector
    /// couples the sets, so it replays the N² references one by one.
    fn replay_eval(&mut self, n: usize, pos_r: &ArrayRegion, acc_r: &ArrayRegion) -> u64 {
        match self {
            MemFrontend::Plain(h) => h.replay_row_sweep(n, pos_r, acc_r),
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
/// so it replays the trace at most twice — later evaluations, runs and
/// checkpointed segments collapse to an O(cache-size) equality check plus a
/// state install, without changing a single reported number. The per-set
/// row replay already makes each replay O(N) rows per cache set, but a
/// recorded one is still cheaper from about 256 atoms up: at 2,048 it is
/// worth ~6% of a supervised cluster run.
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
    /// cache re-enters a recorded entry state ([`TraceMemo`]).
    trace_memo: Vec<TraceMemo>,
    /// The last run's trajectory, the resume record of the next run.
    last: Option<Trajectory>,
    /// When armed, ECC-style reload faults fire per the plan's schedule.
    pub fault_plan: Option<sim_fault::FaultPlan>,
}

impl OpteronCpu {
    pub fn new(config: OpteronConfig) -> Self {
        Self {
            hierarchy: MemFrontend::new(&config),
            config,
            demand_cycles: 0.0,
            loads: 0,
            stores: 0,
            trace_memo: Vec::new(),
            last: None,
            fault_plan: None,
        }
    }

    pub fn paper_reference() -> Self {
        Self::new(OpteronConfig::paper_reference())
    }

    /// Arm deterministic fault injection for subsequent runs.
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

    /// Price one run of the MD kernel (Figure 4): its memory traffic through
    /// the cache model, its flops and its ECC fault sites. The physics is
    /// the record of the host-flavor (f64) [`Trajectory`], exactly as the
    /// paper's reference implementation; the scenario substrate adds the
    /// potential's and the ensemble's extra work. This is the single cost
    /// path behind [`md_core::device::MdDevice::run`].
    fn price_run(
        &mut self,
        traj: &TrajectoryRecord,
        perf: &mut sim_perf::PerfMonitor,
    ) -> OpteronRun {
        self.hierarchy.reset();
        self.demand_cycles = 0.0;
        self.loads = 0;
        self.stores = 0;
        let handles = PerfHandles::register(perf);
        let sub = traj.sim().substrate::<f64>();
        let n = traj.n();
        // Ensemble work (thermostat rescale) is O(N) per step on top of the
        // integration loop; zero under NVE so the paper runs are untouched.
        let ens_flops = n as f64 * sub.extra_step_ops_per_atom();

        // Lay out the logical arrays in the simulated address space.
        let elem = size_of::<Vec3<f64>>(); // 24 bytes
        let mut space = AddressSpace::new();
        let pos_r = space.alloc_array(n, elem);
        let vel_r = space.alloc_array(n, elem);
        let acc_r = space.alloc_array(n, elem);

        let mut flops = 0.0f64;
        let mut loop_iters = 0.0f64;

        let mut fault = self.fault_plan.map(sim_fault::FaultSession::new);
        // Extra memory cycles charged by injected ECC reloads.
        let mut fault_extra_cycles = 0.0f64;
        // An ECC-corrected memory error forces a scrubbed cache line to be
        // refetched from DRAM; the reload costs one DRAM round trip and
        // touches nothing but the timeline.
        let ecc_reload_cycles = self.config.memory.dram_cycles as f64;

        // Evaluation 0 primes the accelerations and is charged like any
        // other: the paper's total runtime includes everything.
        for (eval, rec) in traj.evals().iter().enumerate() {
            if eval > 0 {
                // Steps 1, 3, 4 of Figure 4: O(N) integration. One pass
                // reads acc + vel + pos and writes vel + pos.
                for i in 0..n {
                    self.mem_access(acc_r.addr(i), AccessKind::Read);
                    self.mem_access(vel_r.addr(i), AccessKind::Write);
                    self.mem_access(pos_r.addr(i), AccessKind::Write);
                }
                flops += FLOPS_INTEGRATE * n as f64;
            }

            // Step 2: the O(N²) force evaluation's traced charge.
            self.charge_eval(
                n,
                &sub,
                &pos_r,
                &acc_r,
                rec.interactions,
                &mut flops,
                &mut loop_iters,
            );
            fault_extra_cycles += resolve_degradable(
                fault.as_mut(),
                FaultSite::new(FaultKind::EccReload, eval as u64, 0, 0),
                ecc_reload_cycles,
                self.config.clock_hz,
            );

            if eval > 0 {
                // Second half-kick + step 5 energy reduction.
                for i in 0..n {
                    self.mem_access(acc_r.addr(i), AccessKind::Read);
                    self.mem_access(vel_r.addr(i), AccessKind::Write);
                }
                flops += 6.0 * n as f64;
                flops += ens_flops;
            }
            self.perf_sample(perf, handles, flops, loop_iters, fault_extra_cycles);
        }

        let stats = self.hierarchy.stats();
        let flop_cycles =
            flops * self.config.cycles_per_flop + loop_iters * self.config.loop_overhead_cycles;
        // Demand-path memory cycles only: with the prefetcher on, background
        // fills also pass through the hierarchy but cost the program nothing.
        let memory_cycles = self.demand_cycles + fault_extra_cycles;
        let total_cycles = flop_cycles + memory_cycles;
        OpteronRun {
            sim_seconds: total_cycles / self.config.clock_hz,
            flop_cycles,
            memory_cycles,
            energies: traj.energies(),
            memory: stats,
            flops,
            loads: self.loads,
            stores: self.stores,
            faults: fault.map_or_else(sim_fault::FaultStats::default, |f| f.stats()),
        }
    }

    /// Mirror the run's accumulators into the perf monitor and take one
    /// time-series sample at the current simulated time. Reads only; the
    /// run's own arithmetic never depends on it.
    fn perf_sample(
        &self,
        p: &mut sim_perf::PerfMonitor,
        h: PerfHandles,
        flops: f64,
        loop_iters: f64,
        fault_extra_cycles: f64,
    ) {
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

    /// Charge one force evaluation of `n` atoms that found `interactions`
    /// in-cutoff pairs: its exact memory-reference sequence through the
    /// cache hierarchy ([`MemoryHierarchy::replay_row_sweep`], O(N) rows per
    /// cache set, or a recorded replay, [`TraceMemo`]), its loads and
    /// stores, and its flops. The cache replay never reads the physics: it
    /// takes only the interaction count of the [`Trajectory`], so demand
    /// cycles, reference
    /// counts and flops are bitwise identical at any thread count.
    #[allow(clippy::too_many_arguments)]
    fn charge_eval(
        &mut self,
        n: usize,
        sub: &md_core::scenario::Substrate<f64>,
        pos_r: &ArrayRegion,
        acc_r: &ArrayRegion,
        interactions: u64,
        flops: &mut f64,
        loop_iters: &mut f64,
    ) {
        self.demand_cycles += self.replay_or_reuse(n, pos_r, acc_r);
        let (loads, stores) = eval_stream_traffic(n);
        self.loads += loads;
        self.stores += stores;

        let dist_evals = (n as f64) * (n as f64 - 1.0);
        // Per-interaction flops: the LJ baseline plus whatever extra work the
        // scenario's potential costs (zero for the paper-faithful LJ run).
        *flops += dist_evals * FLOPS_DISTANCE
            + interactions as f64 * (FLOPS_INTERACT + sub.extra_eval_ops());
        *loop_iters += dist_evals;
    }

    /// Charge one force evaluation's cache replay, reusing a recorded one
    /// when the cache re-enters its entry state ([`TraceMemo`]); returns
    /// its demand cycles.
    fn replay_or_reuse(&mut self, n: usize, pos_r: &ArrayRegion, acc_r: &ArrayRegion) -> f64 {
        let h = &mut self.hierarchy;
        let recorded = self.trace_memo.iter().find(|m| {
            m.n == n
                && m.pos_base == pos_r.addr(0)
                && m.acc_base == acc_r.addr(0)
                && h.replay_state_eq(&m.entry)
        });
        if let Some(m) = recorded {
            h.apply_replay(&m.entry, &m.exit);
            return m.demand;
        }
        let entry = h.clone();
        // Per-access cycle counts are integers summed far below 2^53, so
        // one conversion equals a per-access f64 sum.
        let demand = h.replay_eval(n, pos_r, acc_r) as f64;
        if self.trace_memo.len() == TRACE_MEMO_RECORDS {
            self.trace_memo.remove(0);
        }
        self.trace_memo.push(TraceMemo {
            n,
            pos_base: pos_r.addr(0),
            acc_base: acc_r.addr(0),
            entry,
            exit: h.clone(),
            demand,
        });
        demand
    }
}

/// Loads and stores in one [`eval_stream`] over `n` atoms: n² reads
/// (pos[i] plus the n − 1 other positions, per row) and n writes.
fn eval_stream_traffic(n: usize) -> (u64, u64) {
    ((n * n) as u64, n as u64)
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

impl md_core::device::MdDevice for OpteronCpu {
    fn label(&self) -> String {
        "opteron".to_string()
    }

    /// One flop per `cycles_per_flop` cycles: the scalar FPU pipeline.
    fn peak_ops_per_second(&self) -> f64 {
        self.config.clock_hz / self.config.cycles_per_flop
    }

    fn resalt(&mut self, salt: u64) {
        self.fault_plan = self.fault_plan.map(|p| p.with_salt(salt));
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

impl Pricer for OpteronCpu {
    fn flavor(&self) -> Flavor {
        Flavor::Host
    }

    fn price(
        &mut self,
        record: &TrajectoryRecord,
        perf: &mut sim_perf::PerfMonitor,
    ) -> Result<md_core::device::PricedRun, md_core::device::DeviceError> {
        md_core::device::check_flavor(self, record)?;
        let r = self.price_run(record, perf);
        let clk = self.config.clock_hz;
        let stall_fraction = if r.sim_seconds > 0.0 {
            (r.memory_cycles / clk) / r.sim_seconds
        } else {
            0.0
        };
        Ok(md_core::device::DeviceRun {
            sim_seconds: r.sim_seconds,
            energies: r.energies,
            checkpoint: (),
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
    /// public surface is [`md_core::device::MdDevice::run`]).
    fn run_md(cpu: &mut OpteronCpu, sim: &SimConfig, steps: usize) -> OpteronRun {
        run_md_perf(cpu, sim, steps, &mut sim_perf::PerfMonitor::new())
    }

    fn run_md_perf(
        cpu: &mut OpteronCpu,
        sim: &SimConfig,
        steps: usize,
        perf: &mut sim_perf::PerfMonitor,
    ) -> OpteronRun {
        let traj = Trajectory::drive(
            Flavor::Host,
            sim,
            None,
            steps,
            HostParallelism::Serial,
            None,
        );
        cpu.price_run(traj.record(), perf)
    }

    #[test]
    fn physics_matches_untimed_kernel() {
        let cfg = SimConfig::reduced_lj(108);
        let mut cpu = OpteronCpu::paper_reference();
        let run = run_md(&mut cpu, &cfg, 5);
        let reference = md_core::reference::run::<f64>(&cfg, 5);
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
        use md_core::device::{MdDevice, RunOptions};
        let cfg = SimConfig::reduced_lj(108);
        let plain = OpteronCpu::paper_reference()
            .run(&cfg, RunOptions::steps(3))
            .expect("runs");
        let mut perf = sim_perf::PerfMonitor::new();
        let counted = run_md_perf(&mut OpteronCpu::paper_reference(), &cfg, 3, &mut perf);
        assert_eq!(
            plain.sim_seconds, counted.sim_seconds,
            "observability is free"
        );
        assert_eq!(plain.energies.total, counted.energies.total);
        assert_eq!(
            plain.bytes_moved,
            (counted.loads + counted.stores) as f64 * 8.0,
            "the device run and the direct price move the same traffic"
        );
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

    /// What a run's cache replay costs reference by reference.
    struct StraightReplay {
        demand: f64,
        stats: HierarchyStats,
        loads: u64,
        stores: u64,
    }

    /// The reference-by-reference replay of a `steps`-step run over `n`
    /// atoms: a fresh front-end driven through [`eval_stream`] once per
    /// evaluation, with the run's integration traffic in between.
    fn straight_replay(config: &OpteronConfig, n: usize, steps: usize) -> StraightReplay {
        let mut h = MemFrontend::new(config);
        let elem = size_of::<Vec3<f64>>();
        let mut space = AddressSpace::new();
        let pos_r = space.alloc_array(n, elem);
        let vel_r = space.alloc_array(n, elem);
        let acc_r = space.alloc_array(n, elem);
        let mut demand = eval_stream(n, &pos_r, &acc_r, |a, k| h.access(a, k));
        for _ in 0..steps {
            for i in 0..n {
                demand += h.access(acc_r.addr(i), AccessKind::Read);
                demand += h.access(vel_r.addr(i), AccessKind::Write);
                demand += h.access(pos_r.addr(i), AccessKind::Write);
            }
            demand += eval_stream(n, &pos_r, &acc_r, |a, k| h.access(a, k));
            for i in 0..n {
                demand += h.access(acc_r.addr(i), AccessKind::Read);
                demand += h.access(vel_r.addr(i), AccessKind::Write);
            }
        }
        let (eval_loads, eval_stores) = eval_stream_traffic(n);
        let evals = steps as u64 + 1;
        let steps = steps as u64;
        let n = n as u64;
        StraightReplay {
            // Integer cycle counts far below 2^53: exact in f64.
            demand: demand as f64,
            stats: h.stats(),
            loads: evals * eval_loads + steps * 2 * n,
            stores: evals * eval_stores + steps * 3 * n,
        }
    }

    impl StraightReplay {
        fn assert_reproduced_by(&self, run: &OpteronRun, config: &OpteronConfig) {
            assert_eq!(run.memory_cycles, self.demand);
            assert_eq!(
                run.sim_seconds,
                (run.flop_cycles + self.demand) / config.clock_hz
            );
            assert_eq!(run.memory.l1, self.stats.l1);
            assert_eq!(run.memory.l2, self.stats.l2);
            assert_eq!(run.memory.total_cycles, self.stats.total_cycles);
            assert_eq!(run.memory.accesses, self.stats.accesses);
            assert_eq!((run.loads, run.stores), (self.loads, self.stores));
        }
    }

    #[test]
    fn trace_is_replayed_at_most_twice_per_device() {
        // Checkpointed segments on one device, below and past the L1 cliff:
        // the first replays the cold and the steady-state entry, every later
        // one reuses them, and each reports what a reference-by-reference
        // replay of it reports.
        for (n, segments) in [(256, 5), (3000, 2)] {
            let cfg = SimConfig::reduced_lj(n);
            let mut cpu = OpteronCpu::paper_reference();
            let mut start = None;
            let straight = straight_replay(&cpu.config, n, 2);
            for _ in 0..segments {
                let traj = Trajectory::drive(
                    Flavor::Host,
                    &cfg,
                    start.as_ref(),
                    2,
                    HostParallelism::Serial,
                    None,
                );
                let seg = cpu.price_run(traj.record(), &mut sim_perf::PerfMonitor::new());
                straight.assert_reproduced_by(&seg, &cpu.config);
                start = Some(traj.checkpoint());
            }
            assert_eq!(cpu.trace_memo.len(), 2, "cold + steady-state replay");
        }
    }

    #[test]
    fn prefetching_memo_matches_the_straight_replay() {
        let cfg = SimConfig::reduced_lj(256);
        let mut cpu = OpteronCpu::new(OpteronConfig::with_prefetcher());
        let straight = straight_replay(&cpu.config, cfg.n_atoms, 3);
        for _ in 0..2 {
            let run = run_md(&mut cpu, &cfg, 3);
            straight.assert_reproduced_by(&run, &cpu.config);
        }
        assert!(
            cpu.trace_memo.len() <= 2,
            "{} records",
            cpu.trace_memo.len()
        );
    }

    #[test]
    fn injected_faults_leave_physics_untouched_and_slow_the_run() {
        let cfg = SimConfig::reduced_lj(108);
        let clean = run_md(&mut OpteronCpu::paper_reference(), &cfg, 6);
        let faulty = run_md(
            &mut OpteronCpu::paper_reference().with_fault_plan(sim_fault::FaultPlan::new(7, 0.4)),
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
            (slowdown - faulty.faults.extra_seconds).abs() <= 1e-9 * faulty.faults.extra_seconds,
            "slowdown {slowdown:.3e} vs charged {:.3e}",
            faulty.faults.extra_seconds
        );
    }

    #[test]
    fn exhaustion_degrades_instead_of_failing() {
        let cfg = SimConfig::reduced_lj(108);
        let run = run_md(
            &mut OpteronCpu::paper_reference().with_fault_plan(sim_fault::FaultPlan::new(3, 1.0)),
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
