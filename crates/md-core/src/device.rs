//! The unified device-run API (DESIGN.md §11).
//!
//! Every simulated machine — Cell BE, GPU, MTA-2, Opteron — exposes the same
//! operation: advance an MD system by `steps` time steps and report what it
//! cost. Historically each device crate grew four parallel entry points
//! (`run_md` / `run_md_from` / `run_md_perf` / `run_md_from_perf`); the
//! [`MdDevice`] trait collapses them into one `run` taking a [`RunOptions`]
//! builder, so the harness supervisor and the sweep engine can drive any
//! device through a `dyn MdDevice` without per-device plumbing.
//!
//! The contract a device implementation must keep:
//!
//! - **Determinism.** `run` with equal inputs returns bit-identical physics
//!   and simulated seconds. This is what makes sweep results memoizable.
//! - **Segment transparency.** Starting from a [`SystemCheckpoint`] and
//!   running `k` steps, then continuing from the returned checkpoint, must
//!   reproduce the unsegmented trajectory bit for bit (devices prime
//!   accelerations from positions on entry). The f64 devices ([`HostPricer`]:
//!   the Opteron and both MTA-2 modes) take the prime from their last
//!   trajectory when they resume from the state it ended in
//!   ([`HostTrajectory::resumes`]); the charge is unchanged, only host time
//!   is saved. The Cell and the GPU recompute the prime.
//! - **Free observation.** Passing a [`PerfMonitor`] must not change the
//!   trajectory or the simulated clock.
//! - **Attribution identity.** [`DeviceRun::attribution`] partitions
//!   `sim_seconds`: the buckets sum to the total within float re-association
//!   (enforced downstream by [`sim_perf::RunMetrics::validate`]).

use crate::checkpoint::SystemCheckpoint;
use crate::observables::EnergyReport;
use crate::params::SimConfig;
use crate::trajectory::HostTrajectory;
use sim_fault::FaultStats;
use std::fmt;

pub use sim_obs::RunLedger;
pub use sim_perf::PerfMonitor;

/// How much host-side parallelism a device may use to execute its simulated
/// lanes (SPEs, fragment batches, streams, gather rows).
///
/// Purely a wall-clock knob: every device runs its lanes as an
/// order-preserving indexed map followed by a fixed serial fold, so physics,
/// simulated seconds, perf counters, and fault schedules are bitwise
/// identical across all settings (DESIGN.md §12). The cost model continues
/// to charge the *simulated* machine's time; only host wall-clock shrinks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HostParallelism {
    /// Run every simulated lane on the calling thread (the default).
    #[default]
    Serial,
    /// Run lanes on up to `n` host threads; `Threads(0)` means "use every
    /// available core", as in rayon.
    Threads(usize),
}

impl HostParallelism {
    /// Build the setting from a thread count: 0 = all cores, 1 = serial.
    pub fn from_threads(n: usize) -> Self {
        if n == 1 {
            HostParallelism::Serial
        } else {
            HostParallelism::Threads(n)
        }
    }

    /// Worker threads this setting resolves to.
    pub fn threads(self) -> usize {
        match self {
            HostParallelism::Serial => 1,
            HostParallelism::Threads(0) => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
            HostParallelism::Threads(n) => n,
        }
    }

    /// Does this setting actually fan out to more than one host thread?
    pub fn is_parallel(self) -> bool {
        self.threads() > 1
    }
}

/// One node's contiguous atom range under the cluster engine's slab
/// decomposition.
///
/// The lattice initializer fills sites in `ix`-major order, so a contiguous
/// index range *is* a spatial slab along x: splitting the atom array splits
/// the box. Domains are value types so a cluster engine can recompute the
/// map after a migration without any registration protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DomainRegion {
    /// Owning node's rank at map-construction time.
    pub node: usize,
    /// First atom index of the slab.
    pub start: usize,
    /// Atoms in the slab (the last slab absorbs any remainder).
    pub len: usize,
}

impl DomainRegion {
    /// One past the last atom index of the slab.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Partition `n_atoms` into `nodes` contiguous slabs, remainder spread one
/// atom at a time over the leading slabs (so sizes differ by at most one
/// and every node gets work whenever `n_atoms >= nodes`).
pub fn slab_domains(n_atoms: usize, nodes: usize) -> Vec<DomainRegion> {
    let nodes = nodes.max(1);
    let base = n_atoms / nodes;
    let extra = n_atoms % nodes;
    let mut out = Vec::with_capacity(nodes);
    let mut start = 0;
    for node in 0..nodes {
        let len = base + usize::from(node < extra);
        out.push(DomainRegion { node, start, len });
        start += len;
    }
    out
}

/// How one [`MdDevice::run`] call should execute, assembled builder-style:
///
/// ```
/// # use md_core::device::RunOptions;
/// let opts = RunOptions::steps(10);            // fresh lattice, no extras
/// # let _ = opts;
/// ```
///
/// Add a checkpoint to resume (`from_checkpoint`), a monitor to observe
/// (`with_perf`), or a run ledger to record into (`with_ledger`). Fault
/// injection is armed on the device itself, at construction (each device's
/// `with_fault_plan`); every build compiles the fault sites, and only an
/// armed plan fires them.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Time steps to advance.
    pub steps: usize,
    /// Resume point; `None` initializes the standard lattice for the run's
    /// [`SimConfig`].
    pub start: Option<&'a SystemCheckpoint>,
    /// Passive performance observer. Counter values are run-local totals;
    /// use a fresh monitor per run.
    pub perf: Option<&'a mut PerfMonitor>,
    /// Host threads the device may use to execute its simulated lanes.
    /// Bitwise-identical results at any setting; see [`HostParallelism`].
    pub host_parallelism: HostParallelism,
    /// Unified run-ledger sink. Like `perf`, a pure observer: a run with a
    /// ledger attached is bitwise-identical to the same run without one.
    pub ledger: Option<&'a mut RunLedger>,
}

impl<'a> RunOptions<'a> {
    /// Start building: run `steps` time steps from a fresh lattice.
    pub fn steps(steps: usize) -> Self {
        Self {
            steps,
            start: None,
            perf: None,
            host_parallelism: HostParallelism::Serial,
            ledger: None,
        }
    }

    /// Resume from a checkpoint instead of the fresh lattice.
    #[must_use]
    pub fn from_checkpoint(mut self, cp: &'a SystemCheckpoint) -> Self {
        self.start = Some(cp);
        self
    }

    /// Attach a performance monitor (pure observer — bitwise-identical run).
    #[must_use]
    pub fn with_perf(mut self, perf: &'a mut PerfMonitor) -> Self {
        self.perf = Some(perf);
        self
    }

    /// Let the device execute its simulated lanes on host threads
    /// (bitwise-identical to serial; only wall-clock changes).
    #[must_use]
    pub fn with_host_parallelism(mut self, par: HostParallelism) -> Self {
        self.host_parallelism = par;
        self
    }

    /// Shorthand for [`Self::with_host_parallelism`] from a thread count
    /// (0 = all cores, 1 = serial).
    #[must_use]
    pub fn with_host_threads(self, n: usize) -> Self {
        self.with_host_parallelism(HostParallelism::from_threads(n))
    }

    /// Attach a run ledger (pure observer — bitwise-identical run). The
    /// device records its attribution phases, counters, and fault events
    /// relative to the ledger's current sim offset.
    #[must_use]
    pub fn with_ledger(mut self, ledger: &'a mut RunLedger) -> Self {
        self.ledger = Some(ledger);
        self
    }
}

/// Everything a device reports about one run, in device-neutral form.
///
/// `attribution`, `derived`, `ops`, and `bytes_moved` exist so one generic
/// metrics builder can produce the same [`sim_perf::RunMetrics`] records the
/// per-device `*_metrics` functions used to assemble by hand.
#[derive(Clone, Debug)]
pub struct DeviceRun {
    /// Total simulated seconds charged.
    pub sim_seconds: f64,
    pub energies: EnergyReport,
    /// State after the run, stamped `start.step + steps`.
    pub checkpoint: SystemCheckpoint,
    /// Labelled partition of `sim_seconds` in presentation order (compute vs
    /// DMA-wait vs mailbox vs PCIe vs memory stalls ...).
    pub attribution: Vec<(&'static str, f64)>,
    /// Device-specific derived metrics (stall fractions, miss rates, stream
    /// occupancy), appended after the standard rate metrics.
    pub derived: Vec<(&'static str, f64)>,
    /// Work retired in the device's native unit (flops, shader ops,
    /// instructions) — numerator of the utilization metrics.
    pub ops: f64,
    /// Bytes moved over the device's off-core links (DMA, PCIe, DRAM).
    pub bytes_moved: f64,
    /// Injected-fault ledger (zero when no fault plan is armed).
    /// `exhausted > 0` marks a degraded run.
    pub faults: FaultStats,
}

/// Why a device refused or abandoned a run.
#[derive(Clone, Debug)]
pub enum DeviceError {
    /// The device model failed mid-run (local-store overflow, injected-fault
    /// exhaustion, ...). Carries the device's own message.
    Failed(String),
    /// The requested options don't make sense for this device (for example,
    /// resuming the PPE-only baseline from a checkpoint).
    Unsupported(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Failed(msg) => write!(f, "{msg}"),
            DeviceError::Unsupported(msg) => write!(f, "unsupported run options: {msg}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// A configured simulated machine that can advance an MD system.
///
/// Object-safe by design: the supervisor and the sweep engine hold
/// `Box<dyn MdDevice>` and never know which architecture is underneath.
pub trait MdDevice {
    /// Stable device label ("cell-8spe", "gpu-7900gtx", "mta2-full-mt",
    /// "opteron") — the identity used in metrics records and cache keys.
    fn label(&self) -> String;

    /// Theoretical peak rate in the device's native ops/second, the
    /// denominator of the utilization metric.
    fn peak_ops_per_second(&self) -> f64;

    /// Re-arm the device's fault schedule with a fresh salt so a retried
    /// segment sees a different (still deterministic) fault pattern. No-op
    /// for devices without an armed plan.
    fn resalt(&mut self, _salt: u64) {}

    /// Advance the system per `opts`. On error the device charged nothing
    /// durable: retry from the same checkpoint after [`MdDevice::resalt`].
    fn run(&mut self, sim: &SimConfig, opts: RunOptions<'_>) -> Result<DeviceRun, DeviceError>;

    /// The device as a [`HostPricer`], when its physics is the f64 host
    /// flavor; `None` for every other device.
    fn as_host_pricer(&mut self) -> Option<&mut dyn HostPricer> {
        None
    }
}

/// A device whose physics is the f64 host flavor: it integrates nothing
/// itself and prices a [`HostTrajectory`] with its cost model. Its
/// [`MdDevice::run`] is [`run_host_device`], which drives the trajectory and
/// prices it, so pricing a trajectory driven elsewhere from the same start
/// (once for several devices, as a sweep does) reports exactly what `run`
/// reports.
pub trait HostPricer: MdDevice {
    /// Charge `traj` on this device, observing into `perf` (a fresh
    /// monitor), and report the run.
    fn price(&mut self, traj: &HostTrajectory, perf: &mut PerfMonitor) -> DeviceRun;

    /// The device's last trajectory, the resume record of its next run.
    fn last_trajectory(&mut self) -> &mut Option<HostTrajectory>;
}

/// The one run path of a [`HostPricer`]: drive the trajectory `opts` asks
/// for, resuming from the device's last one, price it, record the run into
/// the ledger, and keep the trajectory as the next resume record. Observes
/// with a local monitor when `opts` brings none: device-derived metrics
/// read counters, and observation never changes the run.
pub fn run_host_device<D: HostPricer + ?Sized>(
    dev: &mut D,
    sim: &SimConfig,
    mut opts: RunOptions<'_>,
) -> DeviceRun {
    let last = dev.last_trajectory().take();
    let traj = HostTrajectory::drive(
        sim,
        opts.start,
        opts.steps,
        opts.host_parallelism,
        last.as_ref(),
    );
    let mut local = PerfMonitor::new();
    let perf = match opts.perf.take() {
        Some(p) => p,
        None => &mut local,
    };
    let run = dev.price(&traj, perf);
    if let Some(led) = opts.ledger.take() {
        ledger_record_run(led, &dev.label(), &run, Some(perf));
    }
    *dev.last_trajectory() = Some(traj);
    run
}

/// Fold one [`DeviceRun`] into the schema-versioned [`sim_perf::RunMetrics`]
/// record: attribution verbatim, counters from the monitor, the standard
/// rate metrics (achieved vs peak, utilization, bytes/op), then the device's
/// own derived metrics. This is the single replacement for the four
/// hand-written `*_metrics` builders the harness used to carry.
pub fn collect_metrics<D: MdDevice + ?Sized>(
    device: &D,
    run: &DeviceRun,
    n_atoms: usize,
    steps: usize,
    perf: &PerfMonitor,
) -> sim_perf::RunMetrics {
    let mut m = sim_perf::RunMetrics::new(device.label(), n_atoms, steps, run.sim_seconds);
    for (name, seconds) in &run.attribution {
        m.push_attribution(*name, *seconds);
    }
    m.absorb_counters(perf);
    m.derive_rates(run.ops, device.peak_ops_per_second(), run.bytes_moved);
    for (name, value) in &run.derived {
        m.push_derived(*name, *value);
    }
    m
}

/// Record one completed device run into a ledger: attribution phases laid
/// end-to-end from the ledger's current sim offset, a closing `sim_seconds`
/// counter, every perf-counter series, and fault totals when any fault
/// fired. Devices call this at the end of `run` when the caller attached a
/// ledger; like the perf monitor, it only reads the run's outputs, so the
/// trajectory and the simulated clock are untouched.
pub fn ledger_record_run(
    ledger: &mut RunLedger,
    source: &str,
    run: &DeviceRun,
    perf: Option<&PerfMonitor>,
) {
    ledger.device_phases(source, &run.attribution);
    ledger.counter(source, "sim_seconds", run.sim_seconds, run.sim_seconds, "s");
    if let Some(p) = perf {
        p.export_to_ledger(ledger, source, run.sim_seconds);
    }
    if run.faults.injected > 0 || run.faults.exhausted > 0 {
        ledger.counter(
            source,
            "faults_injected",
            run.sim_seconds,
            run.faults.injected as f64,
            "events",
        );
        ledger.counter(
            source,
            "fault_extra_seconds",
            run.sim_seconds,
            run.faults.extra_seconds,
            "s",
        );
    }
}

/// Final value of a named counter on a monitor (0 if never registered).
/// Device impls use this to read their own traffic counters back when
/// computing [`DeviceRun::bytes_moved`].
pub fn counter_total(perf: &PerfMonitor, name: &str) -> f64 {
    perf.counters()
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, sim_perf::CounterSeries::value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::system::ParticleSystem;

    /// A trivial in-crate device: charges a fixed cost per step and runs the
    /// reference physics. Exercises the trait plumbing without a device crate.
    struct NullDevice;

    impl MdDevice for NullDevice {
        fn label(&self) -> String {
            "null".to_string()
        }

        fn peak_ops_per_second(&self) -> f64 {
            1e9
        }

        fn run(&mut self, sim: &SimConfig, opts: RunOptions<'_>) -> Result<DeviceRun, DeviceError> {
            let (sys, start_step): (ParticleSystem<f64>, u64) = match opts.start {
                Some(cp) => (cp.restore(), cp.step),
                None => (init::initialize(sim), 0),
            };
            let energies = EnergyReport::measure(&sys, 0.0);
            let seconds = opts.steps as f64 * 1e-3;
            let checkpoint = SystemCheckpoint::capture(&sys, start_step + opts.steps as u64);
            Ok(DeviceRun {
                sim_seconds: seconds,
                energies,
                checkpoint,
                attribution: vec![("compute", seconds)],
                derived: vec![("busy_fraction", 1.0)],
                ops: 1e6 * opts.steps as f64,
                bytes_moved: 0.0,
                faults: FaultStats::default(),
            })
        }
    }

    #[test]
    fn slab_domains_tile_without_gaps() {
        for (n, nodes) in [(2048usize, 4usize), (2048, 3), (7, 4), (5, 8), (0, 3)] {
            let map = slab_domains(n, nodes);
            assert_eq!(map.len(), nodes);
            let mut cursor = 0;
            for (rank, d) in map.iter().enumerate() {
                assert_eq!(d.node, rank);
                assert_eq!(d.start, cursor);
                assert_eq!(d.end(), d.start + d.len);
                cursor = d.end();
            }
            assert_eq!(cursor, n, "domains must cover all atoms for {n}/{nodes}");
            let max = map.iter().map(|d| d.len).max().unwrap_or(0);
            let min = map.iter().map(|d| d.len).min().unwrap_or(0);
            assert!(max - min <= 1, "slab sizes differ by more than one");
        }
        // nodes = 0 degrades to a single slab rather than panicking.
        assert_eq!(slab_domains(10, 0).len(), 1);
    }

    #[test]
    fn options_builder_composes() {
        let mut perf = PerfMonitor::new();
        let mut ledger = RunLedger::new("null", "test");
        let opts = RunOptions::steps(4)
            .with_perf(&mut perf)
            .with_host_threads(4)
            .with_ledger(&mut ledger);
        assert_eq!(opts.steps, 4);
        assert!(opts.start.is_none());
        assert!(opts.perf.is_some());
        assert!(opts.ledger.is_some());
        assert_eq!(opts.host_parallelism, HostParallelism::Threads(4));
    }

    #[test]
    fn host_parallelism_resolves_threads() {
        assert_eq!(HostParallelism::Serial.threads(), 1);
        assert!(!HostParallelism::Serial.is_parallel());
        assert_eq!(HostParallelism::from_threads(1), HostParallelism::Serial);
        assert_eq!(HostParallelism::Threads(4).threads(), 4);
        assert!(HostParallelism::Threads(4).is_parallel());
        assert!(HostParallelism::Threads(0).threads() >= 1, "0 = all cores");
        assert_eq!(
            RunOptions::steps(1).host_parallelism,
            HostParallelism::Serial
        );
    }

    #[test]
    fn collect_metrics_builds_a_valid_record() {
        let sim = SimConfig::reduced_lj(108);
        let mut dev = NullDevice;
        let perf = PerfMonitor::new();
        let run = dev.run(&sim, RunOptions::steps(3)).expect("null device");
        let m = collect_metrics(&dev, &run, sim.n_atoms, 3, &perf);
        m.validate().expect("attribution partitions sim_seconds");
        assert_eq!(m.device, "null");
        assert_eq!(m.derived_value("busy_fraction"), 1.0);
        assert!(m.derived_value("achieved_gops_per_s") > 0.0);
    }

    #[test]
    fn trait_objects_are_usable() {
        let sim = SimConfig::reduced_lj(108);
        let mut boxed: Box<dyn MdDevice> = Box::new(NullDevice);
        boxed.resalt(7); // default no-op
        let run = boxed.run(&sim, RunOptions::steps(2)).expect("runs");
        assert_eq!(run.checkpoint.step, 2);
        assert_eq!(boxed.label(), "null");
    }
}
