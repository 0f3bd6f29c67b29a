//! Calls into the layers with a span around each, plus the direct kernel
//! probes of the traced run.

use crate::trace::Tracer;
use harness::DeviceKind;
use md_core::device::{collect_metrics, DeviceRun, RunOptions};
use md_core::forces::SoaPositions;
use md_core::params::SimConfig;
use md_core::shared_eval::{self, SoaPositionsF32};
use md_core::system::ParticleSystem;
use sim_perf::{PerfMonitor, RunMetrics};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Run state shared by the workloads: the span recorder, and what the
/// traced run counts at the layer boundaries.
pub struct Ctx {
    pub t: Tracer,
    /// Device runs made with tracing on, for the replay-share estimates.
    pub runs: Vec<RunRecord>,
    pub counts: BTreeMap<String, f64>,
    /// The latest cold sweep pass made with tracing on.
    pub last_cold: Option<crate::sweep::Pass>,
}

impl Ctx {
    pub fn new(traced: bool) -> Self {
        Self {
            t: Tracer::new(traced),
            runs: Vec::new(),
            counts: BTreeMap::new(),
            last_cold: None,
        }
    }

    /// Add `v` to a named count; counts are kept only while tracing.
    pub fn count(&mut self, name: &str, v: f64) {
        if self.t.enabled() {
            *self.counts.entry(name.to_string()).or_default() += v;
        }
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// One traced `MdDevice::run`.
pub struct RunRecord {
    pub layer: &'static str,
    pub kernel: Kernel,
    pub sim: SimConfig,
    pub steps: usize,
    pub run_s: f64,
    /// `opteron.mem.loads` + `opteron.mem.stores` (0 on other devices).
    pub mem_accesses: f64,
}

/// The crate that simulates `kind`: the layer its `MdDevice::run` is in.
pub fn device_layer(kind: DeviceKind) -> &'static str {
    match kind {
        DeviceKind::Cell { .. } | DeviceKind::CellPpe | DeviceKind::CellAccel { .. } => "cell-be",
        DeviceKind::Gpu { .. } => "gpu",
        DeviceKind::Mta { .. } => "mta",
        DeviceKind::Opteron => "opteron",
    }
}

/// What `harness::device_metrics` does — build the device, run it with a
/// monitor on serial lanes, fold the run into a record — with each call in
/// its own span. Returns the raw run too, for the bit-exact checks.
pub fn device_metrics_spanned(
    kind: DeviceKind,
    sim: &SimConfig,
    steps: usize,
    cx: &mut Ctx,
) -> Result<(DeviceRun, RunMetrics), String> {
    let layer = device_layer(kind);
    let mut dev = cx.t.span("harness", "DeviceKind::build", |_| kind.build());
    let mut perf = PerfMonitor::new();
    let t0 = Instant::now();
    let run = cx.t.span(layer, "MdDevice::run", |_| {
        dev.run(sim, RunOptions::steps(steps).with_perf(&mut perf))
    });
    let run_s = t0.elapsed().as_secs_f64();
    let run = run.map_err(|e| format!("{}: {e}", kind.label()))?;
    let m = cx.t.span("md-core", "device::collect_metrics", |_| {
        collect_metrics(dev.as_ref(), &run, sim.n_atoms, steps, &perf)
    });
    if cx.t.enabled() {
        cx.runs.push(RunRecord {
            layer,
            kernel: Kernel::for_device(kind),
            sim: *sim,
            steps,
            run_s,
            mem_accesses: m.counter_value("opteron.mem.loads")
                + m.counter_value("opteron.mem.stores"),
        });
    }
    Ok((run, m))
}

/// The three shared-eval kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    HostRow,
    CellRow,
    GpuTexel,
}

impl Kernel {
    pub const ALL: [Kernel; 3] = [Kernel::HostRow, Kernel::CellRow, Kernel::GpuTexel];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::HostRow => "host_row",
            Kernel::CellRow => "cell_row",
            Kernel::GpuTexel => "gpu_texel",
        }
    }

    /// The kernel a device's physics-once replay evaluates with.
    pub fn for_device(kind: DeviceKind) -> Self {
        match kind {
            DeviceKind::Cell { .. } | DeviceKind::CellPpe | DeviceKind::CellAccel { .. } => {
                Kernel::CellRow
            }
            DeviceKind::Gpu { .. } => Kernel::GpuTexel,
            DeviceKind::Mta { .. } | DeviceKind::Opteron => Kernel::HostRow,
        }
    }
}

/// A lattice identity: atom count and scenario.
pub type LatticeKey = (usize, String);

pub fn lattice_key(sim: &SimConfig) -> LatticeKey {
    (sim.n_atoms, sim.scenario_token())
}

/// Fastest host seconds of one full pass of each kernel over each lattice.
pub type KernelTimes = BTreeMap<(Kernel, LatticeKey), f64>;

const PROBE_REPS: usize = 5;

/// Call each kernel directly over every row of each lattice, `PROBE_REPS`
/// times, with a span per pass. The fastest pass stands for the kernel's
/// cost inside a device run, where it runs hot once per evaluation. Counts the pairs visited per kernel and the
/// pairs inside the cutoff (from `host_row`).
pub fn probe_kernels(lattices: &[SimConfig], cx: &mut Ctx) -> KernelTimes {
    let mut times = KernelTimes::new();
    let mut seen: Vec<LatticeKey> = Vec::new();
    for sim in lattices {
        let key = lattice_key(sim);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key.clone());
        let mut sys: Option<ParticleSystem<f64>> = None;
        for _ in 0..PROBE_REPS {
            sys = Some(cx.t.span("md-core", "init::initialize", |_| {
                md_core::init::initialize(sim)
            }));
        }
        let sys = sys.expect("PROBE_REPS > 0");
        let n = sys.positions.len();
        let sub = sim.substrate::<f64>();
        let soa = SoaPositions::from_positions(&sys.positions);
        let sys32: ParticleSystem<f32> = sys.convert();
        let sub32 = sim.substrate::<f32>();
        let soa32 =
            SoaPositionsF32::from_quads(sys32.positions.iter().map(|p| [p.x, p.y, p.z, 0.0]));
        for kernel in Kernel::ALL {
            let mut samples = Vec::with_capacity(PROBE_REPS);
            for _ in 0..PROBE_REPS {
                let t0 = Instant::now();
                let interactions =
                    cx.t.span("md-core.shared_eval", kernel.name(), |_| match kernel {
                        Kernel::HostRow => (0..n)
                            .map(|i| {
                                shared_eval::host_row(&soa, i, sys.box_len, &sub, 1.0).interactions
                            })
                            .sum(),
                        Kernel::CellRow => (0..n)
                            .map(|i| {
                                shared_eval::cell_row(&soa32, i, sys32.box_len, &sub32, 1.0)
                                    .interactions
                            })
                            .sum(),
                        Kernel::GpuTexel => {
                            for i in 0..n {
                                black_box(shared_eval::gpu_texel(
                                    &soa32,
                                    i,
                                    sys32.box_len,
                                    &sub32,
                                    1.0,
                                ));
                            }
                            0
                        }
                    });
                samples.push(t0.elapsed().as_secs_f64());
                black_box(interactions);
                cx.count(
                    &format!("shared_eval.{}.pairs", kernel.name()),
                    (n * n) as f64,
                );
                if kernel == Kernel::HostRow {
                    cx.count("shared_eval.interactions", interactions as f64);
                }
            }
            times.insert(
                (kernel, key.clone()),
                samples.iter().copied().fold(f64::INFINITY, f64::min),
            );
        }
    }
    times
}
