//! The four workloads. Each is a closed loop with one client: the next op
//! starts when the previous one returns. The seed sets the op order.

use crate::calib::Part;
use crate::probes::{device_metrics_spanned, Ctx};
use crate::refs::{self, bits_differ, SeedRecord};
use crate::sweep::{self, Pass, PointOut};
use harness::{ClusterKind, DeviceKind, GpuModel, SupervisorConfig};
use md_core::device::MdDevice;
use md_core::params::SimConfig;
use md_core::scenario::ScenarioSpec;
use mta::ThreadingMode;
use sim_obs::RunLedger;
use sim_sweep::SweepSpec;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const NAMES: [&str; 4] = [
    "single-2048",
    "sweep-registry",
    "ledger-small",
    "cluster-recover",
];

/// Every workload runs 10 time steps per simulation, as the paper does.
const STEPS: usize = 10;

/// One operation's outcome. Its timings cover the op's work only; the
/// correctness checks run after the clock stops.
pub struct Op {
    /// Which of the workload's inputs the op ran.
    pub input: usize,
    /// The op's timed parts, which run one after another: one for a device
    /// or cluster run, one per spec for a sweep pass.
    pub parts: Vec<Part>,
    pub atom_steps: f64,
    pub failures: Vec<String>,
    /// Per-spec host seconds of the cold and the warm pass, when the op is
    /// itself a sweep pass.
    pub sweep: Option<(Vec<f64>, Vec<f64>)>,
}

impl Op {
    pub fn seconds(&self) -> f64 {
        self.parts.iter().map(|p| p.seconds).sum()
    }
}

pub trait Workload {
    /// The op set-up runs to warm the process before measuring.
    fn warm_up(&mut self, cx: &mut Ctx) -> Op;
    /// Ops per round. Each round holds every input once, in seeded order,
    /// and the measured loop ends on a round boundary, so every run sees
    /// the same input mix.
    fn round_len(&self) -> usize;
    fn op(&mut self, i: usize, cx: &mut Ctx) -> Op;
    /// The lattices this workload simulates.
    fn lattices(&self) -> Vec<SimConfig>;
    /// Traced run only: calls that split the op into its layers where the
    /// op itself is one library call.
    fn probe_layers(&mut self, _cx: &mut Ctx) -> Vec<String> {
        Vec::new()
    }
}

/// Build the named workload from its references and run its warm-up op.
pub fn setup(
    name: &str,
    seed: u64,
    root: &Path,
    out_dir: &Path,
    cx: &mut Ctx,
) -> Result<(Box<dyn Workload>, Op), String> {
    // Lazy process-wide set-up: the AVX2 probe the kernels consult.
    md_core::shared_eval::wide_kernels_native();
    let mut w: Box<dyn Workload> = match name {
        "single-2048" => Box::new(Single::new(seed, root)?),
        "sweep-registry" => Box::new(Registry::new(root, out_dir)?),
        "ledger-small" => Box::new(Ledger::new(seed)),
        "cluster-recover" => Box::new(Cluster::new(seed, root, cx)?),
        other => {
            return Err(format!(
                "unknown workload {other} (known: {})",
                NAMES.join(", ")
            ))
        }
    };
    let warm_up = w.warm_up(cx);
    Ok((w, warm_up))
}

/// Seeded order of round `round`: a Fisher–Yates shuffle of `0..len`.
fn round_order(seed: u64, round: usize, len: usize) -> Vec<usize> {
    let mut state = seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

fn input_of(seed: u64, i: usize, len: usize) -> usize {
    round_order(seed, i / len, len)[i % len]
}

fn paper_devices() -> [DeviceKind; 4] {
    [
        DeviceKind::cell_best(),
        DeviceKind::Gpu {
            model: GpuModel::GeForce7900Gtx,
        },
        DeviceKind::Mta {
            mode: ThreadingMode::FullyMultithreaded,
        },
        DeviceKind::Opteron,
    ]
}

fn failed_op(input: usize, message: String) -> Op {
    Op {
        input,
        parts: Vec::new(),
        atom_steps: 0.0,
        failures: vec![message],
        sweep: None,
    }
}

// ---------------------------------------------------------------------------
// single-2048: one device run at the paper's reference size.

struct Single {
    seed: u64,
    sim: SimConfig,
    devices: Vec<(DeviceKind, SeedRecord)>,
}

impl Single {
    fn new(seed: u64, root: &Path) -> Result<Self, String> {
        let golden = refs::substrate_golden(root)?;
        let devices = paper_devices()
            .into_iter()
            .map(|kind| {
                golden
                    .iter()
                    .find(|(label, _)| *label == kind.label())
                    .map(|(_, rec)| (kind, *rec))
                    .ok_or_else(|| {
                        format!(
                            "{}: no golden record for {}",
                            refs::SUBSTRATE_GOLDEN,
                            kind.label()
                        )
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            seed,
            sim: SimConfig::reduced_lj(2048),
            devices,
        })
    }

    fn run(&self, input: usize, cx: &mut Ctx) -> Op {
        let (kind, want) = self.devices[input];
        let t0 = Instant::now();
        let out = device_metrics_spanned(kind, &self.sim, STEPS, cx);
        let seconds = t0.elapsed().as_secs_f64();
        let (run, m) = match out {
            Ok(x) => x,
            Err(e) => return failed_op(input, e),
        };
        let mut failures = Vec::new();
        if SeedRecord::of_run(&run) != want {
            failures.push(format!(
                "{}: outputs differ from {}",
                kind.label(),
                refs::SUBSTRATE_GOLDEN
            ));
        }
        failures.extend(bits_differ(
            &kind.label(),
            m.sim_seconds,
            f64::from_bits(want.sim_seconds),
        ));
        failures.extend(m.validate().err().map(|e| format!("{}: {e}", kind.label())));
        Op {
            input,
            parts: vec![Part::timed(seconds)],
            atom_steps: (self.sim.n_atoms * STEPS) as f64,
            failures,
            sweep: None,
        }
    }
}

impl Workload for Single {
    /// Always the Opteron reference, so set-up does the same work for
    /// every seed.
    fn warm_up(&mut self, cx: &mut Ctx) -> Op {
        self.run(3, cx)
    }

    fn round_len(&self) -> usize {
        self.devices.len()
    }

    fn op(&mut self, i: usize, cx: &mut Ctx) -> Op {
        self.run(input_of(self.seed, i, self.devices.len()), cx)
    }

    fn lattices(&self) -> Vec<SimConfig> {
        vec![self.sim]
    }
}

// ---------------------------------------------------------------------------
// sweep-registry: `sweep run --all`, cold then warm.

struct Registry {
    specs: Vec<SweepSpec>,
    /// Cache key → `BENCH_seed.json` simulated seconds.
    reference: Vec<(String, f64)>,
    /// Per-point simulated seconds of the first pass, for points the
    /// committed baseline does not cover.
    first: Option<Vec<u64>>,
    dir: PathBuf,
}

impl Registry {
    fn new(root: &Path, out_dir: &Path) -> Result<Self, String> {
        let rows = refs::bench_seed(root)?;
        let points = sim_sweep::spec::bench_seed().points;
        if rows.len() != points.len() {
            return Err(format!(
                "{}: {} rows for {} bench_seed points",
                refs::BENCH_SEED,
                rows.len(),
                points.len()
            ));
        }
        let mut reference = Vec::new();
        for (row, p) in rows.iter().zip(&points) {
            if row.figure != p.figure || row.device != p.device.label() || row.n_atoms != p.n_atoms
            {
                return Err(format!(
                    "{}: row {}/{}/{} is out of order",
                    refs::BENCH_SEED,
                    row.figure,
                    row.device,
                    row.n_atoms
                ));
            }
            let key = sim_sweep::point_key(
                sim_sweep::CODE_VERSION_SALT,
                &p.device.cache_token(),
                &p.scenario.cache_token(),
                p.n_atoms,
                p.steps,
            );
            reference.push((key, row.sim_seconds));
        }
        Ok(Self {
            specs: sim_sweep::registry(),
            reference,
            first: None,
            dir: out_dir.join(format!("cache-{}", std::process::id())),
        })
    }

    /// Every point whose cache key matches a `BENCH_seed.json` row has its
    /// simulated seconds, and every row is matched.
    fn check_reference(&self, cold: &Pass) -> Vec<String> {
        let mut failures = Vec::new();
        let mut checked = 0;
        for p in &cold.points {
            if let Some((_, want)) = self.reference.iter().find(|(k, _)| *k == p.key) {
                checked += 1;
                failures.extend(bits_differ(
                    &format!("{} {}", p.spec, p.key),
                    p.metrics.sim_seconds,
                    *want,
                ));
            }
        }
        if checked < self.reference.len() {
            failures.push(format!(
                "only {checked} registry points matched {}",
                refs::BENCH_SEED
            ));
        }
        failures
    }

    fn check_against_first(&mut self, cold: &Pass) -> Vec<String> {
        let bits: Vec<u64> = cold
            .points
            .iter()
            .map(|p| p.metrics.sim_seconds.to_bits())
            .collect();
        match &self.first {
            None => {
                self.first = Some(bits);
                Vec::new()
            }
            Some(first) if *first == bits => Vec::new(),
            Some(_) => vec!["registry pass differs from the first pass".to_string()],
        }
    }
}

impl Workload for Registry {
    /// The Table 1 spec, cold then warm, in a scratch cache.
    fn warm_up(&mut self, cx: &mut Ctx) -> Op {
        let t0 = Instant::now();
        let passes = sweep::cold_then_warm(&[sim_sweep::spec::table1()], &self.dir, &mut cx.t);
        let seconds = t0.elapsed().as_secs_f64();
        match passes {
            Ok((cold, warm)) => Op {
                input: 0,
                parts: vec![Part::timed(seconds)],
                atom_steps: 0.0,
                failures: sweep::check_warm(&cold, &warm),
                sweep: None,
            },
            Err(e) => failed_op(0, e),
        }
    }

    fn round_len(&self) -> usize {
        1
    }

    fn op(&mut self, _i: usize, cx: &mut Ctx) -> Op {
        let (cold, warm) = match sweep::cold_then_warm(&self.specs, &self.dir, &mut cx.t) {
            Ok(x) => x,
            Err(e) => return failed_op(0, e),
        };
        let mut failures = sweep::check_warm(&cold, &warm);
        failures.extend(self.check_reference(&cold));
        failures.extend(self.check_against_first(&cold));
        cx.count("sim-sweep.passes", 1.0);
        cx.count("sim-sweep.pool_s", sweep::nproc() as f64 * cold.seconds);
        cx.count("sim-sweep.points_executed", cold.executed() as f64);
        cx.count(
            "sim-sweep.points_hit",
            (cold.points.len() - cold.executed()) as f64,
        );
        for (name, part) in &cold.spec_s {
            cx.count(&format!("sim-sweep.spec_s.{name}"), part.seconds);
        }
        let mut parts = cold.parts();
        parts.extend(warm.parts());
        let op = Op {
            input: 0,
            parts,
            atom_steps: cold
                .points
                .iter()
                .filter(|p| !p.from_cache)
                .map(PointOut::atom_steps)
                .sum(),
            failures,
            sweep: Some((cold.spec_seconds(), warm.spec_seconds())),
        };
        if cx.t.enabled() {
            cx.last_cold = Some(cold);
        }
        op
    }

    fn lattices(&self) -> Vec<SimConfig> {
        self.specs
            .iter()
            .flat_map(|s| &s.points)
            .map(|p| SimConfig::reduced_lj(p.n_atoms).with_scenario(p.scenario))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// ledger-small: per-run overhead and the run ledger.

struct LedgerRef {
    canonical: Vec<String>,
    sim_seconds: f64,
}

struct Ledger {
    seed: u64,
    inputs: Vec<(DeviceKind, SimConfig)>,
    /// Each input's outputs from set-up; every later op must repeat them.
    refs: Vec<LedgerRef>,
}

impl Ledger {
    fn new(seed: u64) -> Self {
        let mut inputs = Vec::new();
        for scenario in [
            ScenarioSpec::default(),
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::coulomb_cutoff(),
        ] {
            for n in [108, 256] {
                for kind in paper_devices() {
                    inputs.push((kind, SimConfig::reduced_lj(n).with_scenario(scenario)));
                }
            }
        }
        Self {
            seed,
            inputs,
            refs: Vec::new(),
        }
    }

    /// `harness::device_ledger`, then the ledger's JSONL write, parse and
    /// validation. Returns the op and its outputs, the reference for later
    /// runs of the same input.
    fn run(&self, input: usize, cx: &mut Ctx) -> (Op, Option<LedgerRef>) {
        let (kind, sim) = self.inputs[input];
        let t0 = Instant::now();
        let out = cx.t.span("harness", "device_ledger", |_| {
            harness::device_ledger(kind, &sim, STEPS)
        });
        let (m, ledger) = match out {
            Ok(x) => x,
            Err(e) => return (failed_op(input, format!("{}: {e}", kind.label())), None),
        };
        let text =
            cx.t.span("sim-obs", "RunLedger::to_jsonl", |_| ledger.to_jsonl());
        let parsed = cx.t.span("sim-obs", "RunLedger::parse_jsonl", |_| {
            RunLedger::parse_jsonl(&text)
        });
        let valid = cx.t.span("sim-obs", "RunLedger::validate", |_| {
            RunLedger::validate(&text)
        });
        let seconds = t0.elapsed().as_secs_f64();

        cx.count("sim-obs.ledgers", 1.0);
        cx.count("sim-obs.ledger_events", ledger.events().len() as f64);
        cx.count("sim-obs.ledger_bytes", text.len() as f64);
        let what = format!("{} {}", kind.label(), harness::workload_label(&sim, STEPS));
        let canonical = ledger.canonical_lines();
        let mut failures = Vec::new();
        failures.extend(m.validate().err().map(|e| format!("{what}: {e}")));
        failures.extend(valid.err().map(|e| format!("{what}: ledger invalid: {e}")));
        match parsed {
            Ok(p) if p.canonical_lines() == canonical => {}
            Ok(_) => failures.push(format!("{what}: ledger changed in the JSONL round trip")),
            Err(e) => failures.push(format!("{what}: ledger does not parse: {e}")),
        }
        if let Some(r) = self.refs.get(input) {
            if r.canonical != canonical {
                failures.push(format!(
                    "{what}: canonical ledger differs from the first run"
                ));
            }
            failures.extend(bits_differ(&what, m.sim_seconds, r.sim_seconds));
        }
        let op = Op {
            input,
            parts: vec![Part::timed(seconds)],
            atom_steps: (sim.n_atoms * STEPS) as f64,
            failures,
            sweep: None,
        };
        (
            op,
            Some(LedgerRef {
                canonical,
                sim_seconds: m.sim_seconds,
            }),
        )
    }
}

impl Workload for Ledger {
    /// One run of every input: its outputs become the references.
    fn warm_up(&mut self, cx: &mut Ctx) -> Op {
        let mut warm = Op {
            input: 0,
            parts: Vec::new(),
            atom_steps: 0.0,
            failures: Vec::new(),
            sweep: None,
        };
        for input in 0..self.inputs.len() {
            let (op, r) = self.run(input, cx);
            warm.failures.extend(op.failures);
            match r {
                Some(r) => self.refs.push(r),
                None => return warm,
            }
        }
        warm
    }

    fn round_len(&self) -> usize {
        self.inputs.len()
    }

    fn op(&mut self, i: usize, cx: &mut Ctx) -> Op {
        self.run(input_of(self.seed, i, self.inputs.len()), cx).0
    }

    fn lattices(&self) -> Vec<SimConfig> {
        self.inputs.iter().map(|(_, sim)| *sim).collect()
    }

    /// `device_ledger` is one library call; replay its build, run and
    /// collect steps once per input so their layers show separately.
    fn probe_layers(&mut self, cx: &mut Ctx) -> Vec<String> {
        let mut failures = Vec::new();
        for (kind, sim) in self.inputs.clone() {
            if let Err(e) = device_metrics_spanned(kind, &sim, STEPS, cx) {
                failures.push(e);
            }
        }
        failures
    }
}

// ---------------------------------------------------------------------------
// cluster-recover: a supervised 4-node Opteron cluster, with and without a
// node kill.

struct Cluster {
    seed: u64,
    sim: SimConfig,
    kind: ClusterKind,
    /// The single-device Opteron run every recovered state must equal.
    single: SeedRecord,
    /// Simulated seconds of the fault-free and the faulted run, fixed by
    /// the first op of each kind.
    sim_seconds: [Option<u64>; 2],
}

impl Cluster {
    fn new(seed: u64, root: &Path, cx: &mut Ctx) -> Result<Self, String> {
        let golden = refs::substrate_golden(root)?;
        let want = golden
            .iter()
            .find(|(label, _)| label == "opteron")
            .map(|(_, rec)| *rec)
            .ok_or_else(|| format!("{}: no opteron record", refs::SUBSTRATE_GOLDEN))?;
        let sim = SimConfig::reduced_lj(2048);
        let (run, _) = device_metrics_spanned(DeviceKind::Opteron, &sim, STEPS, cx)?;
        let single = SeedRecord::of_run(&run);
        if single != want {
            return Err(format!(
                "opteron reference run differs from {}",
                refs::SUBSTRATE_GOLDEN
            ));
        }
        Ok(Self {
            seed,
            sim,
            kind: ClusterKind::new(DeviceKind::Opteron, 4),
            single,
            sim_seconds: [None, None],
        })
    }

    fn run(&mut self, faulted: bool, cx: &mut Ctx) -> Op {
        let input = usize::from(faulted);
        let t0 = Instant::now();
        let mut cluster =
            cx.t.span("harness", "ClusterKind::build", |_| self.kind.build());
        if faulted {
            cluster.kill_node_at_step(2, 5);
        }
        let rec = cx.t.span("harness", "run_cluster_supervised", |_| {
            harness::run_cluster_supervised(
                &mut cluster,
                &self.sim,
                STEPS,
                &SupervisorConfig::default(),
                None,
            )
        });
        let seconds = t0.elapsed().as_secs_f64();

        let r = &rec.run.report;
        cx.count("supervisor.runs", 1.0);
        cx.count("supervisor.attempts", r.attempts as f64);
        cx.count("supervisor.restores", r.restores as f64);
        cx.count("sim-cluster.migrations", rec.migrations as f64);
        if !faulted {
            cx.count("supervisor.clean_runs", 1.0);
            cx.count("supervisor.clean_s", seconds);
        }
        let what = if faulted {
            "node-2 kill at step 5"
        } else {
            "fault-free"
        };
        let mut failures = Vec::new();
        if !rec.recovered_cleanly() {
            failures.push(format!("{what}: fell back to the reference device"));
        }
        let state = md_core::checkpoint::fnv1a(
            &rec.run.checkpoint.encode_domain(0, rec.run.checkpoint.n()),
        );
        if state != self.single.state_fnv1a || rec.run.energies.total.to_bits() != self.single.total
        {
            failures.push(format!(
                "{what}: final state differs from the single-device run"
            ));
        }
        let (restores, migrations) = if faulted { (1, 1) } else { (0, 0) };
        if r.restores != restores || rec.migrations != migrations {
            failures.push(format!(
                "{what}: {} restores, {} migrations",
                r.restores, rec.migrations
            ));
        }
        let bits = rec.run.sim_seconds.to_bits();
        match self.sim_seconds[input] {
            None => self.sim_seconds[input] = Some(bits),
            Some(want) if want == bits => {}
            Some(_) => failures.push(format!(
                "{what}: simulated seconds differ from the first run"
            )),
        }
        Op {
            input,
            parts: vec![Part::timed(seconds)],
            atom_steps: (self.sim.n_atoms * STEPS) as f64,
            failures,
            sweep: None,
        }
    }
}

impl Workload for Cluster {
    fn warm_up(&mut self, cx: &mut Ctx) -> Op {
        self.run(false, cx)
    }

    fn round_len(&self) -> usize {
        2
    }

    fn op(&mut self, i: usize, cx: &mut Ctx) -> Op {
        self.run(input_of(self.seed, i, 2) == 1, cx)
    }

    fn lattices(&self) -> Vec<SimConfig> {
        vec![self.sim]
    }

    /// The unsupervised cluster run and the single-device run it is
    /// compared with, and the MDCP1 checkpoint round trip.
    fn probe_layers(&mut self, cx: &mut Ctx) -> Vec<String> {
        let mut failures = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            match device_metrics_spanned(DeviceKind::Opteron, &self.sim, STEPS, cx) {
                Ok((run, _)) => last = Some(run.checkpoint),
                Err(e) => failures.push(e),
            }
            let mut cluster =
                cx.t.span("harness", "ClusterKind::build", |_| self.kind.build());
            let run = cx.t.span("sim-cluster", "ClusterMd::run", |_| {
                cluster.run(&self.sim, md_core::device::RunOptions::steps(STEPS))
            });
            failures.extend(run.err().map(|e| format!("unsupervised cluster run: {e}")));
        }
        if let Some(cp) = last {
            for _ in 0..10 {
                let bytes =
                    cx.t.span("md-core", "SystemCheckpoint::encode", |_| cp.encode());
                let back = cx.t.span("md-core", "SystemCheckpoint::decode", |_| {
                    md_core::checkpoint::SystemCheckpoint::decode(&bytes)
                });
                cx.count("checkpoint.encodes", 1.0);
                cx.count("checkpoint.bytes", bytes.len() as f64);
                if back.as_ref().ok() != Some(&cp) {
                    failures.push("MDCP1 checkpoint did not round-trip".to_string());
                }
            }
        }
        failures
    }
}

/// Re-run each point the cold pass executed, one at a time, so the points'
/// own device time can be set against the pool's wall time.
pub fn rerun_points(cold: &Pass, cx: &mut Ctx) -> Vec<String> {
    let mut failures = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for p in cold.points.iter().filter(|p| !p.from_cache) {
        if seen.contains(&p.key.as_str()) {
            continue;
        }
        seen.push(&p.key);
        let t0 = Instant::now();
        let sim = SimConfig::reduced_lj(p.n_atoms).with_scenario(p.scenario);
        let ok = device_metrics_spanned(p.device, &sim, p.steps, cx).map(|(_, m)| m);
        cx.count("sim-sweep.rerun_s", t0.elapsed().as_secs_f64());
        match ok {
            Ok(m) if m.to_json() == p.metrics.to_json() => {}
            Ok(_) => failures.push(format!("{}: re-run differs from the sweep", p.key)),
            Err(e) => failures.push(e),
        }
    }
    failures
}

/// Store and load each cold-pass record in a scratch cache.
pub fn probe_cache(cold: &Pass, dir: &Path, cx: &mut Ctx) -> Vec<String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = sim_sweep::ResultCache::new(dir);
    let mut failures = Vec::new();
    for p in &cold.points {
        let stored = cx.t.span("sim-sweep", "ResultCache::store", |_| {
            cache.store(&p.key, &p.metrics)
        });
        if let Err(e) = stored {
            failures.push(format!("cache store: {e}"));
            continue;
        }
        let loaded =
            cx.t.span("sim-sweep", "ResultCache::load", |_| cache.load(&p.key));
        cx.count("sim-sweep.cache.entries", 1.0);
        let bytes = std::fs::metadata(cache.path_for(&p.key)).map_or(0, |m| m.len());
        cx.count("sim-sweep.cache.entry_bytes", bytes as f64);
        if loaded.map(|m| m.to_json()) != Some(p.metrics.to_json()) {
            failures.push(format!("{}: cache load differs from store", p.key));
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    failures
}
