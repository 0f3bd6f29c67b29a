//! Golden device matrix (DESIGN.md §17): every simulated observable of the
//! device runs below, pinned bit for bit in `tests/golden/device_matrix.json`.
//!
//! Each device has one production force path — the shared wide evaluator
//! that computes each evaluation's physics once and replays the device's
//! cost interpretation in closed form. The matrix was captured from the
//! interpretive per-pair loops that path replaced, so it is the contract
//! that the replay is purely a host wall-clock matter: positions,
//! velocities, energies, simulated seconds, time attribution, derived
//! metrics, perf counters and fault ledgers must match at every host thread
//! count, under fault injection, and across scenario flavors (Morse/NVT,
//! Coulomb, mixed precision). The Opteron is also pinned past its L1 cliff
//! (3,000 and 4,096 atoms), where its cache counters stop being trivial.
//! The other three devices are pinned at culled sizes that are not whole
//! cubes (1,024 and 4,096 atoms), where some j-blocks straddle a z-row.
//! The 8-SPE Cell is also pinned at 1,000 atoms, where every SPE's
//! 125-atom row slice starts or ends inside an 8-atom block.
//! The Cell's double-precision SPE port is pinned the same way through its
//! `CellRun` (breakdown and kernel stats). So are the Cell's
//! PPE-only baseline (Table 1) and the Figure 5 SPE-kernel ladder: every
//! variant's single-SPE probe and a resident one-SPE run per variant. The
//! supervised Opteron, MTA-2 and 4-node Opteron cluster runs (fault-free,
//! and with node 2 killed at step 5) are pinned per accepted segment, so the
//! charge of every resumed segment's priming evaluation is part of the
//! contract. The partially multithreaded MTA-2 is pinned at paper scale and
//! under one scenario flavor: it prices the same trajectory as the fully
//! multithreaded one.
//!
//! Every f64 is stored as its hex bit pattern; the final state is one
//! FNV-1a hash over the checkpoint's coordinate payload, as in
//! `tests/substrate.rs`. Regenerate — only when a drift is *intended* — with
//! `UPDATE_GOLDEN=1 cargo test --test shared_eval golden_matrix_is_complete`.

use cell_be::{CellBeDevice, CellRun, CellRunConfig, SpawnPolicy, SpeKernelVariant};
use harness::{
    run_cluster_supervised, run_supervised, ClusterKind, DeviceKind, GpuModel, SupervisedRun,
    SupervisorConfig,
};
use md_core::checkpoint::fnv1a;
use md_core::device::{DeviceRun, MdDevice, PerfMonitor, RunOptions};
use md_core::params::SimConfig;
use md_core::scenario::{PrecisionPolicy, ScenarioSpec};
use mta::ThreadingMode;
use sim_obs::{escape_json_string, parse_json, JsonValue};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/device_matrix.json"
);
const SCHEMA: &str = "device-matrix-v1";

const PAPER_ATOMS: usize = 2048;
const PAPER_STEPS: usize = 10;
/// Host thread counts every paper-scale run is checked at. 1 exercises the
/// `from_threads` collapse to the serial path; 8 oversubscribes most hosts,
/// which must change nothing.
const THREADS: [usize; 3] = [1, 2, 8];
/// Scenario-flavor sizes: at 512 atoms the box is under four cutoffs and the
/// shared-eval rows scan every j; at 864 it is over, and they skip the
/// j-blocks that cannot reach the cutoff.
const SCENARIO_ATOMS: [usize; 2] = [512, 864];
const SCENARIO_STEPS: usize = 5;
/// Opteron cache-cliff sizes: the position array (24 B per atom) outgrows
/// the 64 KB L1 from about 2,731 atoms, so these runs pin the L1 and L2
/// counters where L1 conflict misses dominate (Figure 9's regime).
const CLIFF_ATOMS: [usize; 2] = [3000, 4096];
const CLIFF_STEPS: usize = 2;
/// Culled sizes that are not whole cubes, as `(atoms, steps)`. The lattice
/// fills z fastest, and its z-rows (28 and 44 atoms here) are not whole
/// 8-atom blocks, so some j-blocks hold the end of one row and the start of
/// the next and straddle the periodic z face. The Opteron at 4,096 atoms is
/// its `cliff/` record.
const STRADDLE: [(usize, usize); 2] = [(1024, 3), (4096, 2)];

/// A culled 8-SPE Cell run whose 125-atom SPE slices start and end inside
/// 8-atom blocks (and 4-block super-blocks), so neighbouring SPEs evaluate
/// rows of the same block: `(atoms, steps)`.
const SLICED: (usize, usize) = (1000, 2);

/// The devices pinned at the [`STRADDLE`] sizes.
fn straddle_devices() -> [DeviceKind; 3] {
    let [_, cell, gpu, mta] = all_devices();
    [cell, gpu, mta]
}

fn all_devices() -> [DeviceKind; 4] {
    [
        DeviceKind::Opteron,
        DeviceKind::cell_best(),
        DeviceKind::Gpu {
            model: GpuModel::GeForce7900Gtx,
        },
        DeviceKind::Mta {
            mode: ThreadingMode::FullyMultithreaded,
        },
    ]
}

/// The devices pinned at paper scale: the four paper devices plus the
/// Figure 8 partially multithreaded MTA-2.
fn paper_devices() -> [DeviceKind; 5] {
    let [opteron, cell, gpu, mta] = all_devices();
    [opteron, cell, gpu, mta, MTA_PARTIAL]
}

const MTA_PARTIAL: DeviceKind = DeviceKind::Mta {
    mode: ThreadingMode::PartiallyMultithreaded,
};

/// The partially multithreaded MTA-2's one scenario record: Morse/NVT at
/// the smaller [`SCENARIO_ATOMS`] size.
fn partial_scenario_sim() -> SimConfig {
    scenario_sim(SCENARIO_ATOMS[0], ScenarioSpec::morse_nvt())
}

fn scenario_flavors() -> [ScenarioSpec; 3] {
    [
        ScenarioSpec::morse_nvt(),
        ScenarioSpec::coulomb_cutoff(),
        ScenarioSpec::default().with_precision(PrecisionPolicy::MixedF64Accumulate),
    ]
}

/// One pinned run: named fields in a fixed order, each value an exact hex
/// bit pattern (f64) or a decimal count.
#[derive(Debug, PartialEq, Eq)]
struct Record(Vec<(String, String)>);

impl Record {
    fn new() -> Self {
        Self(Vec::new())
    }

    fn bits(&mut self, name: impl Into<String>, v: f64) {
        self.hex(name, v.to_bits());
    }

    fn hex(&mut self, name: impl Into<String>, v: u64) {
        self.0.push((name.into(), format!("{v:#018x}")));
    }

    fn count(&mut self, name: impl Into<String>, v: u64) {
        self.0.push((name.into(), v.to_string()));
    }

    fn energies(&mut self, e: &md_core::observables::EnergyReport) {
        self.bits("energies.kinetic", e.kinetic);
        self.bits("energies.potential", e.potential);
        self.bits("energies.total", e.total);
        self.bits("energies.temperature", e.temperature);
    }

    fn faults(&mut self, f: &sim_fault::FaultStats) {
        self.count("faults.injected", f.injected);
        self.count("faults.retries", f.retries);
        self.count("faults.exhausted", f.exhausted);
        self.bits("faults.extra_seconds", f.extra_seconds);
    }

    /// Everything a [`DeviceRun`] and its perf monitor report.
    fn device_run(run: &DeviceRun, perf: &PerfMonitor) -> Self {
        let mut r = Self::new();
        r.bits("sim_seconds", run.sim_seconds);
        r.energies(&run.energies);
        r.count("state.step", run.checkpoint.step);
        r.hex(
            "state.fnv1a",
            fnv1a(&run.checkpoint.encode_domain(0, run.checkpoint.n())),
        );
        for (label, v) in &run.attribution {
            r.bits(format!("attribution.{label}"), *v);
        }
        for (label, v) in &run.derived {
            r.bits(format!("derived.{label}"), *v);
        }
        r.bits("ops", run.ops);
        r.bits("bytes_moved", run.bytes_moved);
        r.faults(&run.faults);
        for c in perf.counters() {
            r.bits(format!("counter.{}", c.name), c.value());
            let series: Vec<u8> = c
                .samples()
                .iter()
                .flat_map(|&(t, v)| {
                    t.to_bits()
                        .to_le_bytes()
                        .into_iter()
                        .chain(v.to_bits().to_le_bytes())
                })
                .collect();
            r.hex(format!("counter.{}.samples", c.name), fnv1a(&series));
        }
        r
    }

    /// Everything a Cell double-precision [`CellRun`] reports.
    fn cell_run(run: &CellRun) -> Self {
        let mut r = Self::new();
        r.bits("sim_seconds", run.sim_seconds);
        r.energies(&run.energies);
        let b = &run.breakdown;
        r.bits("breakdown.spawn", b.spawn);
        r.bits("breakdown.dma", b.dma);
        r.bits("breakdown.compute", b.compute);
        r.bits("breakdown.mailbox", b.mailbox);
        r.bits("breakdown.ppe", b.ppe);
        r.count("kernel.pairs_tested", run.kernel_stats.pairs_tested);
        r.count("kernel.interactions", run.kernel_stats.interactions);
        r.bits("kernel.cycles", run.kernel_stats.cycles);
        r
    }

    /// Everything a [`SupervisedRun`] reports: the final physics, the
    /// recovery counts, and each accepted segment's simulated seconds and
    /// perf-counter values.
    fn supervised_run(run: &SupervisedRun) -> Self {
        let mut r = Self::new();
        r.bits("sim_seconds", run.sim_seconds);
        r.energies(&run.energies);
        r.count("state.step", run.checkpoint.step);
        r.hex(
            "state.fnv1a",
            fnv1a(&run.checkpoint.encode_domain(0, run.checkpoint.n())),
        );
        let rep = &run.report;
        r.count("attempts", rep.attempts);
        r.count("checkpoints", rep.checkpoints);
        r.count("restores", rep.restores);
        for seg in &rep.segments {
            let at = format!("segment@{}", seg.start_step);
            r.count(format!("{at}.steps"), seg.steps as u64);
            r.bits(format!("{at}.sim_seconds"), seg.sim_seconds);
            for (name, v, _) in &seg.counters {
                r.bits(format!("{at}.counter.{name}"), *v);
            }
        }
        r
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{v}\"", escape_json_string(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    fn from_json(doc: &JsonValue, key: &str) -> Self {
        let pairs = doc
            .as_object()
            .unwrap_or_else(|| panic!("golden record {key} is not an object"));
        Self(
            pairs
                .iter()
                .map(|(k, v)| {
                    let v = v
                        .as_str()
                        .unwrap_or_else(|| panic!("{key}.{k}: expected a string"));
                    (k.clone(), v.to_string())
                })
                .collect(),
        )
    }
}

fn run_device(mut dev: Box<dyn MdDevice>, sim: &SimConfig, steps: usize, threads: usize) -> Record {
    let mut perf = PerfMonitor::new();
    let run = dev
        .run(
            sim,
            RunOptions::steps(steps)
                .with_perf(&mut perf)
                .with_host_threads(threads),
        )
        .expect("run succeeds");
    assert!(run.sim_seconds > 0.0);
    Record::device_run(&run, &perf)
}

fn paper_key(kind: DeviceKind) -> String {
    format!("paper/{}@{PAPER_ATOMS}x{PAPER_STEPS}", kind.label())
}

fn paper_record(kind: DeviceKind, threads: usize) -> Record {
    let sim = SimConfig::reduced_lj(PAPER_ATOMS);
    run_device(kind.build(), &sim, PAPER_STEPS, threads)
}

fn cliff_key(n: usize) -> String {
    format!("cliff/{}@{n}x{CLIFF_STEPS}", DeviceKind::Opteron.label())
}

fn cliff_record(n: usize, threads: usize) -> Record {
    let sim = SimConfig::reduced_lj(n);
    run_device(DeviceKind::Opteron.build(), &sim, CLIFF_STEPS, threads)
}

fn straddle_key(kind: DeviceKind, n: usize, steps: usize) -> String {
    format!("straddle/{}@{n}x{steps}", kind.label())
}

fn straddle_record(kind: DeviceKind, n: usize, steps: usize, threads: usize) -> Record {
    let sim = SimConfig::reduced_lj(n);
    run_device(kind.build(), &sim, steps, threads)
}

fn sliced_key() -> String {
    let (n, steps) = SLICED;
    format!("sliced/{}@{n}x{steps}", DeviceKind::cell_best().label())
}

fn sliced_record(threads: usize) -> Record {
    let (n, steps) = SLICED;
    run_device(
        DeviceKind::cell_best().build(),
        &SimConfig::reduced_lj(n),
        steps,
        threads,
    )
}

fn scenario_sim(n: usize, spec: ScenarioSpec) -> SimConfig {
    SimConfig::reduced_lj(n).with_scenario(spec)
}

fn scenario_key(kind: DeviceKind, sim: &SimConfig) -> String {
    format!(
        "scenario/{}@{}x{SCENARIO_STEPS}/{}",
        kind.label(),
        sim.n_atoms,
        sim.scenario_token()
    )
}

fn faulted_key(kind: DeviceKind) -> String {
    format!("faulted/{}@{PAPER_ATOMS}x{PAPER_STEPS}", kind.label())
}

fn faulted_record(kind: DeviceKind, threads: usize) -> Record {
    let sim = SimConfig::reduced_lj(PAPER_ATOMS);
    let plan = sim_fault::FaultPlan::new(2024, 0.02);
    run_device(kind.build_faulted(plan), &sim, PAPER_STEPS, threads)
}

/// Double-precision-port cases: `(atoms, steps)`.
const DOUBLE: [(usize, usize); 2] = [(256, 3), (512, 4)];

fn double_key(n: usize, steps: usize) -> String {
    format!("cell-double@{n}x{steps}")
}

fn double_record(n: usize, steps: usize) -> Record {
    let run = CellBeDevice::paper_blade()
        .run_md_double(&SimConfig::reduced_lj(n), steps, CellRunConfig::best())
        .expect("double-precision port fits the local store");
    Record::cell_run(&run)
}

/// PPE-only scenario runs: `(atoms, steps)`, under every scenario flavor.
const PPE_SCENARIO: (usize, usize) = (512, 5);
/// Resident one-SPE ladder runs: `(atoms, steps)`, one per kernel variant.
const LADDER: (usize, usize) = (512, 3);

fn ppe_scenario_sim(spec: ScenarioSpec) -> SimConfig {
    scenario_sim(PPE_SCENARIO.0, spec)
}

fn probe_key(variant: SpeKernelVariant) -> String {
    format!("fig5/cell-1spe/{variant:?}@{PAPER_ATOMS}")
}

fn ladder_kind(variant: SpeKernelVariant) -> DeviceKind {
    DeviceKind::Cell {
        n_spes: 1,
        policy: SpawnPolicy::LaunchOnce,
        variant,
    }
}

fn ladder_key(variant: SpeKernelVariant) -> String {
    let (n, steps) = LADDER;
    format!("ladder/cell-1spe/{variant:?}@{n}x{steps}")
}

/// The PPE-only baseline and the Figure 5 ladder, in file order: the PPE at
/// paper scale and under every scenario flavor, one single-SPE probe per
/// kernel variant, one resident one-SPE run per kernel variant.
fn cell_ladder_keys() -> Vec<String> {
    let mut keys = vec![paper_key(DeviceKind::CellPpe)];
    for spec in scenario_flavors() {
        keys.push(scenario_key(DeviceKind::CellPpe, &ppe_scenario_sim(spec)));
    }
    keys.extend(SpeKernelVariant::ALL.map(probe_key));
    keys.extend(SpeKernelVariant::ALL.map(ladder_key));
    keys
}

fn cell_ladder_records() -> Vec<(String, Record)> {
    let mut recs = vec![paper_record(DeviceKind::CellPpe, 1)];
    for spec in scenario_flavors() {
        let sim = ppe_scenario_sim(spec);
        recs.push(run_device(
            DeviceKind::CellPpe.build(),
            &sim,
            PPE_SCENARIO.1,
            1,
        ));
    }
    let paper = SimConfig::reduced_lj(PAPER_ATOMS);
    for variant in SpeKernelVariant::ALL {
        recs.push(run_device(
            DeviceKind::CellAccel { variant }.build(),
            &paper,
            0,
            1,
        ));
    }
    let (n, steps) = LADDER;
    for variant in SpeKernelVariant::ALL {
        let sim = SimConfig::reduced_lj(n);
        recs.push(run_device(ladder_kind(variant).build(), &sim, steps, 1));
    }
    cell_ladder_keys().into_iter().zip(recs).collect()
}

/// Supervised 2048 × 10 runs under the default policy (2-step segments):
/// the Opteron and the fully multithreaded MTA-2 alone, and a 4-node
/// Opteron cluster fault-free and with node 2 killed at step 5. Every
/// segment after the first resumes from the checkpoint the device produced.
fn supervised_keys() -> [String; 4] {
    let cluster = ClusterKind::new(DeviceKind::Opteron, 4).label();
    let at = format!("@{PAPER_ATOMS}x{PAPER_STEPS}");
    let [opteron, _, _, mta] = all_devices();
    [
        format!("supervised/{}{at}", opteron.label()),
        format!("supervised/{}{at}", mta.label()),
        format!("supervised/{cluster}{at}/clean"),
        format!("supervised/{cluster}{at}/kill2@5"),
    ]
}

fn supervised_records() -> Vec<(String, Record)> {
    let sim = SimConfig::reduced_lj(PAPER_ATOMS);
    let cfg = SupervisorConfig::default();
    let [opteron, _, _, mta] = all_devices();
    let single = |kind: DeviceKind| {
        let mut dev = kind.build();
        run_supervised(dev.as_mut(), &sim, PAPER_STEPS, &cfg, None)
    };
    let cluster = |kill: bool| {
        let mut c = ClusterKind::new(DeviceKind::Opteron, 4).build();
        if kill {
            c.kill_node_at_step(2, 5);
        }
        run_cluster_supervised(&mut c, &sim, PAPER_STEPS, &cfg, None).run
    };
    let runs = [single(opteron), single(mta), cluster(false), cluster(true)];
    assert_eq!(
        runs.each_ref().map(|r| r.report.restores),
        [0, 0, 0, 1],
        "only the node kill restores"
    );
    supervised_keys()
        .into_iter()
        .zip(runs.iter().map(Record::supervised_run))
        .collect()
}

fn render_golden(records: &[(String, Record)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str("  \"records\": {\n");
    for (i, (key, rec)) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{}\": {}{comma}\n",
            escape_json_string(key),
            rec.to_json()
        ));
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

fn golden() -> JsonValue {
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .expect("read tests/golden/device_matrix.json (generate with UPDATE_GOLDEN=1)");
    let doc = parse_json(&text).expect("golden parses");
    assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
    doc
}

/// Compare field by field so a drift names the first observable that moved.
fn assert_matches_golden(doc: &JsonValue, key: &str, measured: &Record, ctx: &str) {
    let pinned = doc
        .get("records")
        .and_then(|r| r.get(key))
        .unwrap_or_else(|| panic!("golden has no record {key}"));
    let pinned = Record::from_json(pinned, key);
    for (m, p) in measured.0.iter().zip(&pinned.0) {
        assert_eq!(
            m, p,
            "{key} ({ctx}): observable drifted from the golden matrix"
        );
    }
    assert_eq!(
        measured.0.len(),
        pinned.0.len(),
        "{key} ({ctx}): field set differs from the golden matrix"
    );
}

/// The paper devices at 2048 × 10, at every host thread count.
#[test]
fn paper_scale_runs_match_the_golden_matrix() {
    let doc = golden();
    for kind in paper_devices() {
        for t in THREADS {
            let rec = paper_record(kind, t);
            assert_matches_golden(&doc, &paper_key(kind), &rec, &format!("{t} host threads"));
        }
    }
}

/// The Opteron past its L1 cliff, at every host thread count.
#[test]
fn opteron_cache_cliff_runs_match_the_golden_matrix() {
    let doc = golden();
    for n in CLIFF_ATOMS {
        for t in THREADS {
            let rec = cliff_record(n, t);
            assert_matches_golden(&doc, &cliff_key(n), &rec, &format!("{t} host threads"));
        }
    }
}

/// Culled runs whose lattices hold row-straddling j-blocks.
#[test]
fn straddling_block_runs_match_the_golden_matrix() {
    let doc = golden();
    for (n, steps) in STRADDLE {
        let sim = SimConfig::reduced_lj(n);
        assert!(sim.box_len() >= 4.0 * sim.cutoff, "culling premise");
        for kind in straddle_devices() {
            let rec = straddle_record(kind, n, steps, 2);
            assert_matches_golden(&doc, &straddle_key(kind, n, steps), &rec, "2 host threads");
        }
    }
}

/// The 8-SPE Cell with block-splitting row slices, at every host thread
/// count.
#[test]
fn block_splitting_cell_slices_match_the_golden_matrix() {
    let doc = golden();
    let sim = SimConfig::reduced_lj(SLICED.0);
    assert!(sim.box_len() >= 4.0 * sim.cutoff, "culling premise");
    for t in THREADS {
        let rec = sliced_record(t);
        assert_matches_golden(&doc, &sliced_key(), &rec, &format!("{t} host threads"));
    }
}

/// Scenario flavors exercise every branch of the shared evaluator: the
/// Morse/NVT substrate (different pair expression, thermostat pass), the
/// Coulomb substrate, and the mixed-precision policy (f64 accumulators on
/// the f32 devices), below and above the j-block culling threshold.
#[test]
fn scenario_flavors_match_the_golden_matrix() {
    let doc = golden();
    for n in SCENARIO_ATOMS {
        for spec in scenario_flavors() {
            let sim = scenario_sim(n, spec);
            assert_eq!(
                sim.box_len() >= 4.0 * sim.cutoff,
                n == 864,
                "culling premise"
            );
            for kind in all_devices() {
                let rec = run_device(kind.build(), &sim, SCENARIO_STEPS, 2);
                assert_matches_golden(&doc, &scenario_key(kind, &sim), &rec, "2 host threads");
            }
        }
    }
    let sim = partial_scenario_sim();
    let rec = run_device(MTA_PARTIAL.build(), &sim, SCENARIO_STEPS, 2);
    assert_matches_golden(
        &doc,
        &scenario_key(MTA_PARTIAL, &sim),
        &rec,
        "2 host threads",
    );
}

/// Fault schedules key off the simulated run structure (eval/lane/site):
/// the injected-fault ledger and the recovered trajectory are pinned too.
#[test]
fn fault_injected_runs_match_the_golden_matrix() {
    let doc = golden();
    for kind in all_devices() {
        let rec = faulted_record(kind, 2);
        assert_matches_golden(&doc, &faulted_key(kind), &rec, "2 host threads");
        assert!(
            rec.0
                .iter()
                .any(|(k, v)| k == "faults.injected" && v != "0"),
            "{}: plan injected nothing — the comparison is vacuous",
            kind.label()
        );
    }
}

/// The Cell's double-precision SPE port.
#[test]
fn cell_double_port_matches_the_golden_matrix() {
    let doc = golden();
    for (n, steps) in DOUBLE {
        let rec = double_record(n, steps);
        assert_matches_golden(&doc, &double_key(n, steps), &rec, "double");
    }
}

/// The Cell's PPE-only baseline and Figure 5 ladder: the PPE at paper scale
/// and under every scenario flavor, every variant's single-SPE probe, and a
/// resident one-SPE run per variant.
#[test]
fn cell_ppe_and_kernel_ladder_match_the_golden_matrix() {
    let doc = golden();
    for (key, rec) in cell_ladder_records() {
        assert_matches_golden(&doc, &key, &rec, "serial");
    }
}

/// Supervised runs resume each segment from the device's own checkpoint;
/// the recovery story and every segment's charge are pinned.
#[test]
fn supervised_runs_match_the_golden_matrix() {
    let doc = golden();
    for (key, rec) in supervised_records() {
        assert_matches_golden(&doc, &key, &rec, "supervised");
    }
}

/// Every record the matrix holds, measured serially, in file order.
fn measure_matrix() -> Vec<(String, Record)> {
    let mut records = Vec::new();
    for kind in paper_devices() {
        records.push((paper_key(kind), paper_record(kind, 1)));
    }
    for n in CLIFF_ATOMS {
        records.push((cliff_key(n), cliff_record(n, 1)));
    }
    for (n, steps) in STRADDLE {
        for kind in straddle_devices() {
            records.push((
                straddle_key(kind, n, steps),
                straddle_record(kind, n, steps, 1),
            ));
        }
    }
    records.push((sliced_key(), sliced_record(1)));
    for n in SCENARIO_ATOMS {
        for spec in scenario_flavors() {
            let sim = scenario_sim(n, spec);
            for kind in all_devices() {
                let rec = run_device(kind.build(), &sim, SCENARIO_STEPS, 1);
                records.push((scenario_key(kind, &sim), rec));
            }
        }
    }
    let sim = partial_scenario_sim();
    let rec = run_device(MTA_PARTIAL.build(), &sim, SCENARIO_STEPS, 1);
    records.push((scenario_key(MTA_PARTIAL, &sim), rec));
    for kind in all_devices() {
        records.push((faulted_key(kind), faulted_record(kind, 1)));
    }
    for (n, steps) in DOUBLE {
        records.push((double_key(n, steps), double_record(n, steps)));
    }
    records.extend(cell_ladder_records());
    records.extend(supervised_records());
    records
}

/// Under `UPDATE_GOLDEN=1` rewrite the matrix; otherwise check that the
/// file holds exactly the records the tests above look up, in order.
#[test]
fn golden_matrix_is_complete() {
    let mut keys: Vec<String> = paper_devices().into_iter().map(paper_key).collect();
    keys.extend(CLIFF_ATOMS.map(cliff_key));
    for (n, steps) in STRADDLE {
        keys.extend(straddle_devices().map(|k| straddle_key(k, n, steps)));
    }
    keys.push(sliced_key());
    for n in SCENARIO_ATOMS {
        for spec in scenario_flavors() {
            let sim = scenario_sim(n, spec);
            keys.extend(all_devices().into_iter().map(|k| scenario_key(k, &sim)));
        }
    }
    keys.push(scenario_key(MTA_PARTIAL, &partial_scenario_sim()));
    keys.extend(all_devices().into_iter().map(faulted_key));
    keys.extend(DOUBLE.map(|(n, steps)| double_key(n, steps)));
    keys.extend(cell_ladder_keys());
    keys.extend(supervised_keys());

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, render_golden(&measure_matrix())).expect("write golden");
    }

    let doc = golden();
    let pinned: Vec<&str> = doc
        .get("records")
        .and_then(JsonValue::as_object)
        .expect("records object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(pinned, keys, "golden matrix keys");
}
