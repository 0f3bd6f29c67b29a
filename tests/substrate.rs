//! Bitwise pin of the default LJ/NVE scenario against the pre-refactor seed.
//!
//! The substrate refactor (DESIGN.md §16) reroutes every device's per-lane
//! physics through shared `Potential`/`Ensemble`/`PrecisionPolicy` evaluation.
//! The refactor's contract is that the paper-faithful scenario — LJ 6-12,
//! NVE, device-native precision — is *bitwise untouched*: positions,
//! velocities, energies, and simulated seconds at 2048 atoms × 10 steps must
//! equal the output captured from the seed code on all four devices.
//!
//! `tests/golden/substrate_seed.json` holds that capture as hex-encoded f64
//! bit patterns (energies, sim-seconds) plus one FNV-1a hash over the final
//! checkpoint's coordinate payload (positions ‖ velocities ‖ accelerations,
//! little-endian f64). Regenerate — only when a drift is *intended* — with
//! `UPDATE_GOLDEN=1 cargo test --test substrate`.

use md_core::checkpoint::fnv1a;
use md_core::device::RunOptions;
use md_core::params::SimConfig;
use sim_perf::{parse_json, JsonValue};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/substrate_seed.json"
);
const ATOMS: usize = 2048;
const STEPS: usize = 10;

/// The four architectures the paper ports the kernel to, in report order.
fn roster() -> Vec<harness::DeviceKind> {
    vec![
        harness::DeviceKind::cell_best(),
        harness::DeviceKind::Gpu {
            model: harness::GpuModel::GeForce7900Gtx,
        },
        harness::DeviceKind::Mta {
            mode: mta::ThreadingMode::FullyMultithreaded,
        },
        harness::DeviceKind::Opteron,
    ]
}

/// One device's pinned outputs, everything as exact bit patterns.
#[derive(Debug, PartialEq, Eq)]
struct SeedRecord {
    sim_seconds: u64,
    kinetic: u64,
    potential: u64,
    total: u64,
    temperature: u64,
    state_fnv1a: u64,
}

impl SeedRecord {
    fn measure(kind: harness::DeviceKind) -> Self {
        let sim = SimConfig::reduced_lj(ATOMS);
        let run = kind
            .build()
            .run(&sim, RunOptions::steps(STEPS))
            .unwrap_or_else(|e| panic!("{} failed: {e}", kind.label()));
        assert_eq!(run.checkpoint.step, STEPS as u64);
        assert_eq!(run.checkpoint.n(), ATOMS);
        let payload = run.checkpoint.encode_domain(0, run.checkpoint.n());
        Self {
            sim_seconds: run.sim_seconds.to_bits(),
            kinetic: run.energies.kinetic.to_bits(),
            potential: run.energies.potential.to_bits(),
            total: run.energies.total.to_bits(),
            temperature: run.energies.temperature.to_bits(),
            state_fnv1a: fnv1a(&payload),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"sim_seconds\": \"{:#018x}\", \"kinetic\": \"{:#018x}\", \
             \"potential\": \"{:#018x}\", \"total\": \"{:#018x}\", \
             \"temperature\": \"{:#018x}\", \"state_fnv1a\": \"{:#018x}\"}}",
            self.sim_seconds,
            self.kinetic,
            self.potential,
            self.total,
            self.temperature,
            self.state_fnv1a
        )
    }

    fn from_json(doc: &JsonValue, device: &str) -> Self {
        let field = |name: &str| -> u64 {
            let hex = doc
                .get(name)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("golden record for {device} missing field {name}"));
            let digits = hex
                .strip_prefix("0x")
                .unwrap_or_else(|| panic!("{device}.{name}: expected 0x-prefixed hex, got {hex}"));
            u64::from_str_radix(digits, 16)
                .unwrap_or_else(|e| panic!("{device}.{name}: bad hex {hex}: {e}"))
        };
        Self {
            sim_seconds: field("sim_seconds"),
            kinetic: field("kinetic"),
            potential: field("potential"),
            total: field("total"),
            temperature: field("temperature"),
            state_fnv1a: field("state_fnv1a"),
        }
    }
}

fn render_golden(records: &[(String, SeedRecord)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"substrate-seed-v1\",\n");
    out.push_str(&format!("  \"n_atoms\": {ATOMS},\n"));
    out.push_str(&format!("  \"steps\": {STEPS},\n"));
    out.push_str("  \"devices\": {\n");
    for (i, (label, rec)) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!("    \"{label}\": {}{comma}\n", rec.to_json()));
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

// ---------------------------------------------------------------------------
// Cache-token mutation coverage: changing ANY scenario field must change the
// token, or a warm sweep cache would serve one physics' results for another.
// ---------------------------------------------------------------------------

#[test]
fn every_scenario_field_mutation_changes_the_cache_token() {
    use md_core::scenario::{Ensemble, Potential, PrecisionPolicy, ScenarioSpec};
    let base = ScenarioSpec::default();
    // One mutant per reachable field of the scenario structs, plus the
    // variant switches themselves.
    let mutants: Vec<(&str, ScenarioSpec)> = vec![
        (
            "potential.epsilon",
            base.with_potential(Potential::LennardJones {
                epsilon: 1.5,
                sigma: 1.0,
            }),
        ),
        (
            "potential.sigma",
            base.with_potential(Potential::LennardJones {
                epsilon: 1.0,
                sigma: 1.1,
            }),
        ),
        (
            "potential -> morse",
            base.with_potential(Potential::Morse {
                depth: 1.0,
                stiffness: 2.0,
                r0: 1.2,
            }),
        ),
        (
            "morse.depth",
            base.with_potential(Potential::Morse {
                depth: 1.5,
                stiffness: 2.0,
                r0: 1.2,
            }),
        ),
        (
            "morse.stiffness",
            base.with_potential(Potential::Morse {
                depth: 1.0,
                stiffness: 2.5,
                r0: 1.2,
            }),
        ),
        (
            "morse.r0",
            base.with_potential(Potential::Morse {
                depth: 1.0,
                stiffness: 2.0,
                r0: 1.3,
            }),
        ),
        (
            "potential -> coulomb",
            base.with_potential(Potential::Coulomb { q2: 1.0 }),
        ),
        (
            "coulomb.q2",
            base.with_potential(Potential::Coulomb { q2: 2.0 }),
        ),
        (
            "ensemble -> nvt",
            base.with_ensemble(Ensemble::Nvt {
                target: 0.85,
                kappa: 0.1,
            }),
        ),
        (
            "nvt.target",
            base.with_ensemble(Ensemble::Nvt {
                target: 0.9,
                kappa: 0.1,
            }),
        ),
        (
            "nvt.kappa",
            base.with_ensemble(Ensemble::Nvt {
                target: 0.85,
                kappa: 0.2,
            }),
        ),
        (
            "precision -> f32",
            base.with_precision(PrecisionPolicy::ForceF32),
        ),
        (
            "precision -> f64",
            base.with_precision(PrecisionPolicy::ForceF64),
        ),
        (
            "precision -> mixed",
            base.with_precision(PrecisionPolicy::MixedF64Accumulate),
        ),
    ];
    let base_token = base.cache_token();
    for (what, mutant) in &mutants {
        assert_ne!(
            mutant.cache_token(),
            base_token,
            "mutating {what} must move the cache token"
        );
    }
    // And all mutants are pairwise distinct: no two field changes collide.
    for (i, (wa, a)) in mutants.iter().enumerate() {
        for (wb, b) in &mutants[i + 1..] {
            assert_ne!(
                a.cache_token(),
                b.cache_token(),
                "{wa} and {wb} must not share a token"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Extension scenarios run end-to-end on every device, with scenario-aware
// perf accounting and ledger identity.
// ---------------------------------------------------------------------------

#[test]
fn extension_scenarios_run_end_to_end_on_all_devices() {
    use md_core::scenario::ScenarioSpec;
    let n = 108;
    let steps = 4;
    for kind in roster() {
        let label = kind.label();
        let lj = kind
            .build()
            .run(&SimConfig::reduced_lj(n), RunOptions::steps(steps))
            .unwrap_or_else(|e| panic!("{label} lj: {e}"));
        for scenario in [ScenarioSpec::morse_nvt(), ScenarioSpec::coulomb_cutoff()] {
            let sim = SimConfig::reduced_lj(n).with_scenario(scenario);
            let token = sim.scenario_token();
            let run = kind
                .build()
                .run(&sim, RunOptions::steps(steps))
                .unwrap_or_else(|e| panic!("{label} {token}: {e}"));
            assert!(
                run.energies.total.is_finite() && run.energies.kinetic.is_finite(),
                "{label} {token}: energies must be finite"
            );
            assert_eq!(run.checkpoint.step, steps as u64, "{label} {token}");
            // Both extension scenarios charge strictly more simulated work
            // than the LJ baseline at the same size: extra per-pair ops
            // (Morse transcendentals, Coulomb sqrt+divide) and, for NVT,
            // the thermostat's per-atom pass.
            assert!(
                run.sim_seconds > lj.sim_seconds,
                "{label} {token}: extra scenario work must cost simulated time \
                 ({} vs lj {})",
                run.sim_seconds,
                lj.sim_seconds
            );
        }
    }
}

#[test]
fn nvt_thermostat_regulates_temperature_on_every_device() {
    use md_core::scenario::ScenarioSpec;
    // Long enough for the rescale to bite; the NVE default drifts with the
    // same workload, NVT pins near the target.
    let target = 0.85;
    let spec = ScenarioSpec::morse_nvt();
    let sim = SimConfig::reduced_lj(108).with_scenario(spec);
    for kind in roster() {
        let label = kind.label();
        let run = kind
            .build()
            .run(&sim, RunOptions::steps(40))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let t = run.energies.temperature;
        assert!(
            (t - target).abs() < 0.15,
            "{label}: NVT temperature {t} should sit near target {target}"
        );
    }
}

#[test]
fn ledger_records_scenario_identity() {
    use md_core::scenario::ScenarioSpec;
    let kind = harness::DeviceKind::Opteron;
    // Default scenario: workload text is byte-identical to pre-substrate
    // ledgers (no token suffix).
    let (_, led) = harness::device_ledger(kind, &SimConfig::reduced_lj(108), 2).expect("lj ledger");
    assert_eq!(led.workload, "108 atoms x 2 steps");
    // Extension scenario: the token is part of the workload identity.
    let sim = SimConfig::reduced_lj(108).with_scenario(ScenarioSpec::coulomb_cutoff());
    let (_, led) = harness::device_ledger(kind, &sim, 2).expect("coulomb ledger");
    assert_eq!(
        led.workload,
        format!("108 atoms x 2 steps @ {}", sim.scenario_token())
    );
}

// ---------------------------------------------------------------------------
// Sweep cache isolation: a warm cache for scenario A never serves scenario B.
// ---------------------------------------------------------------------------

#[test]
fn warm_sweep_cache_for_one_scenario_never_serves_another() {
    use md_core::scenario::ScenarioSpec;
    use sim_sweep::{run_sweep, EngineConfig, SweepPoint, SweepSpec};
    let spec = SweepSpec {
        name: "scenario-isolation-probe",
        description: "one tiny point, re-run under three scenarios",
        points: vec![SweepPoint {
            figure: "probe",
            device: harness::DeviceKind::Opteron,
            n_atoms: 108,
            steps: 2,
            scenario: ScenarioSpec::default(),
        }],
    };
    let dir = std::env::temp_dir().join(format!("substrate-scn-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig {
        cache_dir: dir.clone(),
        jobs: 1,
        ..EngineConfig::default()
    };
    // Cold LJ run populates the cache; a second LJ run is fully warm.
    let cold = run_sweep(&spec, &cfg).expect("cold lj");
    assert_eq!(cold.executed(), 1);
    let warm = run_sweep(&spec, &cfg).expect("warm lj");
    assert_eq!(warm.hits(), 1, "same scenario must hit");
    // Same device/size/steps under different scenarios: the warm LJ cache
    // must NOT be consulted — every new scenario executes.
    for scenario in [ScenarioSpec::morse_nvt(), ScenarioSpec::coulomb_cutoff()] {
        let moved = spec.clone().with_scenario(scenario);
        let report = run_sweep(&moved, &cfg).expect("scenario run");
        assert_eq!(
            report.executed(),
            1,
            "{}: a warm cache for another scenario must miss",
            scenario.cache_token()
        );
        assert_ne!(
            report.results[0].metrics.sim_seconds,
            warm.results[0].metrics.sim_seconds,
            "{}: different physics must produce different results",
            scenario.cache_token()
        );
        // And that scenario's own cache is now warm.
        let rewarm = run_sweep(&moved, &cfg).expect("rewarm");
        assert_eq!(rewarm.hits(), 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn extension_scenarios_survive_fault_injection() {
    use md_core::scenario::ScenarioSpec;
    let sim = SimConfig::reduced_lj(108).with_scenario(ScenarioSpec::morse_nvt());
    for kind in roster() {
        let label = kind.label();
        let clean = kind
            .build()
            .run(&sim, RunOptions::steps(4))
            .unwrap_or_else(|e| panic!("{label} clean: {e}"));
        let faulted = kind
            .build_faulted(sim_fault::FaultPlan::new(41, 0.02))
            .run(&sim, RunOptions::steps(4))
            .unwrap_or_else(|e| panic!("{label} faulted: {e}"));
        // Fault handling retries to the same physics; injected faults only
        // add recovery time.
        assert_eq!(
            faulted.energies.total.to_bits(),
            clean.energies.total.to_bits(),
            "{label}: recovery must reproduce the clean trajectory"
        );
        assert!(
            faulted.sim_seconds >= clean.sim_seconds,
            "{label}: retries cannot make the run faster"
        );
    }
}

#[test]
fn default_scenario_is_bitwise_identical_to_seed() {
    let records: Vec<(String, SeedRecord)> = roster()
        .into_iter()
        .map(|kind| (kind.label(), SeedRecord::measure(kind)))
        .collect();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, render_golden(&records)).expect("write golden");
    }

    let text = std::fs::read_to_string(GOLDEN_PATH)
        .expect("read tests/golden/substrate_seed.json (generate with UPDATE_GOLDEN=1)");
    let doc = parse_json(&text).expect("golden parses");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("substrate-seed-v1")
    );
    let devices = doc.get("devices").expect("devices object");
    for (label, measured) in &records {
        let pinned = devices
            .get(label)
            .unwrap_or_else(|| panic!("golden has no record for {label}"));
        let pinned = SeedRecord::from_json(pinned, label);
        assert_eq!(
            *measured, pinned,
            "{label}: default LJ/NVE output drifted from the pre-refactor seed \
             (bitwise gate; regenerate with UPDATE_GOLDEN=1 only if intended)"
        );
    }
}
