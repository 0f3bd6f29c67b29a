//! The run ledger is free: ledger-on is bitwise-identical to ledger-off.
//!
//! This pins the tentpole invariant of the observability layer (DESIGN.md
//! §15): attaching a [`RunLedger`] to any run — every device kind at the
//! paper's 2048 × 10 workload, and a 4-node cluster — changes *nothing*
//! about the trajectory, the energies, or the simulated clock. On top of
//! that, two ledger-enabled runs of the same configuration must produce
//! identical event sequences modulo host-time fields (the `canonical_lines`
//! view), and every produced ledger must round-trip through its JSONL
//! serialization.

use harness::{ClusterKind, DeviceKind, GpuModel};
use md_core::checkpoint::SystemCheckpoint;
use md_core::device::{MdDevice, RunOptions};
use md_core::params::SimConfig;
use mta::ThreadingMode;
use sim_obs::{EventKind, RunLedger};

const PAPER_ATOMS: usize = 2048;
const PAPER_STEPS: usize = 10;

fn paper_sim() -> SimConfig {
    SimConfig::reduced_lj(PAPER_ATOMS)
}

/// Exact bit pattern of a trajectory (positions then velocities).
fn bits(c: &SystemCheckpoint) -> Vec<u64> {
    c.positions
        .iter()
        .chain(c.velocities.iter())
        .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
        .collect()
}

/// Run `kind` bare and with a ledger attached; the ledger must observe a
/// busy run without perturbing a single bit. Then run with a second ledger
/// and check the canonical (host-events-excluded) serialization agrees
/// exactly — the "identical modulo host-time" determinism contract.
fn assert_ledger_free(kind: DeviceKind, sim: &SimConfig, steps: usize) {
    let label = kind.label();
    let plain = kind
        .build()
        .run(sim, RunOptions::steps(steps))
        .expect("plain run");
    let mut led = RunLedger::new(&label, "ledger determinism probe");
    let observed = kind
        .build()
        .run(sim, RunOptions::steps(steps).with_ledger(&mut led))
        .expect("ledger run");
    assert_eq!(
        bits(&plain.checkpoint),
        bits(&observed.checkpoint),
        "{label}"
    );
    assert_eq!(
        plain.sim_seconds.to_bits(),
        observed.sim_seconds.to_bits(),
        "{label}"
    );
    assert_eq!(
        plain.energies.total.to_bits(),
        observed.energies.total.to_bits(),
        "{label}"
    );
    assert!(!led.is_empty(), "{label}: ledger run must record events");

    let mut led2 = RunLedger::new(&label, "ledger determinism probe");
    kind.build()
        .run(sim, RunOptions::steps(steps).with_ledger(&mut led2))
        .expect("second ledger run");
    assert_eq!(
        led.canonical_lines(),
        led2.canonical_lines(),
        "{label}: canonical event sequence must be deterministic"
    );
    let back = RunLedger::parse_jsonl(&led.to_jsonl()).expect("ledger round-trips");
    assert_eq!(back.events().len(), led.events().len(), "{label}");
}

#[test]
fn cell_ledger_is_free_at_paper_scale() {
    assert_ledger_free(DeviceKind::cell_best(), &paper_sim(), PAPER_STEPS);
}

#[test]
fn cell_ppe_ledger_is_free_at_paper_scale() {
    assert_ledger_free(DeviceKind::CellPpe, &paper_sim(), PAPER_STEPS);
}

#[test]
fn cell_accel_probe_ledger_is_free() {
    // The accelerator probe measures launch overhead and only supports the
    // zero-step workload.
    let kind = DeviceKind::CellAccel {
        variant: cell_be::SpeKernelVariant::SimdAcceleration,
    };
    assert_ledger_free(kind, &paper_sim(), 0);
}

#[test]
fn gpu_ledger_is_free_at_paper_scale() {
    let kind = DeviceKind::Gpu {
        model: GpuModel::GeForce7900Gtx,
    };
    assert_ledger_free(kind, &paper_sim(), PAPER_STEPS);
}

#[test]
fn mta_ledger_is_free_at_paper_scale() {
    for mode in [
        ThreadingMode::FullyMultithreaded,
        ThreadingMode::PartiallyMultithreaded,
    ] {
        assert_ledger_free(DeviceKind::Mta { mode }, &paper_sim(), PAPER_STEPS);
    }
}

#[test]
fn opteron_ledger_is_free_at_paper_scale() {
    assert_ledger_free(DeviceKind::Opteron, &paper_sim(), PAPER_STEPS);
}

#[test]
fn four_node_cluster_ledger_is_free_at_paper_scale() {
    let sim = paper_sim();
    let kind = ClusterKind::new(DeviceKind::Opteron, 4);
    let plain = kind
        .build()
        .run(&sim, RunOptions::steps(PAPER_STEPS))
        .expect("plain cluster run");
    let mut led = RunLedger::new("cluster-4x", "ledger determinism probe");
    let observed = kind
        .build()
        .run(&sim, RunOptions::steps(PAPER_STEPS).with_ledger(&mut led))
        .expect("ledger cluster run");
    assert_eq!(bits(&plain.checkpoint), bits(&observed.checkpoint));
    assert_eq!(plain.sim_seconds.to_bits(), observed.sim_seconds.to_bits());
    assert_eq!(
        plain.energies.total.to_bits(),
        observed.energies.total.to_bits()
    );

    // The cluster lays its timeline buckets as phases and reports per-node
    // counters on `<label>.node<rank>` sources.
    let phases: Vec<&str> = led
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Phase)
        .map(|e| e.name.as_str())
        .collect();
    for bucket in ["compute", "halo_exchange", "all_reduce", "recovery"] {
        assert!(
            phases.contains(&bucket),
            "missing phase {bucket}: {phases:?}"
        );
    }
    for rank in 0..4 {
        let node_src = format!("cluster-4x-opteron.node{rank}");
        assert!(
            led.events()
                .iter()
                .any(|e| e.kind == EventKind::Counter && e.source == node_src),
            "no counters for {node_src}"
        );
    }

    let mut led2 = RunLedger::new("cluster-4x", "ledger determinism probe");
    kind.build()
        .run(&sim, RunOptions::steps(PAPER_STEPS).with_ledger(&mut led2))
        .expect("second ledger cluster run");
    assert_eq!(led.canonical_lines(), led2.canonical_lines());
}

/// The harness's host-timed producer fills in the two gate metrics and the
/// result still parses, validates, and carries a non-empty canonical view.
#[test]
fn device_ledger_producer_carries_host_gate_metrics() {
    let sim = SimConfig::reduced_lj(256);
    let (metrics, led) =
        harness::device_ledger(DeviceKind::Opteron, &sim, 3).expect("ledger producer");
    assert_eq!(metrics.device, "opteron");
    assert!(led.host_metric("opteron", "host_wall_seconds").is_some());
    assert!(led
        .host_metric("opteron", "host_atom_steps_per_s")
        .is_some());
    assert!(!led.canonical_lines().is_empty());
    RunLedger::validate(&led.to_jsonl()).expect("serialized ledger validates");
}

/// A warm sweep's post-hoc ledger flips cache events from miss to hit while
/// the simulated timeline stays byte-identical (cached metrics are bitwise
/// the metrics the cold run produced).
#[test]
fn sweep_ledger_records_cache_hits_and_misses() {
    use sim_sweep::{run_sweep, EngineConfig, SweepSpec};
    let spec = SweepSpec {
        name: "obs-ledger-probe",
        description: "two tiny points for the cache-event test",
        points: vec![
            sim_sweep::SweepPoint {
                figure: "probe",
                device: DeviceKind::Opteron,
                n_atoms: 108,
                steps: 2,
                scenario: Default::default(),
            },
            sim_sweep::SweepPoint {
                figure: "probe",
                device: DeviceKind::Opteron,
                n_atoms: 256,
                steps: 2,
                scenario: Default::default(),
            },
        ],
    };
    let dir = std::env::temp_dir().join(format!("obs-sweep-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig {
        cache_dir: dir.clone(),
        jobs: 1,
        ..EngineConfig::default()
    };
    let cold = run_sweep(&spec, &cfg).expect("cold sweep");
    let warm = run_sweep(&spec, &cfg).expect("warm sweep");
    let cold_led = cold.to_ledger();
    let warm_led = warm.to_ledger();

    let details = |l: &RunLedger| -> Vec<String> {
        l.events()
            .iter()
            .filter(|e| e.kind == EventKind::Cache)
            .map(|e| e.detail.clone().unwrap_or_default())
            .collect()
    };
    assert_eq!(details(&cold_led), vec!["miss", "miss"]);
    assert_eq!(details(&warm_led), vec!["hit", "hit"]);

    // Everything except the hit/miss provenance is byte-identical.
    let sans_cache = |l: &RunLedger| -> Vec<String> {
        l.canonical_lines()
            .into_iter()
            .filter(|line| !line.contains("\"kind\":\"cache\""))
            .collect()
    };
    assert_eq!(sans_cache(&cold_led), sans_cache(&warm_led));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A ledger whose every value is fixed, host events included: every optional
/// field, strings that need escaping (quote, backslash, a control byte) or
/// carry multi-byte scalars, `-0.0` and extreme magnitudes, and events that
/// tie on `t_s` (and on the whole sort key) so the serialization order is
/// pinned too.
fn hand_built_ledger() -> RunLedger {
    use sim_obs::LedgerEvent;
    let event = |t_s: f64, kind: EventKind, source: &str, name: &str| LedgerEvent {
        t_s,
        kind,
        source: source.to_string(),
        name: name.to_string(),
        step: None,
        dur_s: None,
        value: None,
        unit: None,
        detail: None,
    };
    let mut l = RunLedger::new("quote \" back \\ ctrl \u{1}", "π atoms x 🧪 steps");
    l.push(LedgerEvent {
        step: Some(7),
        detail: Some("node 2 \"killed\" at \\step\\ 5\n\ttab \u{1} π 🧪".to_string()),
        ..event(1.0, EventKind::Node, "cluster", "fault")
    });
    l.push(LedgerEvent {
        value: Some(-0.0),
        unit: Some("µs/🧪".to_string()),
        ..event(1.0, EventKind::Counter, "dev", "zero")
    });
    l.push(LedgerEvent {
        value: Some(1e300),
        unit: Some("bytes".to_string()),
        ..event(1.0, EventKind::Counter, "dev", "huge")
    });
    l.push(LedgerEvent {
        value: Some(1e-300),
        unit: Some("s".to_string()),
        ..event(1.0, EventKind::Counter, "dev", "tiny")
    });
    l.push(LedgerEvent {
        dur_s: Some(1e-300),
        ..event(-0.0, EventKind::Phase, "dev", "first")
    });
    l.push(LedgerEvent {
        step: Some(0),
        dur_s: Some(0.25),
        value: Some(3.5),
        unit: Some("pairs".to_string()),
        detail: Some("all optional fields".to_string()),
        ..event(0.0, EventKind::Phase, "dev", "full")
    });
    // Equal sort keys: the stable sort keeps these in push order.
    for detail in ["second pushed", "first pushed"] {
        l.push(LedgerEvent {
            detail: Some(detail.to_string()),
            ..event(1e300, EventKind::Instant, "dev", "tie")
        });
    }
    l.set_sim_offset(0.5);
    l.device_phases("dev", &[("compute", 0.125), ("dma_wait", 0.375)]);
    l.counter("dev", "spe.dma.bytes", 0.5, 4096.0, "bytes");
    l.instant(EventKind::Recovery, "supervisor", "checkpoint", 0.5);
    l.instant(EventKind::Cache, "sweep", "key \"π\"", 0.5);
    l.host_value("harness", "host_wall_seconds", 0.125, "s");
    l.host_value("dev", "host_atom_steps_per_s", 1e300, "atom-steps/s");
    l
}

/// Ledger bytes are a contract: the canonical view of real device runs (the
/// four paper devices under LJ, the Cell under Morse/NVT and Coulomb) and the
/// whole JSONL of [`hand_built_ledger`] must match the committed golden file
/// byte for byte. Regenerate with `UPDATE_GOLDEN=1 cargo test --test
/// obs_ledger` only for an intended format change.
#[test]
fn ledger_bytes_match_golden_file() {
    use md_core::scenario::ScenarioSpec;
    let lj = ScenarioSpec::default();
    let runs = [
        (DeviceKind::cell_best(), lj),
        (
            DeviceKind::Gpu {
                model: GpuModel::GeForce7900Gtx,
            },
            lj,
        ),
        (
            DeviceKind::Mta {
                mode: ThreadingMode::FullyMultithreaded,
            },
            lj,
        ),
        (DeviceKind::Opteron, lj),
        (DeviceKind::cell_best(), ScenarioSpec::morse_nvt()),
        (DeviceKind::cell_best(), ScenarioSpec::coulomb_cutoff()),
    ];
    let mut out = String::new();
    for (kind, scenario) in runs {
        let sim = SimConfig::reduced_lj(108).with_scenario(scenario);
        let (_, led) = harness::device_ledger(kind, &sim, 10).expect("device ledger");
        out.push_str(&format!("# canonical {} | {}\n", led.label, led.workload));
        for line in led.canonical_lines() {
            out.push_str(&line);
            out.push('\n');
        }
    }
    let hand = hand_built_ledger().to_jsonl();
    out.push_str("# to_jsonl hand-built\n");
    out.push_str(&hand);

    let back = RunLedger::parse_jsonl(&hand).expect("hand-built ledger parses");
    assert_eq!(back.to_jsonl(), hand, "serialization is a fixed point");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/run_ledger.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &out).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("read tests/golden/run_ledger.txt");
    assert!(
        out == golden,
        "ledger bytes drifted from tests/golden/run_ledger.txt — if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
