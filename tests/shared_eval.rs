//! Physics-once execution gate (DESIGN.md §17) at paper scale
//! (2048 atoms, 10 steps).
//!
//! The contract under test: every device's eval memo — the shared wide
//! evaluator that computes each evaluation's physics once and replays the
//! cost interpretation — is purely a host wall-clock knob. Positions,
//! velocities, energies, simulated seconds, time attribution, perf
//! counters, and fault ledgers are bit-identical between a memoized run
//! (the default, [`DeviceKind::build`]) and the interpretive per-pair
//! baseline ([`DeviceKind::build_baseline`]), at every host thread count,
//! under fault injection, and across scenario flavors (Morse/NVT, mixed
//! precision). f32 devices widen losslessly to f64 at checkpoint capture,
//! so [`SystemCheckpoint`](md_core::checkpoint::SystemCheckpoint) equality
//! is a bitwise trajectory comparison.

use harness::{DeviceKind, GpuModel};
use md_core::device::{DeviceRun, MdDevice, PerfMonitor, RunOptions};
use md_core::params::SimConfig;
use md_core::scenario::{PrecisionPolicy, ScenarioSpec};
use mta::ThreadingMode;

const PAPER_ATOMS: usize = 2048;
const PAPER_STEPS: usize = 10;
/// Thread counts to pit against the serial memo-off baseline. 1 exercises
/// the `from_threads` collapse to the serial path; 8 oversubscribes most
/// hosts, which must change nothing.
const THREADS: [usize; 3] = [1, 2, 8];

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

fn run_with(
    mut dev: Box<dyn MdDevice>,
    sim: &SimConfig,
    steps: usize,
    threads: usize,
) -> (DeviceRun, Vec<(String, f64)>) {
    let mut perf = PerfMonitor::new();
    let run = dev
        .run(
            sim,
            RunOptions::steps(steps)
                .with_perf(&mut perf)
                .with_host_threads(threads),
        )
        .expect("run succeeds");
    let counters = perf
        .counters()
        .iter()
        .map(|c| (c.name.clone(), c.value()))
        .collect();
    (run, counters)
}

/// Every observable of the run must be *equal*, not merely close.
fn assert_bitwise_equal(baseline: &DeviceRun, memo: &DeviceRun, ctx: &str) {
    assert_eq!(
        baseline.sim_seconds.to_bits(),
        memo.sim_seconds.to_bits(),
        "{ctx}: simulated seconds drifted"
    );
    assert_eq!(baseline.energies, memo.energies, "{ctx}: energies drifted");
    assert_eq!(
        baseline.checkpoint, memo.checkpoint,
        "{ctx}: trajectory drifted"
    );
    assert_eq!(
        baseline.attribution, memo.attribution,
        "{ctx}: time attribution drifted"
    );
    assert_eq!(
        baseline.derived, memo.derived,
        "{ctx}: derived metrics drifted"
    );
    assert_eq!(
        baseline.ops.to_bits(),
        memo.ops.to_bits(),
        "{ctx}: ops drifted"
    );
    assert_eq!(
        baseline.bytes_moved.to_bits(),
        memo.bytes_moved.to_bits(),
        "{ctx}: bytes_moved drifted"
    );
    assert_eq!(baseline.faults, memo.faults, "{ctx}: fault ledger drifted");
}

#[test]
fn memoized_runs_match_interpretive_baseline_bitwise() {
    let sim = SimConfig::reduced_lj(PAPER_ATOMS);
    for kind in all_devices() {
        let (base, base_counters) = run_with(kind.build_baseline(), &sim, PAPER_STEPS, 1);
        assert!(base.sim_seconds > 0.0, "{}", kind.label());
        for t in THREADS {
            let ctx = format!("{} memo-on at {t} host threads", kind.label());
            let (memo, memo_counters) = run_with(kind.build(), &sim, PAPER_STEPS, t);
            assert_bitwise_equal(&base, &memo, &ctx);
            assert_eq!(base_counters, memo_counters, "{ctx}: counters drifted");
        }
    }
}

/// Scenario flavors exercise every branch of the shared evaluator: the
/// Morse/NVT substrate (different pair expression, thermostat pass), the
/// Coulomb substrate, and the mixed-precision policy (f64 accumulators on
/// the f32 devices). At 512 atoms the box is under four cutoffs and the rows
/// scan every j; at 864 atoms it is over, and the memoized rows skip the
/// j-blocks that cannot reach the cutoff.
#[test]
fn scenario_flavors_match_bitwise() {
    for (n, spec) in [512, 864].into_iter().flat_map(|n| {
        [
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::coulomb_cutoff(),
            ScenarioSpec::default().with_precision(PrecisionPolicy::MixedF64Accumulate),
        ]
        .map(|spec| (n, spec))
    }) {
        let sim = SimConfig::reduced_lj(n).with_scenario(spec);
        assert_eq!(
            sim.box_len() >= 4.0 * sim.cutoff,
            n == 864,
            "culling premise"
        );
        for kind in all_devices() {
            let ctx = format!("{} @ {n} atoms, {}", kind.label(), sim.scenario_token());
            let (base, base_counters) = run_with(kind.build_baseline(), &sim, 5, 1);
            let (memo, memo_counters) = run_with(kind.build(), &sim, 5, 2);
            assert_bitwise_equal(&base, &memo, &ctx);
            assert_eq!(base_counters, memo_counters, "{ctx}: counters drifted");
        }
    }
}

/// Fault schedules key off the simulated run structure (eval/lane/site),
/// which the memo never changes: the injected-fault ledger and the
/// recovered trajectory must be identical with the memo on or off.
#[cfg(feature = "fault-inject")]
#[test]
fn fault_injected_memoized_runs_match_baseline() {
    use sim_fault::FaultPlan;
    let sim = SimConfig::reduced_lj(PAPER_ATOMS);
    for kind in all_devices() {
        let plan = FaultPlan::new(2024, 0.02);
        let ctx = format!("faulted {}", kind.label());
        let (base, base_counters) =
            run_with(kind.build_baseline_faulted(plan), &sim, PAPER_STEPS, 1);
        let (memo, memo_counters) = run_with(kind.build_faulted(plan), &sim, PAPER_STEPS, 2);
        assert_bitwise_equal(&base, &memo, &ctx);
        assert_eq!(base_counters, memo_counters, "{ctx}: counters drifted");
        assert!(
            memo.faults.injected > 0,
            "{}: plan injected nothing — the comparison is vacuous",
            kind.label()
        );
    }
}
