//! Host-parallel bitwise-identity gate (DESIGN.md §12) at paper scale
//! (2048 atoms, 10 steps).
//!
//! The contract under test: [`HostParallelism`] is purely a wall-clock knob.
//! Every device executes its simulated lanes — SPE slices on Cell, fragment
//! batches on the GPU, stream chunks on the MTA, gather rows on the
//! Opteron — as an order-preserving indexed map whose results fold serially,
//! so positions, velocities, accelerations, energies, simulated seconds,
//! perf counters, and fault ledgers are bit-identical to the serial run at
//! any thread count. f32 devices widen losslessly to f64 at checkpoint
//! capture, so [`SystemCheckpoint`](md_core::checkpoint::SystemCheckpoint)
//! equality is a bitwise trajectory comparison.

use harness::{DeviceKind, GpuModel};
use md_core::device::{DeviceRun, MdDevice, PerfMonitor, RunOptions};
use md_core::params::SimConfig;
use mta::ThreadingMode;

const PAPER_ATOMS: usize = 2048;
const PAPER_STEPS: usize = 10;
/// Thread counts to pit against serial. 1 exercises the `from_threads`
/// collapse to the serial path; 8 oversubscribes most hosts, which must
/// change nothing.
const THREADS: [usize; 4] = [1, 2, 4, 8];

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
    threads: usize,
) -> (DeviceRun, Vec<(String, f64)>) {
    let mut perf = PerfMonitor::new();
    let run = dev
        .run(
            sim,
            RunOptions::steps(PAPER_STEPS)
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
fn assert_bitwise_equal(serial: &DeviceRun, par: &DeviceRun, ctx: &str) {
    assert_eq!(
        serial.sim_seconds.to_bits(),
        par.sim_seconds.to_bits(),
        "{ctx}: simulated seconds drifted"
    );
    assert_eq!(serial.energies, par.energies, "{ctx}: energies drifted");
    assert_eq!(
        serial.checkpoint, par.checkpoint,
        "{ctx}: trajectory drifted"
    );
    assert_eq!(
        serial.attribution, par.attribution,
        "{ctx}: time attribution drifted"
    );
    assert_eq!(
        serial.derived, par.derived,
        "{ctx}: derived metrics drifted"
    );
    assert_eq!(
        serial.ops.to_bits(),
        par.ops.to_bits(),
        "{ctx}: ops drifted"
    );
    assert_eq!(
        serial.bytes_moved.to_bits(),
        par.bytes_moved.to_bits(),
        "{ctx}: bytes_moved drifted"
    );
    assert_eq!(serial.faults, par.faults, "{ctx}: fault ledger drifted");
}

#[test]
fn every_device_is_bitwise_identical_at_any_thread_count() {
    let sim = SimConfig::reduced_lj(PAPER_ATOMS);
    for kind in all_devices() {
        let (serial, serial_counters) = run_with(kind.build(), &sim, 1);
        assert!(serial.sim_seconds > 0.0, "{}", kind.label());
        for t in THREADS {
            let ctx = format!("{} at {t} host threads", kind.label());
            let (par, par_counters) = run_with(kind.build(), &sim, t);
            assert_bitwise_equal(&serial, &par, &ctx);
            assert_eq!(serial_counters, par_counters, "{ctx}: counters drifted");
        }
    }
}

#[test]
fn segmented_resume_matches_unsegmented_under_threads() {
    let sim = SimConfig::reduced_lj(PAPER_ATOMS);
    for kind in all_devices() {
        let whole = kind
            .build()
            .run(&sim, RunOptions::steps(PAPER_STEPS))
            .expect("unsegmented serial run");
        // Split the run across two parallel segments at different thread
        // counts; the stitched trajectory must land on the same bits.
        let mut dev = kind.build();
        let first = dev
            .run(&sim, RunOptions::steps(4).with_host_threads(4))
            .expect("first segment");
        let second = dev
            .run(
                &sim,
                RunOptions::steps(PAPER_STEPS - 4)
                    .from_checkpoint(&first.checkpoint)
                    .with_host_threads(8),
            )
            .expect("second segment");
        // Segment transparency is a *trajectory* contract: the stitched run
        // lands on the same bits. (Simulated cost is allowed to differ — a
        // resumed segment primes accelerations with an extra force
        // evaluation, which the cost model charges. The Opteron and the
        // MTA-2 reuse their last trajectory's final evaluation there; the
        // charge is unchanged.)
        assert_eq!(
            whole.checkpoint,
            second.checkpoint,
            "{}: segmented parallel trajectory drifted",
            kind.label()
        );
    }
}

/// Fault schedules key off the simulated run structure (eval/lane/site), not
/// host threading: the injected-fault ledger and the recovered trajectory
/// must be identical however the lanes were executed.
#[test]
fn fault_injected_runs_are_bitwise_identical_to_serial() {
    use sim_fault::FaultPlan;
    let sim = SimConfig::reduced_lj(PAPER_ATOMS);
    for kind in all_devices() {
        let plan = FaultPlan::new(2024, 0.02);
        let (serial, serial_counters) = run_with(kind.build_faulted(plan), &sim, 1);
        for t in [2, 8] {
            let ctx = format!("faulted {} at {t} host threads", kind.label());
            let (par, par_counters) = run_with(kind.build_faulted(plan), &sim, t);
            assert_bitwise_equal(&serial, &par, &ctx);
            assert_eq!(serial_counters, par_counters, "{ctx}: counters drifted");
        }
        assert!(
            serial.faults.injected > 0,
            "{}: plan injected nothing — the comparison is vacuous",
            kind.label()
        );
    }
}
