//! Supervised execution: checkpoint/restart, retry with backoff, and
//! graceful degradation to the Opteron reference (DESIGN.md §9).
//!
//! A supervised run splits the workload into segments of
//! `checkpoint_interval` steps. Each segment starts from the last good
//! [`SystemCheckpoint`]; a segment that fails — an injected fault exhausted
//! its retry budget, or the watchdog saw the segment's simulated time blow
//! past its budget — is rolled back and re-run with a fresh fault-schedule
//! salt, paying an exponential backoff in *simulated* seconds. A segment
//! that keeps failing triggers graceful degradation: the remaining steps run
//! on the fault-free Opteron reference model and the run is marked
//! `fell_back`. The recovered trajectory is bit-identical to a fault-free
//! run on the same device (devices prime accelerations from positions at
//! every checkpointed entry, so segment boundaries are invisible to the
//! physics); only the simulated clock shows the recovery work. The Opteron
//! and the MTA-2 reuse their last trajectory's final evaluation when a
//! segment resumes from the state its previous segment ended in, so the
//! prime costs no host time there; the charge is unchanged. The Cell and
//! the GPU still recompute it.
//!
//! The supervisor drives any [`MdDevice`] — it holds a `&mut dyn MdDevice`
//! and never knows which architecture is underneath (DESIGN.md §11).

use md_core::checkpoint::SystemCheckpoint;
use md_core::device::{MdDevice, RunOptions};
use md_core::init;
use md_core::observables::EnergyReport;
use md_core::params::SimConfig;
use md_core::system::ParticleSystem;
use opteron::OpteronCpu;
use sim_fault::FaultStats;
use sim_obs::{EventKind, LedgerEvent, RunLedger};
use sim_perf::PerfMonitor;
use std::sync::{Mutex, PoisonError};

/// Retry/checkpoint/fallback policy. All times are simulated seconds.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Attempts per segment before degrading to the reference device.
    pub max_attempts: u32,
    /// Steps per segment (checkpoint cadence). Clamped to at least 1.
    pub checkpoint_interval: usize,
    /// First retry waits this long; each further retry doubles it.
    pub backoff_base_s: f64,
    /// A segment whose simulated time exceeds `watchdog_s_per_step × steps`
    /// is treated as hung and rolled back.
    pub watchdog_s_per_step: f64,
    /// Relative total-energy drift vs the untimed f64 reference that is
    /// tolerated before the whole run is redone on the reference device.
    /// Loose enough for the f32 devices' genuine precision gap. The reference
    /// is computed once per `(SimConfig, steps)` per process and reused by
    /// back-to-back runs on the same input; the check itself runs every time.
    pub energy_drift_tol: f64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            checkpoint_interval: 2,
            backoff_base_s: 1e-4,
            watchdog_s_per_step: 10.0,
            energy_drift_tol: 1e-2,
        }
    }
}

/// Why the supervisor abandoned a segment attempt or the whole device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// State captured after a successfully completed segment.
    Checkpoint { step: u64 },
    /// A segment attempt failed and was rolled back to the checkpoint.
    Restore {
        step: u64,
        attempt: u32,
        cause: String,
    },
    /// The watchdog cut a segment whose simulated time exceeded its budget.
    WatchdogTimeout { step: u64, attempt: u32 },
    /// Remaining steps were handed to the fault-free Opteron reference.
    Fallback { step: u64, reason: String },
}

impl RecoveryEvent {
    /// Short machine name for the ledger's `name` field.
    fn kind_name(&self) -> &'static str {
        match self {
            RecoveryEvent::Checkpoint { .. } => "checkpoint",
            RecoveryEvent::Restore { .. } => "restore",
            RecoveryEvent::WatchdogTimeout { .. } => "watchdog_timeout",
            RecoveryEvent::Fallback { .. } => "fallback",
        }
    }

    /// Step the event is anchored to.
    fn step(&self) -> u64 {
        match self {
            RecoveryEvent::Checkpoint { step }
            | RecoveryEvent::Restore { step, .. }
            | RecoveryEvent::WatchdogTimeout { step, .. }
            | RecoveryEvent::Fallback { step, .. } => *step,
        }
    }

    fn label(&self) -> String {
        match self {
            RecoveryEvent::Checkpoint { step } => format!("supervisor: checkpoint @ step {step}"),
            RecoveryEvent::Restore {
                step,
                attempt,
                cause,
            } => format!("supervisor: restore to step {step} (attempt {attempt}: {cause})"),
            RecoveryEvent::WatchdogTimeout { step, attempt } => {
                format!("supervisor: watchdog timeout in segment @ step {step} (attempt {attempt})")
            }
            RecoveryEvent::Fallback { step, reason } => {
                format!("supervisor: fallback to Opteron reference @ step {step} ({reason})")
            }
        }
    }
}

/// Performance-counter deltas for one *accepted* segment. Each segment
/// runs with a fresh [`PerfMonitor`], so the values are per-segment deltas,
/// not cumulative totals; failed attempts (rolled back) are not recorded.
#[derive(Clone, Debug, Default)]
pub struct SegmentCounters {
    /// Step the segment started from (its base checkpoint).
    pub start_step: u64,
    /// Steps the segment advanced.
    pub steps: usize,
    /// Simulated seconds charged for the segment.
    pub sim_seconds: f64,
    /// Final `(name, value, unit)` of every counter the device registered.
    pub counters: Vec<(String, f64, &'static str)>,
}

/// What happened during a supervised run, beyond the physics.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Segment attempts, including first tries.
    pub attempts: u64,
    /// Checkpoints captured (one per completed segment, plus the initial).
    pub checkpoints: u64,
    /// Rollbacks to a checkpoint after a failed attempt.
    pub restores: u64,
    /// Watchdog cuts (a subset of the restores' causes).
    pub watchdog_timeouts: u64,
    /// Whether the run finished on the Opteron reference instead.
    pub fell_back: bool,
    /// Merged per-device fault accounting across all attempts (zero when no
    /// plan is armed).
    pub faults: FaultStats,
    /// Ordered log of everything the supervisor did.
    pub events: Vec<RecoveryEvent>,
    /// Counter deltas per accepted segment (device segments and, when the
    /// run degrades, one final entry for the reference remainder).
    pub segments: Vec<SegmentCounters>,
}

/// Result of a supervised run: final physics plus the recovery story.
#[derive(Clone, Debug)]
pub struct SupervisedRun {
    /// Simulated seconds including retries, backoff, and any fallback run.
    pub sim_seconds: f64,
    /// Final state of the trajectory (from the last completed segment).
    pub checkpoint: SystemCheckpoint,
    pub energies: EnergyReport,
    pub report: RecoveryReport,
}

/// One completed segment as the supervisor sees it.
struct Segment {
    after: SystemCheckpoint,
    sim_seconds: f64,
    energies: EnergyReport,
    faults: FaultStats,
    counters: Vec<(String, f64, &'static str)>,
}

/// Snapshot a monitor's final values for a [`SegmentCounters`] record.
fn snapshot_counters(perf: &PerfMonitor) -> Vec<(String, f64, &'static str)> {
    perf.counters()
        .iter()
        .map(|c| (c.name.clone(), c.value(), c.unit))
        .collect()
}

/// Degradation-style devices absorb exhaustion into their timeline; the
/// supervisor still treats it as a failed segment so the retry/rollback
/// path is uniform across devices.
fn reject_exhausted(faults: &FaultStats, device: &str) -> Result<(), String> {
    if faults.exhausted > 0 {
        Err(format!(
            "{device} reported {} exhausted fault site(s)",
            faults.exhausted
        ))
    } else {
        Ok(())
    }
}

/// Run one segment from `cp`. `Err` is the cause string for the restore
/// event; devices that report exhaustion through their fault stats rather
/// than a typed error have it promoted to a failure here.
fn run_segment(
    device: &mut dyn MdDevice,
    cp: Option<&SystemCheckpoint>,
    sim: &SimConfig,
    steps: usize,
) -> Result<Segment, String> {
    let mut perf = PerfMonitor::new();
    // The first segment (no checkpoint yet) starts the device fresh. f32
    // devices initialize natively in their own precision, so resuming from
    // a capture of the f64 initial state can disagree with a fresh start
    // in the last bit — segment transparency is only contractual for
    // checkpoints the device itself produced.
    let base = RunOptions::steps(steps).with_perf(&mut perf);
    let opts = match cp {
        Some(c) => base.from_checkpoint(c),
        None => base,
    };
    let r = device.run(sim, opts).map_err(|e| e.to_string())?;
    reject_exhausted(&r.faults, &device.label())?;
    Ok(Segment {
        after: r.checkpoint,
        sim_seconds: r.sim_seconds,
        energies: r.energies,
        faults: r.faults,
        counters: snapshot_counters(&perf),
    })
}

/// Record one accepted segment in the ledger: a `supervisor` phase spanning
/// the segment's simulated time, plus the device's final counter values at
/// the segment's end. Failed (rolled back) attempts are never recorded — the
/// ledger shows the run the physics actually kept.
fn ledger_segment(
    ledger: &mut Option<&mut RunLedger>,
    source: &str,
    start_s: f64,
    seg: &SegmentCounters,
) {
    let Some(led) = ledger.as_deref_mut() else {
        return;
    };
    led.push(LedgerEvent {
        t_s: start_s,
        kind: EventKind::Phase,
        source: "supervisor".to_string(),
        name: "segment".to_string(),
        step: Some(seg.start_step),
        dur_s: Some(seg.sim_seconds),
        value: None,
        unit: None,
        detail: None,
    });
    for (name, value, unit) in &seg.counters {
        led.push(LedgerEvent {
            t_s: start_s + seg.sim_seconds,
            kind: EventKind::Counter,
            source: source.to_string(),
            name: name.clone(),
            step: Some(seg.start_step),
            dur_s: None,
            value: Some(*value),
            unit: Some(unit.to_string()),
            detail: None,
        });
    }
}

/// Drive `device` through `steps` time steps of `sim` under the supervisor's
/// retry/checkpoint/fallback policy. Never panics and always completes: the
/// worst case degrades to the fault-free Opteron reference model.
///
/// Pass a [`RunLedger`] to receive the full recovery story: every supervisor
/// decision as a `recovery` event at its accumulated simulated time (its
/// human-readable label in `detail`), plus one `supervisor` phase and the
/// device's counter totals per *accepted* segment. The ledger is observation
/// only — attaching it cannot change the trajectory, the timings, or the
/// report. Its Chrome view is [`sim_obs::ledger_to_chrome`].
pub fn run_supervised(
    device: &mut dyn MdDevice,
    sim: &SimConfig,
    steps: usize,
    cfg: &SupervisorConfig,
    mut ledger: Option<&mut RunLedger>,
) -> SupervisedRun {
    let device_label = device.label();
    let interval = cfg.checkpoint_interval.max(1);
    let mut report = RecoveryReport::default();
    let mut total_s = 0.0f64;
    // The last good checkpoint. `None` is the initial lattice at step 0:
    // until a device run has produced a checkpoint, segments start the
    // device fresh (see `run_segment`). The f64 initial capture is only
    // resumed by the f64 reference device during fallback and reported by
    // a zero-step run, so it is built only there ([`initial_checkpoint`]).
    let mut cp: Option<SystemCheckpoint> = None;
    let mut energies: Option<EnergyReport> = None;

    let emit = |report: &mut RecoveryReport,
                ledger: &mut Option<&mut RunLedger>,
                at_s: f64,
                ev: RecoveryEvent| {
        if let Some(led) = ledger.as_deref_mut() {
            led.push(LedgerEvent {
                t_s: at_s,
                kind: EventKind::Recovery,
                source: "supervisor".to_string(),
                name: ev.kind_name().to_string(),
                step: Some(ev.step()),
                dur_s: None,
                value: None,
                unit: None,
                detail: Some(ev.label()),
            });
        }
        report.events.push(ev);
    };

    emit(
        &mut report,
        &mut ledger,
        total_s,
        RecoveryEvent::Checkpoint { step: 0 },
    );
    report.checkpoints = 1;

    let mut done = 0usize;
    'segments: while done < steps {
        let at = cp.as_ref().map_or(0, |c| c.step);
        let seg_steps = interval.min(steps - done);
        let watchdog_budget = cfg.watchdog_s_per_step * seg_steps as f64;

        for attempt in 0..cfg.max_attempts {
            report.attempts += 1;
            // Fresh, deterministic schedule per (segment, attempt): the salt
            // folds both so replays of the same run see the same faults.
            device.resalt((at << 8) | u64::from(attempt));

            let failure = match run_segment(device, cp.as_ref(), sim, seg_steps) {
                Ok(seg) if seg.sim_seconds > watchdog_budget => {
                    // The watchdog fires at its budget; the segment's work
                    // past that point is lost, not charged.
                    total_s += watchdog_budget;
                    report.watchdog_timeouts += 1;
                    report.faults.merge(&seg.faults);
                    emit(
                        &mut report,
                        &mut ledger,
                        total_s,
                        RecoveryEvent::WatchdogTimeout { step: at, attempt },
                    );
                    "watchdog timeout".to_string()
                }
                Ok(seg) => {
                    let seg_start = total_s;
                    total_s += seg.sim_seconds;
                    report.faults.merge(&seg.faults);
                    let counters = SegmentCounters {
                        start_step: at,
                        steps: seg_steps,
                        sim_seconds: seg.sim_seconds,
                        counters: seg.counters,
                    };
                    ledger_segment(&mut ledger, &device_label, seg_start, &counters);
                    report.segments.push(counters);
                    energies = Some(seg.energies);
                    let step = seg.after.step;
                    cp = Some(seg.after);
                    report.checkpoints += 1;
                    emit(
                        &mut report,
                        &mut ledger,
                        total_s,
                        RecoveryEvent::Checkpoint { step },
                    );
                    done += seg_steps;
                    continue 'segments;
                }
                // A typed abort (Cell) or promoted exhaustion: the aborted
                // attempt's work is abandoned, not charged — the backoff
                // below is the recovery cost the timeline sees.
                Err(cause) => cause,
            };

            let backoff = cfg.backoff_base_s * f64::from(1u32 << attempt.min(20));
            total_s += backoff;
            report.restores += 1;
            emit(
                &mut report,
                &mut ledger,
                total_s,
                RecoveryEvent::Restore {
                    step: at,
                    attempt,
                    cause: failure,
                },
            );
        }

        // Retry budget exhausted: degrade to the fault-free reference for
        // everything that remains.
        emit(
            &mut report,
            &mut ledger,
            total_s,
            RecoveryEvent::Fallback {
                step: at,
                reason: format!("segment failed {} attempts", cfg.max_attempts),
            },
        );
        let start = cp.take().unwrap_or_else(|| initial_checkpoint(sim));
        let (s, e, after, counters) = reference_remainder(&start, sim, steps - done);
        let seg = SegmentCounters {
            start_step: at,
            steps: steps - done,
            sim_seconds: s,
            counters,
        };
        ledger_segment(&mut ledger, "opteron-reference", total_s, &seg);
        report.segments.push(seg);
        total_s += s;
        energies = Some(e);
        cp = Some(after);
        report.fell_back = true;
        break;
    }

    // Safety net: a recovered run whose energies drifted from the untimed
    // f64 reference beyond tolerance is redone on the reference device. By
    // construction (faults never touch data) this should never fire; it
    // guards the invariant rather than assuming it. The reference is a pure
    // function of `(sim, steps)`, so it is computed once per input and
    // remembered (`reference_energies`); the comparison runs on every run.
    if !report.fell_back && steps > 0 {
        let reference = reference_energies(sim, steps);
        let drifted = energies.is_none_or(|e| {
            (e.total - reference.total).abs() > cfg.energy_drift_tol * reference.total.abs()
        });
        if drifted {
            emit(
                &mut report,
                &mut ledger,
                total_s,
                RecoveryEvent::Fallback {
                    step: cp.as_ref().map_or(0, |c| c.step),
                    reason: "energy drift beyond tolerance".to_string(),
                },
            );
            let (s, e, after, counters) = reference_remainder(&initial_checkpoint(sim), sim, steps);
            let seg = SegmentCounters {
                start_step: 0,
                steps,
                sim_seconds: s,
                counters,
            };
            ledger_segment(&mut ledger, "opteron-reference", total_s, &seg);
            report.segments.push(seg);
            total_s += s;
            energies = Some(e);
            cp = Some(after);
            report.fell_back = true;
        }
    }

    // Only a zero-step run gets here without a checkpoint.
    let checkpoint = cp.unwrap_or_else(|| initial_checkpoint(sim));
    SupervisedRun {
        sim_seconds: total_s,
        energies: energies.unwrap_or_else(|| {
            // steps == 0: nothing ran; measure the initial state directly.
            let sys: ParticleSystem<f64> = checkpoint.restore();
            EnergyReport::measure(&sys, 0.0)
        }),
        checkpoint,
        report,
    }
}

/// The f64 initial lattice as a step-0 checkpoint.
fn initial_checkpoint(sim: &SimConfig) -> SystemCheckpoint {
    let sys: ParticleSystem<f64> = init::initialize(sim);
    SystemCheckpoint::capture(&sys, 0)
}

/// Run the remaining steps on the fault-free Opteron reference model.
fn reference_remainder(
    cp: &SystemCheckpoint,
    sim: &SimConfig,
    steps: usize,
) -> (
    f64,
    EnergyReport,
    SystemCheckpoint,
    Vec<(String, f64, &'static str)>,
) {
    let mut cpu = OpteronCpu::paper_reference();
    let mut perf = PerfMonitor::new();
    let r = cpu
        .run(
            sim,
            RunOptions::steps(steps)
                .from_checkpoint(cp)
                .with_perf(&mut perf),
        )
        .expect("the Opteron reference device is infallible");
    (
        r.sim_seconds,
        r.energies,
        r.checkpoint,
        snapshot_counters(&perf),
    )
}

/// [`md_core::reference::run`] in f64 for `steps` steps of `sim`, remembering
/// the most recent input. Callers supervise the same `(sim, steps)` several
/// times in a row (a clean run and then a faulted one, or several devices per
/// size), and the reference is a deterministic scalar f64 trajectory, so a hit
/// returns exactly the bits a fresh computation would. The reference stays on
/// the scalar kernel, independent of the shared evaluator it guards.
fn reference_energies(sim: &SimConfig, steps: usize) -> EnergyReport {
    // The slot is only ever replaced whole, so a guard recovered from a
    // poisoned lock still holds a consistent entry (or none). The lock is
    // not held while the reference is computed.
    static LAST: Mutex<Option<(SimConfig, usize, EnergyReport)>> = Mutex::new(None);
    let last = *LAST.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((s, n, e)) = last {
        if s == *sim && n == steps {
            return e;
        }
    }
    let e = md_core::reference::run::<f64>(sim, steps);
    *LAST.lock().unwrap_or_else(PoisonError::into_inner) = Some((*sim, steps, e));
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use cell_be::{CellBeDevice, CellMd, CellRunConfig};
    use gpu::GpuMdSimulation;
    use md_core::scenario::ScenarioSpec;
    use mta::{MtaMd, ThreadingMode};
    use sim_fault::FaultPlan;

    fn small() -> SimConfig {
        SimConfig::reduced_lj(108)
    }

    #[test]
    fn supervised_matches_unsupervised_without_faults() {
        let sim = small();
        let mut dev = MtaMd::paper_mta2(ThreadingMode::FullyMultithreaded);
        let run = run_supervised(&mut dev, &sim, 6, &SupervisorConfig::default(), None);
        let plain = MtaMd::paper_mta2(ThreadingMode::FullyMultithreaded)
            .run(&sim, RunOptions::steps(6))
            .expect("mta runs");
        assert_eq!(run.energies.total, plain.energies.total);
        assert!(!run.report.fell_back);
        assert_eq!(run.report.restores, 0);
        // 6 steps at interval 2 → initial + 3 segment checkpoints.
        assert_eq!(run.report.checkpoints, 4);
        assert_eq!(run.checkpoint.step, 6);
        // Segments are each timed cold, so totals match the unsegmented run
        // only approximately; both must be positive and close.
        assert!(run.sim_seconds > 0.0);
    }

    #[test]
    fn supervised_cell_run_completes() {
        let sim = small();
        let mut dev = CellMd::paper_blade(CellRunConfig::best());
        let run = run_supervised(&mut dev, &sim, 4, &SupervisorConfig::default(), None);
        assert!(!run.report.fell_back);
        assert!(run.energies.total.is_finite());
        assert_eq!(run.checkpoint.step, 4);
    }

    /// Regression: the supervisor must start the first segment fresh, not
    /// resume it from a capture of the f64 initial state. Cell initializes
    /// natively in f32, so the round-tripped start disagreed with a plain
    /// run in the last bit for a fraction of atoms at this size.
    #[test]
    fn supervised_cell_is_bitwise_identical_to_plain() {
        let sim = SimConfig::reduced_lj(2048);
        let mut dev = CellMd::paper_blade(CellRunConfig::best());
        let run = run_supervised(&mut dev, &sim, 4, &SupervisorConfig::default(), None);
        let plain = CellMd::paper_blade(CellRunConfig::best())
            .run(&sim, RunOptions::steps(4))
            .expect("cell runs");
        assert!(!run.report.fell_back);
        assert_eq!(run.checkpoint.positions, plain.checkpoint.positions);
        assert_eq!(run.checkpoint.velocities, plain.checkpoint.velocities);
        assert_eq!(run.energies.total.to_bits(), plain.energies.total.to_bits());
    }

    #[test]
    fn watchdog_degrades_to_reference() {
        let sim = small();
        let mut dev = GpuMdSimulation::geforce_7900gtx();
        let cfg = SupervisorConfig {
            // Impossible budget: every attempt "hangs", forcing fallback.
            watchdog_s_per_step: 1e-30,
            ..SupervisorConfig::default()
        };
        let mut led = RunLedger::new("supervised-gpu", "108 atoms x 4 steps");
        let run = run_supervised(&mut dev, &sim, 4, &cfg, Some(&mut led));
        assert!(run.report.fell_back);
        assert_eq!(run.report.watchdog_timeouts, cfg.max_attempts as u64);
        // The fallback still produces the reference physics.
        let reference = md_core::reference::run::<f64>(&sim, 4);
        assert!((run.energies.total - reference.total).abs() < 1e-9 * reference.total.abs());
        // Every decision is in the ledger.
        let jsonl = led.to_jsonl();
        assert!(jsonl.contains("watchdog timeout"));
        assert!(jsonl.contains("fallback to Opteron reference"));
        assert!(run
            .report
            .events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Fallback { .. })));
        // Every device attempt was cut, so the only recorded segment is the
        // reference remainder covering the whole run.
        assert_eq!(run.report.segments.len(), 1);
        assert_eq!(run.report.segments[0].steps, 4);
        assert_eq!(run.report.segments[0].start_step, 0);
    }

    fn assert_same_bits(a: EnergyReport, b: EnergyReport) {
        assert_eq!(a.kinetic.to_bits(), b.kinetic.to_bits());
        assert_eq!(a.potential.to_bits(), b.potential.to_bits());
        assert_eq!(a.total.to_bits(), b.total.to_bits());
    }

    #[test]
    fn reference_memo_hits_exactly_and_misses_on_any_input_change() {
        let base = SimConfig {
            seed: 0x5EED_0013,
            ..small()
        };
        // Other tests in this binary share the memo; each assertion below
        // holds whatever they store in between.
        let fresh = md_core::reference::run::<f64>(&base, 3);
        // Miss, then hit: both carry the bits of a fresh computation.
        assert_same_bits(reference_energies(&base, 3), fresh);
        assert_same_bits(reference_energies(&base, 3), fresh);
        // Each changed input must recompute, not return the stored report.
        let variants = [
            (
                SimConfig {
                    n_atoms: 256,
                    ..base
                },
                3,
            ),
            (SimConfig { seed: 7, ..base }, 3),
            (SimConfig { dt: 0.004, ..base }, 3),
            (
                SimConfig {
                    scenario: ScenarioSpec::morse_nvt(),
                    ..base
                },
                3,
            ),
            (base, 2),
        ];
        for (sim, steps) in variants {
            let want = md_core::reference::run::<f64>(&sim, steps);
            assert_ne!(want.total.to_bits(), fresh.total.to_bits());
            // Store `base` first, so a wrong hit would return `fresh`.
            reference_energies(&base, 3);
            assert_same_bits(reference_energies(&sim, steps), want);
        }
    }

    #[test]
    fn segments_carry_counter_deltas() {
        let sim = small();
        let mut dev = OpteronCpu::paper_reference();
        let run = run_supervised(&mut dev, &sim, 4, &SupervisorConfig::default(), None);
        assert!(!run.report.fell_back);
        // 4 steps at interval 2 → two accepted segments, each with its own
        // fresh-monitor counter deltas.
        assert_eq!(run.report.segments.len(), 2);
        assert_eq!(run.report.segments[0].start_step, 0);
        assert_eq!(run.report.segments[1].start_step, 2);
        let total: f64 = run.report.segments.iter().map(|s| s.sim_seconds).sum();
        assert!((total - run.sim_seconds).abs() <= 1e-9 * run.sim_seconds);
        for seg in &run.report.segments {
            assert_eq!(seg.steps, 2);
            let flops = seg.counters.iter().find(|(n, _, _)| n == "opteron.flops");
            assert!(
                flops.is_some_and(|(_, v, _)| *v > 0.0),
                "segment at step {} missing flop counter",
                seg.start_step
            );
        }
    }

    #[test]
    fn ledger_records_segments_and_recovery_without_perturbing_the_run() {
        let sim = small();
        let cfg = SupervisorConfig::default();
        let mut led = RunLedger::new("supervised-opteron", "108 atoms x 4 steps");
        let mut dev = OpteronCpu::paper_reference();
        let run = run_supervised(&mut dev, &sim, 4, &cfg, Some(&mut led));
        let mut plain_dev = OpteronCpu::paper_reference();
        let plain = run_supervised(&mut plain_dev, &sim, 4, &cfg, None);
        // Observation only: the ledger-attached run is bitwise-identical.
        assert_eq!(run.energies.total.to_bits(), plain.energies.total.to_bits());
        assert_eq!(run.checkpoint.positions, plain.checkpoint.positions);
        assert_eq!(run.sim_seconds.to_bits(), plain.sim_seconds.to_bits());
        // Initial + 2 segment checkpoints land as recovery events.
        let recoveries = led
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Recovery)
            .count();
        assert_eq!(recoveries, 3);
        // One supervisor phase per accepted segment, laid end-to-end.
        let segs: Vec<_> = led
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Phase && e.name == "segment")
            .collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].step, Some(0));
        assert_eq!(segs[1].step, Some(2));
        let total: f64 = segs.iter().filter_map(|e| e.dur_s).sum();
        assert!((total - run.sim_seconds).abs() <= 1e-9 * run.sim_seconds);
        // Device counters land under the device's label at segment ends.
        assert!(led.events().iter().any(|e| {
            e.kind == EventKind::Counter && e.name == "opteron.flops" && e.source == "opteron"
        }));
        // The recovery story round-trips through the JSONL format.
        assert!(RunLedger::parse_jsonl(&led.to_jsonl()).is_ok());
    }

    #[test]
    fn zero_steps_is_a_noop() {
        let sim = small();
        let mut dev = OpteronCpu::paper_reference();
        let run = run_supervised(&mut dev, &sim, 0, &SupervisorConfig::default(), None);
        assert_eq!(run.sim_seconds, 0.0);
        assert_eq!(run.checkpoint.step, 0);
        assert!(run.energies.total.is_finite());
    }

    #[test]
    fn recovery_reproduces_the_fault_free_trajectory() {
        let sim = small();
        let cfg = SupervisorConfig::default();

        let mut clean_dev = CellMd::paper_blade(CellRunConfig::best());
        let clean = run_supervised(&mut clean_dev, &sim, 6, &cfg, None);

        let device = CellBeDevice::paper_blade().with_fault_plan(FaultPlan::new(13, 0.05));
        let mut faulty_dev = CellMd::new(device, CellRunConfig::best());
        let faulty = run_supervised(&mut faulty_dev, &sim, 6, &cfg, None);

        assert!(!faulty.report.fell_back, "recovery should succeed");
        assert!(faulty.report.faults.any(), "faults should have fired");
        assert_eq!(
            faulty.checkpoint.positions, clean.checkpoint.positions,
            "recovered trajectory must be bit-identical"
        );
        assert_eq!(faulty.checkpoint.velocities, clean.checkpoint.velocities);
        assert_eq!(faulty.energies.total, clean.energies.total);
        assert!(
            faulty.sim_seconds > clean.sim_seconds,
            "recovery must cost simulated time: {} !> {}",
            faulty.sim_seconds,
            clean.sim_seconds
        );
    }

    #[test]
    fn hopeless_device_degrades_to_reference() {
        let sim = small();
        let device = CellBeDevice::paper_blade().with_fault_plan(FaultPlan::new(0, 1.0));
        let mut dev = CellMd::new(device, CellRunConfig::best());
        let mut led = RunLedger::new("supervised-cell", "108 atoms x 4 steps");
        let run = run_supervised(
            &mut dev,
            &sim,
            4,
            &SupervisorConfig::default(),
            Some(&mut led),
        );
        assert!(run.report.fell_back);
        let reference = md_core::reference::run::<f64>(&sim, 4);
        assert!((run.energies.total - reference.total).abs() < 1e-9 * reference.total.abs());
        assert!(led.to_jsonl().contains("restore to step"));
    }

    #[test]
    fn supervised_runs_are_deterministic() {
        let sim = small();
        let cfg = SupervisorConfig::default();
        let run = || {
            let device = CellBeDevice::paper_blade().with_fault_plan(FaultPlan::new(99, 0.08));
            let mut dev = CellMd::new(device, CellRunConfig::best());
            run_supervised(&mut dev, &sim, 6, &cfg, None)
        };
        let a = run();
        let b = run();
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.report.restores, b.report.restores);
        assert_eq!(a.report.faults.injected, b.report.faults.injected);
        assert_eq!(a.checkpoint.positions, b.checkpoint.positions);
    }
}
