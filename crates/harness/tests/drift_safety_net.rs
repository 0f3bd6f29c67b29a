//! The supervisor's energy-drift safety net, on a remembered reference.
//!
//! The f64 reference the net compares against is remembered process-wide,
//! so this test sits in a binary of its own: no other test can replace the
//! remembered entry between its two runs, and the second run is sure to
//! reuse the reference the first one computed.

use harness::{run_supervised, RecoveryEvent, SupervisorConfig};
use md_core::params::SimConfig;
use mta::{MtaMd, ThreadingMode};
use opteron::OpteronCpu;

#[test]
fn energy_drift_safety_net_fires_on_computed_and_remembered_reference() {
    let sim = SimConfig::reduced_lj(108);
    // A negative tolerance makes every run "drift", so both the first run
    // (reference computed) and the second (reference remembered) must take
    // the safety net.
    let cfg = SupervisorConfig {
        energy_drift_tol: -1.0,
        ..SupervisorConfig::default()
    };
    let reference = OpteronCpu::untimed_energies(&sim, 4);
    for _ in 0..2 {
        let mut dev = MtaMd::paper_mta2(ThreadingMode::FullyMultithreaded);
        let run = run_supervised(&mut dev, &sim, 4, &cfg, None);
        assert!(run.report.fell_back);
        assert!(run.report.events.iter().any(|e| matches!(
            e,
            RecoveryEvent::Fallback { reason, .. } if reason == "energy drift beyond tolerance"
        )));
        assert!((run.energies.total - reference.total).abs() < 1e-9 * reference.total.abs());
    }
}
