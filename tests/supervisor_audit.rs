//! Supervisor backoff/watchdog audit (ISSUE 7 satellite): property tests
//! over seeded node-fault schedules pinning three retry-policy invariants.
//!
//! 1. **Determinism per seed** — two supervised runs of the same faulted
//!    cluster produce bitwise-identical simulated clocks, identical event
//!    logs, and identical run ledgers (which stamp every backoff delay).
//! 2. **Strict boundedness** — every restore's attempt index stays under
//!    `max_attempts`, so its exponential backoff is bounded by
//!    `backoff_base_s × 2^(max_attempts−1)`, and the restore count is
//!    bounded by `segments × max_attempts`.
//! 3. **Monotonicity across restores** — the watchdog/rollback machinery
//!    never admits regression: accepted checkpoints advance strictly, the
//!    run lands exactly on the requested step count, and recovery only ever
//!    *adds* simulated time relative to the fault-free run.
//!
//! Node-level faults live in the cluster model, so none of this needs the
//! `fault-inject` feature.

use harness::{
    run_cluster_supervised, ClusterKind, ClusterRecovery, DeviceKind, RecoveryEvent,
    SupervisorConfig,
};
use md_core::params::SimConfig;
use proptest::prelude::*;
use sim_fault::FaultPlan;
use sim_obs::RunLedger;

const AUDIT_ATOMS: usize = 256;
const AUDIT_STEPS: usize = 8;
const AUDIT_NODES: usize = 4;

fn audit_cfg() -> SupervisorConfig {
    SupervisorConfig {
        // Generous budget: modest storms should recover, not degrade.
        max_attempts: 6,
        ..SupervisorConfig::default()
    }
}

fn supervised_with_faults(seed: u64, rate: f64, ledger: &mut RunLedger) -> ClusterRecovery {
    let sim = SimConfig::reduced_lj(AUDIT_ATOMS);
    let mut cluster = ClusterKind::new(DeviceKind::Opteron, AUDIT_NODES)
        .build_with_node_faults(FaultPlan::new(seed, rate));
    run_cluster_supervised(&mut cluster, &sim, AUDIT_STEPS, &audit_cfg(), Some(ledger))
}

fn audit_ledger() -> RunLedger {
    RunLedger::new("audit", "256 atoms x 8 steps")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn retry_delays_are_deterministic_per_seed(
        seed in 0u64..1u64 << 32,
        rate in 0.005f64..0.08,
    ) {
        let mut ledger_a = audit_ledger();
        let mut ledger_b = audit_ledger();
        let a = supervised_with_faults(seed, rate, &mut ledger_a);
        let b = supervised_with_faults(seed, rate, &mut ledger_b);
        prop_assert_eq!(a.run.sim_seconds.to_bits(), b.run.sim_seconds.to_bits());
        prop_assert_eq!(&a.run.report.events, &b.run.report.events);
        prop_assert_eq!(a.run.report.restores, b.run.report.restores);
        prop_assert_eq!(a.node_events, b.node_events);
        // The ledger stamps every restore at its post-backoff simulated
        // time; byte-equal ledgers mean byte-equal delays.
        prop_assert_eq!(ledger_a.to_jsonl(), ledger_b.to_jsonl());
    }

    #[test]
    fn backoff_is_strictly_bounded_and_checkpoints_never_regress(
        seed in 0u64..1u64 << 32,
        rate in 0.005f64..0.10,
    ) {
        let cfg = audit_cfg();
        let mut ledger = audit_ledger();
        let rec = supervised_with_faults(seed, rate, &mut ledger);
        let report = &rec.run.report;

        let segments = AUDIT_STEPS.div_ceil(cfg.checkpoint_interval) as u64;
        prop_assert!(
            report.restores <= segments * u64::from(cfg.max_attempts),
            "restore count {} exceeds the per-segment budget",
            report.restores
        );

        let max_backoff = cfg.backoff_base_s * f64::from(1u32 << (cfg.max_attempts - 1));
        let mut last_checkpoint: Option<u64> = None;
        for ev in &report.events {
            match ev {
                RecoveryEvent::Restore { attempt, step, .. } => {
                    prop_assert!(*attempt < cfg.max_attempts);
                    let delay = cfg.backoff_base_s * f64::from(1u32 << (*attempt).min(20));
                    prop_assert!(
                        delay <= max_backoff,
                        "restore at step {step} charged {delay}s > bound {max_backoff}s"
                    );
                    // A restore rolls back to the last accepted checkpoint,
                    // never past it.
                    prop_assert_eq!(Some(*step), last_checkpoint.or(Some(0)));
                }
                RecoveryEvent::Checkpoint { step } => {
                    if let Some(prev) = last_checkpoint {
                        prop_assert!(
                            *step > prev,
                            "checkpoint regressed: {step} after {prev}"
                        );
                    }
                    last_checkpoint = Some(*step);
                }
                RecoveryEvent::WatchdogTimeout { .. } | RecoveryEvent::Fallback { .. } => {}
            }
        }
        prop_assert_eq!(rec.run.checkpoint.step, AUDIT_STEPS as u64);
    }

    /// Recovery only ever adds simulated time: a faulted run that recovered
    /// cleanly is never faster than the fault-free run of the same cluster.
    #[test]
    fn recovered_runs_never_undercut_the_fault_free_clock(
        seed in 0u64..1u64 << 32,
    ) {
        let sim = SimConfig::reduced_lj(AUDIT_ATOMS);
        let cfg = audit_cfg();
        let mut clean = ClusterKind::new(DeviceKind::Opteron, AUDIT_NODES).build();
        let clean_rec = run_cluster_supervised(&mut clean, &sim, AUDIT_STEPS, &cfg, None);
        let mut ledger = audit_ledger();
        let rec = supervised_with_faults(seed, 0.05, &mut ledger);
        if rec.recovered_cleanly() {
            prop_assert!(
                rec.run.sim_seconds >= clean_rec.run.sim_seconds,
                "faulted {} < clean {}: simulated time regressed across recovery",
                rec.run.sim_seconds,
                clean_rec.run.sim_seconds
            );
        }
    }
}
