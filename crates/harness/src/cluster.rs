//! Cluster roster integration: name a cluster the way [`DeviceKind`] names
//! a device, and supervise it with full recovery reporting (DESIGN.md §14).
//!
//! [`ClusterKind`] is the copyable description (`which device × how many
//! nodes × how many spares`) the sweep engine and binaries hold;
//! [`ClusterKind::build`] is the single construction point, exactly like
//! [`DeviceKind::build`]. [`run_cluster_supervised`] wraps the supervisor
//! around a built [`ClusterMd`] and folds the cluster's own membership log
//! into a [`ClusterRecovery`] record, which serializes to the JSON artifact
//! the CI `cluster-recovery` job uploads.

use crate::device::DeviceKind;
use crate::supervisor::{run_supervised, RecoveryEvent, SupervisedRun, SupervisorConfig};
use md_core::params::SimConfig;
use sim_cluster::{ClusterMd, ClusterPolicy, InterconnectModel, NodeEvent};
use sim_obs::RunLedger;

/// A named cluster configuration: plain, copyable data like [`DeviceKind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterKind {
    /// The per-node device. Must support checkpoint resume, which every
    /// roster device except the PPE-only baseline and the Figure 5 probe
    /// does.
    pub device: DeviceKind,
    /// Initial member count (also the fixed slab count).
    pub nodes: usize,
    /// Warm spares provisioned for migration targets.
    pub spares: usize,
}

impl ClusterKind {
    /// A cluster of `nodes` members with the default one warm spare.
    pub fn new(device: DeviceKind, nodes: usize) -> Self {
        Self {
            device,
            nodes,
            spares: ClusterPolicy::default_policy().spares,
        }
    }

    /// Same, with an explicit spare count.
    #[must_use]
    pub fn with_spares(mut self, spares: usize) -> Self {
        self.spares = spares;
        self
    }

    /// The cluster's metric/cache label — identical to what the built
    /// [`ClusterMd`] returns from its `label()`.
    pub fn label(self) -> String {
        format!("cluster-{}x-{}", self.nodes, self.device.label())
    }

    /// Stable text encoding of the full cluster identity for cache keys:
    /// topology knobs, *every* interconnect cost-model constant, *every*
    /// recovery-policy constant, and the inner device's own token. The
    /// `cache-token` lint rule enforces completeness, exactly as for
    /// [`DeviceKind::cache_token`].
    pub fn cache_token(self) -> String {
        let net = InterconnectModel::paper_2006();
        let pol = ClusterPolicy::default_policy();
        format!(
            "cluster:nodes={},spares={},latency_s={},bandwidth_bytes_per_s={},halo_bytes_per_atom={},allreduce_payload_bytes={},migration_bytes_per_atom={},max_halo_resends={},slow_node_factor={},inner={}",
            self.nodes,
            self.spares,
            net.latency_s,
            net.bandwidth_bytes_per_s,
            net.halo_bytes_per_atom,
            net.allreduce_payload_bytes,
            net.migration_bytes_per_atom,
            pol.max_halo_resends,
            pol.slow_node_factor,
            self.device.cache_token(),
        )
    }

    /// Construct the simulated cluster: `nodes + spares` identically
    /// configured devices from the [`DeviceKind`] factory, the paper-era
    /// interconnect, and the default recovery policy with this kind's spare
    /// count.
    ///
    /// # Panics
    ///
    /// The PPE-only baseline and the Figure 5 probe cannot resume from
    /// checkpoints, so they cannot be cluster nodes.
    pub fn build(self) -> ClusterMd {
        assert!(
            !matches!(
                self.device,
                DeviceKind::CellPpe | DeviceKind::CellAccel { .. }
            ),
            "{:?} does not support checkpoint resume and cannot be a cluster node",
            self.device
        );
        let policy = ClusterPolicy {
            spares: self.spares,
            ..ClusterPolicy::default_policy()
        };
        ClusterMd::new(
            (0..self.nodes).map(|_| self.device.build()).collect(),
            (0..self.spares).map(|_| self.device.build()).collect(),
            InterconnectModel::paper_2006(),
            policy,
        )
    }

    /// [`ClusterKind::build`] with the node-granularity fault schedule
    /// armed. Node-level faults live entirely in the cluster model; the
    /// member devices run unarmed.
    pub fn build_with_node_faults(self, plan: sim_fault::FaultPlan) -> ClusterMd {
        self.build().with_node_fault_plan(plan)
    }
}

/// A supervised cluster run plus the cluster's own recovery story: the
/// supervisor's segment/restore log joined with the membership events the
/// engine recorded (kills, partitions, migrations, re-provisioning).
#[derive(Clone, Debug)]
pub struct ClusterRecovery {
    pub run: SupervisedRun,
    /// Node-level events in occurrence order, across all attempts.
    pub node_events: Vec<NodeEvent>,
    /// Members alive at the end of the run.
    pub alive_nodes: usize,
    /// Member slots ever provisioned (initial nodes + joined spares).
    pub total_nodes: usize,
    /// Warm spares still unused.
    pub spares_left: usize,
    /// Domain migrations performed.
    pub migrations: u64,
}

impl ClusterRecovery {
    /// Did the run survive node-level trouble without degrading?
    pub fn recovered_cleanly(&self) -> bool {
        !self.run.report.fell_back
    }

    /// Serialize the recovery story as a small self-contained JSON document
    /// (the CI `cluster-recovery` artifact). Hand-rolled like the rest of
    /// the workspace's JSON writers — no serde in the tree.
    pub fn to_json(&self) -> String {
        let r = &self.run.report;
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"mdea.cluster_recovery.v1\",\n");
        out.push_str(&format!("  \"sim_seconds\": {},\n", self.run.sim_seconds));
        out.push_str(&format!(
            "  \"final_step\": {},\n  \"final_total_energy\": {},\n",
            self.run.checkpoint.step, self.run.energies.total
        ));
        out.push_str(&format!(
            "  \"attempts\": {}, \"checkpoints\": {}, \"restores\": {}, \"watchdog_timeouts\": {}, \"fell_back\": {},\n",
            r.attempts, r.checkpoints, r.restores, r.watchdog_timeouts, r.fell_back
        ));
        out.push_str(&format!(
            "  \"faults\": {{\"injected\": {}, \"retries\": {}, \"exhausted\": {}, \"extra_seconds\": {}}},\n",
            r.faults.injected, r.faults.retries, r.faults.exhausted, r.faults.extra_seconds
        ));
        out.push_str(&format!(
            "  \"alive_nodes\": {}, \"total_nodes\": {}, \"spares_left\": {}, \"migrations\": {},\n",
            self.alive_nodes, self.total_nodes, self.spares_left, self.migrations
        ));
        out.push_str("  \"supervisor_events\": [\n");
        let events: Vec<String> = r
            .events
            .iter()
            .map(|e| format!("    {}", supervisor_event_json(e)))
            .collect();
        out.push_str(&events.join(",\n"));
        out.push_str("\n  ],\n  \"node_events\": [\n");
        let nevents: Vec<String> = self
            .node_events
            .iter()
            .map(|e| format!("    {}", node_event_json(e)))
            .collect();
        out.push_str(&nevents.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn supervisor_event_json(e: &RecoveryEvent) -> String {
    match e {
        RecoveryEvent::Checkpoint { step } => {
            format!("{{\"event\": \"checkpoint\", \"step\": {step}}}")
        }
        RecoveryEvent::Restore {
            step,
            attempt,
            cause,
        } => format!(
            "{{\"event\": \"restore\", \"step\": {step}, \"attempt\": {attempt}, \"cause\": \"{}\"}}",
            json_escape(cause)
        ),
        RecoveryEvent::WatchdogTimeout { step, attempt } => format!(
            "{{\"event\": \"watchdog_timeout\", \"step\": {step}, \"attempt\": {attempt}}}"
        ),
        RecoveryEvent::Fallback { step, reason } => format!(
            "{{\"event\": \"fallback\", \"step\": {step}, \"reason\": \"{}\"}}",
            json_escape(reason)
        ),
    }
}

fn node_event_json(e: &NodeEvent) -> String {
    match e {
        NodeEvent::Killed { node, step, cause } => format!(
            "{{\"event\": \"killed\", \"node\": {node}, \"step\": {step}, \"cause\": \"{}\"}}",
            json_escape(cause)
        ),
        NodeEvent::Partitioned { node, step } => {
            format!("{{\"event\": \"partitioned\", \"node\": {node}, \"step\": {step}}}")
        }
        NodeEvent::SlowNode { node, step } => {
            format!("{{\"event\": \"slow_node\", \"node\": {node}, \"step\": {step}}}")
        }
        NodeEvent::Reprovisioned { node, step } => {
            format!("{{\"event\": \"reprovisioned\", \"node\": {node}, \"step\": {step}}}")
        }
        NodeEvent::Migrated {
            from,
            to,
            atoms,
            step,
        } => format!(
            "{{\"event\": \"migrated\", \"from\": {from}, \"to\": {to}, \"atoms\": {atoms}, \"step\": {step}}}"
        ),
    }
}

/// Supervise a cluster through `steps` time steps: the checkpoint/restore/
/// retry machinery of [`run_supervised`] drives the [`ClusterMd`] like any
/// single device (node crashes surface as failed segments; `resalt` runs
/// the membership repair), then the cluster's membership log is joined into
/// the returned [`ClusterRecovery`]. `ledger`, when given, receives the
/// supervisor's recovery events and accepted segments, as in
/// [`run_supervised`].
///
/// Take the cluster by value or pre-script kills on it first — for example
/// `cluster.kill_node_at_step(2, 5)` for the CI demo — then pass it in.
pub fn run_cluster_supervised(
    cluster: &mut ClusterMd,
    sim: &SimConfig,
    steps: usize,
    cfg: &SupervisorConfig,
    ledger: Option<&mut RunLedger>,
) -> ClusterRecovery {
    let run = run_supervised(cluster, sim, steps, cfg, ledger);
    ClusterRecovery {
        run,
        node_events: cluster.events().to_vec(),
        alive_nodes: cluster.alive_nodes(),
        total_nodes: cluster.total_nodes(),
        spares_left: cluster.spares_left(),
        migrations: cluster.migrations(),
    }
}

#[cfg(test)]
// Bitwise f64 equality is the determinism invariant under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use md_core::device::{MdDevice, RunOptions};

    fn small() -> SimConfig {
        SimConfig::reduced_lj(108)
    }

    #[test]
    fn labels_and_tokens_match_built_clusters() {
        for kind in [
            ClusterKind::new(DeviceKind::Opteron, 4),
            ClusterKind::new(DeviceKind::cell_best(), 2),
            ClusterKind::new(
                DeviceKind::Mta {
                    mode: mta::ThreadingMode::FullyMultithreaded,
                },
                3,
            ),
        ] {
            assert_eq!(kind.label(), kind.build().label(), "{kind:?}");
            assert!(kind.cache_token().contains(&kind.device.cache_token()));
        }
        // Different topologies must never share a cache key.
        let a = ClusterKind::new(DeviceKind::Opteron, 4).cache_token();
        let b = ClusterKind::new(DeviceKind::Opteron, 8).cache_token();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot be a cluster node")]
    fn ppe_baseline_is_rejected_as_a_node() {
        let _ = ClusterKind::new(DeviceKind::CellPpe, 2).build();
    }

    #[test]
    fn supervised_cluster_matches_single_device_bitwise() {
        let sim = small();
        let cfg = SupervisorConfig::default();
        let mut single = DeviceKind::Opteron.build();
        let plain = single
            .run(&sim, RunOptions::steps(6))
            .expect("opteron runs");
        let mut cluster = ClusterKind::new(DeviceKind::Opteron, 4).build();
        let rec = run_cluster_supervised(&mut cluster, &sim, 6, &cfg, None);
        assert!(rec.recovered_cleanly());
        assert_eq!(rec.run.checkpoint.positions, plain.checkpoint.positions);
        assert_eq!(rec.run.checkpoint.velocities, plain.checkpoint.velocities);
        assert_eq!(rec.run.energies.total, plain.energies.total);
        // The cluster timeline pays interconnect overhead on top.
        assert!(rec.run.sim_seconds > 0.0);
    }

    #[test]
    fn killed_node_recovers_bit_exactly() {
        let sim = small();
        let cfg = SupervisorConfig::default();

        let mut clean = ClusterKind::new(DeviceKind::Opteron, 4).build();
        let clean_rec = run_cluster_supervised(&mut clean, &sim, 6, &cfg, None);

        let mut faulted = ClusterKind::new(DeviceKind::Opteron, 4).build();
        faulted.kill_node_at_step(2, 3);
        let rec = run_cluster_supervised(&mut faulted, &sim, 6, &cfg, None);

        assert!(
            rec.recovered_cleanly(),
            "events: {:?}",
            rec.run.report.events
        );
        assert_eq!(
            rec.run.checkpoint.positions,
            clean_rec.run.checkpoint.positions
        );
        assert_eq!(rec.run.energies.total, clean_rec.run.energies.total);
        assert!(rec.run.sim_seconds > clean_rec.run.sim_seconds);
        assert_eq!(rec.migrations, 1);
        assert!(rec
            .node_events
            .iter()
            .any(|e| matches!(e, NodeEvent::Killed { node: 2, .. })));
        assert_eq!(rec.run.report.restores, 1);
    }

    #[test]
    fn recovery_json_is_well_formed_enough() {
        let sim = small();
        let mut cluster = ClusterKind::new(DeviceKind::Opteron, 2).build();
        cluster.kill_node_at_step(0, 1);
        let rec = run_cluster_supervised(&mut cluster, &sim, 4, &SupervisorConfig::default(), None);
        let json = rec.to_json();
        assert!(json.contains("\"schema\": \"mdea.cluster_recovery.v1\""));
        assert!(json.contains("\"event\": \"killed\""));
        assert!(json.contains("\"event\": \"migrated\""));
        assert!(json.contains("\"event\": \"restore\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains("\n\n"));
    }
}
