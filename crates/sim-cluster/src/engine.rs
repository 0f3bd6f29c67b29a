//! The cluster engine: an [`MdDevice`] made of [`MdDevice`]s.
//!
//! [`ClusterMd`] owns one device per node plus optional warm spares,
//! partitions the box into contiguous slab domains ([`slab_domains`] — the
//! lattice fills `ix`-major, so index slabs are spatial slabs along x), and
//! charges the interconnect cost model for the halo exchange every step
//! needs and the all-reduce that closes it.
//!
//! **Bit-identity by construction.** Every node integrates the same
//! equations over the same atoms, so the cluster computes the segment's
//! physics once — on the first alive node's device, from the shared
//! checkpoint — and the decomposition shapes only the *simulated* timeline:
//! per-node compute is the physics time scaled by the node's atom share
//! (the same atom-slice scaling the Cell SPE model uses), halo and
//! all-reduce costs come from [`InterconnectModel`], and recovery work is
//! charged in simulated seconds. Final positions, velocities, and energies
//! are therefore bitwise-identical to a single-device run at any node
//! count, any thread count, and under any recoverable fault history.
//!
//! **Node-granularity faults.** A [`FaultPlan`] armed on the cluster drives
//! the [`FaultKind::CLUSTER`] sites: node crashes and link partitions are
//! evaluated at segment boundaries and surface as [`DeviceError::Failed`]
//! (the harness supervisor rolls back, re-salts, and retries — exactly the
//! checkpoint/restore machinery PR 2 built); halo drops and corruptions are
//! per-step per-node with bounded resends charged to the timeline; a
//! slow-node watchdog expels stragglers. A crashed node stays dead: the
//! next attempt's [`MdDevice::resalt`] runs the membership repair that
//! migrates its slabs to a re-provisioned spare or the least-loaded
//! survivor, charging the migration wire cost into the next accepted
//! segment.

use crate::interconnect::{ClusterPolicy, InterconnectModel};
use md_core::device::{slab_domains, DeviceError, DeviceRun, DomainRegion, MdDevice, RunOptions};
use md_core::parallel::map_indexed;
use md_core::params::SimConfig;
use sim_fault::{FaultKind, FaultPlan, FaultSession, FaultSite, FaultStats};

/// One cluster membership change or node-level fault, in occurrence order.
/// The harness supervisor folds these into its `RecoveryReport`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeEvent {
    /// A node died at the segment boundary at `step`.
    Killed {
        node: usize,
        step: u64,
        cause: String,
    },
    /// The interconnect isolated a node for one attempt (transient).
    Partitioned { node: usize, step: u64 },
    /// The slow-node watchdog expelled an attempt because of a straggler.
    SlowNode { node: usize, step: u64 },
    /// A warm spare joined the membership as rank `node`.
    Reprovisioned { node: usize, step: u64 },
    /// A dead node's slabs moved to `to` (`atoms` atoms over the wire).
    Migrated {
        from: usize,
        to: usize,
        atoms: usize,
        step: u64,
    },
}

/// A scripted, deterministic node kill: fires once, at the first segment
/// whose step range contains `at_step`. This is the CI demo's switch — no
/// probability involved.
#[derive(Clone, Copy, Debug)]
struct KillSwitch {
    node: usize,
    at_step: u64,
    fired: bool,
}

/// One member node: its device, and whether it is still alive. Slab
/// ownership lives in [`ClusterMd::owner`] so a membership change is one
/// index rewrite, not a data migration.
struct Node {
    device: Box<dyn MdDevice>,
    alive: bool,
}

/// A simulated cluster of identical devices under slab domain decomposition.
///
/// Implements [`MdDevice`], so the harness supervisor and the sweep engine
/// drive it exactly like a single machine; `run` is one supervisor segment.
pub struct ClusterMd {
    nodes: Vec<Node>,
    spares: Vec<Box<dyn MdDevice>>,
    net: InterconnectModel,
    policy: ClusterPolicy,
    /// Slab count, fixed at the initial node count: migrations reassign
    /// `owner`, never re-cut the box.
    n_slabs: usize,
    /// `owner[slab] = rank` of the node currently integrating that slab.
    owner: Vec<usize>,
    inner_label: String,
    per_node_peak: f64,
    base_plan: FaultPlan,
    salt: u64,
    kills: Vec<KillSwitch>,
    events: Vec<NodeEvent>,
    /// Migration wire seconds/bytes accrued by membership repairs, charged
    /// into the next *accepted* segment (faults cost simulated time only).
    pending_recovery_s: f64,
    pending_recovery_bytes: f64,
    pending_migrations: u64,
    migrations_total: u64,
    /// Per-slab FNV-1a digests of the last segment's closing halo payload
    /// (order-preserving parallel map, serial fold into `halo_digest`).
    last_halo_digests: Vec<u64>,
    halo_digest: u64,
}

impl ClusterMd {
    /// A cluster of `nodes` members plus `spares` warm spares. All devices
    /// should be identically configured (same `DeviceKind`): determinism
    /// then guarantees any member computes the same bits, which is what
    /// makes migration physics-transparent.
    pub fn new(
        nodes: Vec<Box<dyn MdDevice>>,
        spares: Vec<Box<dyn MdDevice>>,
        net: InterconnectModel,
        policy: ClusterPolicy,
    ) -> Self {
        assert!(!nodes.is_empty(), "a cluster needs at least one node");
        let inner_label = nodes[0].label();
        let per_node_peak = nodes[0].peak_ops_per_second();
        let n_slabs = nodes.len();
        Self {
            nodes: nodes
                .into_iter()
                .map(|device| Node {
                    device,
                    alive: true,
                })
                .collect(),
            spares,
            net,
            policy,
            n_slabs,
            owner: (0..n_slabs).collect(),
            inner_label,
            per_node_peak,
            base_plan: FaultPlan::disabled(),
            salt: 0,
            kills: Vec::new(),
            events: Vec::new(),
            pending_recovery_s: 0.0,
            pending_recovery_bytes: 0.0,
            pending_migrations: 0,
            migrations_total: 0,
            last_halo_digests: Vec::new(),
            halo_digest: 0,
        }
    }

    /// Arm the node-granularity fault schedule ([`FaultKind::CLUSTER`]
    /// sites). Member devices arm their own device-level plans at
    /// construction.
    #[must_use]
    pub fn with_node_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.base_plan = plan;
        self
    }

    /// Script a deterministic kill: `node` dies at the boundary of the
    /// first segment whose step range contains `at_step`. Fires once.
    pub fn kill_node_at_step(&mut self, node: usize, at_step: u64) {
        self.kills.push(KillSwitch {
            node,
            at_step,
            fired: false,
        });
    }

    /// Membership/fault log since construction, in occurrence order.
    pub fn events(&self) -> &[NodeEvent] {
        &self.events
    }

    /// Members currently alive (spares joined count, dead nodes don't).
    pub fn alive_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Member slots ever provisioned (initial nodes + joined spares).
    pub fn total_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Warm spares still on the bench.
    pub fn spares_left(&self) -> usize {
        self.spares.len()
    }

    /// Domain migrations performed over the cluster's lifetime.
    pub fn migrations(&self) -> u64 {
        self.migrations_total
    }

    /// Per-slab FNV-1a digests of the last accepted segment's closing halo
    /// payload, and their serial fold. Equal state implies equal digests,
    /// so these pin the halo-validation path in tests.
    pub fn halo_digests(&self) -> (&[u64], u64) {
        (&self.last_halo_digests, self.halo_digest)
    }

    /// Ranks alive right now, ascending.
    fn alive_ranks(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&r| self.nodes[r].alive)
            .collect()
    }

    /// Slabs currently owned by `rank` under the `n`-atom cut.
    fn owned(&self, rank: usize, slabs: &[DomainRegion]) -> Vec<DomainRegion> {
        self.owner
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o == rank)
            .map(|(i, _)| slabs[i])
            .collect()
    }

    /// Atoms currently owned by `rank` under the `n`-atom cut.
    fn owned_atoms(&self, rank: usize, slabs: &[DomainRegion]) -> usize {
        self.owned(rank, slabs).iter().map(|d| d.len).sum()
    }

    /// Membership repair: every slab owned by a dead rank moves to a
    /// re-provisioned spare (preferred) or the least-loaded survivor. Runs
    /// at segment entry, i.e. "from the last MDCP1 checkpoint": the
    /// supervisor already rolled the state back, so handing the slab to a
    /// new owner is a pure ownership rewrite plus wire cost.
    fn repair_membership(&mut self, slabs: &[DomainRegion], step: u64) {
        while let Some(dead_rank) = self.owner.iter().copied().find(|&o| !self.nodes[o].alive) {
            let moved_atoms = self.owned_atoms(dead_rank, slabs);
            let target = if let Some(spare) = self.spares.pop() {
                self.nodes.push(Node {
                    device: spare,
                    alive: true,
                });
                let rank = self.nodes.len() - 1;
                self.events
                    .push(NodeEvent::Reprovisioned { node: rank, step });
                Some(rank)
            } else {
                // Least-loaded survivor, ties to the lowest rank.
                self.alive_ranks()
                    .into_iter()
                    .min_by_key(|&r| (self.owned_atoms(r, slabs), r))
            };
            let Some(target) = target else {
                // No survivors: leave ownership dangling; `run` reports the
                // dead cluster and the supervisor degrades to the reference.
                break;
            };
            for o in &mut self.owner {
                if *o == dead_rank {
                    *o = target;
                }
            }
            self.events.push(NodeEvent::Migrated {
                from: dead_rank,
                to: target,
                atoms: moved_atoms,
                step,
            });
            self.pending_recovery_s += self.net.migration_s(moved_atoms);
            self.pending_recovery_bytes += moved_atoms as f64 * self.net.migration_bytes_per_atom;
            self.pending_migrations += 1;
            self.migrations_total += 1;
        }
    }

    /// Evaluate the segment-boundary fault sites (scripted kills, node
    /// crashes, link partitions, slow nodes) for the attempt covering steps
    /// `[step, step + steps)`. `Err` is the failure message the supervisor
    /// logs.
    fn segment_boundary_faults(
        &mut self,
        plan: &FaultPlan,
        step: u64,
        steps: usize,
    ) -> Result<(), String> {
        // Scripted kills fire first and exactly once: at the boundary of
        // the first segment whose step range reaches the target step.
        let mut killed: Vec<usize> = Vec::new();
        for k in &mut self.kills {
            if !k.fired
                && k.node < self.nodes.len()
                && self.nodes[k.node].alive
                && k.at_step < step + steps as u64
            {
                k.fired = true;
                self.nodes[k.node].alive = false;
                killed.push(k.node);
            }
        }
        for &node in &killed {
            self.events.push(NodeEvent::Killed {
                node,
                step,
                cause: "scripted kill".to_string(),
            });
        }
        // Seeded crashes: permanent, handled by migration on retry.
        for rank in self.alive_ranks() {
            let site = FaultSite::new(FaultKind::NodeCrash, step, rank as u32, 0);
            if plan.faults_at(site, 0) {
                self.nodes[rank].alive = false;
                self.events.push(NodeEvent::Killed {
                    node: rank,
                    step,
                    cause: "node crash".to_string(),
                });
                killed.push(rank);
            }
        }
        if !killed.is_empty() {
            return Err(format!(
                "node(s) {killed:?} crashed at segment boundary (step {step})"
            ));
        }
        // Transient faults: fail the attempt, heal on the re-salted retry.
        for rank in self.alive_ranks() {
            let site = FaultSite::new(FaultKind::LinkPartition, step, rank as u32, 0);
            if plan.faults_at(site, 0) {
                self.events
                    .push(NodeEvent::Partitioned { node: rank, step });
                return Err(format!(
                    "interconnect partition isolated node {rank} (step {step})"
                ));
            }
            let site = FaultSite::new(FaultKind::NodeSlow, step, rank as u32, 0);
            if plan.faults_at(site, 0) {
                self.events.push(NodeEvent::SlowNode { node: rank, step });
                return Err(format!(
                    "slow-node watchdog: node {rank} exceeded {}x its segment budget (step {step})",
                    self.policy.slow_node_factor
                ));
            }
        }
        Ok(())
    }
}

impl MdDevice for ClusterMd {
    fn label(&self) -> String {
        format!("cluster-{}x-{}", self.n_slabs, self.inner_label)
    }

    fn peak_ops_per_second(&self) -> f64 {
        self.n_slabs as f64 * self.per_node_peak
    }

    /// Supervisor retry hook: adopt the new fault-schedule salt, forward it
    /// to every member device (device-level schedules re-arm too), and run
    /// the membership repair for nodes that died on the previous attempt.
    fn resalt(&mut self, salt: u64) {
        self.salt = salt;
        for node in &mut self.nodes {
            node.device.resalt(salt);
        }
        for spare in &mut self.spares {
            spare.resalt(salt);
        }
    }

    fn run(&mut self, sim: &SimConfig, opts: RunOptions<'_>) -> Result<DeviceRun, DeviceError> {
        let RunOptions {
            steps,
            start,
            perf,
            host_parallelism,
            ledger,
        } = opts;
        let mut perf = perf;
        // Node events recorded by *this* call (repairs, kills, migrations)
        // start here; the ledger gets exactly this slice, not the full log.
        let events_mark = self.events.len();
        let plan = self.base_plan.with_salt(self.salt);
        let start_step = start.as_ref().map_or(0, |cp| cp.step);
        let n = sim.n_atoms;
        let slabs = slab_domains(n, self.n_slabs);

        // Segment entry = "we hold a good checkpoint": repair membership
        // first so slabs orphaned by the previous attempt's crash have an
        // owner before any physics or fault evaluation happens.
        self.repair_membership(&slabs, start_step);
        let alive = self.alive_ranks();
        if alive.is_empty() || self.owner.iter().any(|&o| !self.nodes[o].alive) {
            return Err(DeviceError::Failed(format!(
                "cluster has no owner for every domain ({} of {} node(s) alive, no spares left)",
                alive.len(),
                self.total_nodes()
            )));
        }

        self.segment_boundary_faults(&plan, start_step, steps)
            .map_err(DeviceError::Failed)?;

        // Physics: computed once, on the first alive node, from the shared
        // checkpoint. Bit-identical to the single-device run by the
        // determinism + segment-transparency contracts.
        let physics_rank = alive[0];
        let phys = {
            let mut ro = RunOptions::steps(steps).with_host_parallelism(host_parallelism);
            if let Some(cp) = start {
                ro = ro.from_checkpoint(cp);
            }
            if let Some(p) = perf.as_deref_mut() {
                ro = ro.with_perf(p);
            }
            self.nodes[physics_rank].device.run(sim, ro)?
        };

        // Per-step halo faults: bounded resends charged to the timeline,
        // exhaustion rejected by the supervisor. Sites are evaluated with
        // the order-independent plan, so node order cannot matter.
        let session = FaultSession::with_budget(plan, self.policy.max_halo_resends);
        let mut halo_stats = FaultStats::default();
        let peers = alive.len() - 1;
        let mut compute_s = vec![0.0f64; self.nodes.len()];
        let mut halo_s = vec![0.0f64; self.nodes.len()];
        let mut halo_bytes = vec![0.0f64; self.nodes.len()];
        let mut halo_messages = vec![0u64; self.nodes.len()];
        let mut halo_resends_total = 0u64;
        for &rank in &alive {
            let local = self.owned_atoms(rank, &slabs);
            compute_s[rank] = phys.sim_seconds * (local as f64 / n.max(1) as f64);
            halo_s[rank] = steps as f64 * self.net.halo_exchange_s(local, n, peers);
            halo_bytes[rank] = steps as f64 * (n - local) as f64 * self.net.halo_bytes_per_atom;
            halo_messages[rank] = steps as u64 * peers as u64;
            if peers == 0 {
                continue;
            }
            let peer_bytes = (n - local) as f64 * self.net.halo_bytes_per_atom / peers as f64;
            for step in start_step..start_step + steps as u64 {
                for (slot, kind) in [(0u32, FaultKind::HaloDrop), (1u32, FaultKind::HaloCorrupt)] {
                    let out = session.peek(FaultSite::new(kind, step, rank as u32, slot));
                    halo_stats.injected += u64::from(out.failures);
                    if out.exhausted {
                        halo_stats.exhausted += 1;
                    } else {
                        halo_stats.retries += u64::from(out.failures);
                    }
                    let resend = f64::from(out.failures) * self.net.message_s(peer_bytes);
                    halo_s[rank] += resend;
                    halo_stats.extra_seconds += resend;
                    halo_bytes[rank] += f64::from(out.failures) * peer_bytes;
                    halo_resends_total += u64::from(out.failures);
                }
            }
        }
        // Exhausted halo sites stay in the stats (like the degradation
        // devices); the supervisor's reject-exhausted policy promotes them
        // to a failed segment.

        // Halo-payload validation: real FNV-1a digests of every slab of the
        // closing state, computed as an order-preserving parallel map and
        // folded serially — the PR 5 machinery, so digests (and everything
        // else) are bitwise-identical at any thread count.
        self.last_halo_digests = map_indexed(host_parallelism, slabs.len(), |i| {
            phys.checkpoint
                .domain_checksum(slabs[i].start, slabs[i].len)
        });
        self.halo_digest = self
            .last_halo_digests
            .iter()
            .fold(0xCBF2_9CE4_8422_2325u64, |acc, &d| acc.rotate_left(17) ^ d);

        // Critical path: the slowest node gates the step barrier; everyone
        // else stalls on the exchange. The all-reduce closes the segment.
        let crit_rank = alive
            .iter()
            .copied()
            .max_by(|&a, &b| {
                let ta = compute_s[a] + halo_s[a];
                let tb = compute_s[b] + halo_s[b];
                // Total order: times are finite by construction; ties go to
                // the lower rank so the argmax is deterministic.
                ta.partial_cmp(&tb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            })
            .unwrap_or(physics_rank);
        let allreduce_total = steps as f64 * self.net.allreduce_s(alive.len());
        let recovery_s = self.pending_recovery_s;
        let recovery_bytes = self.pending_recovery_bytes;
        let migrations_charged = self.pending_migrations;
        self.pending_recovery_s = 0.0;
        self.pending_recovery_bytes = 0.0;
        self.pending_migrations = 0;

        // Exactly the attribution fold's association, so the partition
        // identity holds bitwise: ((compute + halo) + allreduce) + recovery.
        let crit_compute = compute_s[crit_rank];
        let crit_halo = halo_s[crit_rank];
        let sim_seconds = ((crit_compute + crit_halo) + allreduce_total) + recovery_s;

        let mut faults = phys.faults;
        faults.merge(&halo_stats);
        faults.extra_seconds += recovery_s;

        let allreduce_bytes = steps as f64 * alive.len() as f64 * self.net.allreduce_payload_bytes;
        let halo_bytes_total: f64 = alive.iter().map(|&r| halo_bytes[r]).sum();

        if let Some(p) = perf {
            for &rank in &alive {
                let stall =
                    (compute_s[crit_rank] + halo_s[crit_rank]) - (compute_s[rank] + halo_s[rank]);
                for (name, value, unit) in [
                    (
                        format!("cluster.node{rank}.compute_s"),
                        compute_s[rank],
                        "seconds",
                    ),
                    (
                        format!("cluster.node{rank}.halo_bytes"),
                        halo_bytes[rank],
                        "bytes",
                    ),
                    (
                        format!("cluster.node{rank}.halo_messages"),
                        halo_messages[rank] as f64,
                        "events",
                    ),
                    (
                        format!("cluster.node{rank}.exchange_stall_s"),
                        stall,
                        "seconds",
                    ),
                ] {
                    let h = p.register(name, unit);
                    p.add(h, value.max(0.0));
                }
            }
            for (name, value, unit) in [
                ("cluster.allreduce_s", allreduce_total, "seconds"),
                ("cluster.recovery_s", recovery_s, "seconds"),
                ("cluster.halo_resends", halo_resends_total as f64, "events"),
                ("cluster.migrations", migrations_charged as f64, "events"),
            ] {
                let h = p.register(name, unit);
                p.add(h, value);
            }
        }

        let attribution = vec![
            ("compute", crit_compute),
            ("halo_exchange", crit_halo),
            ("all_reduce", allreduce_total),
            ("recovery", recovery_s),
        ];

        if let Some(led) = ledger {
            let source = self.label();
            led.device_phases(&source, &attribution);
            led.counter(&source, "sim_seconds", sim_seconds, sim_seconds, "s");
            for &rank in &alive {
                let node_src = format!("{source}.node{rank}");
                led.counter(
                    &node_src,
                    "compute_s",
                    sim_seconds,
                    compute_s[rank],
                    "seconds",
                );
                led.counter(
                    &node_src,
                    "halo_bytes",
                    sim_seconds,
                    halo_bytes[rank],
                    "bytes",
                );
                led.counter(
                    &node_src,
                    "halo_messages",
                    sim_seconds,
                    halo_messages[rank] as f64,
                    "events",
                );
            }
            led.counter(
                &source,
                "halo_resends",
                sim_seconds,
                halo_resends_total as f64,
                "events",
            );
            led.counter(
                &source,
                "migrations",
                sim_seconds,
                migrations_charged as f64,
                "events",
            );
            for ev in &self.events[events_mark..] {
                let (name, step, detail) = match ev {
                    NodeEvent::Killed { node, step, cause } => {
                        ("node_killed", *step, format!("node {node}: {cause}"))
                    }
                    NodeEvent::Partitioned { node, step } => {
                        ("node_partitioned", *step, format!("node {node}"))
                    }
                    NodeEvent::SlowNode { node, step } => {
                        ("node_slow", *step, format!("node {node}"))
                    }
                    NodeEvent::Reprovisioned { node, step } => {
                        ("node_reprovisioned", *step, format!("node {node}"))
                    }
                    NodeEvent::Migrated {
                        from,
                        to,
                        atoms,
                        step,
                    } => (
                        "domain_migrated",
                        *step,
                        format!("node {from} -> node {to} ({atoms} atoms)"),
                    ),
                };
                led.push(sim_obs::LedgerEvent {
                    t_s: led.sim_offset(),
                    kind: sim_obs::EventKind::Node,
                    source: source.clone(),
                    name: name.to_string(),
                    step: Some(step),
                    dur_s: None,
                    value: None,
                    unit: None,
                    detail: Some(detail),
                });
            }
        }

        let mut derived = vec![
            ("cluster_nodes", alive.len() as f64),
            (
                "cluster_halo_fraction",
                if sim_seconds > 0.0 {
                    crit_halo / sim_seconds
                } else {
                    0.0
                },
            ),
            (
                "cluster_allreduce_fraction",
                if sim_seconds > 0.0 {
                    allreduce_total / sim_seconds
                } else {
                    0.0
                },
            ),
        ];
        derived.extend(phys.derived.iter().copied());

        Ok(DeviceRun {
            sim_seconds,
            energies: phys.energies,
            checkpoint: phys.checkpoint,
            attribution,
            derived,
            ops: phys.ops,
            bytes_moved: ((phys.bytes_moved + halo_bytes_total) + allreduce_bytes) + recovery_bytes,
            faults,
        })
    }
}

#[cfg(test)]
// Bitwise f64 equality is the determinism invariant under test.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;
    use md_core::checkpoint::SystemCheckpoint;
    use md_core::device::HostParallelism;
    use md_core::init;
    use md_core::system::ParticleSystem;

    /// A deterministic toy device (same shape as md-core's NullDevice):
    /// reference physics, fixed per-step cost.
    struct TestDevice;

    impl MdDevice for TestDevice {
        fn label(&self) -> String {
            "test".to_string()
        }

        fn peak_ops_per_second(&self) -> f64 {
            1e9
        }

        fn run(&mut self, sim: &SimConfig, opts: RunOptions<'_>) -> Result<DeviceRun, DeviceError> {
            let (mut sys, start_step): (ParticleSystem<f64>, u64) = match opts.start {
                Some(cp) => (cp.restore(), cp.step),
                None => (init::initialize(sim), 0),
            };
            let energies = md_core::reference::run_from(&mut sys, sim, opts.steps);
            let seconds = opts.steps as f64 * 1e-3;
            Ok(DeviceRun {
                sim_seconds: seconds,
                energies,
                checkpoint: SystemCheckpoint::capture(&sys, start_step + opts.steps as u64),
                attribution: vec![("compute", seconds)],
                derived: vec![],
                ops: 1e6 * opts.steps as f64,
                bytes_moved: 0.0,
                faults: FaultStats::default(),
            })
        }
    }

    fn cluster(nodes: usize, spares: usize) -> ClusterMd {
        ClusterMd::new(
            (0..nodes)
                .map(|_| Box::new(TestDevice) as Box<dyn MdDevice>)
                .collect(),
            (0..spares)
                .map(|_| Box::new(TestDevice) as Box<dyn MdDevice>)
                .collect(),
            InterconnectModel::paper_2006(),
            ClusterPolicy::default_policy(),
        )
    }

    fn sim() -> SimConfig {
        SimConfig::reduced_lj(108)
    }

    #[test]
    fn cluster_physics_matches_single_device_bitwise() {
        let sim = sim();
        let single = TestDevice.run(&sim, RunOptions::steps(4)).unwrap();
        for nodes in [1, 2, 3, 4] {
            let run = cluster(nodes, 0).run(&sim, RunOptions::steps(4)).unwrap();
            assert_eq!(run.checkpoint, single.checkpoint, "{nodes} nodes");
            assert_eq!(
                run.energies.total.to_bits(),
                single.energies.total.to_bits()
            );
        }
    }

    #[test]
    fn interconnect_costs_grow_with_node_count() {
        let sim = sim();
        let t1 = cluster(1, 0).run(&sim, RunOptions::steps(4)).unwrap();
        let t4 = cluster(4, 0).run(&sim, RunOptions::steps(4)).unwrap();
        // One node pays no halo or all-reduce.
        let halo1: f64 = t1
            .attribution
            .iter()
            .find(|(k, _)| *k == "halo_exchange")
            .unwrap()
            .1;
        let halo4: f64 = t4
            .attribution
            .iter()
            .find(|(k, _)| *k == "halo_exchange")
            .unwrap()
            .1;
        assert_eq!(halo1, 0.0);
        assert!(halo4 > 0.0);
        // Four nodes each compute a quarter: compute shrinks, overhead grows.
        let comp1 = t1.attribution[0].1;
        let comp4 = t4.attribution[0].1;
        assert!(comp4 < comp1);
        assert!(t4.bytes_moved > t1.bytes_moved);
    }

    #[test]
    fn attribution_partitions_sim_seconds_exactly() {
        let sim = sim();
        for nodes in [1, 2, 4, 5] {
            let run = cluster(nodes, 0).run(&sim, RunOptions::steps(3)).unwrap();
            let folded = run.attribution.iter().fold(0.0f64, |acc, (_, s)| acc + s);
            assert_eq!(folded, run.sim_seconds, "{nodes} nodes");
        }
    }

    #[test]
    fn scripted_kill_fails_the_segment_then_migrates_to_spare() {
        let sim = sim();
        let mut c = cluster(4, 1);
        c.kill_node_at_step(2, 0);
        let err = c.run(&sim, RunOptions::steps(2));
        assert!(matches!(err, Err(DeviceError::Failed(_))), "{err:?}");
        assert_eq!(c.alive_nodes(), 3);
        // Retry (what the supervisor does after resalt): the spare joins.
        c.resalt(1);
        let run = c.run(&sim, RunOptions::steps(2)).unwrap();
        assert_eq!(c.alive_nodes(), 4);
        assert_eq!(c.spares_left(), 0);
        assert_eq!(c.migrations(), 1);
        // Recovery shows up in the timeline, not the physics.
        let recovery = run
            .attribution
            .iter()
            .find(|(k, _)| *k == "recovery")
            .unwrap()
            .1;
        assert!(recovery > 0.0);
        let clean = cluster(4, 0).run(&sim, RunOptions::steps(2)).unwrap();
        assert_eq!(run.checkpoint, clean.checkpoint);
        assert!(c
            .events()
            .iter()
            .any(|e| matches!(e, NodeEvent::Migrated { from: 2, .. })));
        assert!(c
            .events()
            .iter()
            .any(|e| matches!(e, NodeEvent::Reprovisioned { .. })));
    }

    #[test]
    fn kill_without_spare_migrates_to_survivor() {
        let sim = sim();
        let mut c = cluster(2, 0);
        c.kill_node_at_step(0, 0);
        assert!(c.run(&sim, RunOptions::steps(2)).is_err());
        c.resalt(1);
        let run = c.run(&sim, RunOptions::steps(2)).unwrap();
        assert_eq!(c.alive_nodes(), 1);
        // The survivor owns everything: no peers left, so no halo cost.
        let halo = run
            .attribution
            .iter()
            .find(|(k, _)| *k == "halo_exchange")
            .unwrap()
            .1;
        assert_eq!(halo, 0.0);
        let clean = cluster(2, 0).run(&sim, RunOptions::steps(2)).unwrap();
        assert_eq!(run.checkpoint, clean.checkpoint);
    }

    #[test]
    fn losing_every_node_is_a_hard_failure() {
        let sim = sim();
        let mut c = cluster(1, 0);
        c.kill_node_at_step(0, 0);
        assert!(c.run(&sim, RunOptions::steps(1)).is_err());
        c.resalt(1);
        let err = c.run(&sim, RunOptions::steps(1));
        assert!(matches!(err, Err(DeviceError::Failed(_))));
    }

    #[test]
    fn host_parallelism_is_bitwise_transparent() {
        let sim = sim();
        let run_at = |threads: usize| {
            let mut c = cluster(3, 0);
            let run = c
                .run(
                    &sim,
                    RunOptions::steps(3)
                        .with_host_parallelism(HostParallelism::from_threads(threads)),
                )
                .unwrap();
            let (digests, digest) = c.halo_digests();
            (
                run.checkpoint,
                run.sim_seconds.to_bits(),
                digests.to_vec(),
                digest,
            )
        };
        let serial = run_at(1);
        for threads in [2, 4, 8] {
            assert_eq!(run_at(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn halo_digests_cover_every_slab_and_see_corruption() {
        let sim = sim();
        let mut c = cluster(4, 0);
        c.run(&sim, RunOptions::steps(2)).unwrap();
        let (digests, _) = c.halo_digests();
        assert_eq!(digests.len(), 4);
        // 108 atoms over 4 slabs: a remainder cut; digests must be distinct
        // (different atoms) and reproducible.
        let mut c2 = cluster(4, 0);
        c2.run(&sim, RunOptions::steps(2)).unwrap();
        assert_eq!(c.halo_digests(), c2.halo_digests());
    }

    #[test]
    fn seeded_node_faults_are_deterministic_and_recoverable() {
        let sim = sim();
        let run_once = || {
            let mut c = cluster(3, 1).with_node_fault_plan(FaultPlan::new(0xC0FFEE, 0.05));
            let mut outcomes = Vec::new();
            // Drive like the supervisor: resalt per attempt, retry failures.
            let mut cp: Option<SystemCheckpoint> = None;
            let mut step = 0u64;
            'seg: for seg in 0..3u64 {
                for attempt in 0..8u32 {
                    c.resalt((step << 8) | u64::from(attempt));
                    let mut ro = RunOptions::steps(2);
                    if let Some(ref c0) = cp {
                        ro = ro.from_checkpoint(c0);
                    }
                    match c.run(&sim, ro) {
                        Ok(run) => {
                            outcomes.push((seg, attempt, run.sim_seconds.to_bits()));
                            cp = Some(run.checkpoint);
                            step += 2;
                            continue 'seg;
                        }
                        Err(e) => outcomes.push((seg, attempt, e.to_string().len() as u64)),
                    }
                }
                panic!("segment {seg} never recovered");
            }
            (outcomes, cp.unwrap())
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.0, b.0, "fault history must be deterministic");
        assert_eq!(a.1, b.1);
        // And the recovered physics matches the fault-free cluster.
        let mut clean = cluster(3, 1);
        let mut cp: Option<SystemCheckpoint> = None;
        for _ in 0..3 {
            let mut ro = RunOptions::steps(2);
            if let Some(ref c0) = cp {
                ro = ro.from_checkpoint(c0);
            }
            cp = Some(clean.run(&sim, ro).unwrap().checkpoint);
        }
        assert_eq!(a.1, cp.unwrap());
    }

    #[test]
    fn halo_faults_cost_time_only() {
        let sim = sim();
        let clean = cluster(4, 0).run(&sim, RunOptions::steps(6)).unwrap();
        // A plan whose rate fires halo drops but (at this seed) no
        // boundary faults in the first segment.
        let mut seed = 1u64;
        let (faulted, used_seed) = loop {
            let mut c = cluster(4, 0).with_node_fault_plan(FaultPlan::new(seed, 0.02));
            match c.run(&sim, RunOptions::steps(6)) {
                Ok(r) if r.faults.injected > 0 => break (r, seed),
                _ => seed += 1,
            }
            assert!(seed < 500, "no seed fired a halo fault");
        };
        assert_eq!(faulted.checkpoint, clean.checkpoint, "seed {used_seed}");
        assert_eq!(faulted.energies.total, clean.energies.total);
        assert!(
            faulted.sim_seconds > clean.sim_seconds,
            "halo resends must cost simulated time"
        );
        assert!(faulted.faults.extra_seconds > 0.0);
    }

    #[test]
    fn perf_counters_are_free_and_cover_every_node() {
        let sim = sim();
        let bare = cluster(3, 0).run(&sim, RunOptions::steps(3)).unwrap();
        let mut perf = sim_perf::PerfMonitor::new();
        let watched = cluster(3, 0)
            .run(&sim, RunOptions::steps(3).with_perf(&mut perf))
            .unwrap();
        assert_eq!(bare.checkpoint, watched.checkpoint);
        assert_eq!(bare.sim_seconds.to_bits(), watched.sim_seconds.to_bits());
        for rank in 0..3 {
            for suffix in [
                "compute_s",
                "halo_bytes",
                "halo_messages",
                "exchange_stall_s",
            ] {
                let name = format!("cluster.node{rank}.{suffix}");
                assert!(perf.find(&name).is_some(), "missing {name}");
            }
        }
        assert!(perf
            .find("cluster.allreduce_s")
            .is_some_and(|c| c.value() > 0.0));
        assert!(perf
            .find("cluster.recovery_s")
            .is_some_and(|c| c.value() == 0.0));
        // The critical-path node stalls zero; someone must wait.
        let stalls: Vec<f64> = (0..3)
            .map(|r| {
                perf.find(&format!("cluster.node{r}.exchange_stall_s"))
                    .unwrap()
                    .value()
            })
            .collect();
        assert!(stalls.contains(&0.0));
    }

    #[test]
    fn label_and_peak_reflect_the_cluster() {
        let c = cluster(4, 1);
        assert_eq!(c.label(), "cluster-4x-test");
        assert_eq!(c.peak_ops_per_second(), 4.0 * 1e9);
        assert_eq!(c.total_nodes(), 4);
        assert_eq!(c.spares_left(), 1);
    }
}
