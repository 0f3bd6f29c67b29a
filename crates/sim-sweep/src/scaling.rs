//! Cluster strong/weak-scaling sweeps (DESIGN.md §14): the multi-node
//! counterpart of [`crate::spec`], gridded over node counts instead of
//! device kinds.
//!
//! Two canonical shapes:
//!
//! - **Strong scaling** holds the box fixed ([`STRONG_SCALING_ATOMS`] atoms)
//!   and splits it across 1/2/4/8 nodes. Per-node compute shrinks while the
//!   halo and all-reduce terms do not, so speedup rolls off — the classic
//!   surface-to-volume story the interconnect cost model exists to tell.
//! - **Weak scaling** holds atoms-per-node fixed
//!   ([`WEAK_SCALING_ATOMS_PER_NODE`]) and grows the box with the cluster;
//!   efficiency is the time ratio against the single-node run of the same
//!   per-node workload.
//!
//! Points are memoized in the same content-addressed [`ResultCache`] as the
//! figure sweeps. The key hashes [`harness::ClusterKind::cache_token`],
//! which spells out every interconnect and recovery-policy constant on top
//! of the inner device's token, so retuning a latency or a spare count
//! invalidates exactly the cluster points and nothing else.

use crate::cache::{point_key, ResultCache};
use crate::engine::{EngineConfig, SweepError};
use harness::{cluster_metrics, ClusterKind, DeviceKind};
use sim_perf::RunMetrics;
use std::fmt::Write as _;

/// Node counts every scaling spec sweeps over.
pub const SCALING_NODE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Strong scaling: total atoms, fixed across node counts.
pub const STRONG_SCALING_ATOMS: usize = 2048;

/// Weak scaling: atoms per node, fixed across node counts.
pub const WEAK_SCALING_ATOMS_PER_NODE: usize = 512;

/// Steps per scaling point (matches the CI recovery workload).
pub const SCALING_STEPS: usize = 10;

/// One cluster scaling point: a cluster shape plus a workload.
#[derive(Clone, Copy, Debug)]
pub struct ClusterPoint {
    /// `"strong"` or `"weak"` — which scaling question this point answers.
    pub mode: &'static str,
    pub cluster: ClusterKind,
    pub n_atoms: usize,
    pub steps: usize,
}

/// A named grid of cluster points, the scaling analogue of
/// [`crate::SweepSpec`].
pub struct ClusterSweepSpec {
    pub name: &'static str,
    pub description: &'static str,
    pub points: Vec<ClusterPoint>,
}

/// Fixed-box scaling of `device` over [`SCALING_NODE_COUNTS`].
pub fn strong_scaling(device: DeviceKind) -> ClusterSweepSpec {
    ClusterSweepSpec {
        name: "strong",
        description: "Fixed 2048-atom box split across 1/2/4/8 nodes; \
                      speedup rolls off as halo and all-reduce costs stay \
                      constant while per-node compute shrinks.",
        points: SCALING_NODE_COUNTS
            .iter()
            .map(|&nodes| ClusterPoint {
                mode: "strong",
                cluster: ClusterKind::new(device, nodes),
                n_atoms: STRONG_SCALING_ATOMS,
                steps: SCALING_STEPS,
            })
            .collect(),
    }
}

/// Fixed atoms-per-node scaling of `device` over [`SCALING_NODE_COUNTS`].
pub fn weak_scaling(device: DeviceKind) -> ClusterSweepSpec {
    ClusterSweepSpec {
        name: "weak",
        description: "512 atoms per node as the cluster grows 1/2/4/8 \
                      nodes; efficiency is the single-node time over the \
                      N-node time for the same per-node workload.",
        points: SCALING_NODE_COUNTS
            .iter()
            .map(|&nodes| ClusterPoint {
                mode: "weak",
                cluster: ClusterKind::new(device, nodes),
                n_atoms: WEAK_SCALING_ATOMS_PER_NODE * nodes,
                steps: SCALING_STEPS,
            })
            .collect(),
    }
}

/// One executed (or cache-served) cluster point.
pub struct ClusterPointResult {
    pub point: ClusterPoint,
    pub metrics: RunMetrics,
    pub from_cache: bool,
}

/// Execute a cluster scaling spec through the shared result cache.
///
/// Points run serially in spec order — a scaling spec is four points, and
/// the interesting parallelism already lives inside each cluster run's lane
/// map. Cache keys use [`harness::ClusterKind::cache_token`], disjoint by
/// construction from single-device tokens (every cluster token starts with
/// `cluster:`).
pub fn run_cluster_sweep(
    spec: &ClusterSweepSpec,
    cfg: &EngineConfig,
) -> Result<Vec<ClusterPointResult>, SweepError> {
    // Same open-vs-new split as `run_sweep`: `--no-cache` runs must not
    // create (or sweep) the cache directory.
    let cache = if cfg.use_cache {
        ResultCache::open(cfg.cache_dir.clone())?
    } else {
        ResultCache::new(cfg.cache_dir.clone())
    };
    let mut results = Vec::with_capacity(spec.points.len());
    for p in &spec.points {
        let scn = md_core::scenario::ScenarioSpec::default().cache_token();
        let key = point_key(cfg.salt, &p.cluster.cache_token(), &scn, p.n_atoms, p.steps);
        if cfg.use_cache {
            if let Some(metrics) = cache.load(&key) {
                results.push(ClusterPointResult {
                    point: *p,
                    metrics,
                    from_cache: true,
                });
                continue;
            }
        }
        let sim = md_core::params::SimConfig::reduced_lj(p.n_atoms);
        let metrics = cluster_metrics(p.cluster, &sim, p.steps).map_err(|e| SweepError::Point {
            figure: spec.name,
            device: p.cluster.label(),
            n_atoms: p.n_atoms,
            steps: p.steps,
            message: e.to_string(),
        })?;
        if cfg.use_cache {
            cache.store(&key, &metrics)?;
        }
        results.push(ClusterPointResult {
            point: *p,
            metrics,
            from_cache: false,
        });
    }
    Ok(results)
}

/// Schema of `BENCH_cluster.json`.
pub const BENCH_CLUSTER_SCHEMA_VERSION: u32 = 1;

/// The `BENCH_cluster.json` document: one entry per scaling point, with
/// speedup and parallel efficiency against the 1-node run of the same mode.
///
/// Simulated numbers only — like `BENCH_seed.json` this is a CI-diffable
/// baseline, bitwise reproducible on any host.
pub fn bench_cluster_json(strong: &[ClusterPointResult], weak: &[ClusterPointResult]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema_version\": {BENCH_CLUSTER_SCHEMA_VERSION},");
    let _ = writeln!(
        out,
        "  \"description\": \"Simulated strong/weak cluster scaling baseline; regenerate with the cluster binary.\","
    );
    out.push_str("  \"benchmarks\": [\n");
    let entries: Vec<String> = strong
        .iter()
        .chain(weak.iter())
        .map(|r| scaling_entry(r, baseline_seconds(r, strong, weak)))
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The 1-node simulated time of `r`'s own mode — the denominator-free
/// reference both speedup and efficiency are quoted against.
fn baseline_seconds(
    r: &ClusterPointResult,
    strong: &[ClusterPointResult],
    weak: &[ClusterPointResult],
) -> f64 {
    let peers: &[ClusterPointResult] = if r.point.mode == "strong" {
        strong
    } else {
        weak
    };
    peers
        .iter()
        .find(|p| p.point.cluster.nodes == 1)
        .map_or(f64::NAN, |p| p.metrics.sim_seconds)
}

fn scaling_entry(r: &ClusterPointResult, base_s: f64) -> String {
    let nodes = r.point.cluster.nodes;
    let seconds = r.metrics.sim_seconds;
    assert!(
        seconds.is_finite() && seconds > 0.0,
        "{}/{nodes} nodes: bad simulated seconds {seconds}",
        r.point.mode
    );
    assert!(
        base_s.is_finite() && base_s > 0.0,
        "{} scaling has no 1-node baseline",
        r.point.mode
    );
    // Strong scaling: same box, so speedup = t1/tN and efficiency divides
    // by the node count. Weak scaling: the box grows with the cluster, so
    // t1/tN *is* the efficiency (ideal 1.0) and speedup is reported as
    // efficiency × nodes for symmetry.
    let ratio = base_s / seconds;
    let (speedup, efficiency) = if r.point.mode == "strong" {
        (ratio, ratio / nodes_f(nodes))
    } else {
        (ratio * nodes_f(nodes), ratio)
    };
    format!(
        "    {{\"mode\": \"{}\", \"device\": \"{}\", \"nodes\": {nodes}, \"n_atoms\": {}, \"steps\": {}, \"sim_seconds\": {seconds}, \"speedup\": {speedup}, \"efficiency\": {efficiency}}}",
        r.point.mode,
        sim_obs::escape_json_string(&r.point.cluster.label()),
        r.point.n_atoms,
        r.point.steps,
    )
}

#[allow(clippy::cast_precision_loss)]
fn nodes_f(nodes: usize) -> f64 {
    nodes as f64
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::float_cmp)]

    use super::*;

    fn temp_cfg(tag: &str) -> EngineConfig {
        let dir =
            std::env::temp_dir().join(format!("mdea-cluster-sweep-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        EngineConfig {
            cache_dir: dir,
            ..EngineConfig::default()
        }
    }

    fn tiny_spec() -> ClusterSweepSpec {
        ClusterSweepSpec {
            name: "strong",
            description: "test grid",
            points: [1, 2]
                .iter()
                .map(|&nodes| ClusterPoint {
                    mode: "strong",
                    cluster: ClusterKind::new(DeviceKind::Opteron, nodes),
                    // Big enough that halving the compute dwarfs the added
                    // interconnect cost (the strong-scaling assertion below).
                    n_atoms: 512,
                    steps: 2,
                })
                .collect(),
        }
    }

    #[test]
    fn scaling_specs_cover_the_node_grid() {
        let strong = strong_scaling(DeviceKind::Opteron);
        let weak = weak_scaling(DeviceKind::Opteron);
        assert_eq!(strong.points.len(), SCALING_NODE_COUNTS.len());
        assert_eq!(weak.points.len(), SCALING_NODE_COUNTS.len());
        for (p, &nodes) in strong.points.iter().zip(SCALING_NODE_COUNTS.iter()) {
            assert_eq!(p.cluster.nodes, nodes);
            assert_eq!(p.n_atoms, STRONG_SCALING_ATOMS);
            assert_eq!(p.steps, SCALING_STEPS);
        }
        for (p, &nodes) in weak.points.iter().zip(SCALING_NODE_COUNTS.iter()) {
            assert_eq!(p.cluster.nodes, nodes);
            assert_eq!(p.n_atoms, WEAK_SCALING_ATOMS_PER_NODE * nodes);
        }
    }

    #[test]
    fn cluster_cache_keys_are_disjoint_from_device_keys() {
        let kind = ClusterKind::new(DeviceKind::Opteron, 1);
        let scn = md_core::scenario::ScenarioSpec::default().cache_token();
        let cluster_key = point_key(1, &kind.cache_token(), &scn, 2048, 10);
        let device_key = point_key(1, &DeviceKind::Opteron.cache_token(), &scn, 2048, 10);
        assert_ne!(cluster_key, device_key);
        assert!(kind.cache_token().starts_with("cluster:"));
    }

    #[test]
    fn sweep_executes_then_serves_from_cache_bitwise() {
        let spec = tiny_spec();
        let cfg = temp_cfg("roundtrip");
        let cold = run_cluster_sweep(&spec, &cfg).expect("cold sweep");
        assert!(cold.iter().all(|r| !r.from_cache));
        let warm = run_cluster_sweep(&spec, &cfg).expect("warm sweep");
        assert!(warm.iter().all(|r| r.from_cache));
        for (c, w) in cold.iter().zip(warm.iter()) {
            assert_eq!(c.metrics, w.metrics, "cache round-trip must be bitwise");
        }
        // More nodes on a fixed box cannot be slower than the network-free
        // single node by anything but interconnect cost, and the 1-node
        // cluster pays no interconnect at all.
        assert!(cold[1].metrics.sim_seconds < cold[0].metrics.sim_seconds);
        let _ = std::fs::remove_dir_all(&cfg.cache_dir);
    }

    #[test]
    fn bench_cluster_json_reports_every_point_with_finite_ratios() {
        let spec = tiny_spec();
        let cfg = temp_cfg("json");
        let results = run_cluster_sweep(&spec, &cfg).expect("sweep");
        let doc = bench_cluster_json(&results, &[]);
        assert!(doc.contains("\"schema_version\": 1"));
        assert!(doc.contains("\"mode\": \"strong\""));
        assert!(doc.contains("\"nodes\": 1"));
        assert!(doc.contains("\"nodes\": 2"));
        assert!(doc.contains("\"speedup\": "));
        assert!(doc.contains("\"efficiency\": "));
        let parsed = sim_perf::parse_json(&doc).expect("well-formed JSON");
        let benches = parsed.get("benchmarks").unwrap().as_array().unwrap();
        assert_eq!(benches.len(), 2);
        for b in benches {
            let speedup = b.get("speedup").unwrap().as_number().unwrap();
            assert!(speedup.is_finite() && speedup > 0.0);
        }
        let _ = std::fs::remove_dir_all(&cfg.cache_dir);
    }
}
