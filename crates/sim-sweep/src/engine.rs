//! Sweep execution: cache lookup, parallel device runs, cache store.
//!
//! Every point executes through [`harness::device_metrics`], or, when
//! several points of a spec price one f64 trajectory, through
//! [`harness::host_group_metrics`], which drives it once; either way a sweep
//! result is exactly the record a standalone perf run would produce.
//! Results are collected in point order on an order-preserving worker pool,
//! which makes parallel and serial sweeps bitwise-identical (asserted by
//! `tests/sweep_cache.rs`).

use crate::cache::{point_key, ResultCache};
use crate::spec::{SweepPoint, SweepSpec};
use rayon::prelude::*;
use sim_perf::RunMetrics;
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Where sweeps memoize results unless told otherwise.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// Knobs for one engine invocation.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    pub cache_dir: PathBuf,
    /// `false` disables both lookup and store (`--no-cache`).
    pub use_cache: bool,
    /// The code-version salt folded into every key; tests bump it to
    /// invalidate the world.
    pub salt: u64,
    /// Host threads for the whole sweep, shared by its points and their
    /// simulated lanes (DESIGN.md §12): 0 = one per core, 1 = serial.
    /// Never part of the cache key: lane execution is bitwise identical at
    /// any thread count.
    pub jobs: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            cache_dir: PathBuf::from(DEFAULT_CACHE_DIR),
            use_cache: true,
            salt: crate::cache::CODE_VERSION_SALT,
            jobs: 0,
        }
    }
}

/// One completed point: the metrics record plus where it came from.
#[derive(Clone, Debug)]
pub struct PointResult {
    pub point: SweepPoint,
    pub metrics: RunMetrics,
    pub from_cache: bool,
}

/// All results of one spec, in spec order.
#[derive(Clone, Debug)]
pub struct SweepReport {
    pub spec_name: &'static str,
    pub results: Vec<PointResult>,
}

impl SweepReport {
    /// Points served from the cache.
    pub fn hits(&self) -> usize {
        self.results.iter().filter(|r| r.from_cache).count()
    }

    /// Points that ran a device simulation.
    pub fn executed(&self) -> usize {
        self.results.len() - self.hits()
    }

    /// Post-hoc ledger view of the sweep: one `cache` event per point (with
    /// "hit"/"miss" detail) and one phase per point spanning its simulated
    /// seconds, points laid end-to-end in spec order. Built purely from the
    /// finished report, so it cannot perturb the sweep — and a warm sweep's
    /// ledger is byte-identical to the cold one's because cached metrics are
    /// bitwise the metrics the run produced.
    pub fn to_ledger(&self) -> sim_obs::RunLedger {
        let mut led = sim_obs::RunLedger::new(
            self.spec_name,
            &format!("{} sweep points", self.results.len()),
        );
        let mut cursor = 0.0f64;
        for r in &self.results {
            // Scenario identity rides in the event name so ledgers from
            // different scenarios never alias; the faithful default adds
            // nothing, keeping pre-substrate ledgers byte-identical.
            let scenario = if r.point.scenario == Default::default() {
                String::new()
            } else {
                format!("@{}", r.point.scenario.cache_token())
            };
            let name = format!(
                "{}_n{}_s{}{}",
                r.metrics.device, r.point.n_atoms, r.point.steps, scenario
            );
            led.push(sim_obs::LedgerEvent {
                t_s: cursor,
                kind: sim_obs::EventKind::Cache,
                source: "sweep-cache".to_string(),
                name: name.clone(),
                step: None,
                dur_s: None,
                value: None,
                unit: None,
                detail: Some(if r.from_cache { "hit" } else { "miss" }.to_string()),
            });
            led.phase(&r.metrics.device, &name, cursor, r.metrics.sim_seconds);
            cursor += r.metrics.sim_seconds;
        }
        led
    }
}

#[derive(Debug)]
pub enum SweepError {
    /// A device run failed (bad workload for the device, fault exhaustion…).
    Point {
        figure: &'static str,
        device: String,
        n_atoms: usize,
        steps: usize,
        message: String,
    },
    /// Cache or output I/O failed.
    Io(io::Error),
    /// The worker pool could not be built.
    Pool(String),
    /// Rendering a figure from the collected metrics failed.
    Render(harness::HarnessError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Point {
                figure,
                device,
                n_atoms,
                steps,
                message,
            } => write!(
                f,
                "{figure}: {device} at {n_atoms} atoms / {steps} steps failed: {message}"
            ),
            SweepError::Io(e) => write!(f, "cache I/O error: {e}"),
            SweepError::Pool(msg) => write!(f, "worker pool error: {msg}"),
            SweepError::Render(e) => write!(f, "render error: {e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Io(e) => Some(e),
            SweepError::Render(e) => Some(e),
            SweepError::Point { .. } | SweepError::Pool(_) => None,
        }
    }
}

impl From<io::Error> for SweepError {
    fn from(e: io::Error) -> Self {
        SweepError::Io(e)
    }
}

impl From<harness::HarnessError> for SweepError {
    fn from(e: harness::HarnessError) -> Self {
        SweepError::Render(e)
    }
}

/// The points of `points` whose runs share one trajectory, as index lists
/// ordered by their first point: points whose devices price the f64 host
/// trajectory ([`harness::DeviceKind::prices_host_trajectory`]) group by
/// workload (scenario, atoms, steps; every sweep run starts from the
/// lattice), and every other point runs alone.
fn trajectory_groups(points: &[SweepPoint]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let shared = if p.device.prices_host_trajectory() {
            groups.iter_mut().find(|g| {
                let q = &points[g[0]];
                q.device.prices_host_trajectory()
                    && (q.scenario, q.n_atoms, q.steps) == (p.scenario, p.n_atoms, p.steps)
            })
        } else {
            None
        };
        match shared {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// Run the device simulations of `points`, one group of
/// [`trajectory_groups`], and collect their metrics records in order.
fn execute_group(
    points: &[&SweepPoint],
    par: md_core::device::HostParallelism,
) -> Result<Vec<RunMetrics>, SweepError> {
    let p = points[0];
    let sim = md_core::params::SimConfig::reduced_lj(p.n_atoms).with_scenario(p.scenario);
    let run = if p.device.prices_host_trajectory() {
        let kinds: Vec<harness::DeviceKind> = points.iter().map(|q| q.device).collect();
        harness::host_group_metrics(&kinds, &sim, p.steps, par)
    } else {
        harness::device_metrics(p.device, &sim, p.steps, par).map(|m| vec![m])
    };
    run.map_err(|e| SweepError::Point {
        figure: p.figure,
        device: p.device.label(),
        n_atoms: p.n_atoms,
        steps: p.steps,
        message: e.to_string(),
    })
}

/// Execute a spec: each point is a cache lookup, then (on miss) a device
/// run and a cache store. Missed points whose devices price the f64 host
/// trajectory drive it once per workload and each price it. Groups run
/// concurrently on a pool of `cfg.jobs` workers, which also run the
/// points' simulated lanes; collection preserves spec order.
pub fn run_sweep(spec: &SweepSpec, cfg: &EngineConfig) -> Result<SweepReport, SweepError> {
    // `open` (not `new`) when caching: sweeps temp files orphaned by a
    // previous writer that died mid-store, so a crashed run can't leak disk
    // forever. `--no-cache` must not even create the directory.
    let cache = if cfg.use_cache {
        ResultCache::open(cfg.cache_dir.clone())?
    } else {
        ResultCache::new(cfg.cache_dir.clone())
    };
    // One budget of `cfg.jobs` threads: a group's lane maps run on its own
    // worker while every worker is busy, and on every worker that has run
    // out of groups once some have.
    let host_par = md_core::device::HostParallelism::from_threads(cfg.jobs);
    let run_group = |group: &Vec<usize>| -> Result<Vec<(RunMetrics, bool)>, SweepError> {
        let points: Vec<&SweepPoint> = group.iter().map(|&i| &spec.points[i]).collect();
        let keys: Vec<String> = points
            .iter()
            .map(|p| {
                point_key(
                    cfg.salt,
                    &p.device.cache_token(),
                    &p.scenario.cache_token(),
                    p.n_atoms,
                    p.steps,
                )
            })
            .collect();
        let mut out: Vec<Option<(RunMetrics, bool)>> = keys
            .iter()
            .map(|k| cfg.use_cache.then(|| cache.load(k)).flatten())
            .map(|m| m.map(|m| (m, true)))
            .collect();
        let missed: Vec<usize> = (0..out.len()).filter(|&j| out[j].is_none()).collect();
        if !missed.is_empty() {
            let runs = execute_group(
                &missed.iter().map(|&j| points[j]).collect::<Vec<_>>(),
                host_par,
            )?;
            for (&j, metrics) in missed.iter().zip(runs) {
                if cfg.use_cache {
                    cache.store(&keys[j], &metrics)?;
                }
                out[j] = Some((metrics, false));
            }
        }
        Ok(out.into_iter().flatten().collect())
    };
    let groups = trajectory_groups(&spec.points);
    let outcomes: Vec<Result<Vec<(RunMetrics, bool)>, SweepError>> = if cfg.jobs == 1 {
        groups.iter().map(run_group).collect()
    } else {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cfg.jobs)
            .build()
            .map_err(|e| SweepError::Pool(e.to_string()))?;
        pool.install(|| groups.par_iter().map(run_group).collect())
    };
    let mut indexed = Vec::with_capacity(spec.len());
    for (group, outcome) in groups.iter().zip(outcomes) {
        indexed.extend(group.iter().copied().zip(outcome?));
    }
    indexed.sort_by_key(|&(i, _)| i);
    let results = indexed
        .into_iter()
        .map(|(i, (metrics, from_cache))| PointResult {
            point: spec.points[i],
            metrics,
            from_cache,
        })
        .collect();
    Ok(SweepReport {
        spec_name: spec.name,
        results,
    })
}
