//! Sweep execution: cache lookup, parallel device runs, cache store.
//!
//! Every point executes through [`harness::device_metrics`] — the single
//! run-and-collect path in the workspace — so a sweep result is exactly the
//! record a standalone perf run would produce. Results are collected in
//! point order on an order-preserving worker pool, which makes parallel and
//! serial sweeps bitwise-identical (asserted by `tests/sweep_cache.rs`).

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

/// Run one point's device simulation and collect its metrics record.
fn execute_point(
    p: &SweepPoint,
    par: md_core::device::HostParallelism,
) -> Result<RunMetrics, SweepError> {
    let sim = md_core::params::SimConfig::reduced_lj(p.n_atoms).with_scenario(p.scenario);
    harness::device_metrics(p.device, &sim, p.steps, par).map_err(|e| SweepError::Point {
        figure: p.figure,
        device: p.device.label(),
        n_atoms: p.n_atoms,
        steps: p.steps,
        message: e.to_string(),
    })
}

/// Execute a spec: each point is a cache lookup, then (on miss) a device
/// run and a cache store. Points run concurrently on a pool of
/// `cfg.jobs` workers, which also run the points' simulated lanes;
/// collection preserves spec order.
pub fn run_sweep(spec: &SweepSpec, cfg: &EngineConfig) -> Result<SweepReport, SweepError> {
    // `open` (not `new`) when caching: sweeps temp files orphaned by a
    // previous writer that died mid-store, so a crashed run can't leak disk
    // forever. `--no-cache` must not even create the directory.
    let cache = if cfg.use_cache {
        ResultCache::open(cfg.cache_dir.clone())?
    } else {
        ResultCache::new(cfg.cache_dir.clone())
    };
    // One budget of `cfg.jobs` threads: a point's lane maps run on its own
    // worker while every worker is busy, and on every worker that has run
    // out of points once some have.
    let host_par = md_core::device::HostParallelism::from_threads(cfg.jobs);
    let run_point = |p: &SweepPoint| -> Result<(RunMetrics, bool), SweepError> {
        let key = point_key(
            cfg.salt,
            &p.device.cache_token(),
            &p.scenario.cache_token(),
            p.n_atoms,
            p.steps,
        );
        if cfg.use_cache {
            if let Some(metrics) = cache.load(&key) {
                return Ok((metrics, true));
            }
        }
        let metrics = execute_point(p, host_par)?;
        if cfg.use_cache {
            cache.store(&key, &metrics)?;
        }
        Ok((metrics, false))
    };
    let outcomes: Vec<Result<(RunMetrics, bool), SweepError>> = if cfg.jobs == 1 {
        spec.points.iter().map(run_point).collect()
    } else {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cfg.jobs)
            .build()
            .map_err(|e| SweepError::Pool(e.to_string()))?;
        pool.install(|| spec.points.par_iter().map(run_point).collect())
    };
    let mut results = Vec::with_capacity(outcomes.len());
    for (p, outcome) in spec.points.iter().zip(outcomes) {
        let (metrics, from_cache) = outcome?;
        results.push(PointResult {
            point: *p,
            metrics,
            from_cache,
        });
    }
    Ok(SweepReport {
        spec_name: spec.name,
        results,
    })
}
