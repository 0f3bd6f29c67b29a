//! A cold pass and a warm pass of sweep specs through the sweep engine and
//! its result cache.

use crate::calib::Part;
use crate::trace::Tracer;
use harness::DeviceKind;
use md_core::scenario::ScenarioSpec;
use sim_perf::RunMetrics;
use sim_sweep::{run_sweep, EngineConfig, SweepSpec};
use std::path::Path;

/// One point of a pass, in spec order.
pub struct PointOut {
    pub spec: &'static str,
    pub device: DeviceKind,
    pub scenario: ScenarioSpec,
    pub n_atoms: usize,
    pub steps: usize,
    /// The engine's cache key, so points sharing a result can be matched.
    pub key: String,
    pub from_cache: bool,
    pub metrics: RunMetrics,
}

impl PointOut {
    pub fn atom_steps(&self) -> f64 {
        (self.n_atoms * self.steps) as f64
    }
}

pub struct Pass {
    pub seconds: f64,
    /// Timing of each spec, in pass order.
    pub spec_s: Vec<(&'static str, Part)>,
    pub points: Vec<PointOut>,
}

impl Pass {
    pub fn spec_seconds(&self) -> Vec<f64> {
        self.spec_s.iter().map(|s| s.1.seconds).collect()
    }

    pub fn parts(&self) -> Vec<Part> {
        self.spec_s.iter().map(|s| s.1).collect()
    }

    pub fn executed(&self) -> usize {
        self.points.iter().filter(|p| !p.from_cache).count()
    }
}

/// One worker per core, as `sweep run --all` uses.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run every spec once, on [`nproc`] workers, against the cache in `dir`.
pub fn pass(specs: &[SweepSpec], dir: &Path, t: &mut Tracer) -> Result<Pass, String> {
    let cfg = EngineConfig {
        cache_dir: dir.to_path_buf(),
        jobs: nproc(),
        ..EngineConfig::default()
    };
    let mut out = Pass {
        seconds: 0.0,
        spec_s: Vec::new(),
        points: Vec::new(),
    };
    for spec in specs {
        let t0 = std::time::Instant::now();
        let report = t
            .span("sim-sweep", "run_sweep", |_| run_sweep(spec, &cfg))
            .map_err(|e| e.to_string())?;
        out.spec_s
            .push((spec.name, Part::timed(t0.elapsed().as_secs_f64())));
        for r in report.results {
            let p = r.point;
            out.points.push(PointOut {
                spec: spec.name,
                device: p.device,
                scenario: p.scenario,
                n_atoms: p.n_atoms,
                steps: p.steps,
                key: sim_sweep::point_key(
                    cfg.salt,
                    &p.device.cache_token(),
                    &p.scenario.cache_token(),
                    p.n_atoms,
                    p.steps,
                ),
                from_cache: r.from_cache,
                metrics: r.metrics,
            });
        }
    }
    out.seconds = out.spec_s.iter().map(|s| s.1.seconds).sum();
    Ok(out)
}

/// A cold pass into a fresh cache directory, then a warm pass over it. The
/// directory is removed afterwards.
pub fn cold_then_warm(
    specs: &[SweepSpec],
    dir: &Path,
    t: &mut Tracer,
) -> Result<(Pass, Pass), String> {
    let _ = std::fs::remove_dir_all(dir);
    let passes = pass(specs, dir, t).and_then(|cold| Ok((cold, pass(specs, dir, t)?)));
    let _ = std::fs::remove_dir_all(dir);
    passes
}

/// The warm pass must execute nothing and return every record bit for bit
/// as the cold pass computed it.
pub fn check_warm(cold: &Pass, warm: &Pass) -> Vec<String> {
    let mut failures = Vec::new();
    if warm.executed() != 0 {
        failures.push(format!("warm pass executed {} points", warm.executed()));
    }
    if cold.points.len() != warm.points.len() {
        failures.push("warm pass returned a different point count".to_string());
    }
    for (c, w) in cold.points.iter().zip(&warm.points) {
        if c.key != w.key || c.metrics.to_json() != w.metrics.to_json() {
            failures.push(format!("{}: warm record differs from cold", c.key));
        }
    }
    failures
}
