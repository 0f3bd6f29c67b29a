//! Engine-level cache and determinism guarantees (ISSUE: sweep tentpole).
//!
//! Workloads here are deliberately small — the properties under test
//! (hit/miss accounting, corruption fallback, salt invalidation, parallel
//! vs serial bitwise identity) don't depend on paper-scale grids.

use harness::{DeviceKind, GpuModel};
use sim_perf::RunMetrics;
use sim_sweep::{point_key, run_sweep, EngineConfig, ResultCache, SweepPoint, SweepSpec};
use std::path::{Path, PathBuf};

/// A miniature fig7-shaped grid: Opteron + GPU per size, size-major.
fn small_fig7_spec() -> SweepSpec {
    let mut points = Vec::new();
    for n_atoms in [108usize, 256, 500] {
        for device in [
            DeviceKind::Opteron,
            DeviceKind::Gpu {
                model: GpuModel::GeForce7900Gtx,
            },
        ] {
            points.push(SweepPoint {
                figure: "fig7",
                device,
                n_atoms,
                steps: 1,
                scenario: Default::default(),
            });
        }
    }
    SweepSpec {
        name: "fig7-small",
        description: "test grid",
        points,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdea-sweep-engine-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: &Path) -> EngineConfig {
    EngineConfig {
        cache_dir: dir.to_path_buf(),
        ..EngineConfig::default()
    }
}

fn metrics_of(report: &sim_sweep::SweepReport) -> Vec<RunMetrics> {
    report.results.iter().map(|r| r.metrics.clone()).collect()
}

#[test]
fn cold_run_misses_warm_run_hits_with_identical_metrics() {
    let dir = temp_dir("hit-miss");
    let spec = small_fig7_spec();

    let cold = run_sweep(&spec, &cfg(&dir)).expect("cold run");
    assert_eq!(cold.executed(), spec.len());
    assert_eq!(cold.hits(), 0);

    let warm = run_sweep(&spec, &cfg(&dir)).expect("warm run");
    assert_eq!(warm.hits(), spec.len(), "every point must be served warm");
    assert_eq!(warm.executed(), 0);

    // Cache round trip is bit-exact, not approximate.
    assert_eq!(metrics_of(&cold), metrics_of(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entry_recomputes_instead_of_panicking() {
    let dir = temp_dir("corrupt");
    let spec = small_fig7_spec();
    let engine = cfg(&dir);

    let cold = run_sweep(&spec, &engine).expect("cold run");

    // Vandalize one entry; the rest stay warm.
    let victim = &spec.points[0];
    let cache = ResultCache::new(dir.clone());
    let key = point_key(
        engine.salt,
        &victim.device.cache_token(),
        &victim.scenario.cache_token(),
        victim.n_atoms,
        victim.steps,
    );
    std::fs::write(cache.path_for(&key), "{ this is not JSON").expect("corrupt the entry");

    let repaired = run_sweep(&spec, &engine).expect("run over a corrupt cache");
    assert_eq!(repaired.executed(), 1, "only the corrupt point recomputes");
    assert_eq!(repaired.hits(), spec.len() - 1);
    assert_eq!(metrics_of(&cold), metrics_of(&repaired));

    // The recompute healed the entry on disk.
    let healed = run_sweep(&spec, &engine).expect("healed run");
    assert_eq!(healed.hits(), spec.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn salt_bump_invalidates_every_cached_point() {
    let dir = temp_dir("salt");
    let spec = small_fig7_spec();
    let engine = cfg(&dir);

    run_sweep(&spec, &engine).expect("cold run");
    let bumped = EngineConfig {
        salt: engine.salt + 1,
        ..engine
    };
    let invalidated = run_sweep(&spec, &bumped).expect("bumped run");
    assert_eq!(
        invalidated.executed(),
        spec.len(),
        "a salt bump must stale the whole cache"
    );
    assert_eq!(invalidated.hits(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_and_serial_sweeps_are_bitwise_identical() {
    let spec = small_fig7_spec();
    let no_cache = |jobs| EngineConfig {
        cache_dir: temp_dir("unused"),
        use_cache: false,
        jobs,
        ..EngineConfig::default()
    };

    let serial = run_sweep(&spec, &no_cache(1)).expect("serial run");
    let parallel = run_sweep(&spec, &no_cache(4)).expect("parallel run");
    assert_eq!(serial.executed(), spec.len());
    assert_eq!(parallel.executed(), spec.len());
    assert_eq!(
        metrics_of(&serial),
        metrics_of(&parallel),
        "worker count must not change a single bit of any result"
    );
}

/// The tail of a spec: every point is a cache hit but one larger one, so
/// the workers that run out of points help that point's lane maps. At any
/// worker count the metrics are the serial sweep's, bit for bit.
#[test]
fn a_lone_executed_point_is_bitwise_identical_at_any_job_count() {
    let warm = small_fig7_spec();
    let mut tail = warm.clone();
    tail.name = "tail";
    tail.points.push(SweepPoint {
        figure: "fig9",
        device: DeviceKind::Mta {
            mode: mta::ThreadingMode::PartiallyMultithreaded,
        },
        n_atoms: 864,
        steps: 2,
        scenario: Default::default(),
    });
    let run = |jobs: usize| {
        let dir = temp_dir(&format!("tail-{jobs}"));
        let engine = EngineConfig { jobs, ..cfg(&dir) };
        run_sweep(&warm, &engine).expect("warm-up run");
        let report = run_sweep(&tail, &engine).expect("tail run");
        assert_eq!(report.executed(), 1, "{jobs} jobs: only the new point runs");
        let _ = std::fs::remove_dir_all(&dir);
        metrics_of(&report)
    };
    let serial = run(1);
    for jobs in [2, 4] {
        assert_eq!(run(jobs), serial, "{jobs} jobs");
    }
}

/// A miniature fig8-shaped grid whose f64 points share trajectories: the
/// fully and partially multithreaded MTA-2 and the Opteron at one size, a
/// GPU point between them, and the fully multithreaded MTA-2 at a second
/// size.
fn shared_trajectory_spec() -> SweepSpec {
    let full = DeviceKind::Mta {
        mode: mta::ThreadingMode::FullyMultithreaded,
    };
    let partial = DeviceKind::Mta {
        mode: mta::ThreadingMode::PartiallyMultithreaded,
    };
    let gpu = DeviceKind::Gpu {
        model: GpuModel::GeForce7900Gtx,
    };
    let points = [
        (full, 256),
        (gpu, 256),
        (partial, 256),
        (DeviceKind::Opteron, 256),
        (full, 108),
    ]
    .map(|(device, n_atoms)| SweepPoint {
        figure: "fig8",
        device,
        n_atoms,
        steps: 2,
        scenario: Default::default(),
    });
    SweepSpec {
        name: "fig8-small",
        description: "test grid",
        points: points.to_vec(),
    }
}

/// Each point's record as the harness computes it for that point alone.
fn alone(spec: &SweepSpec) -> Vec<String> {
    spec.points
        .iter()
        .map(|p| {
            let sim = md_core::params::SimConfig::reduced_lj(p.n_atoms).with_scenario(p.scenario);
            harness::device_metrics(
                p.device,
                &sim,
                p.steps,
                md_core::device::HostParallelism::Serial,
            )
            .expect("point runs")
            .to_json()
        })
        .collect()
}

fn json_of(report: &sim_sweep::SweepReport) -> Vec<String> {
    report.results.iter().map(|r| r.metrics.to_json()).collect()
}

/// Points that price one f64 trajectory get it driven once, and each
/// record is the one its point computes alone, at any worker count.
#[test]
fn points_sharing_a_trajectory_match_their_standalone_runs() {
    let spec = shared_trajectory_spec();
    let want = alone(&spec);
    for jobs in [1, 2] {
        let engine = EngineConfig {
            cache_dir: temp_dir("unused"),
            use_cache: false,
            jobs,
            ..EngineConfig::default()
        };
        let report = run_sweep(&spec, &engine).expect("uncached run");
        assert_eq!(report.executed(), spec.len(), "{jobs} jobs");
        assert_eq!(json_of(&report), want, "{jobs} jobs");
    }
}

/// A group whose points are partly cached drives its trajectory for the
/// missed points only, and they still match their standalone runs.
#[test]
fn a_partly_cached_group_prices_only_its_misses() {
    let spec = shared_trajectory_spec();
    let dir = temp_dir("partly-cached");
    let engine = EngineConfig {
        jobs: 2,
        ..cfg(&dir)
    };
    let mut first = spec.clone();
    first.points.truncate(1);
    run_sweep(&first, &engine).expect("warm-up run");
    let report = run_sweep(&spec, &engine).expect("partly cached run");
    let hits: Vec<bool> = report.results.iter().map(|r| r.from_cache).collect();
    assert_eq!(hits, [true, false, false, false, false]);
    assert_eq!(json_of(&report), alone(&spec));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_runs_leave_no_files_behind() {
    let dir = temp_dir("no-cache");
    let spec = small_fig7_spec();
    let engine = EngineConfig {
        cache_dir: dir.clone(),
        use_cache: false,
        ..EngineConfig::default()
    };
    let report = run_sweep(&spec, &engine).expect("uncached run");
    assert_eq!(report.executed(), spec.len());
    assert!(!dir.exists(), "--no-cache must not create the cache dir");
}
