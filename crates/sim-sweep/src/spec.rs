//! Sweep specifications: the paper's evaluation grid as plain data.
//!
//! Each figure/table is a [`SweepSpec`] — an ordered list of
//! (device kind, atom count, steps) points. The order is the figure's
//! presentation order; the engine preserves it, so renderers can consume
//! results positionally and binaries stay byte-identical to their
//! pre-sweep-engine versions.

use cell_be::{SpawnPolicy, SpeKernelVariant};
use harness::{DeviceKind, GpuModel, PAPER_ATOMS, PAPER_STEPS};
use md_core::scenario::ScenarioSpec;
use mta::ThreadingMode;

/// Figure 7's atom counts (also the GPU-vs-Opteron slice of `bench_seed`).
pub const FIG7_ATOMS: [usize; 7] = [128, 256, 512, 1024, 2048, 4096, 8192];
/// Figure 8's atom counts.
pub const FIG8_ATOMS: [usize; 5] = [256, 512, 1024, 2048, 4096];
/// Figure 9's atom counts (must start at the 256-atom normalization point).
pub const FIG9_ATOMS: [usize; 6] = [256, 512, 1024, 2048, 4096, 8192];
/// The `bench_seed` slice of Figure 8's counts (the frozen baseline predates
/// the 4096-atom point).
pub const BENCH_FIG8_ATOMS: [usize; 4] = [256, 512, 1024, 2048];

/// One cacheable unit of work: run `device` on the standard reduced lattice
/// at `n_atoms` for `steps` time steps under `scenario`. `figure` names the
/// artifact the point belongs to (display/grouping only — it is *not* part
/// of the cache key, so points shared between figures hit the same cache
/// entry). The scenario *is* part of the key: a warm cache for one scenario
/// never serves another.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    pub figure: &'static str,
    pub device: DeviceKind,
    pub n_atoms: usize,
    pub steps: usize,
    pub scenario: ScenarioSpec,
}

/// An ordered set of sweep points with a stable name for the CLI.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    pub name: &'static str,
    pub description: &'static str,
    pub points: Vec<SweepPoint>,
}

impl SweepSpec {
    /// Total device executions a cold run performs.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The same grid re-targeted at a different scenario (the CLI's
    /// `--scenario` axis). Every point's cache key moves with it.
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        for p in &mut self.points {
            p.scenario = scenario;
        }
        self
    }
}

fn point(figure: &'static str, device: DeviceKind, n_atoms: usize, steps: usize) -> SweepPoint {
    SweepPoint {
        figure,
        device,
        n_atoms,
        steps,
        scenario: ScenarioSpec::default(),
    }
}

/// Figure 5: the six-stage SIMD optimization ladder on one SPE. The probe
/// device times a single acceleration evaluation, so `steps` is 0.
pub fn fig5() -> SweepSpec {
    SweepSpec {
        name: "fig5",
        description: "SIMD optimization ladder for the MD kernel on one SPE",
        points: SpeKernelVariant::ALL
            .iter()
            .map(|&variant| point("fig5", DeviceKind::CellAccel { variant }, PAPER_ATOMS, 0))
            .collect(),
    }
}

/// Figure 6: SPE launch overhead, policy-major over {1, 8} SPEs.
pub fn fig6() -> SweepSpec {
    let mut points = Vec::new();
    for policy in [SpawnPolicy::RespawnEveryStep, SpawnPolicy::LaunchOnce] {
        for n_spes in [1usize, 8] {
            points.push(point(
                "fig6",
                DeviceKind::Cell {
                    n_spes,
                    policy,
                    variant: SpeKernelVariant::SimdAcceleration,
                },
                PAPER_ATOMS,
                PAPER_STEPS,
            ));
        }
    }
    SweepSpec {
        name: "fig6",
        description: "SPE thread-launch overhead, respawn vs launch-once",
        points,
    }
}

/// Table 1: Opteron vs Cell (1 SPE / 8 SPEs / PPE only).
pub fn table1() -> SweepSpec {
    let devices = [
        DeviceKind::Opteron,
        DeviceKind::cell_single_spe(),
        DeviceKind::cell_best(),
        DeviceKind::CellPpe,
    ];
    SweepSpec {
        name: "table1",
        description: "performance comparison of MD calculations, Cell vs Opteron",
        points: devices
            .into_iter()
            .map(|d| point("table1", d, PAPER_ATOMS, PAPER_STEPS))
            .collect(),
    }
}

/// Figure 7: GPU vs Opteron across atom counts, size-major.
pub fn fig7() -> SweepSpec {
    let mut points = Vec::new();
    for &n in &FIG7_ATOMS {
        points.push(point("fig7", DeviceKind::Opteron, n, PAPER_STEPS));
        points.push(point(
            "fig7",
            DeviceKind::Gpu {
                model: GpuModel::GeForce7900Gtx,
            },
            n,
            PAPER_STEPS,
        ));
    }
    SweepSpec {
        name: "fig7",
        description: "GPU vs Opteron runtime across atom counts",
        points,
    }
}

/// Figure 8: fully vs partially multithreaded MTA-2 kernel, size-major.
pub fn fig8() -> SweepSpec {
    let mut points = Vec::new();
    for &n in &FIG8_ATOMS {
        for mode in [
            ThreadingMode::FullyMultithreaded,
            ThreadingMode::PartiallyMultithreaded,
        ] {
            points.push(point("fig8", DeviceKind::Mta { mode }, n, PAPER_STEPS));
        }
    }
    SweepSpec {
        name: "fig8",
        description: "fully vs partially multithreaded MD kernel on the MTA-2",
        points,
    }
}

/// Figure 9: MTA vs Opteron runtime growth relative to the 256-atom run,
/// size-major. Normalization happens at render time, so the points are plain
/// absolute runs (shared with fig7/fig8 where the grids overlap).
pub fn fig9() -> SweepSpec {
    let mut points = Vec::new();
    for &n in &FIG9_ATOMS {
        points.push(point(
            "fig9",
            DeviceKind::Mta {
                mode: ThreadingMode::FullyMultithreaded,
            },
            n,
            PAPER_STEPS,
        ));
        points.push(point("fig9", DeviceKind::Opteron, n, PAPER_STEPS));
    }
    SweepSpec {
        name: "fig9",
        description: "increase in runtime with respect to the 256-atom run",
        points,
    }
}

/// The `BENCH_seed.json` baseline: the union of the frozen figure slices,
/// sorted by (figure, device label, atom count) so regenerated documents
/// diff stably regardless of how the underlying grids are declared.
pub fn bench_seed() -> SweepSpec {
    let mut points = Vec::new();
    for d in [
        DeviceKind::Opteron,
        DeviceKind::CellPpe,
        DeviceKind::cell_single_spe(),
        DeviceKind::cell_best(),
    ] {
        points.push(point("table1", d, PAPER_ATOMS, PAPER_STEPS));
    }
    for &variant in &SpeKernelVariant::ALL {
        points.push(point(
            "fig5",
            DeviceKind::CellAccel { variant },
            PAPER_ATOMS,
            0,
        ));
    }
    for &n in &FIG7_ATOMS {
        points.push(point("fig7", DeviceKind::Opteron, n, PAPER_STEPS));
        points.push(point(
            "fig7",
            DeviceKind::Gpu {
                model: GpuModel::GeForce7900Gtx,
            },
            n,
            PAPER_STEPS,
        ));
    }
    for &n in &BENCH_FIG8_ATOMS {
        for mode in [
            ThreadingMode::FullyMultithreaded,
            ThreadingMode::PartiallyMultithreaded,
        ] {
            points.push(point("fig8", DeviceKind::Mta { mode }, n, PAPER_STEPS));
        }
    }
    points.sort_by(|a, b| {
        (a.figure, a.device.label(), a.n_atoms).cmp(&(b.figure, b.device.label(), b.n_atoms))
    });
    SweepSpec {
        name: "bench_seed",
        description: "simulated-seconds baseline per paper figure/device (BENCH_seed.json)",
        points,
    }
}

/// The scenario extension matrix: both non-LJ scenarios (Morse/NVT and
/// truncated Coulomb) on all four paper devices at a small size — the CI
/// gate proving every device runs every reachable scenario end-to-end, with
/// caching and perf collection. Scenario-major so each device's two rows
/// sit apart, mirroring how the extension experiments are reported.
pub fn scenario_matrix() -> SweepSpec {
    let devices = [
        DeviceKind::Opteron,
        DeviceKind::cell_best(),
        DeviceKind::Gpu {
            model: GpuModel::GeForce7900Gtx,
        },
        DeviceKind::Mta {
            mode: ThreadingMode::FullyMultithreaded,
        },
    ];
    let mut points = Vec::new();
    for scenario in [ScenarioSpec::morse_nvt(), ScenarioSpec::coulomb_cutoff()] {
        for device in devices {
            points.push(SweepPoint {
                figure: "scenario-matrix",
                device,
                n_atoms: 108,
                steps: 4,
                scenario,
            });
        }
    }
    SweepSpec {
        name: "scenario_matrix",
        description: "Morse/NVT and truncated-Coulomb scenarios on all four devices",
        points,
    }
}

/// Every named spec, in evaluation-section order. This is what
/// `sweep list` prints and `sweep run --all` executes.
pub fn registry() -> Vec<SweepSpec> {
    vec![
        fig5(),
        fig6(),
        table1(),
        fig7(),
        fig8(),
        fig9(),
        bench_seed(),
        scenario_matrix(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let specs = registry();
        for (i, a) in specs.iter().enumerate() {
            assert!(!a.is_empty(), "{} has no points", a.name);
            for b in &specs[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn grid_sizes_match_the_paper() {
        assert_eq!(fig5().len(), 6);
        assert_eq!(fig6().len(), 4);
        assert_eq!(table1().len(), 4);
        assert_eq!(fig7().len(), 14);
        assert_eq!(fig8().len(), 10);
        assert_eq!(fig9().len(), 12);
        assert_eq!(bench_seed().len(), 32);
        assert_eq!(scenario_matrix().len(), 8);
    }

    #[test]
    fn paper_figures_run_the_faithful_scenario() {
        for spec in registry() {
            if spec.name == "scenario_matrix" {
                continue;
            }
            for p in &spec.points {
                assert_eq!(
                    p.scenario,
                    ScenarioSpec::default(),
                    "{}: paper grids must stay LJ/NVE/native",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn scenario_changes_the_cache_key() {
        let p = table1().points[0];
        let base = crate::cache::point_key(
            1,
            &p.device.cache_token(),
            &p.scenario.cache_token(),
            p.n_atoms,
            p.steps,
        );
        for other in [ScenarioSpec::morse_nvt(), ScenarioSpec::coulomb_cutoff()] {
            let moved = crate::cache::point_key(
                1,
                &p.device.cache_token(),
                &other.cache_token(),
                p.n_atoms,
                p.steps,
            );
            assert_ne!(base, moved, "{other:?} must not share {base:?}");
        }
    }

    #[test]
    fn bench_seed_points_are_sorted() {
        let points = bench_seed().points;
        for w in points.windows(2) {
            let a = (w[0].figure, w[0].device.label(), w[0].n_atoms);
            let b = (w[1].figure, w[1].device.label(), w[1].n_atoms);
            assert!(a <= b, "{a:?} !<= {b:?}");
        }
    }

    #[test]
    fn overlapping_points_share_cache_keys() {
        // Table 1's Opteron leg and fig7's 2048-atom Opteron point are the
        // same work; the cache must see one key.
        let t1 = table1().points[0];
        let f7 = fig7()
            .points
            .into_iter()
            .find(|p| p.device == DeviceKind::Opteron && p.n_atoms == 2048)
            .expect("fig7 has a 2048-atom Opteron point");
        assert_eq!(
            crate::cache::point_key(
                1,
                &t1.device.cache_token(),
                &t1.scenario.cache_token(),
                t1.n_atoms,
                t1.steps
            ),
            crate::cache::point_key(
                1,
                &f7.device.cache_token(),
                &f7.scenario.cache_token(),
                f7.n_atoms,
                f7.steps
            ),
        );
    }
}
