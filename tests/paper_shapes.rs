//! Integration tests asserting the paper's headline results — the shapes of
//! every table and figure — hold in the reproduction. This is the executable
//! form of EXPERIMENTS.md: each test runs a figure's sweep spec (uncached)
//! and asserts on the same rows `sweep run` renders.

use sim_sweep::{figures, run_sweep, spec, EngineConfig, SweepReport, SweepSpec};

/// Run `spec` without the result cache, keeping only the points of at most
/// `max_atoms` atoms.
fn sweep(mut spec: SweepSpec, max_atoms: usize) -> SweepReport {
    spec.points.retain(|p| p.n_atoms <= max_atoms);
    let cfg = EngineConfig {
        use_cache: false,
        ..EngineConfig::default()
    };
    run_sweep(&spec, &cfg).expect("paper workloads run on every device")
}

/// Table 1: Opteron vs Cell (2048 atoms, 10 steps).
#[test]
fn table1_cell_vs_opteron_ratios() {
    let t = figures::table1(&sweep(spec::table1(), 2048)).expect("all four systems ran");
    assert_eq!((t.n_atoms, t.steps), (2048, 10));

    // "Thanks to its effective use of SIMD intrinsics on the SPE, even a
    // single SPE just edges out the Opteron in total performance."
    let one = t.speedup_1spe_vs_opteron();
    assert!(
        (1.0..1.6).contains(&one),
        "1 SPE should just edge out the Opteron: {one:.2}x"
    );

    // "Using all 8 SPEs results in a better than 5x performance improvement
    // relative to the Opteron."
    let eight = t.speedup_8spe_vs_opteron();
    assert!(
        (4.5..7.5).contains(&eight),
        "8 SPEs should be better than ~5x: {eight:.2}x"
    );

    // "... and 26x faster than the PPE alone."
    let ppe = t.speedup_8spe_vs_ppe();
    assert!(
        (18.0..35.0).contains(&ppe),
        "8 SPEs should be ~26x the PPE: {ppe:.1}x"
    );
}

/// Figure 5: the SPE SIMD optimization ladder (2048 atoms, 1 SPE).
#[test]
fn fig5_simd_ladder_ratios() {
    let rows = figures::fig5(&sweep(spec::fig5(), 2048)).expect("six probe points");
    assert_eq!(rows.len(), 6);
    let v = |i: usize| rows[i].seconds;

    // Strictly decreasing runtimes along the ladder.
    for w in rows.windows(2) {
        assert!(w[1].seconds < w[0].seconds, "ladder must descend");
    }
    // "a small speedup" from copysign.
    let copysign_gain = v(0) / v(1);
    assert!(
        (1.01..1.15).contains(&copysign_gain),
        "copysign gain should be small: {copysign_gain:.3}"
    );
    // "running over 1.5x faster than the original" after SIMD unit cell.
    assert!(v(0) / v(2) > 1.5, "SIMD unit cell: {:.2}x", v(0) / v(2));
    // "21% and 15% improvements, respectively".
    let dir = (v(2) / v(3) - 1.0) * 100.0;
    let len = (v(3) / v(4) - 1.0) * 100.0;
    assert!(
        (15.0..27.0).contains(&dir),
        "direction gain {dir:.0}% (paper 21%)"
    );
    assert!(
        (10.0..20.0).contains(&len),
        "length gain {len:.0}% (paper 15%)"
    );
    // "the total improvement in runtime was only 3%" (final stage is small).
    let accel = (v(4) / v(5) - 1.0) * 100.0;
    assert!(
        accel < 5.0,
        "acceleration-SIMD gain should be tiny: {accel:.1}%"
    );
}

/// Figure 6: SPE thread-launch overhead (2048 atoms, 10 steps).
#[test]
fn fig6_launch_overhead_shapes() {
    let cases = figures::fig6(&sweep(spec::fig6(), 2048)).expect("four Cell configurations");
    assert_eq!(cases.len(), 4);
    for c in &cases {
        assert!(c.launch_seconds < c.total_seconds, "{}", c.label);
    }
    let find = |spes: usize, once: bool| {
        cases
            .iter()
            .find(|c| c.n_spes == spes && (c.policy == cell_be::SpawnPolicy::LaunchOnce) == once)
            .unwrap()
    };
    let r1 = find(1, false);
    let r8 = find(8, false);
    let o1 = find(1, true);
    let o8 = find(8, true);

    // "the thread launch overhead is a small fraction of the runtime" (1 SPE).
    assert!(
        r1.launch_fraction() < 0.15,
        "1-SPE respawn fraction {:.2}",
        r1.launch_fraction()
    );
    // "the thread launch overhead grows by a factor of eight".
    let growth = r8.launch_seconds / r1.launch_seconds;
    assert!((7.5..8.5).contains(&growth), "launch overhead x{growth:.1}");
    // "even an efficient parallelization run only about 1.5x faster using all
    // SPEs" (respawn mode).
    let respawn_speedup = r1.total_seconds / r8.total_seconds;
    assert!(
        (1.2..2.2).contains(&respawn_speedup),
        "respawn-mode 8-SPE speedup {respawn_speedup:.2} (paper ~1.5x)"
    );
    // "this eight-SPE version is now 4.5x faster than this single-SPE version"
    // (launch-once mode).
    let once_speedup = o1.total_seconds / o8.total_seconds;
    assert!(
        (3.5..6.0).contains(&once_speedup),
        "launch-once 8-SPE speedup {once_speedup:.2} (paper 4.5x)"
    );
}

/// Figure 7: GPU vs Opteron across atom counts.
#[test]
fn fig7_gpu_crossover_and_speedup() {
    let rows = figures::fig7(&sweep(spec::fig7(), 2048)).expect("paired series");
    assert_eq!(rows.len(), 5, "128..=2048 atoms");

    // "It is these costs which make the GPU implementation take longer to run
    // than the CPU version at very small numbers of atoms."
    assert!(
        rows[0].gpu_seconds > rows[0].opteron_seconds,
        "GPU must lose at 128 atoms"
    );
    // "For a run of 2048 atoms, the GPU implementation is almost 6x faster."
    let at2048 = rows.iter().find(|r| r.n_atoms == 2048).unwrap();
    let speedup = at2048.opteron_seconds / at2048.gpu_seconds;
    assert!(
        (4.5..7.5).contains(&speedup),
        "GPU at 2048 should be ~6x: {speedup:.2}x"
    );
    // The speedup grows monotonically over this range.
    let speedups: Vec<f64> = rows
        .iter()
        .map(|r| r.opteron_seconds / r.gpu_seconds)
        .collect();
    for w in speedups.windows(2) {
        assert!(w[1] > w[0], "GPU speedup should grow with N: {speedups:?}");
    }
}

/// Figure 8: fully vs partially multithreaded MTA-2 runs.
#[test]
fn fig8_mta_threading_gap_grows() {
    let rows = figures::fig8(&sweep(spec::fig8(), 2048)).expect("paired series");
    assert_eq!(rows.len(), 4, "256..=2048 atoms");
    for r in &rows {
        assert!(
            r.fully_mt_seconds < r.partially_mt_seconds,
            "fully multithreaded must win at N={}",
            r.n_atoms
        );
    }
    // "the performance difference increases with the increase in the number
    // of atoms".
    let gaps: Vec<f64> = rows
        .iter()
        .map(|r| r.partially_mt_seconds - r.fully_mt_seconds)
        .collect();
    for w in gaps.windows(2) {
        assert!(w[1] > w[0], "absolute gap should grow: {gaps:?}");
    }
}

/// Figure 9: relative runtime growth, MTA vs Opteron.
#[test]
fn fig9_opteron_grows_faster_past_cache() {
    let rows = figures::fig9(&sweep(spec::fig9(), 4096)).expect("256-atom baseline present");
    // Both normalized to 1 at 256.
    assert_eq!(rows[0].mta_relative, 1.0);
    assert_eq!(rows[0].opteron_relative, 1.0);

    // "The increases in the MTA runtime are proportional to the increase in
    // the floating-point computation requirements": growth ≈ pair-count
    // growth within a few percent.
    for r in &rows {
        let pair_growth = (r.n_atoms * (r.n_atoms - 1)) as f64 / (256.0 * 255.0);
        let dev = (r.mta_relative / pair_growth - 1.0).abs();
        assert!(
            dev < 0.15,
            "MTA growth should track N² work at N={}: x{:.1} vs x{:.1}",
            r.n_atoms,
            r.mta_relative,
            pair_growth
        );
    }

    // "The effect of cache misses are shown in the Opteron processor runs as
    // the array sizes become larger than the cache capacities": past the L1
    // capacity (N ≳ 2700) the Opteron's relative growth exceeds the MTA's.
    let last = rows.last().unwrap();
    assert_eq!(last.n_atoms, 4096);
    assert!(
        last.opteron_relative > 1.1 * last.mta_relative,
        "Opteron x{:.0} should exceed MTA x{:.0} past cache capacity",
        last.opteron_relative,
        last.mta_relative
    );
}
