//! The paper's artifacts from a [`SweepReport`]'s metrics records. Each one
//! is a pure `figN(&report)` that extracts its typed rows, plus a
//! `render_figN` that prints the aligned table and shape-check lines and
//! writes the CSV under `results/`. `sweep run` renders every spec
//! [`renderer`] names; `tests/paper_shapes.rs` asserts the paper's shapes on
//! the same rows.
//!
//! Byte-compatibility contract: every renderer reproduces the exact stdout
//! and CSV bytes of the pre-sweep-engine figure binaries (the recorded
//! baselines in EXPERIMENTS.md). `sim_seconds` round-trips bit-exactly
//! through the cache ([`sim_perf::RunMetrics::from_json`]), so a warm-cache
//! render equals a cold one.

use crate::engine::{PointResult, SweepError, SweepReport};
use cell_be::{SpawnPolicy, SpeKernelVariant};
use harness::report::{emit_figure, secs, Table};
use harness::{DeviceKind, HarnessError, PAPER_ATOMS, PAPER_STEPS};
use std::fmt::Write as _;

/// Schema of `BENCH_seed.json` (moved here from the harness with the
/// `bench_seed` binary).
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Prints one figure and writes its CSV.
pub type Render = fn(&SweepReport) -> Result<(), SweepError>;

/// The renderer of a registry spec, or `None` for a spec that is not one of
/// the paper's artifacts (`bench_seed`, `scenario_matrix`).
pub fn renderer(spec_name: &str) -> Option<Render> {
    match spec_name {
        "fig5" => Some(render_fig5),
        "fig6" => Some(render_fig6),
        "table1" => Some(render_table1),
        "fig7" => Some(render_fig7),
        "fig8" => Some(render_fig8),
        "fig9" => Some(render_fig9),
        _ => None,
    }
}

// ---------------------------------------------------------------- Figure 5

/// One bar of Figure 5: an optimization stage and the simulated runtime of
/// one acceleration-function invocation on one SPE.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    pub variant: SpeKernelVariant,
    pub seconds: f64,
}

/// Figure 5: the SIMD optimization ladder, one row per probe point.
pub fn fig5(report: &SweepReport) -> Result<Vec<Fig5Row>, SweepError> {
    report
        .results
        .iter()
        .map(|r| match r.point.device {
            DeviceKind::CellAccel { variant } => Ok(Fig5Row {
                variant,
                seconds: r.metrics.sim_seconds,
            }),
            _ => Err(HarnessError::MissingRow("a fig5 single-SPE probe point").into()),
        })
        .collect()
}

/// Figure 5: SIMD optimization ladder.
pub fn render_fig5(report: &SweepReport) -> Result<(), SweepError> {
    let n = PAPER_ATOMS;
    let title =
        format!("Figure 5 — SIMD optimization for the MD kernel ({n} atoms, 1 SPE, 1 force eval)");
    let rows = fig5(report)?;
    if rows.len() < 6 {
        return Err(HarnessError::MissingRow("all six optimization stages").into());
    }

    let mut table = Table::new(&["optimization stage", "simulated runtime", "vs original"]);
    let base = rows[0].seconds;
    let mut csv = Vec::new();
    for r in &rows {
        let label = r.variant.label();
        table.row(&[
            label.to_string(),
            secs(r.seconds),
            format!("{:.2}x", base / r.seconds),
        ]);
        csv.push(vec![label.to_string(), format!("{:.9}", r.seconds)]);
    }

    let v = |i: usize| rows[i].seconds;
    let checks = vec![
        format!(
            "  copysign gives a small speedup:            {:.1}%  (paper: 'small')",
            (v(0) / v(1) - 1.0) * 100.0
        ),
        format!(
            "  SIMD unit cell vs original:                {:.2}x  (paper: 'over 1.5x')",
            v(0) / v(2)
        ),
        format!(
            "  SIMD direction improvement:                {:.0}%  (paper: 21%)",
            (v(2) / v(3) - 1.0) * 100.0
        ),
        format!(
            "  SIMD length improvement:                   {:.0}%  (paper: 15%)",
            (v(3) / v(4) - 1.0) * 100.0
        ),
        format!(
            "  SIMD acceleration improvement:             {:.1}%  (paper: ~3%, 'very little runtime')",
            (v(4) / v(5) - 1.0) * 100.0
        ),
    ];
    emit_figure(
        &title,
        &table,
        &checks,
        "fig5_simd_ladder",
        &["stage", "seconds"],
        &csv,
    )
    .map_err(SweepError::Io)
}

// ---------------------------------------------------------------- Figure 6

/// One bar pair of Figure 6: total runtime and the part spent launching SPE
/// threads.
#[derive(Clone, Debug)]
pub struct Fig6Case {
    pub label: String,
    pub n_spes: usize,
    pub policy: SpawnPolicy,
    pub total_seconds: f64,
    pub launch_seconds: f64,
}

impl Fig6Case {
    pub fn launch_fraction(&self) -> f64 {
        self.launch_seconds / self.total_seconds
    }
}

/// Figure 6: SPE thread-launch overhead, one case per Cell configuration.
pub fn fig6(report: &SweepReport) -> Result<Vec<Fig6Case>, SweepError> {
    report
        .results
        .iter()
        .map(|r| match r.point.device {
            DeviceKind::Cell { n_spes, policy, .. } => {
                let policy_label = match policy {
                    SpawnPolicy::RespawnEveryStep => "respawn every time step",
                    SpawnPolicy::LaunchOnce => "launch only first time step",
                };
                Ok(Fig6Case {
                    label: format!(
                        "{n_spes} SPE{}, {policy_label}",
                        if n_spes > 1 { "s" } else { "" }
                    ),
                    n_spes,
                    policy,
                    total_seconds: r.metrics.sim_seconds,
                    launch_seconds: r.metrics.attribution_seconds("spe_spawn"),
                })
            }
            _ => Err(HarnessError::MissingRow("a fig6 Cell configuration point").into()),
        })
        .collect()
}

/// Figure 6: SPE thread-launch overhead.
pub fn render_fig6(report: &SweepReport) -> Result<(), SweepError> {
    let (n, steps) = (PAPER_ATOMS, PAPER_STEPS);
    let title = format!("Figure 6 — SPE launch overhead on MD ({n} atoms, {steps} time steps)");
    let cases = fig6(report)?;

    let mut table = Table::new(&[
        "configuration",
        "total runtime",
        "SPE launch overhead",
        "launch fraction",
    ]);
    let mut csv = Vec::new();
    for c in &cases {
        table.row(&[
            c.label.clone(),
            secs(c.total_seconds),
            secs(c.launch_seconds),
            format!("{:.1}%", c.launch_fraction() * 100.0),
        ]);
        csv.push(vec![
            c.label.clone(),
            format!("{:.9}", c.total_seconds),
            format!("{:.9}", c.launch_seconds),
        ]);
    }

    let find = |spes: usize, once: bool| {
        cases
            .iter()
            .find(|c| c.n_spes == spes && (c.policy == SpawnPolicy::LaunchOnce) == once)
            .ok_or(HarnessError::MissingRow("a fig6 SPE/policy combination"))
    };
    let r1 = find(1, false)?;
    let r8 = find(8, false)?;
    let o1 = find(1, true)?;
    let o8 = find(8, true)?;

    let checks = vec![
        format!(
            "  1 SPE respawn, launch is a small fraction:  {:.1}%  (paper: 'small fraction')",
            r1.launch_fraction() * 100.0
        ),
        format!(
            "  8 SPE respawn vs 1 SPE respawn:             {:.2}x  (paper: 'only about 1.5x faster')",
            r1.total_seconds / r8.total_seconds
        ),
        format!(
            "  launch overhead grows with SPE count:       {:.1}x  (paper: 'by a factor of eight')",
            r8.launch_seconds / r1.launch_seconds
        ),
        format!(
            "  8 SPE launch-once vs 1 SPE launch-once:     {:.2}x  (paper: '4.5x faster')",
            o1.total_seconds / o8.total_seconds
        ),
    ];
    emit_figure(
        &title,
        &table,
        &checks,
        "fig6_launch_overhead",
        &["configuration", "total_seconds", "launch_seconds"],
        &csv,
    )
    .map_err(SweepError::Io)
}

// ---------------------------------------------------------------- Table 1

/// Table 1: total runtime of each system on one workload.
#[derive(Clone, Debug)]
pub struct Table1Data {
    pub n_atoms: usize,
    pub steps: usize,
    pub opteron_seconds: f64,
    pub cell_1spe_seconds: f64,
    pub cell_8spe_seconds: f64,
    pub cell_ppe_seconds: f64,
}

impl Table1Data {
    /// Paper: "better than 5x performance improvement relative to the Opteron".
    pub fn speedup_8spe_vs_opteron(&self) -> f64 {
        self.opteron_seconds / self.cell_8spe_seconds
    }
    /// Paper: "26x faster than the PPE alone".
    pub fn speedup_8spe_vs_ppe(&self) -> f64 {
        self.cell_ppe_seconds / self.cell_8spe_seconds
    }
    /// Paper: "even a single SPE just edges out the Opteron".
    pub fn speedup_1spe_vs_opteron(&self) -> f64 {
        self.opteron_seconds / self.cell_1spe_seconds
    }
}

/// Table 1: Cell vs Opteron, the workload taken from the spec's points.
pub fn table1(report: &SweepReport) -> Result<Table1Data, SweepError> {
    let seconds_of = |label: &str| {
        report
            .results
            .iter()
            .find(|r| r.metrics.device == label)
            .map(|r| r.metrics.sim_seconds)
            .ok_or(HarnessError::MissingRow("a table1 system row"))
    };
    let workload = report
        .results
        .first()
        .ok_or(HarnessError::MissingRow("a table1 system row"))?
        .point;
    Ok(Table1Data {
        n_atoms: workload.n_atoms,
        steps: workload.steps,
        opteron_seconds: seconds_of("opteron")?,
        cell_1spe_seconds: seconds_of("cell-1spe")?,
        cell_8spe_seconds: seconds_of("cell-8spe")?,
        cell_ppe_seconds: seconds_of("cell-ppe")?,
    })
}

/// Table 1: Cell vs Opteron.
pub fn render_table1(report: &SweepReport) -> Result<(), SweepError> {
    let t = table1(report)?;
    let title = format!(
        "Table 1 — performance comparison of MD calculations ({} atoms, {} steps)",
        t.n_atoms, t.steps
    );

    let mut table = Table::new(&["system", "simulated runtime"]);
    table.row(&["Opteron (2.2 GHz)".into(), secs(t.opteron_seconds)]);
    table.row(&["Cell, 1 SPE".into(), secs(t.cell_1spe_seconds)]);
    table.row(&["Cell, 8 SPEs".into(), secs(t.cell_8spe_seconds)]);
    table.row(&["Cell, PPE only".into(), secs(t.cell_ppe_seconds)]);

    let checks = vec![
        format!(
            "  1 SPE vs Opteron:   {:.2}x  (paper: 'just edges out the Opteron')",
            t.speedup_1spe_vs_opteron()
        ),
        format!(
            "  8 SPEs vs Opteron:  {:.2}x  (paper: 'better than 5x')",
            t.speedup_8spe_vs_opteron()
        ),
        format!(
            "  8 SPEs vs PPE only: {:.1}x  (paper: '26x faster than the PPE alone')",
            t.speedup_8spe_vs_ppe()
        ),
    ];
    let csv = vec![
        vec!["opteron".into(), format!("{:.9}", t.opteron_seconds)],
        vec!["cell_1spe".into(), format!("{:.9}", t.cell_1spe_seconds)],
        vec!["cell_8spe".into(), format!("{:.9}", t.cell_8spe_seconds)],
        vec!["cell_ppe".into(), format!("{:.9}", t.cell_ppe_seconds)],
    ];
    emit_figure(
        &title,
        &table,
        &checks,
        "table1_cell_vs_opteron",
        &["system", "seconds"],
        &csv,
    )
    .map_err(SweepError::Io)
}

/// Split a size-major two-series report into `(n_atoms, first, second)`
/// triples, validating the expected pairing.
fn paired_series(report: &SweepReport) -> Result<Vec<(usize, f64, f64)>, SweepError> {
    if !report.results.len().is_multiple_of(2) {
        return Err(HarnessError::MissingRow("a complete series pair").into());
    }
    Ok(report
        .results
        .chunks(2)
        .map(|pair: &[PointResult]| {
            (
                pair[0].point.n_atoms,
                pair[0].metrics.sim_seconds,
                pair[1].metrics.sim_seconds,
            )
        })
        .collect())
}

// ---------------------------------------------------------------- Figure 7

/// One x-position of Figure 7: runtimes at a given atom count.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    pub n_atoms: usize,
    pub opteron_seconds: f64,
    pub gpu_seconds: f64,
}

/// Figure 7: GPU vs Opteron total runtime across atom counts (GPU startup
/// excluded, per-step transfer costs included — exactly the paper's
/// accounting).
pub fn fig7(report: &SweepReport) -> Result<Vec<Fig7Row>, SweepError> {
    // Spec order per size: Opteron then GPU.
    Ok(paired_series(report)?
        .into_iter()
        .map(|(n_atoms, opteron_seconds, gpu_seconds)| Fig7Row {
            n_atoms,
            opteron_seconds,
            gpu_seconds,
        })
        .collect())
}

/// Figure 7: GPU vs Opteron across atom counts.
pub fn render_fig7(report: &SweepReport) -> Result<(), SweepError> {
    let steps = PAPER_STEPS;
    let title = format!("Figure 7 — performance results on GPU vs Opteron ({steps} time steps)");
    let rows = fig7(report)?;

    let mut table = Table::new(&["atoms", "Opteron", "NVIDIA GPU", "GPU speedup"]);
    let mut csv = Vec::new();
    for r in &rows {
        table.row(&[
            r.n_atoms.to_string(),
            secs(r.opteron_seconds),
            secs(r.gpu_seconds),
            format!("{:.2}x", r.opteron_seconds / r.gpu_seconds),
        ]);
        csv.push(vec![
            r.n_atoms.to_string(),
            format!("{:.9}", r.opteron_seconds),
            format!("{:.9}", r.gpu_seconds),
        ]);
    }

    let crossover = rows
        .windows(2)
        .find(|w| {
            w[0].gpu_seconds >= w[0].opteron_seconds && w[1].gpu_seconds < w[1].opteron_seconds
        })
        .map(|w| (w[0].n_atoms, w[1].n_atoms));
    let at_2048 = rows
        .iter()
        .find(|r| r.n_atoms == 2048)
        .ok_or(HarnessError::MissingRow("the 2048-atom point"))?;

    let mut checks = Vec::new();
    match crossover {
        Some((lo, hi)) => checks.push(format!(
            "  GPU slower at very small N, crossover between {lo} and {hi} atoms (paper: 'longer to run ... at very small numbers of atoms')"
        )),
        None => checks.push(format!(
            "  crossover: GPU {} at the smallest size measured",
            if rows[0].gpu_seconds > rows[0].opteron_seconds {
                "slower"
            } else {
                "faster"
            }
        )),
    }
    checks.push(format!(
        "  GPU speedup at 2048 atoms: {:.2}x  (paper: 'almost 6x faster than the CPU')",
        at_2048.opteron_seconds / at_2048.gpu_seconds
    ));
    emit_figure(
        &title,
        &table,
        &checks,
        "fig7_gpu_vs_opteron",
        &["atoms", "opteron_seconds", "gpu_seconds"],
        &csv,
    )
    .map_err(SweepError::Io)
}

// ---------------------------------------------------------------- Figure 8

/// One x-position of Figure 8.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    pub n_atoms: usize,
    pub fully_mt_seconds: f64,
    pub partially_mt_seconds: f64,
}

/// Figure 8: fully vs partially multithreaded MD kernel on the MTA-2.
pub fn fig8(report: &SweepReport) -> Result<Vec<Fig8Row>, SweepError> {
    // Spec order per size: fully-MT then partially-MT.
    Ok(paired_series(report)?
        .into_iter()
        .map(
            |(n_atoms, fully_mt_seconds, partially_mt_seconds)| Fig8Row {
                n_atoms,
                fully_mt_seconds,
                partially_mt_seconds,
            },
        )
        .collect())
}

/// Figure 8: fully vs partially multithreaded MTA-2 kernel.
pub fn render_fig8(report: &SweepReport) -> Result<(), SweepError> {
    let steps = PAPER_STEPS;
    let title = format!(
        "Figure 8 — fully vs partially multithreaded MD kernel on the MTA-2 ({steps} steps)"
    );
    let rows = fig8(report)?;

    let mut table = Table::new(&[
        "atoms",
        "fully multithreaded",
        "partially multithreaded",
        "gap",
    ]);
    let mut csv = Vec::new();
    for r in &rows {
        table.row(&[
            r.n_atoms.to_string(),
            secs(r.fully_mt_seconds),
            secs(r.partially_mt_seconds),
            format!("{:.1}x", r.partially_mt_seconds / r.fully_mt_seconds),
        ]);
        csv.push(vec![
            r.n_atoms.to_string(),
            format!("{:.9}", r.fully_mt_seconds),
            format!("{:.9}", r.partially_mt_seconds),
        ]);
    }

    let (first, last) = match (rows.first(), rows.last()) {
        (Some(f), Some(l)) => (f, l),
        _ => return Err(HarnessError::MissingRow("any atom-count row").into()),
    };
    let first_gap = first.partially_mt_seconds - first.fully_mt_seconds;
    let last_gap = last.partially_mt_seconds - last.fully_mt_seconds;
    let checks = vec![
        format!(
            "  fully MT faster everywhere: {}",
            rows.iter()
                .all(|r| r.fully_mt_seconds < r.partially_mt_seconds)
        ),
        format!(
            "  performance difference grows with atoms: {first_gap:.3} s -> {last_gap:.3} s (paper: 'increases with the increase in the number of atoms')"
        ),
    ];
    emit_figure(
        &title,
        &table,
        &checks,
        "fig8_mta_threading",
        &["atoms", "fully_mt_seconds", "partially_mt_seconds"],
        &csv,
    )
    .map_err(SweepError::Io)
}

// ---------------------------------------------------------------- Figure 9

/// One x-position of Figure 9: runtime relative to the 256-atom run.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    pub n_atoms: usize,
    pub mta_relative: f64,
    pub opteron_relative: f64,
}

/// Figure 9: increase in runtime with respect to the 256-atom run, MTA vs
/// Opteron. The sweep stores absolute runtimes (so points are shared with
/// fig7/fig8); normalization happens here.
pub fn fig9(report: &SweepReport) -> Result<Vec<Fig9Row>, SweepError> {
    // Spec order per size: MTA fully-MT then Opteron.
    let runs = paired_series(report)?;
    let &(n0, mta0, opt0) = runs
        .first()
        .ok_or(HarnessError::MissingRow("any atom-count row"))?;
    if n0 != 256 {
        return Err(HarnessError::InvalidInput(
            "figure 9 normalizes to the 256-atom run; pass counts starting at 256".into(),
        )
        .into());
    }
    Ok(runs
        .into_iter()
        .map(|(n_atoms, mta, opt)| Fig9Row {
            n_atoms,
            mta_relative: mta / mta0,
            opteron_relative: opt / opt0,
        })
        .collect())
}

/// Figure 9: runtime growth relative to the 256-atom run. The paper's
/// point: the MTA's growth tracks the floating-point work; the Opteron's
/// grows faster once the arrays outgrow its caches.
pub fn render_fig9(report: &SweepReport) -> Result<(), SweepError> {
    let steps = PAPER_STEPS;
    let title =
        format!("Figure 9 — increase in runtime with respect to the 256-atom run ({steps} steps)");
    let rows = fig9(report)?;

    let mut table = Table::new(&["atoms", "MTA (relative)", "Opteron (relative)"]);
    let mut csv = Vec::new();
    for r in &rows {
        table.row(&[
            r.n_atoms.to_string(),
            format!("{:.1}", r.mta_relative),
            format!("{:.1}", r.opteron_relative),
        ]);
        csv.push(vec![
            r.n_atoms.to_string(),
            format!("{:.4}", r.mta_relative),
            format!("{:.4}", r.opteron_relative),
        ]);
    }

    // The two curves track each other while the Opteron's arrays still fit
    // in cache; the divergence appears "as the array sizes become larger
    // than the cache capacities" (24·N bytes > 64 KB L1 at N ≳ 2700).
    let last = rows
        .last()
        .ok_or(HarnessError::MissingRow("any atom-count row"))?;
    let checks = vec![
        format!(
            "  Opteron grows faster than MTA past cache capacity: {}",
            rows.iter()
                .filter(|r| r.n_atoms >= 4096)
                .all(|r| r.opteron_relative > r.mta_relative)
        ),
        format!(
            "  at {} atoms: Opteron x{:.0} vs MTA x{:.0} (paper: 'runtime on the Opteron increases at a relatively faster rate ... the effect of cache misses')",
            last.n_atoms, last.opteron_relative, last.mta_relative
        ),
        "  MTA growth tracks flop growth (proportional to N² work), no cache knee".to_string(),
    ];
    emit_figure(
        &title,
        &table,
        &checks,
        "fig9_relative_scaling",
        &["atoms", "mta_relative", "opteron_relative"],
        &csv,
    )
    .map_err(SweepError::Io)
}

/// The `BENCH_seed.json` document: one entry per sweep point, in the spec's
/// sorted order.
pub fn bench_seed_json(report: &SweepReport, steps: usize) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema_version\": {BENCH_SCHEMA_VERSION},");
    let _ = writeln!(
        out,
        "  \"description\": \"Simulated-seconds baseline per paper figure/device; regenerate with the bench_seed binary.\","
    );
    let _ = writeln!(out, "  \"steps\": {steps},");
    out.push_str("  \"benchmarks\": [\n");
    for (i, r) in report.results.iter().enumerate() {
        let seconds = r.metrics.sim_seconds;
        assert!(
            seconds.is_finite(),
            "{}/{}: non-finite seconds",
            r.point.figure,
            r.metrics.device
        );
        let comma = if i + 1 < report.results.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"figure\": \"{}\", \"device\": \"{}\", \"n_atoms\": {}, \"sim_seconds\": {seconds}}}{comma}",
            r.point.figure,
            sim_obs::escape_json_string(&r.metrics.device),
            r.point.n_atoms,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Schema of `BENCH_host.json`. Version 2 (physics-once execution,
/// DESIGN.md §17) replaces the single Opteron `runs` array with a `devices`
/// array carrying host-thread rows for every device; `obs check` reads both
/// versions.
pub const BENCH_HOST_SCHEMA_VERSION: u32 = 2;

/// One measured wall-clock point for [`bench_host_json`]: how fast the host
/// executed the reference workload in one configuration.
#[derive(Clone, Copy, Debug)]
pub struct HostBenchRun {
    /// Host threads the device's lane map used (1 = serial).
    pub host_threads: usize,
    /// Best-of-N wall-clock seconds for the whole run.
    pub wall_seconds: f64,
    /// Atom-steps per wall-clock second (the throughput metric
    /// [`sim_perf::RunMetrics`] carries as `host_atom_steps_per_s`).
    pub atom_steps_per_s: f64,
}

/// One device's section of `BENCH_host.json`: its simulated clock for the
/// workload and one wall-clock row per host thread count.
#[derive(Clone, Debug)]
pub struct DeviceHostBench {
    /// Device label ([`harness::DeviceKind::label`] grammar).
    pub device: String,
    /// Simulated seconds — bitwise identical across every row of this
    /// device (the host-parallel contract).
    pub sim_seconds: f64,
    /// One run per host thread count.
    pub runs: Vec<HostBenchRun>,
}

/// The `BENCH_host.json` document: host wall-clock per device per host
/// thread count.
///
/// Simulated results are bitwise identical across every row of a device
/// (the host-parallel contract, `tests/host_parallel.rs`, and the golden
/// device matrix, `tests/shared_eval.rs`); this document records
/// the only quantity that *does* change between configurations — and
/// between hosts, which is why the recorded numbers are a provenance
/// snapshot, not a CI-diffable baseline like `BENCH_seed.json`.
pub fn bench_host_json(
    n_atoms: usize,
    steps: usize,
    devices: &[DeviceHostBench],
    note: &str,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema_version\": {BENCH_HOST_SCHEMA_VERSION},");
    let _ = writeln!(
        out,
        "  \"description\": \"Host wall-clock per device; simulated results are bitwise identical across all rows of a device. Regenerate with the bench_seed binary.\","
    );
    let _ = writeln!(
        out,
        "  \"workload\": {{\"n_atoms\": {n_atoms}, \"steps\": {steps}}},"
    );
    let _ = writeln!(
        out,
        "  \"note\": \"{}\",",
        sim_obs::escape_json_string(note)
    );
    out.push_str("  \"devices\": [\n");
    for (d, dev) in devices.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(
            out,
            "      \"device\": \"{}\",",
            sim_obs::escape_json_string(&dev.device)
        );
        let _ = writeln!(out, "      \"sim_seconds\": {},", dev.sim_seconds);
        out.push_str("      \"runs\": [\n");
        for (i, r) in dev.runs.iter().enumerate() {
            assert!(
                r.wall_seconds.is_finite() && r.wall_seconds > 0.0,
                "{} threads={}: wall-clock must be positive",
                dev.device,
                r.host_threads
            );
            let comma = if i + 1 < dev.runs.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "        {{\"host_threads\": {}, \"host_wall_seconds\": {}, \"host_atom_steps_per_s\": {}}}{comma}",
                r.host_threads,
                r.wall_seconds,
                r.atom_steps_per_s,
            );
        }
        let comma = if d + 1 < devices.len() { "," } else { "" };
        let _ = writeln!(out, "      ]");
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    //! The paper-scale shape assertions on these rows live in
    //! `tests/paper_shapes.rs`.
    use super::*;
    use crate::engine::{run_sweep, EngineConfig};
    use crate::spec;

    #[test]
    fn every_paper_artifact_has_a_renderer() {
        let rendered: Vec<&str> = spec::registry()
            .iter()
            .map(|s| s.name)
            .filter(|name| renderer(name).is_some())
            .collect();
        assert_eq!(rendered, ["fig5", "fig6", "table1", "fig7", "fig8", "fig9"]);
    }

    #[test]
    fn fig9_requires_256_baseline() {
        let mut spec = spec::fig9();
        spec.points.retain_mut(|p| {
            p.steps = 1;
            p.n_atoms == 512
        });
        let cfg = EngineConfig {
            use_cache: false,
            ..EngineConfig::default()
        };
        let report = run_sweep(&spec, &cfg).expect("small workloads run");
        let err = fig9(&report).expect_err("baseline rule must be enforced");
        assert!(
            err.to_string().contains("256"),
            "error should name the required baseline: {err}"
        );
    }
}
