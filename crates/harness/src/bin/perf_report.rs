//! Per-device performance-counter report: runs every device model with the
//! perf layer attached and emits time attribution, raw counters, and derived
//! rates — to the console as tables and to `results/metrics/*.json` as
//! schema-versioned [`sim_perf::RunMetrics`] records.
//!
//! ```text
//! perf_report [--atoms N] [--steps S]   # default: the paper's 2048 × 10
//! perf_report --device NAME             # one device only (cell, gpu,
//!                                       #   opteron, mta-full, mta-partial)
//! perf_report --ledger PATH             # also write a merged run ledger
//! perf_report --validate FILE...        # schema-check existing records
//! ```
//!
//! With `--ledger`, every device runs with a [`sim_obs::RunLedger`]
//! attached and the merged JSONL ledger (one source per device, plus host
//! wall-clock events) is written to PATH for `obs timeline` / `obs check`.

use harness::perf;
use harness::report::{secs, Table};
use harness::{HarnessError, PAPER_ATOMS, PAPER_STEPS};
use md_core::device::HostParallelism;
use md_core::params::SimConfig;
use mta::ThreadingMode;
use sim_perf::{format_quantity, JsonValue};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf_report: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), HarnessError> {
    if args.first().map(String::as_str) == Some("--validate") {
        return validate(&args[1..]);
    }

    let mut atoms = PAPER_ATOMS;
    let mut steps = PAPER_STEPS;
    let mut ledger_path: Option<String> = None;
    let mut only_device: Option<harness::DeviceKind> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> Result<usize, HarnessError> {
            it.next()
                .ok_or_else(|| HarnessError::InvalidInput(format!("{flag} needs a value")))?
                .parse()
                .map_err(|e| HarnessError::InvalidInput(format!("{flag}: {e}")))
        };
        match flag.as_str() {
            "--atoms" => atoms = value(&mut it)?,
            "--steps" => steps = value(&mut it)?,
            "--ledger" => {
                ledger_path = Some(
                    it.next()
                        .ok_or_else(|| {
                            HarnessError::InvalidInput("--ledger needs a path".to_string())
                        })?
                        .clone(),
                );
            }
            "--device" => {
                let name = it.next().ok_or_else(|| {
                    HarnessError::InvalidInput("--device needs a name".to_string())
                })?;
                only_device = Some(
                    name.parse::<harness::DeviceKind>()
                        .map_err(|e| HarnessError::InvalidInput(e.to_string()))?,
                );
            }
            other => {
                return Err(HarnessError::InvalidInput(format!(
                    "unknown flag {other} (expected --atoms, --steps, --device, --ledger, or --validate)"
                )))
            }
        }
    }

    let sim = SimConfig::reduced_lj(atoms);
    sim.try_validate().map_err(HarnessError::InvalidInput)?;
    println!("Performance report — {atoms} atoms, {steps} time steps\n");

    let kinds: Vec<harness::DeviceKind> = match only_device {
        Some(kind) => vec![kind],
        None => vec![
            harness::DeviceKind::cell_best(),
            harness::DeviceKind::Gpu {
                model: harness::GpuModel::GeForce7900Gtx,
            },
            harness::DeviceKind::Opteron,
            harness::DeviceKind::Mta {
                mode: ThreadingMode::FullyMultithreaded,
            },
            harness::DeviceKind::Mta {
                mode: ThreadingMode::PartiallyMultithreaded,
            },
        ],
    };
    let mut all = Vec::with_capacity(kinds.len());
    let mut combined = sim_obs::RunLedger::new("perf-report", &perf::workload_label(&sim, steps));
    for kind in kinds {
        if ledger_path.is_some() {
            // The ledger-attached run is bitwise-identical to the plain one
            // (tests/obs_ledger.rs), so the tables below are unaffected.
            let (m, led) = perf::device_ledger(kind, &sim, steps)?;
            for ev in led.events() {
                combined.push(ev.clone());
            }
            all.push(m);
        } else {
            all.push(perf::device_metrics(
                kind,
                &sim,
                steps,
                HostParallelism::Serial,
            )?);
        }
    }

    let mut summary = Table::new(&["device", "sim time", "achieved", "peak", "util", "bytes/op"]);
    for m in &all {
        m.validate().map_err(HarnessError::InvalidInput)?;
        summary.row(&[
            m.device.clone(),
            secs(m.sim_seconds),
            format!(
                "{} op/s",
                format_quantity(m.derived_value("achieved_gops_per_s") * 1e9)
            ),
            format!(
                "{} op/s",
                format_quantity(m.derived_value("peak_gops_per_s") * 1e9)
            ),
            format!("{:.2}%", m.derived_value("utilization") * 100.0),
            format!("{:.2}", m.derived_value("bytes_per_op")),
        ]);
    }
    println!("{}", summary.render());

    println!("time attribution (each device's run partitioned into buckets):\n");
    let mut attribution = Table::new(&["device", "bucket", "time", "share"]);
    for m in &all {
        for (name, s) in &m.attribution {
            attribution.row(&[
                m.device.clone(),
                name.clone(),
                secs(*s),
                format!("{:.1}%", 100.0 * s / m.sim_seconds.max(f64::MIN_POSITIVE)),
            ]);
        }
    }
    println!("{}", attribution.render());

    println!("headline counters:\n");
    let mut counters = Table::new(&["device", "counter", "value"]);
    for m in &all {
        for (name, v, unit) in &m.counters {
            counters.row(&[
                m.device.clone(),
                name.clone(),
                format!("{} {unit}", format_quantity(*v)),
            ]);
        }
    }
    println!("{}", counters.render());

    for m in &all {
        let path = perf::write_metrics_json(m)?;
        println!("wrote {}", path.display());
    }
    if let Some(path) = &ledger_path {
        std::fs::write(path, combined.to_jsonl())?;
        println!(
            "wrote run ledger {path} ({} events)",
            combined.events().len()
        );
    }
    Ok(())
}

/// `--validate FILE...`: schema-check records written by a previous run.
fn validate(files: &[String]) -> Result<(), HarnessError> {
    if files.is_empty() {
        return Err(HarnessError::InvalidInput(
            "--validate needs at least one file".into(),
        ));
    }
    for f in files {
        let text = std::fs::read_to_string(f)?;
        sim_perf::validate_run_metrics_json(&text)
            .map_err(|e| HarnessError::InvalidInput(format!("{f}: {e}")))?;
        let doc = sim_perf::parse_json(&text)
            .map_err(|e| HarnessError::InvalidInput(format!("{f}: {e}")))?;
        let device = doc.get("device").and_then(JsonValue::as_str).unwrap_or("?");
        let atoms = doc
            .get("n_atoms")
            .and_then(JsonValue::as_number)
            .unwrap_or(0.0);
        println!("{f}: OK (schema-valid {device} record, {atoms} atoms)");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{run, HarnessError};

    #[test]
    fn too_few_atoms_for_the_cutoff_is_an_error_not_a_panic() {
        for atoms in ["2", "32"] {
            let args = ["--atoms", atoms, "--steps", "1"].map(String::from);
            let err = run(&args).expect_err(atoms);
            assert!(
                matches!(err, HarnessError::InvalidInput(_)),
                "--atoms {atoms}: {err}"
            );
        }
    }
}
