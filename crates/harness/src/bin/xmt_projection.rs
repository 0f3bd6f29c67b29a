//! Extension experiment: the Cray XMT projection the paper's conclusion
//! anticipates — with and without the data-placement work its non-uniform
//! memory demands.

use harness::report::{secs, Table};
use harness::{write_csv, HarnessError};
use md_core::device::{MdDevice, RunOptions};
use md_core::params::SimConfig;
use mta::{MtaConfig, MtaMd, MtaMdSimulation, ThreadingMode};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xmt_projection: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One row of the XMT scaling projection.
struct XmtRow {
    label: &'static str,
    n_processors: usize,
    seconds: f64,
}

/// The paper's conclusion anticipates "significant performance gains from
/// the upcoming XMT technology" while §3.3 warns that the XMT loses the
/// MTA-2's uniform memory. This projects both: the MTA-2 baseline, the
/// optimistic XMT (placed data), and the locality-blind XMT where 80% of
/// the gather's references go remote.
///
/// The XMT machines are hypothetical configurations outside the paper's
/// evaluation grid, so they are built directly rather than via
/// [`harness::DeviceKind`].
fn xmt_projection(
    n_atoms: usize,
    steps: usize,
    processors: &[usize],
) -> Result<Vec<XmtRow>, HarnessError> {
    let sim = SimConfig::reduced_lj(n_atoms);
    let seconds = |config: MtaConfig| -> Result<f64, HarnessError> {
        let run = MtaMd::new(
            MtaMdSimulation::new(config),
            ThreadingMode::FullyMultithreaded,
        )
        .run(&sim, RunOptions::steps(steps))?;
        Ok(run.sim_seconds)
    };
    let mut rows = vec![XmtRow {
        label: "MTA-2",
        n_processors: 1,
        seconds: seconds(MtaConfig::paper_mta2())?,
    }];
    for &p in processors {
        rows.push(XmtRow {
            label: "XMT (placed data)",
            n_processors: p,
            seconds: seconds(MtaConfig::xmt(p))?,
        });
        rows.push(XmtRow {
            label: "XMT (locality-blind)",
            n_processors: p,
            seconds: seconds(MtaConfig::xmt_nonuniform(p, 0.8))?,
        });
    }
    Ok(rows)
}

fn run() -> Result<(), HarnessError> {
    let (n, steps) = (2048usize, 4usize);
    println!("XMT projection — MD kernel, {n} atoms, {steps} steps (extension)\n");
    let rows = xmt_projection(n, steps, &[1, 4, 16, 64])?;

    let baseline = rows
        .first()
        .ok_or(HarnessError::MissingRow("the MTA-2 baseline"))?
        .seconds;
    let mut table = Table::new(&["system", "processors", "runtime", "vs MTA-2"]);
    let mut csv = Vec::new();
    for r in &rows {
        table.row(&[
            r.label.to_string(),
            r.n_processors.to_string(),
            secs(r.seconds),
            format!("{:.1}x", baseline / r.seconds),
        ]);
        csv.push(vec![
            r.label.to_string(),
            r.n_processors.to_string(),
            format!("{:.9}", r.seconds),
        ]);
    }
    println!("{}", table.render());

    println!("observations:");
    println!(
        "  - the optimistic XMT gains the clock ratio (2.5x) per processor and \
         scales with processor count (the paper's anticipated 'significant gains');"
    );
    println!(
        "  - the locality-blind port loses a large factor to remote latency that \
         128 streams cannot hide — the paper's own caveat that on the XMT \
         'data placement and access locality will be an important consideration'."
    );

    let path = write_csv("xmt_projection", &["system", "processors", "seconds"], &csv)?;
    println!("\nwrote {}", path.display());
    Ok(())
}
