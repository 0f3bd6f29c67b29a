//! `mdea` — command-line front end.
//!
//! ```text
//! cargo run --release --bin mdea -- run --atoms 864 --steps 200 --host-threads 4
//! cargo run --release --bin mdea -- devices --atoms 1024
//! cargo run --release --bin mdea -- trace --atoms 512 --steps 5 --out cell_trace.json
//! ```

use md_emerging_arch::cell::{CellBeDevice, CellRunConfig};
use md_emerging_arch::cli::{parse_args, Command, DevicesArgs, RunArgs, TraceArgs, USAGE};
use md_emerging_arch::harness::{DeviceKind, GpuModel};
use md_emerging_arch::md::io as mdio;
use md_emerging_arch::md::prelude::*;
use md_emerging_arch::mta::ThreadingMode;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    match parse_args(refs.iter().copied()) {
        Ok(Command::Help) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Command::Run(r)) => run(r),
        Ok(Command::Devices(d)) => devices(d),
        Ok(Command::Trace(t)) => trace(t),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: RunArgs) -> ExitCode {
    let mut sim = Simulation::prepare(args.config)
        .with_host_parallelism(HostParallelism::from_threads(args.host_threads));
    // The host thread count is left out on purpose: stdout is bitwise the
    // same at any thread count.
    println!(
        "running {} atoms for {} steps",
        args.config.n_atoms, args.steps
    );

    let mut xyz = match &args.xyz_path {
        Some(path) => match File::create(path) {
            Ok(f) => Some(BufWriter::new(f)),
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let e0 = sim.total_energy();
    for step in 1..=args.steps {
        let report = sim.step();
        if step % args.xyz_every == 0 {
            if let Some(out) = xyz.as_mut() {
                if let Err(e) = mdio::write_xyz_frame(out, &sim.system, &format!("step {step}")) {
                    eprintln!("error writing XYZ: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if step % (args.steps / 10).max(1) == 0 {
            println!(
                "step {step:>6}: T* = {:.4}  E = {:.4}  (drift {:+.2e})",
                report.temperature,
                report.total,
                (report.total - e0) / e0
            );
        }
    }

    // Frames still buffered fail here, not in the loop.
    if let Some(Err(e)) = xyz.as_mut().map(Write::flush) {
        eprintln!("error writing XYZ: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(path) = &args.checkpoint_path {
        let bytes = SystemCheckpoint::capture(&sim.system, sim.steps_done() as u64).encode();
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("error writing checkpoint: {e}");
            return ExitCode::FAILURE;
        }
        println!("checkpoint written to {path}");
    }
    ExitCode::SUCCESS
}

fn devices(args: DevicesArgs) -> ExitCode {
    println!(
        "workload: {} atoms, {} steps (simulated 2006 hardware)\n",
        args.config.n_atoms, args.steps
    );
    let run_on = |kind: DeviceKind| {
        kind.build().run(
            &args.config,
            RunOptions::steps(args.steps).with_host_threads(args.host_threads),
        )
    };
    let opteron = run_on(DeviceKind::Opteron).expect("the reference CPU always runs");
    let base = opteron.sim_seconds;
    println!("{:<28} {:>12} {:>10}", "system", "runtime", "vs Opteron");
    let row =
        |name: &str, secs: f64| println!("{name:<28} {:>9.2} ms {:>9.2}x", secs * 1e3, base / secs);
    row("Opteron 2.2 GHz", opteron.sim_seconds);
    match run_on(DeviceKind::cell_best()) {
        Ok(cell) => row("Cell BE, 8 SPEs", cell.sim_seconds),
        Err(e) => println!("{:<28} {e}", "Cell BE, 8 SPEs"),
    }
    let gpu = run_on(DeviceKind::Gpu {
        model: GpuModel::GeForce7900Gtx,
    })
    .expect("the GPU model runs any workload");
    row("GeForce 7900GTX", gpu.sim_seconds);
    let mta = run_on(DeviceKind::Mta {
        mode: ThreadingMode::FullyMultithreaded,
    })
    .expect("the MTA model runs any workload");
    row("Cray MTA-2", mta.sim_seconds);
    ExitCode::SUCCESS
}

fn trace(args: TraceArgs) -> ExitCode {
    let device = CellBeDevice::paper_blade();
    let mut trace = sim_obs::ChromeTrace::new();
    match device.run_md_traced(&args.config, args.steps, CellRunConfig::best(), &mut trace) {
        Ok(run) => {
            let json = trace.render();
            match File::create(&args.out_path).and_then(|mut f| f.write_all(json.as_bytes())) {
                Ok(()) => {
                    println!(
                        "traced {} spans over {:.2} ms of simulated Cell time -> {}",
                        trace.span_count(),
                        run.sim_seconds * 1e3,
                        args.out_path
                    );
                    println!("open chrome://tracing or https://ui.perfetto.dev and load the file");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error writing {}: {e}", args.out_path);
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
