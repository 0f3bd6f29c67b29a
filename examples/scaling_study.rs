//! Workload-scaling study: how each simulated system's runtime grows with
//! atom count — the behaviour behind Figures 7-9, plus the host machine's
//! real wall-clock for comparison.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use md_emerging_arch::harness::{DeviceKind, GpuModel};
use md_emerging_arch::md::device::RunOptions;
use md_emerging_arch::md::prelude::*;
use md_emerging_arch::mta::ThreadingMode;
use std::time::Instant;

fn main() {
    let steps = 2;
    println!(
        "runtime scaling, {} time steps per point (simulated seconds)\n",
        steps
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "atoms", "Opteron", "Cell 8SPE", "GPU", "MTA-2", "host (real)"
    );

    for &n in &[256usize, 512, 1024, 2048] {
        let sim = SimConfig::reduced_lj(n);
        let run_on = |kind: DeviceKind| {
            kind.build()
                .run(&sim, RunOptions::steps(steps))
                .expect("paper workloads fit every device")
                .sim_seconds
        };
        let opteron = run_on(DeviceKind::Opteron);
        let cell = run_on(DeviceKind::cell_best());
        let gpu = run_on(DeviceKind::Gpu {
            model: GpuModel::GeForce7900Gtx,
        });
        let mta = run_on(DeviceKind::Mta {
            mode: ThreadingMode::FullyMultithreaded,
        });

        // And the real machine this example runs on, one thread per core.
        let mut host = Simulation::prepare(sim).with_host_parallelism(HostParallelism::Threads(0));
        let t0 = Instant::now();
        host.run(steps);
        let host_secs = t0.elapsed().as_secs_f64();

        println!(
            "{:>6} {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>12.2}ms",
            n,
            opteron * 1e3,
            cell * 1e3,
            gpu * 1e3,
            mta * 1e3,
            host_secs * 1e3
        );
    }

    println!(
        "\nshapes to notice: every system is O(N²); the GPU's fixed per-step cost \
         dominates at small N; the MTA-2 is slowest in absolute terms (200 MHz) but \
         grows exactly with the flop count; the Opteron picks up a cache penalty \
         beyond ~2700 atoms (run the fig9 binary for the full sweep)."
    );
}
