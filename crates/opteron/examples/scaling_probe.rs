// Probes how the Opteron's runtime decomposes as N grows, via the unified
// `MdDevice` report: compute vs memory-stall attribution and the cache miss
// rates surfaced in the derived metrics.

// The opteron crate's extra denies (its lib.rs) for this target too.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::iter_over_hash_type
)]

use md_core::device::{DeviceError, MdDevice, RunOptions};

fn main() -> Result<(), DeviceError> {
    for n in [256usize, 512, 1024, 2048, 4096, 8192] {
        let cfg = md_core::params::SimConfig::reduced_lj(n);
        let mut cpu = opteron::OpteronCpu::paper_reference();
        let run = cpu.run(&cfg, RunOptions::steps(1))?;
        let attributed = |key: &str| {
            run.attribution
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0.0, |(_, v)| *v)
        };
        let derived = |key: &str| {
            run.derived
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0.0, |(_, v)| *v)
        };
        println!(
            "N={n:5} t={:.6}s compute={:.3e}s mem_stall={:.3e}s l1miss={:.4} l2miss={:.4}",
            run.sim_seconds,
            attributed("compute"),
            attributed("memory_stall"),
            derived("l1_miss_rate"),
            derived("l2_miss_rate"),
        );
    }
    Ok(())
}
