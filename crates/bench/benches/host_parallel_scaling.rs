//! Host wall-clock scaling of a *single* device run (DESIGN.md §12).
//!
//! This measures real host time, not simulated seconds: the quantity under
//! test is how fast the host can execute one Opteron-reference 2048-atom /
//! 10-step run at each host thread count. Every configuration returns
//! bitwise-identical simulated results (`tests/host_parallel.rs`); only
//! wall-clock differs here.
//!
//! On single-core hosts the `threads` series is flat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use md_core::device::{MdDevice, RunOptions};
use md_core::params::SimConfig;
use mdea_bench::host_criterion;
use opteron::OpteronCpu;

const N_ATOMS: usize = 2048;
const STEPS: usize = 10;

fn host_parallel_scaling(c: &mut Criterion) {
    let sim = SimConfig::reduced_lj(N_ATOMS);
    let mut group = c.benchmark_group("host_parallel_scaling");
    for t in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", t), &t, |b, &t| {
            b.iter(|| {
                OpteronCpu::paper_reference()
                    .run(&sim, RunOptions::steps(STEPS).with_host_threads(t))
                    .expect("reference CPU runs")
            });
        });
    }
    group.finish();
}

criterion_group!(name = benches; config = host_criterion(); targets = host_parallel_scaling);
criterion_main!(benches);
