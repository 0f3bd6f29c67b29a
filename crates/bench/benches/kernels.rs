//! Host-hardware benchmark of one `Simulation` step — what the paper's
//! question ("how fast can this kernel go?") looks like on today's machine.

use criterion::{criterion_group, criterion_main, Criterion};
use md_core::prelude::*;
use mdea_bench::host_criterion;
use std::hint::black_box;

fn integration_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("verlet_step");
    let cfg = SimConfig::reduced_lj(864);
    group.bench_function("step-864", |b| {
        let mut sim = Simulation::prepare(cfg);
        b.iter(|| black_box(sim.step()));
    });
    group.finish();
}

criterion_group!(name = kernels; config = host_criterion(); targets = integration_step);
criterion_main!(kernels);
