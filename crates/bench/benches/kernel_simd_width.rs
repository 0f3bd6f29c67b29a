//! SIMD-width ablation of the shared force evaluator (DESIGN.md §17):
//! the scalar interpretive gather row versus the wide physics-once row, on
//! real host hardware.
//!
//! Both paths compute bitwise-identical rows (`md_core::shared_eval`'s
//! contract, pinned in its unit tests); what this bench measures is the
//! wall-clock value of batching the distance pass across lanes and
//! early-skipping non-interacting blocks — i.e. the host-side speedup of
//! every device's shared-eval force path over the per-pair scalar row at a
//! given atom count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use md_core::forces::SoaPositions;
use md_core::params::SimConfig;
use md_core::reference::gather_row;
use md_core::shared_eval::{self, SoaPositionsF32};
use md_core::system::ParticleSystem;
use mdea_bench::host_criterion;
use std::hint::black_box;

/// One full evaluation: every atom's row, summed interactions as the
/// live output (keeps the optimizer honest without allocating).
fn eval_host(
    soa: &SoaPositions<f64>,
    n: usize,
    l: f64,
    sub: &md_core::scenario::Substrate<f64>,
) -> u64 {
    let mut total = 0u64;
    for i in 0..n {
        total += gather_row(soa, i, l, sub, 1.0).interactions;
    }
    total
}

fn eval_host_wide(
    soa: &SoaPositions<f64>,
    n: usize,
    l: f64,
    sub: &md_core::scenario::Substrate<f64>,
) -> u64 {
    let mut total = 0u64;
    for i in 0..n {
        total += shared_eval::host_row(soa, i, l, sub, 1.0).interactions;
    }
    total
}

fn kernel_simd_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_simd_width");
    for &n in &[864usize, 2048] {
        let cfg = SimConfig::reduced_lj(n);
        let sys: ParticleSystem<f64> = md_core::init::initialize(&cfg);
        let sub = cfg.substrate::<f64>();
        let l = sys.box_len;
        let soa = SoaPositions::from_positions(&sys.positions);

        group.bench_with_input(BenchmarkId::new("scalar-gather", n), &n, |b, _| {
            b.iter(|| black_box(eval_host(&soa, n, l, &sub)));
        });
        group.bench_with_input(BenchmarkId::new("wide-4", n), &n, |b, _| {
            b.iter(|| black_box(eval_host_wide(&soa, n, l, &sub)));
        });

        // The f32 flavors the Cell and GPU force paths ride on (8 lanes wide).
        let sys32: ParticleSystem<f32> = sys.convert();
        let sub32 = cfg.substrate::<f32>();
        let l32 = sys32.box_len;
        let soa32 =
            SoaPositionsF32::from_quads(sys32.positions.iter().map(|p| [p.x, p.y, p.z, 0.0]));
        group.bench_with_input(BenchmarkId::new("wide-8-cell", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..n {
                    acc += shared_eval::cell_row(&soa32, i, l32, &sub32, 1.0).interactions;
                }
                black_box(acc)
            });
        });
        group.bench_with_input(BenchmarkId::new("wide-8-gpu", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = 0.0f32;
                for i in 0..n {
                    acc += shared_eval::gpu_texel(&soa32, i, l32, &sub32, 1.0)[3];
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

criterion_group!(name = simd_width; config = host_criterion(); targets = kernel_simd_width);
criterion_main!(simd_width);
