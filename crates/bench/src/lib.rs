//! Shared helpers for the Criterion benchmark suite.
//!
//! Two kinds of benches coexist here:
//!
//! - **Host benches** (`kernels`, `kernel_simd_width`,
//!   `host_parallel_scaling`): ordinary Criterion wall-clock measurements of
//!   the real `md_core` evaluator on the machine running the suite.
//! - **Simulated-device ablations** (`ablation_devices`,
//!   `ablation_gpu_reduction`): configurations outside the paper's grid,
//!   measured in *simulated* device seconds injected into Criterion through
//!   `iter_custom`, with the usual statistical machinery degenerating
//!   gracefully because the simulators are exactly deterministic.
//!
//! The paper's own figures are not benched here: their simulated seconds
//! come from the sweep specs (`sweep run <spec>`, `bench_seed`).

use criterion::Criterion;
use std::time::Duration;

/// Criterion configured for the deterministic simulated-device benches:
/// minimal sampling (the measurement is exact), short measurement windows.
pub fn sim_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
        // Deterministic measurements give plotters NaN axis ranges in the
        // cross-parameter charts; the tabular report is what matters here.
        .without_plots()
        .configure_from_args()
}

/// Criterion configured for real host-kernel measurements.
pub fn host_criterion() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .configure_from_args()
}

/// Convert a simulated-seconds quantity into the `Duration` Criterion's
/// `iter_custom` expects, scaled by the iteration count.
///
/// A deterministic, sub-ppm jitter (keyed on the iteration count) is mixed
/// in: Criterion's bootstrap statistics assert non-NaN variance estimates,
/// which exactly-zero-variance samples — the natural output of a
/// deterministic simulator — violate. The jitter is ≤ 1.2e-5 relative, far
/// below any reported digit.
pub fn sim_duration(sim_seconds: f64, iters: u64) -> Duration {
    let jitter = 1.0 + (iters % 13) as f64 * 1e-6;
    Duration::from_secs_f64(sim_seconds * iters as f64 * jitter)
}
