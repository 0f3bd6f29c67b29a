//! Offline shim for the subset of `criterion` this workspace uses.
//!
//! Each bench target still builds and runs (`cargo bench`), executing every
//! registered benchmark and printing a one-line mean time per benchmark ID.
//! The statistical machinery (bootstrap, outlier classification, plots,
//! baselines) is intentionally absent — the simulated-device benches are
//! exactly deterministic, and the host benches only need a representative
//! mean in this environment.

use std::time::{Duration, Instant};

/// Shim of `criterion::Criterion`. Builder methods are accepted (and mostly
/// recorded) for API compatibility; `sample_size` and the time windows steer
/// how many iterations the shim actually runs.
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_millis(500),
        }
    }
}

impl Criterion {
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    #[must_use]
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    #[must_use]
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    #[must_use]
    pub fn without_plots(self) -> Self {
        self
    }

    #[must_use]
    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = id.into_benchmark_id();
        self.run_one(&label, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&self, label: &str, mut f: F) {
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher);
        let mean = bencher.mean();
        println!("bench: {label:<50} mean {}", fmt_duration(mean));
    }
}

/// Shim of `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        self.criterion.run_one(&label, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        self.criterion.run_one(&label, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Shim of `criterion::BenchmarkId`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

/// Anything acceptable as a benchmark identifier (`&str`, `String`, or a
/// structured [`BenchmarkId`]).
pub trait IntoBenchmarkId {
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.label
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_owned()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Shim of `criterion::Bencher`: runs the closure `sample_size` times and
/// records per-iteration durations.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Measure wall-clock time of `f` per call.
    #[expect(
        clippy::disallowed_methods,
        reason = "a wall-clock benchmark times each call on the host"
    )]
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f()); // warm-up
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.samples.push(t0.elapsed());
        }
    }

    /// Measure with caller-provided timing (the simulated-device benches
    /// report *simulated* seconds through this).
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        for _ in 0..self.sample_size.min(3) {
            let iters = 1u64;
            let total = f(iters);
            self.samples.push(total / u32::try_from(iters).unwrap_or(1));
        }
    }

    fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.samples.iter().sum();
        total / u32::try_from(self.samples.len()).unwrap_or(1)
    }
}

fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Shim of `criterion::criterion_group!` (both the plain and the
/// `name = ...; config = ...; targets = ...` forms).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default().configure_from_args();
            targets = $($target),+
        );
    };
}

/// Shim of `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_records() {
        let mut c = Criterion::default().sample_size(4);
        let mut calls = 0u32;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                calls += 1;
            });
        });
        // 1 warm-up + 4 samples.
        assert_eq!(calls, 5);
    }

    #[test]
    fn group_and_ids_compose_labels() {
        assert_eq!(
            BenchmarkId::new("kernel", 256).into_benchmark_id(),
            "kernel/256"
        );
        assert_eq!(BenchmarkId::from_parameter(8).into_benchmark_id(), "8");
        let mut c = Criterion::default().sample_size(1);
        let mut group = c.benchmark_group("g");
        let mut ran = false;
        group.bench_with_input(BenchmarkId::new("x", 1), &41u32, |b, &input| {
            b.iter_custom(|iters| {
                ran = input == 41 && iters >= 1;
                Duration::from_micros(10)
            });
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.000 ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.000 µs");
        assert_eq!(fmt_duration(Duration::from_nanos(3)), "3.0 ns");
    }
}
