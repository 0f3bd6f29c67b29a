//! Offline shim for the subset of `rayon` this workspace uses:
//! `slice.par_iter().enumerate().map(f).collect::<Vec<_>>()`.
//!
//! Unlike a sequential stub, this executes on real OS threads
//! (`std::thread::scope`, one chunk per available core), so host-threaded
//! device lanes and `Simulation` force rows (`md_core::parallel`) get
//! genuine multi-core scaling. Results are collected **in index order**,
//! matching rayon's indexed-collect determinism guarantee that
//! `md_core::parallel` relies on.

pub mod prelude {
    pub use crate::iter::{IntoParallelRefIterator, IntoParallelRefMutIterator};
}

pub use pool::{ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};

mod pool {
    use std::cell::Cell;
    use std::fmt;
    use std::sync::OnceLock;

    thread_local! {
        /// Worker-thread cap installed by [`ThreadPool::install`] on the
        /// calling thread; `None` uses the [`default_thread_count`].
        pub(crate) static CURRENT_LIMIT: Cell<Option<usize>> = const { Cell::new(None) };
    }

    static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

    /// Worker count used when no `install` limit is active: the
    /// `RAYON_NUM_THREADS` environment variable when set to a positive
    /// integer (matching rayon's global-pool override), otherwise all
    /// available cores. Read once and cached for the process lifetime,
    /// as rayon's global pool does.
    pub(crate) fn default_thread_count() -> usize {
        *DEFAULT_THREADS.get_or_init(|| {
            std::env::var("RAYON_NUM_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                })
        })
    }

    /// Mirror of `rayon::ThreadPoolBuilder` for the one configuration the
    /// workspace uses: a fixed worker-thread count.
    #[derive(Default)]
    pub struct ThreadPoolBuilder {
        num_threads: usize,
    }

    impl ThreadPoolBuilder {
        pub fn new() -> Self {
            Self::default()
        }

        /// 0 (the default) means "use all available cores", as in rayon.
        #[must_use]
        pub fn num_threads(mut self, num_threads: usize) -> Self {
            self.num_threads = num_threads;
            self
        }

        pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
            Ok(ThreadPool {
                num_threads: self.num_threads,
            })
        }
    }

    /// Mirror of `rayon::ThreadPool`. The shim spawns scoped threads per
    /// `collect` rather than keeping persistent workers, so the "pool" is
    /// just the thread-count limit `install` applies while `op` runs.
    pub struct ThreadPool {
        num_threads: usize,
    }

    impl ThreadPool {
        /// Run `op` with this pool's thread budget: parallel iterators used
        /// inside `op` (on this thread) split across at most `num_threads`
        /// workers. Order-preserving collection keeps results identical to
        /// any other budget, including serial.
        pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
            let limit = (self.num_threads > 0).then_some(self.num_threads);
            let prev = CURRENT_LIMIT.with(|l| l.replace(limit));
            let guard = RestoreLimit(prev);
            let out = op();
            drop(guard);
            out
        }

        pub fn current_num_threads(&self) -> usize {
            if self.num_threads > 0 {
                self.num_threads
            } else {
                default_thread_count()
            }
        }
    }

    /// Restores the previous limit even if `op` panics.
    struct RestoreLimit(Option<usize>);

    impl Drop for RestoreLimit {
        fn drop(&mut self) {
            let prev = self.0;
            CURRENT_LIMIT.with(|l| l.set(prev));
        }
    }

    /// Mirror of `rayon::ThreadPoolBuildError` (this shim cannot actually
    /// fail to build, but callers match the real API's `Result`).
    #[derive(Debug)]
    pub struct ThreadPoolBuildError;

    impl fmt::Display for ThreadPoolBuildError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("thread pool build failed")
        }
    }

    impl std::error::Error for ThreadPoolBuildError {}
}

pub mod iter {
    /// Entry point mirroring `rayon::iter::IntoParallelRefIterator`.
    pub trait IntoParallelRefIterator<'data> {
        type Item: Sync + 'data;
        fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
        type Item = T;
        fn par_iter(&'data self) -> ParIter<'data, T> {
            ParIter { items: self }
        }
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
        type Item = T;
        fn par_iter(&'data self) -> ParIter<'data, T> {
            ParIter { items: self }
        }
    }

    /// Borrowing parallel iterator over a slice.
    #[derive(Clone, Copy)]
    pub struct ParIter<'data, T> {
        items: &'data [T],
    }

    impl<'data, T: Sync> ParIter<'data, T> {
        pub fn enumerate(self) -> ParEnumerate<'data, T> {
            ParEnumerate { items: self.items }
        }

        pub fn map<R, F>(self, f: F) -> ParMap<'data, T, impl Fn((usize, &'data T)) -> R + Sync>
        where
            R: Send,
            F: Fn(&'data T) -> R + Sync,
        {
            ParMap {
                items: self.items,
                f: move |(_, item)| f(item),
            }
        }
    }

    /// Indexed parallel iterator (`par_iter().enumerate()`).
    #[derive(Clone, Copy)]
    pub struct ParEnumerate<'data, T> {
        items: &'data [T],
    }

    impl<'data, T: Sync> ParEnumerate<'data, T> {
        pub fn map<R, F>(self, f: F) -> ParMap<'data, T, F>
        where
            R: Send,
            F: Fn((usize, &'data T)) -> R + Sync,
        {
            ParMap {
                items: self.items,
                f,
            }
        }
    }

    /// Mapped parallel iterator; `collect` runs the map on worker threads.
    pub struct ParMap<'data, T, F> {
        items: &'data [T],
        f: F,
    }

    impl<'data, T, R, F> ParMap<'data, T, F>
    where
        T: Sync,
        R: Send,
        F: Fn((usize, &'data T)) -> R + Sync,
    {
        /// Execute across threads, preserving element order.
        pub fn collect<C: FromIterator<R>>(self) -> C {
            run_indexed(self.items, &self.f).into_iter().collect()
        }
    }

    /// Worker count for a job over `n` items: the calling thread's installed
    /// limit if any, else the process default (`RAYON_NUM_THREADS` or all
    /// cores), never more than `n`.
    fn resolved_threads(n: usize) -> usize {
        crate::pool::CURRENT_LIMIT
            .with(std::cell::Cell::get)
            .unwrap_or_else(crate::pool::default_thread_count)
            .min(n.max(1))
    }

    fn run_indexed<'data, T, R, F>(items: &'data [T], f: &F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn((usize, &'data T)) -> R + Sync,
    {
        let n = items.len();
        let threads = resolved_threads(n);
        if threads <= 1 || n < 2 {
            return items.iter().enumerate().map(f).collect();
        }
        let chunk = n.div_ceil(threads);
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        // The calling thread takes the first chunk itself (after the workers
        // are launched): one fewer spawn, and the caller does useful work
        // instead of blocking at the scope join.
        let (first, mut rest) = out.as_mut_slice().split_at_mut(chunk.min(n));
        std::thread::scope(|scope| {
            let mut lo = chunk.min(n);
            while lo < n {
                let hi = (lo + chunk).min(n);
                let (head, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                let base = lo;
                scope.spawn(move || {
                    for (k, slot) in head.iter_mut().enumerate() {
                        let i = base + k;
                        *slot = Some(f((i, &items[i])));
                    }
                });
                lo = hi;
            }
            for (i, slot) in first.iter_mut().enumerate() {
                *slot = Some(f((i, &items[i])));
            }
        });
        out.into_iter()
            .map(|r| r.unwrap_or_else(|| unreachable!("every index filled by exactly one worker")))
            .collect()
    }

    /// Entry point mirroring `rayon::iter::IntoParallelRefMutIterator`.
    pub trait IntoParallelRefMutIterator<'data> {
        type Item: Send + 'data;
        fn par_iter_mut(&'data mut self) -> ParIterMut<'data, Self::Item>;
    }

    impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
        type Item = T;
        fn par_iter_mut(&'data mut self) -> ParIterMut<'data, T> {
            ParIterMut { items: self }
        }
    }

    impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
        type Item = T;
        fn par_iter_mut(&'data mut self) -> ParIterMut<'data, T> {
            ParIterMut { items: self }
        }
    }

    /// Mutably borrowing parallel iterator over a slice.
    pub struct ParIterMut<'data, T> {
        items: &'data mut [T],
    }

    impl<'data, T: Send> ParIterMut<'data, T> {
        pub fn enumerate(self) -> ParEnumerateMut<'data, T> {
            ParEnumerateMut { items: self.items }
        }
    }

    /// Indexed mutable parallel iterator (`par_iter_mut().enumerate()`).
    pub struct ParEnumerateMut<'data, T> {
        items: &'data mut [T],
    }

    impl<'data, T: Send> ParEnumerateMut<'data, T> {
        pub fn map<R, F>(self, f: F) -> ParMapMut<'data, T, F>
        where
            R: Send,
            F: Fn((usize, &'data mut T)) -> R + Sync,
        {
            ParMapMut {
                items: self.items,
                f,
            }
        }
    }

    /// Mapped mutable parallel iterator; `collect` runs the map on worker
    /// threads, each owning a disjoint chunk of the slice.
    pub struct ParMapMut<'data, T, F> {
        items: &'data mut [T],
        f: F,
    }

    impl<'data, T, R, F> ParMapMut<'data, T, F>
    where
        T: Send,
        R: Send,
        F: Fn((usize, &'data mut T)) -> R + Sync,
    {
        /// Execute across threads, preserving element order.
        pub fn collect<C: FromIterator<R>>(self) -> C {
            run_indexed_mut(self.items, &self.f).into_iter().collect()
        }
    }

    fn run_indexed_mut<'data, T, R, F>(items: &'data mut [T], f: &F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn((usize, &'data mut T)) -> R + Sync,
    {
        let n = items.len();
        let threads = resolved_threads(n);
        if threads <= 1 || n < 2 {
            return items.iter_mut().enumerate().map(f).collect();
        }
        let chunk = n.div_ceil(threads);
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        // As in `run_indexed`: the caller keeps the first chunk and runs it
        // after launching the workers for the rest.
        let (out_first, mut out_rest) = out.as_mut_slice().split_at_mut(chunk.min(n));
        let (item_first, mut item_rest) = items.split_at_mut(chunk.min(n));
        std::thread::scope(|scope| {
            let mut lo = chunk.min(n);
            while lo < n {
                let hi = (lo + chunk).min(n);
                let (out_head, out_tail) = out_rest.split_at_mut(hi - lo);
                out_rest = out_tail;
                let (item_head, item_tail) = std::mem::take(&mut item_rest).split_at_mut(hi - lo);
                item_rest = item_tail;
                let base = lo;
                scope.spawn(move || {
                    for (k, (slot, item)) in
                        out_head.iter_mut().zip(item_head.iter_mut()).enumerate()
                    {
                        *slot = Some(f((base + k, item)));
                    }
                });
                lo = hi;
            }
            for (k, (slot, item)) in out_first.iter_mut().zip(item_first.iter_mut()).enumerate() {
                *slot = Some(f((k, item)));
            }
        });
        out.into_iter()
            .map(|r| r.unwrap_or_else(|| unreachable!("every index filled by exactly one worker")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn indexed_map_collect_preserves_order() {
        let data: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = data
            .par_iter()
            .enumerate()
            .map(|(i, &x)| x * 2 + i as u64)
            .collect();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3);
        }
    }

    #[test]
    fn unindexed_map_works() {
        let data = [1u32, 2, 3, 4, 5];
        let out: Vec<u32> = data.par_iter().map(|&x| x * x).collect();
        assert_eq!(out, vec![1, 4, 9, 16, 25]);
    }

    #[test]
    fn empty_and_single_element() {
        let empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = empty.par_iter().enumerate().map(|(_, &x)| x).collect();
        assert!(out.is_empty());
        let one = [7u8];
        let out: Vec<u8> = one.par_iter().enumerate().map(|(_, &x)| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn install_caps_threads_and_preserves_results() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("shim pools always build");
        assert_eq!(pool.current_num_threads(), 1);
        let data: Vec<u32> = (0..1000).collect();
        let serial: Vec<u64> = pool.install(|| {
            data.par_iter()
                .enumerate()
                .map(|(i, &x)| u64::from(x) * 3 + i as u64)
                .collect()
        });
        let free: Vec<u64> = data
            .par_iter()
            .enumerate()
            .map(|(i, &x)| u64::from(x) * 3 + i as u64)
            .collect();
        assert_eq!(serial, free);
    }

    #[test]
    fn install_restores_previous_limit() {
        let outer = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("shim pools always build");
        let inner = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("shim pools always build");
        outer.install(|| {
            inner.install(|| {});
            // The inner install must not clobber the outer budget.
            let got: Vec<usize> = [0usize; 4].par_iter().enumerate().map(|(i, _)| i).collect();
            assert_eq!(got, vec![0, 1, 2, 3]);
        });
    }

    #[test]
    fn indexed_mut_map_mutates_and_preserves_order() {
        let mut data: Vec<u64> = (0..5_000).collect();
        let out: Vec<u64> = data
            .par_iter_mut()
            .enumerate()
            .map(|(i, x)| {
                *x += 1;
                *x * 2 + i as u64
            })
            .collect();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64 + 1) * 2 + i as u64);
        }
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1, "mutation applied in place");
        }
    }

    #[test]
    fn mut_map_identical_across_thread_budgets() {
        let base: Vec<u32> = (0..997).collect();
        let run = |threads: usize| {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("shim pools always build");
            let mut data = base.clone();
            let out: Vec<u64> = pool.install(|| {
                data.par_iter_mut()
                    .enumerate()
                    .map(|(i, x)| {
                        *x = x.wrapping_mul(3);
                        u64::from(*x) + i as u64
                    })
                    .collect()
            });
            (data, out)
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let data: Vec<f64> = (0..4096).map(|i| f64::from(i as u32) * 0.5).collect();
        let a: Vec<f64> = data
            .par_iter()
            .enumerate()
            .map(|(i, &x)| x + i as f64)
            .collect();
        let b: Vec<f64> = data
            .par_iter()
            .enumerate()
            .map(|(i, &x)| x + i as f64)
            .collect();
        assert_eq!(a, b);
    }
}
