//! Offline shim for the subset of `rayon` this workspace uses:
//! `slice.par_iter().enumerate().map(f).collect::<Vec<_>>()`.
//!
//! Unlike a sequential stub, this executes on real OS threads
//! (`std::thread::scope`, one worker per available core, the calling thread
//! included), so host-threaded device lanes, `Simulation` force rows
//! (`md_core::parallel`) and sweep points get genuine multi-core scaling.
//! Workers claim work rather than split it up front: each takes the next
//! small block of items until none is left, so one slow item does not hold
//! back a whole pre-assigned chunk. Results are collected **in index
//! order**, matching rayon's indexed-collect determinism guarantee that
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
    use std::sync::{Mutex, PoisonError};

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
            run_claimed(self.items.iter(), &self.f)
                .into_iter()
                .collect()
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

    /// Claims per worker, on average, that a job is cut into: enough that
    /// the last claims even out uneven item costs, few enough that the lock
    /// is rarely contended. One-item claims are slower on the force-row
    /// maps: on a 2-vCPU host, `mdea run --atoms 2048 --host-threads 4`
    /// took 0.295 s against 0.179 s with these blocks, and
    /// `sweep run fig9 --no-cache --host-threads 8` 0.618 s against
    /// 0.432 s (medians of 10 alternating pairs, blocks faster in all 10).
    const CLAIMS_PER_WORKER: usize = 32;

    /// Run `f` over every `(index, item)` of `items` on the resolved number
    /// of workers, the calling thread included, and return the results in
    /// index order. Each worker claims the next block of items from the
    /// shared iterator until it runs dry; a block is one item unless the job
    /// has more than [`CLAIMS_PER_WORKER`] items per worker. A panic in `f`
    /// propagates with its own payload once every worker has stopped.
    fn run_claimed<I, R, F>(items: I, f: &F) -> Vec<R>
    where
        I: ExactSizeIterator + Send,
        R: Send,
        F: Fn((usize, I::Item)) -> R + Sync,
    {
        let n = items.len();
        let threads = resolved_threads(n);
        if threads <= 1 || n < 2 {
            return items.enumerate().map(f).collect();
        }
        let block = (n / (threads * CLAIMS_PER_WORKER)).max(1);
        let queue = Mutex::new(items.enumerate());
        let work = || {
            let mut done = Vec::new();
            let mut claimed = Vec::with_capacity(block);
            loop {
                // The lock is held only to take the block, never while `f`
                // runs, so a panicking item cannot poison it.
                claimed.extend(
                    queue
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .by_ref()
                        .take(block),
                );
                if claimed.is_empty() {
                    return done;
                }
                done.extend(claimed.drain(..).map(|(i, item)| (i, f((i, item)))));
            }
        };
        let parts = std::thread::scope(|scope| {
            let workers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mine = work();
            let mut parts = vec![mine];
            for w in workers {
                match w.join() {
                    Ok(part) => parts.push(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            parts
        });
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        for (i, r) in parts.into_iter().flatten() {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.unwrap_or_else(|| unreachable!("every index claimed exactly once")))
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
    /// threads, each item claimed by exactly one of them.
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
            run_claimed(self.items.iter_mut(), &self.f)
                .into_iter()
                .collect()
        }
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

    fn pool(threads: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pools always build")
    }

    /// Skewed costs: the last item is far more expensive than the rest, so
    /// items finish out of index order; results still come back by index.
    #[test]
    fn skewed_costs_keep_index_order() {
        let data: Vec<u64> = (0..64).collect();
        let last = data.len() - 1;
        for threads in [2, 3, 8] {
            let out: Vec<u64> = pool(threads).install(|| {
                data.par_iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        if i == last {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                        x * x + i as u64
                    })
                    .collect()
            });
            let want: Vec<u64> = data.iter().map(|&x| x * x + x).collect();
            assert_eq!(out, want, "{threads} threads");
        }
    }

    /// Work is claimed, not pre-assigned: while item 0 is stuck, another
    /// worker must take every item after it. A contiguous split would leave
    /// items 1.. behind item 0 on the same thread and trip the deadline.
    #[test]
    fn a_slow_item_does_not_hold_back_the_items_after_it() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let data = [(); 16];
        let done = AtomicUsize::new(0);
        let out: Vec<usize> = pool(2).install(|| {
            data.par_iter()
                .enumerate()
                .map(|(i, ())| {
                    if i == 0 {
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_secs(20);
                        while done.load(Ordering::SeqCst) < data.len() - 1 {
                            assert!(
                                std::time::Instant::now() < deadline,
                                "items after a slow one were never claimed"
                            );
                            std::thread::yield_now();
                        }
                    } else {
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    i
                })
                .collect()
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_and_tiny_jobs() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let p = pool(8);
        for n in 0..4usize {
            let data: Vec<usize> = (0..n).collect();
            let ran_on = Mutex::new(HashSet::new());
            let out: Vec<usize> = p.install(|| {
                data.par_iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        ran_on.lock().unwrap().insert(std::thread::current().id());
                        i + x
                    })
                    .collect()
            });
            assert_eq!(
                out,
                data.iter().map(|&x| 2 * x).collect::<Vec<_>>(),
                "{n} items"
            );
            assert!(
                ran_on.lock().unwrap().len() <= n.max(1),
                "{n} items: one worker per item at most"
            );
            let mut data = data;
            let out: Vec<usize> = p.install(|| {
                data.par_iter_mut()
                    .enumerate()
                    .map(|(i, x)| {
                        *x += 1;
                        i
                    })
                    .collect()
            });
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            assert_eq!(data, (1..=n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_mut_item_is_mutated_exactly_once() {
        for threads in [2, 4, 8] {
            // Enough items that claims are multi-item blocks, with uneven
            // costs so the workers interleave.
            let mut hits = vec![0u32; 5_000];
            let out: Vec<usize> = pool(threads).install(|| {
                hits.par_iter_mut()
                    .enumerate()
                    .map(|(i, h)| {
                        if i % 97 == 0 {
                            std::thread::yield_now();
                        }
                        *h += 1;
                        i
                    })
                    .collect()
            });
            assert_eq!(out, (0..5_000).collect::<Vec<_>>(), "{threads} threads");
            assert!(
                hits.iter().all(|&h| h == 1),
                "{threads} threads: every item once"
            );
        }
    }

    /// The message of a caught panic.
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn a_panicking_item_propagates_out_of_collect() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let data: Vec<u32> = (0..40).collect();
        for threads in [1, 2, 4] {
            let p = pool(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                p.install(|| {
                    data.par_iter()
                        .enumerate()
                        .map(|(i, &x)| {
                            if i == 13 {
                                panic!("item {i} failed")
                            } else {
                                x
                            }
                        })
                        .collect::<Vec<u32>>()
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(
                panic_message(&*payload),
                "item 13 failed",
                "{threads} threads"
            );

            let mut data = data.clone();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                p.install(|| {
                    data.par_iter_mut()
                        .enumerate()
                        .map(|(i, x)| {
                            if i == 31 {
                                panic!("item {i} failed")
                            } else {
                                *x
                            }
                        })
                        .collect::<Vec<u32>>()
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(
                panic_message(&*payload),
                "item 31 failed",
                "{threads} threads"
            );
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
