//! Offline shim for the subset of `rayon` this workspace uses:
//! `slice.par_iter().enumerate().map(f).collect::<Vec<_>>()`.
//!
//! Unlike a sequential stub, this executes on real OS threads
//! (`std::thread::scope`, one worker per available core, the calling thread
//! included), so host-threaded device lanes, `Simulation` force rows
//! (`md_core::parallel`) and sweep points get genuine multi-core scaling.
//! Workers claim work rather than split it up front: each takes the next
//! small block of items until none is left, so one slow item does not hold
//! back a whole pre-assigned chunk. A job started inside another job's item
//! starts no threads: the enclosing job's idle workers help it (see the
//! `team` module), so nested jobs share one thread budget as real rayon's
//! nested iterators share one pool. Results are collected **in index
//! order**, matching rayon's indexed-collect determinism guarantee that
//! `md_core::parallel` relies on.

pub mod prelude {
    pub use crate::iter::{IntoParallelRefIterator, IntoParallelRefMutIterator};
}

pub use pool::{ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};
pub use team::current_thread_index;

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
        /// workers, unless this thread is already running an item of
        /// another job, whose threads they then share. Order-preserving
        /// collection keeps results identical to any other budget,
        /// including serial.
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

/// How the threads of one job run the jobs started inside its items.
///
/// A top-level job runs on a *team*: the calling thread, which owns the job,
/// plus `width - 1` scoped threads that help it. A job started on a team
/// member spawns no threads. It publishes its queue on the team's board and
/// its owner (the thread that started it) claims from it; a member that has
/// run out of its own items claims from the board's open jobs, sleeping
/// while there are none, until every member has finished the top-level job.
/// So no more than `width` threads ever run items, however deeply jobs nest,
/// as real rayon's nested iterators share one pool.
///
/// An owner claims blocks from the front of its queue and helpers claim
/// from the back. The owner's results are then the prefix of the output, in
/// order, and go straight into the output vector; only the helpers' blocks
/// are placed afterwards, so a job nobody helps allocates what a serial
/// `collect` does.
mod team {
    use std::any::Any;
    use std::cell::RefCell;
    use std::iter::Enumerate;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    /// Lock `m`, ignoring poison: no lock in this module is held while an
    /// item runs, and every update leaves the data valid.
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn into_inner<T>(m: Mutex<T>) -> T {
        m.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// What a helper does with a job.
    pub(crate) trait Work: Sync {
        /// Claim and run blocks of items from the back of the queue until
        /// it is empty or an item panics. Never unwinds: a panic is kept
        /// for the owner.
        fn work(&self);
    }

    /// One job's claim queue and the blocks its helpers have run.
    pub(crate) struct Job<'f, I: Iterator, R, F> {
        queue: Mutex<Enumerate<I>>,
        len: usize,
        block: usize,
        f: &'f F,
        /// The helpers' blocks: first index and results.
        back: Mutex<Vec<(usize, Vec<R>)>>,
        panic: Mutex<Option<Box<dyn Any + Send>>>,
    }

    impl<'f, I, R, F> Job<'f, I, R, F>
    where
        I: DoubleEndedIterator + ExactSizeIterator + Send,
        R: Send,
        F: Fn((usize, I::Item)) -> R + Sync,
    {
        pub(crate) fn new(items: I, f: &'f F, block: usize) -> Self {
            Self {
                len: items.len(),
                queue: Mutex::new(items.enumerate()),
                block,
                f,
                back: Mutex::new(Vec::new()),
                panic: Mutex::new(None),
            }
        }

        /// The owner's part: claim blocks from the front until the queue is
        /// empty or an item panics, and return their results in index
        /// order. Never unwinds: a panic is kept.
        fn run_front(&self) -> Vec<R> {
            let mut front = Vec::with_capacity(self.len);
            let mut claimed = Vec::with_capacity(self.block);
            loop {
                // The queue lock is held only to take the block, never while
                // `f` runs.
                claimed.extend(lock(&self.queue).by_ref().take(self.block));
                if claimed.is_empty() {
                    return front;
                }
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    front.extend(claimed.drain(..).map(self.f));
                }));
                if let Err(payload) = ran {
                    lock(&self.panic).get_or_insert(payload);
                    return front;
                }
            }
        }

        /// The results in index order, or the first caught panic resumed.
        /// `front` is [`Self::run_front`]'s; call once every helper has
        /// left the job.
        fn into_results(self, mut front: Vec<R>) -> Vec<R> {
            if let Some(payload) = into_inner(self.panic) {
                std::panic::resume_unwind(payload);
            }
            let mut back = into_inner(self.back);
            back.sort_unstable_by_key(|&(start, _)| start);
            for (start, results) in back {
                debug_assert_eq!(start, front.len(), "every index claimed exactly once");
                front.extend(results);
            }
            debug_assert_eq!(front.len(), self.len, "every index claimed exactly once");
            front
        }
    }

    impl<I, R, F> Work for Job<'_, I, R, F>
    where
        I: DoubleEndedIterator + ExactSizeIterator + Send,
        R: Send,
        F: Fn((usize, I::Item)) -> R + Sync,
    {
        fn work(&self) {
            let mut claimed = Vec::with_capacity(self.block);
            loop {
                claimed.extend(lock(&self.queue).by_ref().rev().take(self.block));
                claimed.reverse();
                let Some(&(start, _)) = claimed.first() else {
                    return;
                };
                match catch_unwind(AssertUnwindSafe(|| {
                    claimed.drain(..).map(self.f).collect::<Vec<R>>()
                })) {
                    Ok(results) => lock(&self.back).push((start, results)),
                    Err(payload) => {
                        lock(&self.panic).get_or_insert(payload);
                        return;
                    }
                }
            }
        }
    }

    /// The threads running one top-level job, and the jobs their items
    /// started.
    pub(crate) struct Team {
        width: usize,
        board: Mutex<Board>,
        /// Signalled when a job is published, a helper leaves a job or the
        /// last member finishes the top-level job.
        wake: Condvar,
    }

    struct Board {
        /// Members still claiming items of the top-level job.
        claiming: usize,
        /// Members waiting on `wake`.
        sleeping: usize,
        next_id: u64,
        published: Vec<Published>,
    }

    struct Published {
        id: u64,
        job: &'static dyn Work,
        /// Cleared once a helper has found the queue empty, or the owner
        /// has finished its own claims: no helper joins a closed job.
        open: bool,
        /// Helpers inside `job.work()`; the owner waits for none.
        helpers: usize,
    }

    impl Board {
        fn entry(&mut self, id: u64) -> &mut Published {
            self.published
                .iter_mut()
                .find(|p| p.id == id)
                .expect("a published job stays on the board until its owner retires it")
        }
    }

    thread_local! {
        /// The team this thread is a member of, and its index in it.
        static MEMBER: RefCell<Option<(Arc<Team>, usize)>> = const { RefCell::new(None) };
    }

    /// Mirror of `rayon::current_thread_index`: this thread's index in the
    /// team of the job it is running, `None` outside any job.
    pub fn current_thread_index() -> Option<usize> {
        MEMBER.with(|m| m.borrow().as_ref().map(|&(_, index)| index))
    }

    impl Team {
        /// The team of the job this thread is running, if any.
        pub(crate) fn current() -> Option<Arc<Team>> {
            MEMBER.with(|m| m.borrow().as_ref().map(|(team, _)| Arc::clone(team)))
        }

        pub(crate) fn width(&self) -> usize {
            self.width
        }

        /// Run a top-level `job` on `width` members: the calling thread owns
        /// it, `width - 1` scoped threads help. Returns the results in index
        /// order.
        pub(crate) fn run<I, R, F>(job: Job<'_, I, R, F>, width: usize) -> Vec<R>
        where
            I: DoubleEndedIterator + ExactSizeIterator + Send,
            R: Send,
            F: Fn((usize, I::Item)) -> R + Sync,
        {
            let team = Arc::new(Team {
                width,
                board: Mutex::new(Board {
                    claiming: width,
                    sleeping: 0,
                    next_id: 0,
                    published: Vec::new(),
                }),
                wake: Condvar::new(),
            });
            let front = std::thread::scope(|scope| {
                let helpers: Vec<_> = (1..width)
                    .filter_map(|index| {
                        let (team, job) = (&team, &job);
                        let spawned = std::thread::Builder::new()
                            .spawn_scoped(scope, move || team.member(index, || job.work()));
                        if spawned.is_err() {
                            // One member fewer; the caller is still claiming,
                            // so the count cannot reach zero here.
                            lock(&team.board).claiming -= 1;
                        }
                        spawned.ok()
                    })
                    .collect();
                let front = team.member(0, || job.run_front());
                // Joined here rather than left to the scope, so each thread
                // has exited, and given back its malloc arena, before the
                // next job spawns one: a thread that is still exiting makes
                // the next one open a third arena.
                for helper in helpers {
                    if let Err(payload) = helper.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
                front
            });
            job.into_results(front)
        }

        /// One member's part: run `part` of the top-level job, then help
        /// published jobs until every member has finished its part.
        fn member<T>(self: &Arc<Self>, index: usize, part: impl FnOnce() -> T) -> T {
            MEMBER.with(|m| *m.borrow_mut() = Some((Arc::clone(self), index)));
            let out = part();
            let mut board = lock(&self.board);
            board.claiming -= 1;
            if board.claiming == 0 && board.sleeping > 0 {
                self.wake.notify_all();
            }
            drop(self.help_until(board, |b| b.claiming == 0));
            MEMBER.with(|m| *m.borrow_mut() = None);
            out
        }

        /// Run `job`, started on a member of this team, with the help of
        /// every member that runs out of work before its queue does.
        /// Returns the results in index order.
        pub(crate) fn run_nested<I, R, F>(&self, job: Job<'_, I, R, F>) -> Vec<R>
        where
            I: DoubleEndedIterator + ExactSizeIterator + Send,
            R: Send,
            F: Fn((usize, I::Item)) -> R + Sync,
        {
            let shared: &(dyn Work + '_) = &job;
            // SAFETY: the board hands this reference to helpers only while
            // the job is published and open, and a helper counts itself in
            // `helpers` before it releases the board lock and out after its
            // last use of the reference. The entry is removed below only
            // after it has been closed and seen `helpers == 0`, all under
            // the board lock, so no thread holds the reference once `job` is
            // consumed. Nothing in between unwinds: `run_front` and `work`
            // catch item panics (the owner's and the helpers' alike) and the
            // board lock ignores poison, so this frame cannot be left early.
            let erased =
                unsafe { std::mem::transmute::<&(dyn Work + '_), &'static dyn Work>(shared) };
            let id = {
                let mut board = lock(&self.board);
                let id = board.next_id;
                board.next_id += 1;
                board.published.push(Published {
                    id,
                    job: erased,
                    open: true,
                    helpers: 0,
                });
                if board.sleeping > 0 {
                    self.wake.notify_all();
                }
                id
            };
            let front = job.run_front();
            let mut board = lock(&self.board);
            board.entry(id).open = false;
            let mut board = self.help_until(board, |b| b.entry(id).helpers == 0);
            board.published.retain(|p| p.id != id);
            drop(board);
            job.into_results(front)
        }

        /// Claim from open published jobs, or sleep while there are none,
        /// until `done` holds.
        fn help_until<'b>(
            &'b self,
            mut board: MutexGuard<'b, Board>,
            mut done: impl FnMut(&mut Board) -> bool,
        ) -> MutexGuard<'b, Board> {
            while !done(&mut board) {
                let Some(entry) = board.published.iter_mut().find(|p| p.open) else {
                    board.sleeping += 1;
                    board = self
                        .wake
                        .wait(board)
                        .unwrap_or_else(PoisonError::into_inner);
                    board.sleeping -= 1;
                    continue;
                };
                entry.helpers += 1;
                let (id, job) = (entry.id, entry.job);
                drop(board);
                job.work();
                board = lock(&self.board);
                let entry = board.entry(id);
                entry.helpers -= 1;
                entry.open = false;
                if board.sleeping > 0 {
                    self.wake.notify_all();
                }
            }
            board
        }
    }
}

pub mod iter {
    use crate::team::{Job, Team};

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
    /// took 0.295 s against 0.179 s with these blocks (medians of 10
    /// alternating pairs, blocks faster in all 10).
    const CLAIMS_PER_WORKER: usize = 32;

    /// Run `f` over every `(index, item)` of `items` and return the results
    /// in index order. Workers claim the next block of items until none is
    /// left; a block is one item unless the job has more than
    /// [`CLAIMS_PER_WORKER`] items per worker.
    ///
    /// On a thread that is already a worker of a running job (a lane map
    /// inside a sweep point, say), the job spawns nothing: the calling thread
    /// claims its items, and every worker of the enclosing job that has run
    /// out of its own work helps (see [`crate::team`]). Otherwise it runs on
    /// the resolved number of workers, the calling thread included. A panic
    /// in `f` propagates with its own payload once every worker has left the
    /// job.
    fn run_claimed<I, R, F>(items: I, f: &F) -> Vec<R>
    where
        I: DoubleEndedIterator + ExactSizeIterator + Send,
        R: Send,
        F: Fn((usize, I::Item)) -> R + Sync,
    {
        let n = items.len();
        let team = Team::current();
        let threads = team
            .as_ref()
            .map_or_else(|| resolved_threads(n), |team| team.width().min(n));
        if threads <= 1 || n < 2 {
            return items.enumerate().map(f).collect();
        }
        let job = Job::new(items, f, (n / (threads * CLAIMS_PER_WORKER)).max(1));
        match team {
            Some(team) => team.run_nested(job),
            None => Team::run(job, threads),
        }
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

    /// Blocks the calling nested item until two distinct threads have
    /// entered nested items, or fails after a few seconds.
    fn wait_for_two_threads(
        entered: &std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    ) {
        entered.lock().unwrap().insert(std::thread::current().id());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while entered.lock().unwrap().len() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "no idle thread helped the nested job"
            );
            std::thread::yield_now();
        }
    }

    /// A nested job spawns no threads of its own, so only an idle worker of
    /// the enclosing job can let its items meet a second thread: the worker
    /// whose outer item returned at once must run nested items.
    #[test]
    fn an_idle_worker_helps_a_nested_job() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let entered = Mutex::new(HashSet::new());
        let out: Vec<usize> = pool(2).install(|| {
            [0usize, 1]
                .par_iter()
                .map(|&i| {
                    if i == 1 {
                        let nested: Vec<usize> = [(); 4]
                            .par_iter()
                            .enumerate()
                            .map(|(j, ())| {
                                wait_for_two_threads(&entered);
                                j
                            })
                            .collect();
                        assert_eq!(nested, vec![0, 1, 2, 3]);
                    }
                    i
                })
                .collect()
        });
        assert_eq!(out, vec![0, 1]);
    }

    /// However jobs nest, no more threads than the outermost width are ever
    /// inside items at once. A thread counts once while it runs any item,
    /// so an owner running its nested items inside its outer item is one.
    #[test]
    fn nested_jobs_never_run_on_more_threads_than_the_width() {
        use std::cell::Cell;
        use std::sync::atomic::{AtomicUsize, Ordering};
        thread_local! {
            static DEPTH: Cell<usize> = const { Cell::new(0) };
        }
        for width in [2, 3] {
            let inside = AtomicUsize::new(0);
            let high = AtomicUsize::new(0);
            let item = |body: &dyn Fn() -> u64| {
                if DEPTH.with(|d| d.replace(d.get() + 1)) == 0 {
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    high.fetch_max(now, Ordering::SeqCst);
                }
                let out = body();
                if DEPTH.with(|d| {
                    d.set(d.get() - 1);
                    d.get()
                }) == 0
                {
                    inside.fetch_sub(1, Ordering::SeqCst);
                }
                out
            };
            let lanes: Vec<u64> = (0..64).collect();
            let out: Vec<u64> = pool(width).install(|| {
                (0..12u64)
                    .collect::<Vec<_>>()
                    .par_iter()
                    .map(|&i| {
                        item(&|| {
                            let nested: Vec<u64> = lanes
                                .par_iter()
                                .map(|&x| {
                                    item(&|| {
                                        // A second level of nesting every 16 lanes.
                                        let deeper: Vec<u64> = if x % 16 == 0 {
                                            lanes[..8].par_iter().map(|&y| item(&|| y)).collect()
                                        } else {
                                            Vec::new()
                                        };
                                        std::thread::yield_now();
                                        x + deeper.iter().sum::<u64>()
                                    })
                                })
                                .collect();
                            i + nested.iter().sum::<u64>()
                        })
                    })
                    .collect()
            });
            let want: Vec<u64> = (0..12u64).map(|i| i + 2016 + 4 * 28).collect();
            assert_eq!(out, want, "width {width}");
            let high = high.load(Ordering::SeqCst);
            assert!(
                high <= width,
                "{high} threads inside items at width {width}"
            );
            assert_eq!(inside.load(Ordering::SeqCst), 0);
        }
    }

    /// A nested item that panics on a helper reaches the nested job's owner
    /// with its own payload; the outer job still finishes its other items.
    #[test]
    fn a_helpers_panic_reaches_the_nested_jobs_owner() {
        use std::collections::HashSet;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Mutex;
        let entered = Mutex::new(HashSet::new());
        let out: Vec<String> = pool(2).install(|| {
            (0..4usize)
                .collect::<Vec<_>>()
                .par_iter()
                .map(|&i| {
                    if i != 1 {
                        return format!("item {i}");
                    }
                    let owner = std::thread::current().id();
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        [(); 4]
                            .par_iter()
                            .enumerate()
                            .map(|(j, ())| {
                                wait_for_two_threads(&entered);
                                assert_eq!(
                                    std::thread::current().id(),
                                    owner,
                                    "helper ran nested item {j}"
                                );
                                j
                            })
                            .collect::<Vec<usize>>()
                    }));
                    let payload = caught.expect_err("the helper's panic must reach the owner");
                    panic_message(&*payload)
                })
                .collect()
        });
        assert_eq!(out[0], "item 0");
        assert!(out[1].contains("helper ran nested item"), "{}", out[1]);
        assert_eq!(out[2..], ["item 2", "item 3"]);
    }

    #[test]
    fn nested_results_come_back_in_index_order() {
        let run = |i: u64, lanes: &mut [u64]| -> Vec<u64> {
            lanes
                .par_iter_mut()
                .enumerate()
                .map(|(j, l)| {
                    if j % 50 == 0 {
                        std::thread::yield_now();
                    }
                    *l = *l * 3 + i;
                    *l + j as u64
                })
                .collect()
        };
        let outer: Vec<u64> = (0..6).collect();
        let mut want = Vec::new();
        for &i in &outer {
            want.push(run(i, &mut (0..500).collect::<Vec<u64>>()));
        }
        for width in [1, 2, 3, 8] {
            let out: Vec<Vec<u64>> = pool(width).install(|| {
                outer
                    .par_iter()
                    .map(|&i| run(i, &mut (0..500).collect::<Vec<u64>>()))
                    .collect()
            });
            assert_eq!(out, want, "width {width}");
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
