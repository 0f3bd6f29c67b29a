//! Host-parallel execution primitives (DESIGN.md §12).
//!
//! [`map_lanes`] / [`map_indexed`]: the order-preserving indexed map every
//! device simulator and [`crate::sim::Simulation`] use to run their lanes
//! (SPEs, fragment batches, streams, gather rows) on host threads.
//! Reductions never happen inside the map — callers fold the returned
//! per-lane values serially, in lane order, so results are bitwise identical
//! at any thread count.

use crate::device::HostParallelism;
use rayon::prelude::*;

/// Run `f(i, &mut lanes[i])` for every lane, returning the per-lane results
/// in index order.
///
/// `Serial` executes the lanes one after another on the calling thread;
/// `Threads(n)` fans them out on a pool of up to `n` workers. Called on a
/// worker of a pool that is already running (a sweep point's lanes, say),
/// `Threads` builds no pool of its own: the lanes join the running pool's
/// thread budget, and that pool's idle workers run them. Every setting runs
/// the *same* lane closure over the same lanes and collects in index order,
/// so a caller that folds the returned values serially gets bitwise
/// identical results either way. If the pool cannot be built, the map
/// degrades to serial execution (same results, no wall-clock win).
pub fn map_lanes<T, R, F>(par: HostParallelism, lanes: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let serial = |lanes: &mut [T]| lanes.iter_mut().enumerate().map(|(i, l)| f(i, l)).collect();
    let threaded = |lanes: &mut [T]| {
        lanes
            .par_iter_mut()
            .enumerate()
            .map(|(i, l)| f(i, l))
            .collect()
    };
    match par {
        HostParallelism::Threads(_) if rayon::current_thread_index().is_some() => threaded(lanes),
        HostParallelism::Threads(n) => match rayon::ThreadPoolBuilder::new().num_threads(n).build()
        {
            Ok(pool) => pool.install(|| threaded(lanes)),
            Err(_) => serial(lanes),
        },
        HostParallelism::Serial => serial(lanes),
    }
}

/// [`map_lanes`] for lanes that are just indices: run `f(0..n)` and return
/// the results in index order. Used when the per-lane state is read-only
/// (e.g. per-atom gather rows over a shared position array).
pub fn map_indexed<R, F>(par: HostParallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_lanes(par, &mut vec![(); n], |i, ()| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_lanes_parallel_matches_serial_bitwise() {
        let mk = || (0..97u64).map(|i| i as f64 * 0.37).collect::<Vec<f64>>();
        let run = |par: HostParallelism| {
            let mut lanes = mk();
            let out = map_lanes(par, &mut lanes, |i, lane| {
                *lane += i as f64;
                *lane * 1.0000001
            });
            (lanes, out)
        };
        let serial = run(HostParallelism::Serial);
        for n in [2, 4, 8] {
            assert_eq!(run(HostParallelism::Threads(n)), serial, "{n} threads");
        }
    }

    #[test]
    fn map_indexed_parallel_matches_serial_bitwise() {
        let f = |i: usize| (i as f64).sin() * 3.0 + i as f64;
        let serial = map_indexed(HostParallelism::Serial, 301, f);
        for n in [2, 4, 8] {
            assert_eq!(map_indexed(HostParallelism::Threads(n), 301, f), serial);
        }
        let empty = map_indexed::<f64, _>(HostParallelism::Threads(4), 0, f);
        assert!(empty.is_empty());
    }

    /// A lane map on a worker of a running pool joins that pool instead of
    /// building one, and still matches the serial map bit for bit.
    #[test]
    fn lanes_inside_a_running_pool_match_serial() {
        let f = |i: usize| (i as f64).cos() * 7.0 + i as f64;
        let serial = map_indexed(HostParallelism::Serial, 301, f);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("a 2-thread pool builds");
        let nested: Vec<Vec<f64>> = pool.install(|| {
            [(); 3]
                .par_iter()
                .map(|_| {
                    assert!(rayon::current_thread_index().is_some());
                    map_indexed(HostParallelism::Threads(8), 301, f)
                })
                .collect()
        });
        assert_eq!(nested, vec![serial; 3]);
    }
}
