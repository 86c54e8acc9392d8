//! Deterministic work splitting over scoped threads.
//!
//! Every parallel sweep in the workspace — the scalar and bit-sliced error
//! drivers in `sdlc-core`, the compiled-engine equivalence checks and the
//! activity stream groups in `sdlc-sim` — partitions its iteration space
//! through [`parallel_chunks`]; there is no other thread machinery.
//! The chunk formula and the merge order (partials returned in chunk
//! order) are part of the engines' bit-identity contract: results must
//! never depend on the machine's core count, and a "first counterexample"
//! must be the same one the single-threaded sweep would report. Keeping
//! one shared implementation guarantees the paths can never diverge.

/// Worker threads for a sweep that runs on every core: the machine's
/// available parallelism, or 1 where it cannot be queried.
#[must_use]
pub fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `[0, count)` into at most `threads` contiguous chunks and runs
/// `worker(lo, hi)` on scoped threads, returning the partial results in
/// chunk order.
///
/// The partition depends only on `(count, threads)`; callers that need
/// thread-count-*independent* results fix `threads` or make their
/// accumulation order-insensitive across chunk boundaries.
///
/// # Panics
///
/// Panics if a worker panics.
pub fn parallel_chunks<T, F>(count: u64, threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, u64) -> T + Sync,
{
    let threads = threads.min(count as usize).max(1);
    let chunk = count.div_ceil(threads as u64);
    let worker = &worker;
    let mut partials = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = t as u64 * chunk;
                let hi = (lo + chunk).min(count);
                scope.spawn(move || worker(lo, hi))
            })
            .collect();
        for handle in handles {
            partials.push(handle.join().expect("worker panicked"));
        }
    });
    partials
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_the_range_in_order() {
        let partials = parallel_chunks(100, 7, |lo, hi| (lo, hi));
        assert_eq!(partials.len(), 7);
        assert_eq!(partials[0].0, 0);
        assert_eq!(partials.last().unwrap().1, 100);
        for pair in partials.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "chunks must be contiguous");
        }
    }

    #[test]
    fn more_threads_than_work_is_clamped() {
        let partials = parallel_chunks(3, 64, |lo, hi| hi - lo);
        assert_eq!(partials.iter().sum::<u64>(), 3);
        assert!(partials.len() <= 3);
        // Zero work still runs one (empty) chunk.
        let empty = parallel_chunks(0, 4, |lo, hi| hi - lo);
        assert_eq!(empty, vec![0]);
    }

    #[test]
    fn partial_order_is_chunk_order_regardless_of_finish_time() {
        // Later chunks finish first; merge order must stay by chunk.
        let partials = parallel_chunks(4, 4, |lo, _| {
            std::thread::sleep(std::time::Duration::from_millis(8 * (4 - lo)));
            lo
        });
        assert_eq!(partials, vec![0, 1, 2, 3]);
    }

    #[test]
    fn shard_chunks_preserve_shard_order() {
        let shards: Vec<u64> = (0..10).collect();
        let partials = parallel_chunks(10, 3, |lo, hi| (lo..hi).collect::<Vec<_>>());
        let flat: Vec<u64> = partials.into_iter().flatten().collect();
        assert_eq!(flat, shards);
    }
}
