//! The workspace's one parallel executor: ordered shards on scoped threads.
//!
//! Every parallel loop in the reproduction has the same shape: a range of
//! independent shards whose results are a pure function of the shard
//! index, folded into one result in index order. The fig11 Monte Carlo,
//! the checkpointable job fabric behind the campaign and fleet engines,
//! and the sweep runner all run on [`run_ordered`]. Because the fold
//! order is fixed, even floating-point sums come out bit-identical at any
//! worker count.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Resolves a worker-count knob: `0` means the machine's available
/// parallelism (1 when it cannot be determined), any other value is taken
/// as given.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Runs `work(i)` for every shard index `i` in `shards` and hands each
/// result to `merge(i, result)` exactly once, in increasing index order.
///
/// Up to [`resolve_threads`]`(threads)` scoped workers claim indices from
/// one shared counter. A result that finishes ahead of an earlier shard
/// waits in a buffer; the worker that completes the next in-order shard
/// merges it and every buffered successor, one merge at a time. When only
/// one worker resolves (one thread, or at most one shard) no thread is
/// spawned and everything runs inline on the caller.
///
/// The first `Err` from `merge` stops the run: workers claim no further
/// shards, results not yet merged are dropped, and the error is returned
/// once every worker has finished its current shard.
///
/// # Panics
///
/// Propagates a panic from `work` or `merge`, on a worker or inline.
pub fn run_ordered<R, E>(
    shards: Range<u64>,
    threads: usize,
    work: impl Fn(u64) -> R + Sync,
    mut merge: impl FnMut(u64, R) -> Result<(), E> + Send,
) -> Result<(), E>
where
    R: Send,
    E: Send,
{
    let len = shards.end.saturating_sub(shards.start);
    let workers = resolve_threads(threads).min(usize::try_from(len).unwrap_or(usize::MAX));
    if workers <= 1 {
        return shards.into_iter().try_for_each(|i| merge(i, work(i)));
    }

    // The counter only hands out indices and the mutex publishes results,
    // so `Relaxed` is enough.
    let next = AtomicU64::new(shards.start);
    let frontier = Mutex::new(Frontier {
        watermark: shards.start,
        pending: BTreeMap::new(),
        merge,
        error: None,
    });
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= shards.end {
                    break;
                }
                let r = work(i);
                let mut guard = frontier.lock().expect("no worker panicked while merging");
                let f = &mut *guard;
                if f.error.is_some() {
                    break;
                }
                f.pending.insert(i, r);
                while let Some(r) = f.pending.remove(&f.watermark) {
                    if let Err(e) = (f.merge)(f.watermark, r) {
                        f.error = Some(e);
                        next.store(shards.end, Ordering::Relaxed);
                        break;
                    }
                    f.watermark += 1;
                }
            });
        }
    });
    let f = frontier
        .into_inner()
        .expect("no worker panicked while merging");
    f.error.map_or(Ok(()), Err)
}

/// Merge state shared by the workers of one [`run_ordered`] call.
struct Frontier<R, M, E> {
    /// Next index to merge; every index below it has been merged.
    watermark: u64,
    /// Results that finished ahead of `watermark`.
    pending: BTreeMap<u64, R>,
    merge: M,
    /// The error that stopped the run.
    error: Option<E>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::AtomicUsize;

    fn collect(shards: Range<u64>, threads: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let Ok(()) = run_ordered(
            shards,
            threads,
            |i| i * i,
            |i, r| {
                out.push((i, r));
                Ok::<(), Infallible>(())
            },
        );
        out
    }

    #[test]
    fn merges_in_index_order_at_any_thread_count() {
        let expected: Vec<(u64, u64)> = (5..262).map(|i| (i, i * i)).collect();
        for threads in [1, 2, 8] {
            assert_eq!(collect(5..262, threads), expected, "threads={threads}");
        }
    }

    #[test]
    fn runs_each_shard_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let Ok(()) = run_ordered(
            0..100,
            8,
            |i| runs[i as usize].fetch_add(1, Ordering::Relaxed),
            |_, _| Ok::<(), Infallible>(()),
        );
        assert!(runs.iter().all(|n| n.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_range_runs_nothing() {
        for threads in [0, 1, 8] {
            assert!(collect(7..7, threads).is_empty());
        }
    }

    #[test]
    fn single_worker_runs_inline_on_caller() {
        // One worker takes the spawn-free path: every call runs on the
        // calling thread (cheap single-thread runs, and panics surface
        // directly instead of through a worker join).
        let caller = std::thread::current().id();
        let on_caller = |shards: Range<u64>, threads: usize| {
            let mut all = true;
            let Ok(()) = run_ordered(
                shards,
                threads,
                |_| std::thread::current().id(),
                |_, id| {
                    all &= id == caller;
                    Ok::<(), Infallible>(())
                },
            );
            all
        };
        assert!(on_caller(0..17, 1));
        // A single shard collapses any worker count to the same path.
        assert!(on_caller(3..4, 64));
    }

    #[test]
    fn merge_error_stops_the_run() {
        let mut merged = Vec::new();
        let r = run_ordered(
            0..1000,
            4,
            |i| i,
            |i, _| {
                merged.push(i);
                if i == 10 {
                    Err(i)
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(r, Err(10));
        assert_eq!(merged, (0..=10).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_threads_defaults_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
