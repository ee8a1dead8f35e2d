//! Zero-dependency deterministic parallelism for trial- and candidate-level
//! fan-out.
//!
//! [`par_map`] is plain fork-join on [`std::thread::scope`]: each call
//! spawns `threads - 1` scoped workers, the caller runs the same body, and
//! every worker is joined before the call returns, so no thread outlives
//! it. Participants claim chunked index ranges from a shared atomic cursor
//! (cheap work-stealing — a fast participant simply claims more chunks),
//! and results are merged back **in index order**, so aggregation is
//! deterministic regardless of scheduling.
//!
//! Spawning per call is all the engine's fan-out over independent trials
//! needs: a persistent pool of parked workers measured no win over it
//! (DESIGN §12).
//!
//! Thread count resolution, in priority order:
//!
//! 1. a thread-local override installed by [`with_thread_count`] (used by
//!    tests and benches so concurrent test threads don't race on the process
//!    environment),
//! 2. the `GOC_THREADS` environment variable (a positive integer),
//! 3. [`std::thread::available_parallelism`].
//!
//! `GOC_THREADS=1` (or `with_thread_count(1, ..)`) is an *exact* sequential
//! fallback: [`par_map`] degenerates to a plain in-order loop on the calling
//! thread — no threads, no atomics — so single-threaded runs are
//! bit-identical to the pre-parallel code path by construction.
//!
//! Nested calls do not oversubscribe: every participant runs its share under
//! `with_thread_count(1, ..)`, so a `par_map` reached from inside another
//! `par_map` executes sequentially on its thread.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Resolves the effective worker count for this thread (always ≥ 1).
///
/// See the module docs for the resolution order. Invalid or non-positive
/// `GOC_THREADS` values are ignored.
pub fn thread_count() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    if let Ok(raw) = std::env::var("GOC_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `f` with the thread count pinned to `n` on the current thread,
/// restoring the previous setting afterwards (also on panic).
///
/// This takes precedence over `GOC_THREADS` and is the race-free way for
/// tests and benches to compare sequential vs parallel runs in-process.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|o| o.replace(Some(n))));
    f()
}

/// Kept only for perfbench's `pool::drain()` call.
pub mod pool {
    /// Kept only for perfbench; remove in the next benchmark PR. Returns
    /// immediately: [`par_map`](super::par_map) leaves no threads behind.
    pub fn drain() {}
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// With an effective thread count of 1 (or `n <= 1`) this is exactly
/// `(0..n).map(f).collect()` on the calling thread. Otherwise the calling
/// thread plus `threads - 1` scoped workers (named `goc-pool-<k>`) claim
/// chunks of the index range from an atomic cursor; each participant
/// evaluates its indices locally and the results are sorted back into index
/// order before returning. `f` must therefore be safe to call from any
/// thread and — for deterministic callers — depend only on its index.
///
/// A panic in `f` propagates to the caller, with its original payload, once
/// every participant has stopped. The caller's own panic wins over a
/// worker's; among workers, the lowest-numbered one's does.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = thread_count().min(n.max(1));
    // When the recorder is on, each task's observability records are
    // captured in a per-task buffer and flushed in index order below —
    // the same merge discipline as the results — so the record stream is
    // bit-identical at any thread count. Off (the default), `tracing` is
    // false and both paths are exactly the pre-observability code.
    let tracing = crate::obs::enabled();
    if threads <= 1 || n <= 1 {
        if !tracing {
            return (0..n).map(f).collect();
        }
        return (0..n)
            .map(|i| {
                let (v, records) = crate::obs::task_capture(|| f(i));
                crate::obs::flush_task(i as u64, records);
                v
            })
            .collect();
    }
    // Chunks of ~n/(4·threads) amortize cursor contention while letting fast
    // workers steal the tail of a slow worker's share.
    let chunk = (n / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    type Keyed<T> = (usize, T, Vec<crate::obs::Record>);
    let results: Mutex<Vec<Keyed<T>>> = Mutex::new(Vec::with_capacity(n));
    let body = || {
        // Every participant (the workers and the caller itself) runs
        // nested par_map calls sequentially.
        with_thread_count(1, || {
            let mut local: Vec<Keyed<T>> = Vec::new();
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for i in start..(start + chunk).min(n) {
                    if tracing {
                        let (v, records) = crate::obs::task_capture(|| f(i));
                        local.push((i, v, records));
                    } else {
                        local.push((i, f(i), Vec::new()));
                    }
                }
            }
            results.lock().unwrap().extend(local);
        });
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads - 1)
            .map(|k| {
                crate::obs_count_nd!("par.pool.spawned", 1u64);
                std::thread::Builder::new()
                    .name(format!("goc-pool-{k}"))
                    .spawn_scoped(scope, body)
                    .expect("spawning a par_map worker thread")
            })
            .collect();
        // Joining every handle here, rather than leaving it to the scope,
        // keeps each panic's own payload: the scope would replace a
        // worker's with "a scoped thread panicked".
        let mut panic = catch_unwind(AssertUnwindSafe(&body)).err();
        for worker in workers {
            if let Err(payload) = worker.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    });
    let mut pairs = results.into_inner().unwrap();
    debug_assert_eq!(pairs.len(), n);
    pairs.sort_unstable_by_key(|&(i, _, _)| i);
    pairs
        .into_iter()
        .map(|(i, v, records)| {
            crate::obs::flush_task(i as u64, records);
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn par_map_matches_sequential_map() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64;
        let seq: Vec<u64> = (0..1000).map(f) .collect();
        for threads in [1, 2, 4, 7] {
            let par = with_thread_count(threads, || par_map(1000, f));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(with_thread_count(4, || par_map(0, |i| i)), Vec::<usize>::new());
        assert_eq!(with_thread_count(4, || par_map(1, |i| i * 3)), vec![0]);
    }

    #[test]
    fn override_is_scoped_and_restored() {
        let before = thread_count();
        with_thread_count(3, || {
            assert_eq!(thread_count(), 3);
            with_thread_count(1, || assert_eq!(thread_count(), 1));
            assert_eq!(thread_count(), 3);
        });
        assert_eq!(thread_count(), before);
    }

    #[test]
    fn nested_par_map_runs_sequentially_on_workers() {
        // Inner calls observe a thread count of 1 — no unbounded fan-out.
        let inner_counts = with_thread_count(4, || par_map(8, |_| thread_count()));
        assert!(inner_counts.iter().all(|&c| c == 1), "{inner_counts:?}");
    }

    #[test]
    fn results_arrive_in_index_order_under_contention() {
        // Uneven per-index cost exercises the work-stealing path.
        let out = with_thread_count(4, || {
            par_map(257, |i| {
                let mut acc = i as u64;
                for _ in 0..(i % 13) * 500 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                (i, acc)
            })
        });
        for (k, (i, _)) in out.iter().enumerate() {
            assert_eq!(k, *i);
        }
    }

    /// Marks this side of the fork (the caller or a worker) as started and
    /// waits until the other side has started a task too, so a test sees
    /// both sides run.
    fn meet(started: &[AtomicBool; 2], on_caller: bool) {
        started[usize::from(on_caller)].store(true, Ordering::Release);
        while !started[usize::from(!on_caller)].load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn tasks_run_on_the_caller_or_on_named_workers() {
        // perfbench attributes worker CPU by the `goc-pool-` name prefix.
        let caller = std::thread::current().id();
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let names = with_thread_count(2, || {
            par_map(64, |_| {
                let me = std::thread::current();
                let on_caller = me.id() == caller;
                meet(&started, on_caller);
                (!on_caller).then(|| me.name().map(str::to_owned))
            })
        });
        let workers: Vec<_> = names.into_iter().flatten().collect();
        assert!(!workers.is_empty(), "no task ran on a worker");
        for name in &workers {
            assert!(
                name.as_deref().is_some_and(|n| n.starts_with("goc-pool-")),
                "task ran on a worker named {name:?}"
            );
        }
    }

    /// Runs `par_map(64, ..)` at four threads with every task on one side
    /// of the fork — the workers or the caller — panicking with `"shard
    /// boom"`, and returns the payload the caller sees.
    fn shard_panic(on_caller: bool) -> Box<dyn std::any::Any + Send> {
        let caller = std::thread::current().id();
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_thread_count(4, || {
                par_map(64, |i| {
                    let here = std::thread::current().id() == caller;
                    meet(&started, here);
                    if here == on_caller {
                        panic!("shard boom");
                    }
                    i
                })
            })
        }));
        err.expect_err("par_map must propagate the panic")
    }

    #[test]
    fn par_map_panic_propagates_and_pool_survives() {
        for on_caller in [false, true] {
            let payload = shard_panic(on_caller);
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"shard boom"),
                "the payload must survive (on_caller={on_caller})"
            );
        }
        let seq: Vec<usize> = (0..100).collect();
        assert_eq!(with_thread_count(4, || par_map(100, |i| i)), seq);
    }
}
