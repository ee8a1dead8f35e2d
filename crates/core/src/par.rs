//! Zero-dependency deterministic parallelism for trial- and candidate-level
//! fan-out.
//!
//! The engine is a lazily-started **persistent worker pool** (see [`pool`]):
//! callers hand [`par_map`] a pure indexed function, workers claim chunked
//! index ranges from a shared atomic cursor (cheap work-stealing — a fast
//! worker simply claims more chunks), and results are merged back **in index
//! order**, so aggregation is deterministic regardless of scheduling. The
//! pool replaces the earlier scoped `std::thread::scope` design, which paid a
//! thread spawn+join per `par_map` call; workers now park on a condvar
//! between calls.
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
//! thread — no pool, no atomics — so single-threaded runs are bit-identical
//! to the pre-parallel code path by construction.
//!
//! Nested calls do not oversubscribe: pool workers run every task under an
//! implicit `with_thread_count(1, ..)`, so a `par_map` reached from inside
//! another `par_map` executes sequentially on its worker.

use std::cell::Cell;
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

/// The persistent worker pool behind [`par_map`].
///
/// Workers are plain detached `std::thread`s, spawned lazily the first time
/// they are needed and parked on a condvar between jobs — a `par_map` call
/// in the steady state costs two mutex operations and a notify instead of a
/// `thread::scope` spawn+join cycle. One queue feeds them: lifetime-erased
/// shards of in-flight [`par_map`] calls.
///
/// Every task runs under `with_thread_count(1, ..)` (nested fan-out stays
/// sequential) and under `catch_unwind` (a panicking task can never take a
/// pool thread down; the payload is re-raised in the caller).
///
/// # Safety
///
/// Shards borrow the caller's stack (`par_map`'s closure, cursor, and
/// result buffer). The borrow is transmuted to `'static` to cross the
/// queue, which is sound because [`run_scoped`] does not return — not even
/// by unwinding — until every shard has finished: a drop guard blocks on
/// the shard countdown even when the caller's own slice of the work panics.
/// This is the same discipline `std::thread::scope` enforces, applied to
/// persistent threads.
pub mod pool {
    use std::any::Any;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

    type Task = Box<dyn FnOnce() + Send>;

    struct Pool {
        queue: Mutex<VecDeque<Task>>,
        /// Signalled whenever a task is queued; workers park here.
        available: Condvar,
        /// Number of persistent workers spawned so far.
        workers: AtomicUsize,
    }

    fn pool() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            workers: AtomicUsize::new(0),
        })
    }

    /// Locks the task queue, recovering from poisoning: tasks themselves
    /// run outside the lock (and under `catch_unwind`), so a poisoned queue
    /// mutex carries no information about queue integrity.
    fn lock_queue(p: &Pool) -> std::sync::MutexGuard<'_, VecDeque<Task>> {
        p.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Grows the pool to at least `n` persistent workers.
    fn ensure_workers(n: usize) {
        let p = pool();
        loop {
            let cur = p.workers.load(Ordering::Relaxed);
            if cur >= n {
                return;
            }
            if p.workers.compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed).is_err()
            {
                continue; // lost the race; re-check the new count
            }
            crate::obs_count_nd!("par.pool.spawned", 1u64);
            std::thread::Builder::new()
                .name(format!("goc-pool-{cur}"))
                .spawn(worker_loop)
                .expect("spawning a pool worker thread");
        }
    }

    fn worker_loop() {
        let p = pool();
        loop {
            let task = {
                let mut q = lock_queue(p);
                loop {
                    if let Some(t) = q.pop_front() {
                        break t;
                    }
                    q = p.available.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Nested par_map calls run sequentially on pool workers, and a
            // panicking task must not take the persistent thread down — the
            // payload is delivered through the task's own completion state.
            let _ = catch_unwind(AssertUnwindSafe(|| super::with_thread_count(1, task)));
        }
    }

    /// Kept only for perfbench; remove in the next benchmark PR. Returns
    /// immediately.
    pub fn drain() {}

    /// Shared countdown for one scoped fan-out.
    struct ScopedJob {
        /// The caller's body, lifetime-erased; valid until `remaining`
        /// reaches zero, which [`run_scoped`] awaits before returning.
        body: &'static (dyn Fn() + Sync),
        remaining: AtomicUsize,
        /// First panic payload raised by a pool-side copy of the body.
        panic: Mutex<Option<Box<dyn Any + Send>>>,
        cv: Condvar,
    }

    /// Runs `body` on `extra` pool workers *and* the calling thread,
    /// returning only after every copy has finished. Pool-side panics are
    /// re-raised here; a panic in the caller's own copy still waits for the
    /// workers before unwinding (so the erased borrows can never dangle).
    ///
    /// The caller always participates, so progress is guaranteed even if
    /// every pool worker is busy with earlier work.
    pub(crate) fn run_scoped(extra: usize, body: &(dyn Fn() + Sync)) {
        if extra == 0 {
            body();
            return;
        }
        ensure_workers(extra);
        // SAFETY: the guard below keeps this frame alive (even through an
        // unwinding caller) until `remaining` hits zero, i.e. until no task
        // can touch `body` again.
        let body_static: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(body) };
        let job = Arc::new(ScopedJob {
            body: body_static,
            remaining: AtomicUsize::new(extra),
            panic: Mutex::new(None),
            cv: Condvar::new(),
        });
        let p = pool();
        {
            let mut q = lock_queue(p);
            for _ in 0..extra {
                let job = Arc::clone(&job);
                q.push_back(Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(job.body)) {
                        let mut g = job.panic.lock().unwrap_or_else(PoisonError::into_inner);
                        g.get_or_insert(payload);
                    }
                    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // Pair the notify with the wait-side mutex so the
                        // caller cannot miss the final wakeup.
                        let _g = job.panic.lock().unwrap_or_else(PoisonError::into_inner);
                        job.cv.notify_all();
                    }
                }));
            }
            p.available.notify_all();
        }
        struct WaitGuard<'a>(&'a ScopedJob);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                let mut g = self.0.panic.lock().unwrap_or_else(PoisonError::into_inner);
                while self.0.remaining.load(Ordering::Acquire) > 0 {
                    g = self.0.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        {
            let _wait = WaitGuard(&job);
            body();
        }
        let payload = job.panic.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Number of persistent workers currently alive (test/metrics hook).
    pub fn worker_count() -> usize {
        pool().workers.load(Ordering::Relaxed)
    }
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// With an effective thread count of 1 (or `n <= 1`) this is exactly
/// `(0..n).map(f).collect()` on the calling thread. Otherwise the calling
/// thread plus `threads - 1` persistent [`pool`] workers claim chunks of the
/// index range from an atomic cursor; each participant evaluates its indices
/// locally and the results are sorted back into index order before
/// returning. `f` must therefore be safe to call from any thread and — for
/// deterministic callers — depend only on its index.
///
/// A panic in `f` propagates to the caller once every participant has
/// stopped.
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
        // Every participant (pool workers and the caller itself) runs
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
    pool::run_scoped(threads - 1, &body);
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

    #[test]
    fn pool_workers_persist_across_calls() {
        // Two calls; the pool must not grow past what the first one needed.
        let _ = with_thread_count(3, || par_map(64, |i| i * 2));
        let after_first = pool::worker_count();
        assert!(after_first >= 2, "first call should have spawned workers");
        let _ = with_thread_count(3, || par_map(64, |i| i * 2));
        // Other tests run concurrently and may grow the pool, so only check
        // this call didn't need more than the process-wide maximum implies.
        assert!(pool::worker_count() >= after_first);
    }

    #[test]
    fn par_map_panic_propagates_and_pool_survives() {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_thread_count(4, || {
                par_map(64, |i| {
                    if i == 33 {
                        panic!("shard boom");
                    }
                    i
                })
            })
        }));
        assert!(err.is_err(), "par_map must propagate worker panics");
        let seq: Vec<usize> = (0..100).collect();
        assert_eq!(with_thread_count(4, || par_map(100, |i| i)), seq);
    }
}
