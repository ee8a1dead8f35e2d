//! E13 — the zero-copy round loop, measured end to end.
//!
//! Two measurements, both over the E1 printing class with a spilled
//! (48-byte) document so the message pool is actually exercised:
//!
//! - **Settle wall-clock** (`settle12@t1`/`@t4`): the compact universal user
//!   conquering all 12 dialects with pooled copy-on-write buffers, the path
//!   that ships, run through the parallel engine at 1 and 4 threads.
//!   `ci.sh` divides the `@t1` row's fastest sample by that of
//!   `e9_substrate/exec_rounds/10000` recorded just before it, and gates
//!   the median of five such ratios against the newest committed
//!   `BENCH_*.json`'s.
//! - **Steady-state allocations**: a warmed informed-user loop batched by
//!   [`exp::E13_STEADY_BATCH`] rounds, pooled vs unpooled. With the
//!   `count-allocs` feature the harness records allocations per iteration;
//!   the pooled variant must record **zero** (gated by `ci.sh`).
//!   `steady_run` drives the same pooled batch through `run_for`, whose
//!   returned transcript shares the history; it must record zero as well,
//!   so a transcript that copies the history fails the same gate.

use goc_bench::experiments as exp;
use goc_core::buf::with_pool;
use goc_core::par::with_thread_count;
use goc_testkit::bench::{Bench, BenchMeta};

/// Horizon for the settle arms: past every dialect's settle round (the
/// slowest settles at 1851, and the compact verdict needs a clean
/// `horizon/10` tail after it) but not so far past it that the settled
/// tails drown out the switching-phase work.
const SETTLE_HORIZON: u64 = 2_400;

fn main() {
    let mut g = Bench::group("e13_zero_copy").min_samples(20);
    for threads in [1usize, 4] {
        let meta = BenchMeta { threads: Some(threads as u64), ..BenchMeta::default() };
        g.bench_tagged(format!("settle12@t{threads}"), meta, || {
            with_thread_count(threads, || exp::e13_settle12(SETTLE_HORIZON))
        });
    }

    // Steady state: one `SteadyLoop` per variant, warmed by its
    // constructor; each iteration is one batch of rounds. Pooling is
    // thread-local, so the override wraps the batch itself.
    let mut pooled = exp::SteadyLoop::new();
    g.bench_tagged(
        "steady_pooled",
        BenchMeta { elems: Some(exp::E13_STEADY_BATCH), ..BenchMeta::default() },
        move || with_pool(true, || pooled.step_batch()),
    );
    let mut run = exp::SteadyLoop::new();
    g.bench_tagged(
        "steady_run",
        BenchMeta { elems: Some(exp::E13_STEADY_BATCH), ..BenchMeta::default() },
        move || with_pool(true, || run.run_batch()),
    );
    let mut unpooled = exp::SteadyLoop::new();
    g.bench_tagged(
        "steady_unpooled",
        BenchMeta { elems: Some(exp::E13_STEADY_BATCH), ..BenchMeta::default() },
        move || with_pool(false, || unpooled.step_batch()),
    );
    g.finish();
}
