//! E13 — the zero-copy round loop, measured end to end.
//!
//! Two comparisons, both over the E1 printing class with a spilled
//! (48-byte) document so the message pool is actually exercised:
//!
//! - **Settle wall-clock**: the compact universal user conquering all 12
//!   dialects under `Resume` + pooled copy-on-write buffers (the optimised
//!   path) against `Replay` + eager value-semantics copies — an honest
//!   reproduction of the pre-zero-copy engine, whose `Vec<u8>` messages
//!   deep-copied on every channel hand-off and view append, and whose
//!   revisits re-fed each candidate's full history (O(i²) stepped rounds,
//!   which `Resume` replaces with an O(1) suspend/take). Both arms compute
//!   bit-identical settle rounds. The `@t1`/`@t4` variants run the 12 trials
//!   through the parallel engine.
//! - **Steady-state allocations**: a warmed informed-user loop batched by
//!   [`exp::E13_STEADY_BATCH`] rounds, pooled vs unpooled. With the
//!   `count-allocs` feature the harness records allocations per iteration;
//!   the pooled variant must record **zero** (gated by `ci.sh`).
//!   `steady_run` drives the same pooled batch through `run_for`, whose
//!   returned transcript shares the history; it must record zero as well,
//!   so a transcript that copies the history fails the same gate.

use goc_bench::experiments as exp;
use goc_core::buf::{with_pool, CopyMode};
use goc_core::par::with_thread_count;
use goc_core::prelude::ResumePolicy;
use goc_testkit::bench::{Bench, BenchMeta};

/// Horizon for the settle arms: past every dialect's settle round (the
/// slowest settles at 1851, and the compact verdict needs a clean
/// `horizon/10` tail after it) but not so far past it that the identical
/// settled tails drown out the switching-phase work being compared. At this
/// horizon the eager-replay arm measures ~4x the pooled-resume arm at `t1`
/// (the CI gate requires >= 2x).
const SETTLE_HORIZON: u64 = 2_400;

fn main() {
    let mut g = Bench::group("e13_zero_copy").samples(10);
    for threads in [1usize, 4] {
        let meta = || BenchMeta { threads: Some(threads as u64), ..BenchMeta::default() };
        g.bench_tagged(format!("settle12_replay_eager@t{threads}"), meta(), || {
            with_thread_count(threads, || {
                exp::e13_settle12(ResumePolicy::Replay, CopyMode::Eager, SETTLE_HORIZON)
            })
        });
        g.bench_tagged(format!("settle12_resume_pooled@t{threads}"), meta(), || {
            with_thread_count(threads, || {
                exp::e13_settle12(ResumePolicy::Resume, CopyMode::Pooled, SETTLE_HORIZON)
            })
        });
    }

    // Steady state: one `SteadyLoop` per variant, warmed by its
    // constructor; each iteration is one batch of rounds. Pooling is
    // thread-local, so the override wraps the batch itself.
    let mut pooled = exp::SteadyLoop::new();
    g.bench_tagged(
        "steady_pooled",
        BenchMeta { elems: Some(exp::E13_STEADY_BATCH), ..BenchMeta::default() },
        move || with_pool(true, || pooled.batch()),
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
        move || with_pool(false, || unpooled.batch()),
    );
    g.finish();
}
