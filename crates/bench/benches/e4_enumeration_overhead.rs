//! E4 — enumeration overhead as a function of the viable strategy's index:
//! compact/triangular (polynomial) vs finite/classic-Levin (exponential).
//! Includes the parallel trial-harness variants (`@tN` = N worker threads)
//! and the compact user's triangular revisits over the deduped VM program
//! class.

use goc_bench::experiments as exp;
use goc_core::par::with_thread_count;
use goc_testkit::bench::{Bench, BenchMeta};

fn main() {
    let mut g = Bench::group("e4_enumeration_overhead").samples(10);
    for idx in [2usize, 8, 16] {
        g.bench(format!("compact_planted/{idx}"), || exp::e4_compact_settle(idx, 24));
    }
    for shift in [2u8, 6, 10] {
        g.bench(format!("levin_index/{shift}"), || exp::e4_levin_rounds(shift));
    }
    for threads in [1usize, 4] {
        g.bench_tagged(
            format!("compact_trials8/16@t{threads}"),
            BenchMeta { threads: Some(threads as u64), ..BenchMeta::default() },
            || with_thread_count(threads, || exp::e4_compact_report(16, 24, 8)),
        );
    }
    g.bench("vm_compact_triangular", exp::e4_vm_compact_settle);
    g.finish();
}
