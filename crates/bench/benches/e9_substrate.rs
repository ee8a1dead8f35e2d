//! E9 — substrate throughput: synchronous-execution rounds/s and VM
//! instructions/s.

use goc_bench::experiments as exp;
use goc_testkit::bench::Bench;

fn main() {
    let mut g = Bench::group("e9_substrate").min_samples(20);
    for rounds in [1_000u64, 10_000] {
        g.bench_elems(format!("exec_rounds/{rounds}"), rounds, || exp::e9_exec_rounds(rounds));
    }
    g.bench_elems("vm_instructions_10k_rounds", 10_000 * 256, || {
        exp::e9_vm_instructions(10_000)
    });
    g.finish();
}
