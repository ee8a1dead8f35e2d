//! E16 — the predecoded scalar core (one `match` over decoded slots),
//! measured three ways against the `round_match` spec. The ids and the
//! `table` tag name the fast core after the handler table it replaced, so
//! snapshots compare like for like.
//!
//! The micro pair times the raw interpreter loop: `e9_vm_instructions` over
//! 10k rounds of the busy `inc/emit/jmp` program, once on the spec's
//! decode-as-you-go `match` loop (mounted with
//! [`goc_vm::dispatch::with_dispatch`]`(false, ..)`) and once on the fast
//! core. That loop writes a register and an outbox, so it is not a
//! pure-jump cycle and prices the predecode alone. `ci.sh` gates the fast
//! arm at >= 1.3x the match median.
//!
//! The burner pair prices the spin fast-forward alone: 10k rounds of the
//! pure burner `jmp +0` at fuel 4096, which the fast core retires in one
//! step per round and the `match` loop walks `jmp` by `jmp`. No gate.
//!
//! The settle pair times the same axis end to end on a finite-Levin
//! workload over fuel-burning VM programs, so every candidate round runs the
//! core under comparison. Its burners are self-jumps, so the pair prices
//! the predecode plus the spin fast-forward together. Both arms compute
//! the identical settle round — only the core differs. `ci.sh` gates the
//! fast arm at >= 2x the match median.
//!
//! Runs at `t1`: both workloads are single conversations; threading only
//! adds scheduler noise to what is purely a dispatch-loop comparison.

use goc_bench::experiments as exp;
use goc_core::par::with_thread_count;
use goc_testkit::bench::{Bench, BenchMeta};
use goc_vm::dispatch::with_dispatch;

fn main() {
    let mut g = Bench::group("e16_dispatch").samples(10);
    let meta = |mode: &'static str| BenchMeta {
        threads: Some(1),
        dispatch: Some(mode),
        ..BenchMeta::default()
    };
    g.bench_tagged("vm_instructions_10k_rounds_match", meta("match"), || {
        with_dispatch(false, || exp::e9_vm_instructions(10_000))
    });
    g.bench_tagged("vm_instructions_10k_rounds_table", meta("table"), || {
        with_dispatch(true, || exp::e9_vm_instructions(10_000))
    });
    g.bench_tagged("vm_burner_10k_rounds_match", meta("match"), || {
        with_dispatch(false, || exp::e16_vm_burner_instructions(10_000))
    });
    g.bench_tagged("vm_burner_10k_rounds_table", meta("table"), || {
        with_dispatch(true, || exp::e16_vm_burner_instructions(10_000))
    });
    g.bench_tagged("levin_settle_dispatch_off@t1", meta("match"), || {
        with_thread_count(1, || exp::e16_levin_dispatch_settle(false))
    });
    g.bench_tagged("levin_settle_dispatch_on@t1", meta("table"), || {
        with_thread_count(1, || exp::e16_levin_dispatch_settle(true))
    });
    g.finish();
}
