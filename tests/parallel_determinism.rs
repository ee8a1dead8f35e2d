//! Determinism of the parallel trial harness: for any seed and any worker
//! count, `finite_success` / `compact_success` must produce **byte-identical**
//! `SuccessReport`s (successes, trials, and the rounds vector in trial
//! order) — the property that makes `goc_core::par` a pure speedup.
//!
//! Thread counts are pinned with `par::with_thread_count`, which overrides
//! `GOC_THREADS` per test thread, so this property holds regardless of the
//! environment ci.sh runs the suite under.

use goc_core::harness::{compact_success, finite_success, SuccessReport};
use goc_core::par::with_thread_count;
use goc_core::sensing::Deadline;
use goc_core::strategy::{BoxedServer, BoxedUser};
use goc_core::toy;
use goc_core::universal::{CompactUniversalUser, LevinUniversalUser};
use goc_testkit::{check, gens, prop_assert_eq};

fn finite_report(seed: u64, trials: u32, threads: usize) -> SuccessReport {
    let goal = toy::MagicWordGoal::new("hi");
    let server = || Box::new(toy::RelayServer::with_shift(2)) as BoxedServer;
    // A universal user per trial: exercises the Levin schedule's switches
    // under the parallel harness, not just plain strategies.
    let user = || {
        Box::new(LevinUniversalUser::new(
            Box::new(toy::caesar_class("hi", 8, false)),
            Box::new(toy::ack_sensing()),
            8,
        )) as BoxedUser
    };
    with_thread_count(threads, || {
        finite_success(&goal, &server, &user, trials, 20_000, seed)
    })
}

fn compact_report(seed: u64, trials: u32, threads: usize) -> SuccessReport {
    let goal = toy::CompactMagicWordGoal::new("hi", 16);
    let server = || Box::new(toy::RelayServer::with_shift(3)) as BoxedServer;
    let user = || {
        Box::new(CompactUniversalUser::new(
            Box::new(toy::caesar_class("hi", 8, true)),
            Box::new(Deadline::new(toy::ack_sensing(), 8)),
        )) as BoxedUser
    };
    with_thread_count(threads, || {
        compact_success(&goal, &server, &user, trials, 4_000, 400, seed)
    })
}

#[test]
fn finite_success_is_thread_count_invariant() {
    check(
        "finite_success_is_thread_count_invariant",
        gens::tuple2(gens::any_u64(), gens::u64_in(1, 6)),
        |&(seed, trials)| {
            let sequential = finite_report(seed, trials as u32, 1);
            let parallel = finite_report(seed, trials as u32, 4);
            prop_assert_eq!(&sequential, &parallel, "seed {seed}");
            prop_assert_eq!(sequential.trials, trials as u32);
            Ok(())
        },
    );
}

#[test]
fn compact_success_is_thread_count_invariant() {
    check(
        "compact_success_is_thread_count_invariant",
        gens::tuple2(gens::any_u64(), gens::u64_in(1, 6)),
        |&(seed, trials)| {
            let sequential = compact_report(seed, trials as u32, 1);
            let parallel = compact_report(seed, trials as u32, 4);
            prop_assert_eq!(&sequential, &parallel, "seed {seed}");
            Ok(())
        },
    );
}

/// Thread counts beyond the trial count (and odd counts that don't divide
/// it) change nothing either.
#[test]
fn oversubscribed_and_odd_thread_counts_match() {
    let baseline = finite_report(0xfeed, 5, 1);
    for threads in [2usize, 3, 7, 16] {
        assert_eq!(finite_report(0xfeed, 5, threads), baseline, "threads {threads}");
    }
}
