//! Determinism of the observability layer (`goc_core::obs`).
//!
//! Two properties, both required by the trace-export contract:
//!
//! 1. **Thread-count invariance.** With recording on, the record stream
//!    and every deterministic metric total produced by a workload are
//!    bit-identical under `GOC_THREADS=1` and `=4` — `par_map` flushes
//!    per-task buffers in index order, and deterministic metrics depend
//!    only on the workload. (Process-scoped metrics — buffer- and
//!    worker-pool effectiveness — are exactly the ones allowed to differ, which is
//!    why `obs::flush_metrics` exports only the deterministic scope.)
//! 2. **Inertness when disabled.** With recording off, the workload's
//!    outputs are identical to a recorded run's, and no metric moves.
//!
//! The obs registry and capture counter are process-global, so every test
//! in this binary serializes on one lock: a concurrent capture in another
//! test would enable recording globally and bump shared counters
//! mid-measurement.

use goc_core::harness::{compact_success, finite_success, SuccessReport};
use goc_core::obs::{self, Record, Scope};
use goc_core::par::with_thread_count;
use goc_core::sensing::Deadline;
use goc_core::strategy::{BoxedServer, BoxedUser};
use goc_core::toy;
use goc_core::universal::{CompactUniversalUser, LevinUniversalUser};
use goc_testkit::{check, gens, prop_assert, prop_assert_eq};
use std::sync::{Mutex, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A workload rich enough to touch every instrumented subsystem the core
/// crate owns: parallel trials (task buffers), `exec.run`/`run_for`
/// spans, and universal-user candidate lifecycle events.
fn workload(seed: u64, trials: u32) -> (SuccessReport, SuccessReport) {
    let finite_goal = toy::MagicWordGoal::new("hi");
    let finite_server = || Box::new(toy::RelayServer::with_shift(2)) as BoxedServer;
    let finite_user = || {
        Box::new(LevinUniversalUser::new(
            Box::new(toy::caesar_class("hi", 8, false)),
            Box::new(toy::ack_sensing()),
            8,
        )) as BoxedUser
    };
    let finite = finite_success(&finite_goal, &finite_server, &finite_user, trials, 8_000, seed);

    let compact_goal = toy::CompactMagicWordGoal::new("hi", 16);
    let compact_server = || Box::new(toy::RelayServer::with_shift(3)) as BoxedServer;
    let compact_user = || {
        Box::new(CompactUniversalUser::new(
            Box::new(toy::caesar_class("hi", 8, true)),
            Box::new(Deadline::new(toy::ack_sensing(), 8)),
        )) as BoxedUser
    };
    let compact =
        compact_success(&compact_goal, &compact_server, &compact_user, trials, 2_000, 400, seed);
    (finite, compact)
}

/// Per-name difference `after - before` of two metric snapshots
/// (counters and histogram fields are monotone, so this is well-defined;
/// names absent from `before` count from zero).
fn delta(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    let old: std::collections::BTreeMap<&str, u64> =
        before.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    after
        .iter()
        .map(|(n, v)| (n.clone(), v - old.get(n.as_str()).copied().unwrap_or(0)))
        .collect()
}

#[test]
fn record_stream_and_deterministic_metrics_are_thread_count_invariant() {
    let _g = serial();
    check(
        "obs_stream_thread_count_invariant",
        gens::tuple2(gens::any_u64(), gens::u64_in(2, 5)),
        |&(seed, trials)| {
            let run = |threads: usize| {
                let before = obs::metrics_snapshot(Some(Scope::Deterministic));
                let (reports, records) =
                    obs::capture(|| with_thread_count(threads, || workload(seed, trials as u32)));
                let after = obs::metrics_snapshot(Some(Scope::Deterministic));
                (reports, records, delta(&before, &after))
            };
            let (rep1, rec1, met1) = run(1);
            let (rep4, rec4, met4) = run(4);
            prop_assert_eq!(&rep1, &rep4, "reports differ at seed {seed}");
            prop_assert_eq!(&rec1, &rec4, "record streams differ at seed {seed}");
            prop_assert_eq!(&met1, &met4, "deterministic metric deltas differ at seed {seed}");

            // The stream actually contains the instrumentation: per-trial
            // task markers in index order, spans, and switch events.
            let tasks: Vec<u64> = rec1
                .iter()
                .filter_map(|r| match r {
                    Record::Task { index } => Some(*index),
                    _ => None,
                })
                .collect();
            // Two fan-outs (finite then compact), `trials` tasks each, all
            // of which record spans — so the markers are exactly two
            // index-ordered segments.
            let expected: Vec<u64> =
                (0..trials).chain(0..trials).collect();
            prop_assert_eq!(&tasks, &expected, "task markers not in per-fan-out index order");
            prop_assert!(
                rec1.iter().any(|r| matches!(r, Record::Enter { name: "exec.run", .. })),
                "missing exec.run span"
            );
            prop_assert!(
                rec1.iter().any(|r| matches!(r, Record::Enter { name: "harness.trial", .. })),
                "missing harness.trial span"
            );
            prop_assert!(
                rec1.iter().any(|r| matches!(r, Record::Event { name: "universal.spawn", .. })),
                "missing candidate lifecycle events"
            );

            // Rendered lines (what GOC_TRACE would write) are identical
            // too — the stronger, byte-level form of the same property.
            let lines1: Vec<String> = rec1.iter().map(obs::render_record).collect();
            let lines4: Vec<String> = rec4.iter().map(obs::render_record).collect();
            prop_assert_eq!(&lines1, &lines4);
            Ok(())
        },
    );
}

#[test]
fn disabled_recorder_is_inert() {
    let _g = serial();
    // GOC_TRACE would turn recording on process-wide; this test's premise
    // is the default-off state.
    if std::env::var("GOC_TRACE").is_ok() {
        return;
    }
    check(
        "obs_disabled_is_inert",
        gens::tuple2(gens::any_u64(), gens::u64_in(1, 4)),
        |&(seed, trials)| {
            prop_assert!(!obs::enabled(), "recorder must be off outside captures");
            let before = obs::metrics_snapshot(None);
            let plain = with_thread_count(4, || workload(seed, trials as u32));
            let after = obs::metrics_snapshot(None);
            prop_assert!(
                delta(&before, &after).iter().all(|(_, d)| *d == 0),
                "metrics moved while disabled"
            );
            // Recording changes no observable output: the same workload
            // under capture yields bit-identical reports.
            let (recorded, records) =
                obs::capture(|| with_thread_count(4, || workload(seed, trials as u32)));
            prop_assert_eq!(&plain, &recorded, "recording perturbed the workload at seed {seed}");
            prop_assert!(!records.is_empty(), "capture recorded nothing");
            Ok(())
        },
    );
}
